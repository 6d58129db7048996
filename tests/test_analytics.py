import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import (
    PurchaseRecord,
    StopEvent,
    VisitVector,
    conversion_rates,
    shelf_stats,
    visit_vector,
)
from shelfscan.analytics import read_purchases
from shelfscan.errors import (
    EmptyInput,
    InconsistentPopulation,
    LengthMismatch,
    ParseError,
    ShelfOutOfRange,
)


def stop(shelf_id, trajectory_id="t", t_s=0.0):
    return StopEvent(
        trajectory_id=trajectory_id, shelf_id=shelf_id,
        t_s=t_s, t_f=t_s + 2.0, duration=2.0, min_lambda=1.0, mean_speed=0.1,
    )


def test_visit_vector_marks_stopped_shelves():
    vec = visit_vector([stop(1), stop(5, t_s=5.0)], n_shelves=19)
    assert sum(vec.bits) == 2
    assert vec.bits[0] == 1 and vec.bits[4] == 1


def test_no_stops_zero_vector():
    vec = visit_vector([], n_shelves=5, trajectory_id="empty")
    assert vec.bits == (0,) * 5
    assert vec.trajectory_id == "empty"


def test_repeat_stops_binarized():
    vec = visit_vector([stop(7, t_s=t) for t in (0.0, 10.0, 20.0)], n_shelves=10)
    assert vec.bits == tuple(1 if j == 7 else 0 for j in range(1, 11))


def test_shelf_out_of_range_rejected():
    with pytest.raises(ShelfOutOfRange):
        visit_vector([stop(20)], n_shelves=19)


def test_shelf_stats_small_example():
    vectors = [VisitVector("a", (1, 0)), VisitVector("b", (1, 1))]
    stats = shelf_stats(vectors)
    assert stats.per_shelf == (1.0, 0.5)
    assert stats.overall_avg_visits == 1.5
    assert stats.n_trips == 2


def test_shelf_stats_empty_rejected():
    with pytest.raises(EmptyInput):
        shelf_stats([])


def test_shelf_stats_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        shelf_stats([VisitVector("a", (1, 0)), VisitVector("b", (1,))])


@given(
    bits=st.lists(
        st.lists(st.integers(0, 1), min_size=6, max_size=6), min_size=1, max_size=60
    ),
)
@settings(max_examples=100, deadline=None)
def test_overall_average_is_sum_of_shelf_averages(bits):
    stats = shelf_stats([VisitVector(f"t{i}", tuple(b)) for i, b in enumerate(bits)])
    assert abs(stats.overall_avg_visits - sum(stats.per_shelf)) < 1e-12


@given(
    bits=st.lists(
        st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=2, max_size=20
    ),
    seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_trajectory_order_is_irrelevant(bits, seed):
    vectors = [VisitVector(f"t{i}", tuple(b)) for i, b in enumerate(bits)]
    rng = np.random.default_rng(seed)
    shuffled = [vectors[i] for i in rng.permutation(len(vectors))]
    assert shelf_stats(vectors).per_shelf == shelf_stats(shuffled).per_shelf
    assert shelf_stats(vectors).overall_avg_visits == shelf_stats(shuffled).overall_avg_visits


def test_conversion_basic_ratio():
    stats = shelf_stats([VisitVector("a", (1, 1)), VisitVector("b", (1, 0))])
    purchases = [PurchaseRecord("a", 1, 1)]  # shelf 1: visit avg 1.0, purchase avg 0.5
    conv = conversion_rates(stats, purchases)
    assert conv.rates[0] == pytest.approx(0.5)


def test_conversion_undefined_when_never_visited():
    stats = shelf_stats([VisitVector("a", (1, 0)), VisitVector("b", (1, 0))])
    conv = conversion_rates(stats, [])
    assert conv.rates[1] is None
    assert conv.rates[0] == 0.0


def test_conversion_can_exceed_one():
    stats = shelf_stats([VisitVector("a", (1,)), VisitVector("b", (0,))])
    conv = conversion_rates(stats, [PurchaseRecord("a", 1, 2), PurchaseRecord("b", 1, 1)])
    assert conv.rates[0] == pytest.approx(3.0)  # 1.5 purchases per trip / 0.5 visits


def test_conversion_duplication_invariant():
    vectors = [VisitVector("a", (1, 0, 1)), VisitVector("b", (0, 0, 1))]
    purchases = [PurchaseRecord("a", 1, 2), PurchaseRecord("b", 3, 1)]
    base = conversion_rates(shelf_stats(vectors), purchases)
    doubled_vectors = vectors + [VisitVector(v.trajectory_id + "+", v.bits) for v in vectors]
    doubled_purchases = purchases + [
        PurchaseRecord(p.trajectory_id + "+", p.shelf_id, p.quantity) for p in purchases
    ]
    doubled = conversion_rates(shelf_stats(doubled_vectors), doubled_purchases)
    for r1, r2 in zip(base.rates, doubled.rates):
        if r1 is None:
            assert r2 is None
        else:
            assert r2 == pytest.approx(r1)


def test_conversion_rejects_foreign_trajectories():
    stats = shelf_stats([VisitVector("a", (1,))])
    with pytest.raises(InconsistentPopulation):
        conversion_rates(stats, [PurchaseRecord("stranger", 1, 1)])


def test_conversion_incidence_mode():
    stats = shelf_stats([VisitVector("a", (1,)), VisitVector("b", (1,))])
    purchases = [PurchaseRecord("a", 1, 5), PurchaseRecord("a", 1, 2)]
    by_quantity = conversion_rates(stats, purchases)
    by_incidence = conversion_rates(stats, purchases, incidence=True)
    assert by_quantity.purchase_avg[0] == pytest.approx(3.5)
    assert by_incidence.purchase_avg[0] == pytest.approx(0.5)


def test_read_purchases_csv(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("trajectory_id,shelf_id,quantity\na,1,2\nb,3,0\n")
    records = read_purchases(path)
    assert records == [PurchaseRecord("a", 1, 2), PurchaseRecord("b", 3, 0)]


def test_a_purchases_csv_with_a_bom_reads_as_without_it(tmp_path):
    plain, bom = tmp_path / "p.csv", tmp_path / "bom.csv"
    plain.write_bytes(b"trajectory_id,shelf_id,quantity\na,1,2\nb,3,0\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_purchases(bom) == read_purchases(plain) == [PurchaseRecord("a", 1, 2), PurchaseRecord("b", 3, 0)]


def test_a_bad_byte_in_a_purchases_csv_with_a_bom_names_its_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"\xef\xbb\xbftrajectory_id,shelf_id,quantity\na\xff,1,2\n")
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}:2: bad purchase record: ")):
        read_purchases(path)


def test_read_purchases_requires_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("traj,shelf\na,1\n")
    with pytest.raises(ParseError):
        read_purchases(path)



def test_a_bad_purchase_row_after_a_quoted_newline_names_its_own_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text('trajectory_id,shelf_id,quantity\n"a\nb",1,2\nc,one,1\n')
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}:4: bad purchase record: ValueError(")):
        read_purchases(path)
