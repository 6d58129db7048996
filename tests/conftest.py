import numpy as np
import pytest

from shelfscan import (
    DT,
    Segment2D,
    Shelf,
    StoreLayout,
    Trajectory,
    wrap_angle,
)


@pytest.fixture
def single_shelf_layout():
    """Shelf 1 spanning (0,0)-(2,0), facing +y; nothing else in the store."""
    return StoreLayout(
        store_id="unit",
        shelves=(Shelf(id=1, face=Segment2D((0.0, 0.0), (2.0, 0.0)), normal=(0.0, 1.0)),),
    )


def make_trajectory(positions, thetas, trajectory_id="t", store_id="unit", t0=0.0):
    """Trajectory from parallel position/theta sequences at the 10 Hz step."""
    thetas = np.asarray(thetas, dtype=float)
    return Trajectory(
        trajectory_id, store_id, t0 + np.arange(len(thetas)) * DT,
        np.asarray(positions, dtype=float).reshape(-1, 2), wrap_angle(thetas),
    )


def standing_trajectory(point, theta, n_samples, trajectory_id="t", store_id="unit"):
    return make_trajectory(
        [point] * n_samples, [theta] * n_samples,
        trajectory_id=trajectory_id, store_id=store_id,
    )


def rotate_point(p, angle, offset=(0.0, 0.0)):
    c, s = np.cos(angle), np.sin(angle)
    return (c * p[0] - s * p[1] + offset[0], s * p[0] + c * p[1] + offset[1])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    name = getattr(getattr(item, "function", None), "_criterion", None)
    if name is not None and report.when == "call":
        print(f"\nACCEPTANCE {name}: {'PASS' if report.passed else 'FAIL'}", flush=True)
