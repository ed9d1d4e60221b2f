"""Shared fixtures: one calibration and one corridor panel per session.

The corridor protocol used by the acceptance tests is pinned here: the
default 17x30 grid, lognormal costs at the default sigma with seed 7,
four frames, calibrated workload scale and platform, default migration
overhead. Several suites read from the same panel, so it is built once.

Property tests run under one fixed-seed `hypothesis` profile, so every run
draws the same examples and writes no example database.
"""

import pytest
from hypothesis import settings

from wavesched import engine, policies
from wavesched import platform as platform_mod
from wavesched.workload import WorkloadSpec
from wavesched.wpp_graph import GridDims

ACCEPT_DIMS = GridDims(17, 30)
ACCEPT_FILTER_FRACTION = 0.15
ACCEPT_SIGMA = 0.4
ACCEPT_SEED = 7
ACCEPT_FRAMES = 4

settings.register_profile("wavesched", derandomize=True, database=None, deadline=None)
settings.load_profile("wavesched")

PANEL_CELLS = tuple(
    [("big-os", n, False) for n in range(1, 9)]
    + [("static", n, False) for n in range(5, 9)]
    + [("little", 4, False)]
    + [("affinity", n, False) for n in (1, 4, 5, 6, 7, 8)]
    + [("affinity", 1, True), ("affinity", 8, True)]
)


@pytest.fixture(scope="session")
def calib():
    """Calibration against the shipped reference targets."""
    return platform_mod.calibrate(ACCEPT_DIMS, ACCEPT_FILTER_FRACTION)


@pytest.fixture(scope="session")
def panel(calib):
    """Corridor panel: reports for every (policy, threads, simd) cell."""
    workload = WorkloadSpec(
        kind="lognormal",
        mean_wu=calib.mean_wu,
        sigma=ACCEPT_SIGMA,
        seed=ACCEPT_SEED,
        filter_fraction=ACCEPT_FILTER_FRACTION,
    )
    reports = {}
    for kind, threads, simd in PANEL_CELLS:
        cfg = engine.SimConfig(
            dims=ACCEPT_DIMS,
            frames=ACCEPT_FRAMES,
            workload=workload,
            platform=calib.platform,
            policy=policies.PolicySpec(kind=kind, threads=threads),
            simd=simd,
        )
        _, reports[(kind, threads, simd)] = engine.simulate(cfg)
    return reports
