"""Event-driven simulator tests: makespans, wavefront timing, determinism."""

import pytest

from wavesched import engine, policies
from wavesched.analysis import analytic_wavefront_makespan, reference_simulate
from wavesched.platform import CoreType, Platform, default_platform
from wavesched.workload import WorkloadSpec, effective_cost
from wavesched.wpp_graph import GridDims, Phase

PLAT = default_platform()
# One identical core per row of the default grid, for pure wavefront timing.
WIDE_PLAT = Platform(
    clusters=((CoreType("core", 2.0, 1000.0, 1.0, 0.1), 17),), base_power_w=1.0
)
T_CTU = 0.1  # 100 wu on a 1000 wu/s core


def _config(dims, kind="big-os", threads=1, *, mean=100.0, phi=0.0,
            frames=1, overhead=0.0, sigma=None, seed=0, simd=False,
            platform=PLAT):
    if sigma is None:
        workload = WorkloadSpec(kind="uniform", mean_wu=mean, filter_fraction=phi)
    else:
        workload = WorkloadSpec(
            kind="lognormal", mean_wu=mean, sigma=sigma, seed=seed,
            filter_fraction=phi,
        )
    return engine.SimConfig(
        dims=dims,
        frames=frames,
        workload=workload,
        platform=platform,
        policy=policies.PolicySpec(
            kind=kind, threads=threads, migration_overhead_s=overhead
        ),
        simd=simd,
    )


# --- config validation ----------------------------------------------------------


def test_config_rejects_zero_frames():
    with pytest.raises(ValueError):
        _config(GridDims(2, 2), frames=0)


# --- makespans on uniform costs ---------------------------------------------------


def test_single_ctu_frame():
    _, rep = engine.simulate(_config(GridDims(1, 1)))
    assert rep.wall_time_s == pytest.approx(T_CTU, rel=1e-12)
    assert rep.fps == pytest.approx(10.0, rel=1e-12)


def test_two_rows_three_cols_two_cores():
    """The lower row self-corrects behind the upper one: 5 CTU times total."""
    cfg = _config(GridDims(2, 3), threads=2)
    _, rep = engine.simulate(cfg)
    assert rep.wall_time_s == pytest.approx(5 * T_CTU, rel=1e-12)
    mk, _ = reference_simulate(cfg)
    assert rep.wall_time_s == pytest.approx(mk, rel=1e-9)


def test_full_grid_with_thread_per_row():
    cfg = _config(GridDims(17, 30), threads=17, platform=WIDE_PLAT)
    _, rep = engine.simulate(cfg)
    assert rep.wall_time_s == pytest.approx(62 * T_CTU, rel=1e-12)
    assert rep.wall_time_s == pytest.approx(
        analytic_wavefront_makespan(GridDims(17, 30), T_CTU), rel=1e-12
    )


def test_single_column_grid_is_a_row_chain():
    cfg = _config(GridDims(4, 1), threads=4)
    _, rep = engine.simulate(cfg)
    assert rep.wall_time_s == pytest.approx(4 * T_CTU, rel=1e-12)


def test_row_starts_follow_the_wavefront():
    """Row i starts at 2i CTU times, when min(2i, cols) top-row CTUs are done."""
    trace, _ = engine.simulate(
        _config(GridDims(17, 30), threads=17, platform=WIDE_PLAT)
    )
    for i in (3, 7):
        start_idx, start_time = next(
            (k, ev.time_s)
            for k, ev in enumerate(trace)
            if ev.kind == "CtuStart" and ev.task is not None
            and ev.task.row == i and ev.task.col == 0
        )
        assert start_time == pytest.approx(2 * i * T_CTU, rel=1e-12)
        done_row0 = sum(
            1
            for ev in trace[:start_idx]
            if ev.kind == "CtuComplete" and ev.task is not None and ev.task.row == 0
        )
        assert done_row0 == min(2 * i, 30)


# --- determinism and conservation ---------------------------------------------------


def test_identical_traces_across_runs():
    cfg = _config(
        GridDims(9, 12), kind="affinity", threads=8,
        phi=0.15, frames=2, overhead=100e-6, sigma=0.6, seed=11,
    )
    trace_a, _ = engine.simulate(cfg)
    trace_b, _ = engine.simulate(cfg)
    assert trace_a == trace_b


def test_work_conservation_without_overhead():
    cfg = _config(
        GridDims(9, 12), kind="affinity", threads=6,
        phi=0.15, frames=2, sigma=0.5, seed=4,
    )
    _, rep = engine.simulate(cfg)
    busy_wu = sum(
        rep.core_active_s[c] * PLAT.cores[c].speed_wu_per_s
        for c in rep.core_active_s
    )
    total_wu = sum(m.recon_total() + m.filter_total() for m in cfg.cost_models())
    assert busy_wu == pytest.approx(total_wu, rel=1e-9)


def test_simd_scales_serial_makespan_exactly():
    plain = engine.simulate(_config(GridDims(5, 8), phi=0.15))[1]
    simd = engine.simulate(_config(GridDims(5, 8), phi=0.15, simd=True))[1]
    spec = WorkloadSpec(kind="uniform", mean_wu=100.0)
    factor = effective_cost(1.0, True, spec.vector_fraction, spec.vector_speedup)
    assert simd.wall_time_s == pytest.approx(plain.wall_time_s * factor, rel=1e-12)


def test_affinity_capacity_monotone_on_uniform_costs():
    for overhead in (0.0, 100e-6):
        walls = []
        for n in range(1, 9):
            cfg = _config(
                GridDims(17, 30), kind="affinity", threads=n, overhead=overhead
            )
            walls.append(engine.simulate(cfg)[1].wall_time_s)
        for lo, hi in zip(walls[1:], walls[:-1]):
            assert lo <= hi + 1e-12


def test_static_four_matches_big_os_four():
    a = engine.simulate(_config(GridDims(9, 12), kind="big-os", threads=4, phi=0.15))[1]
    b = engine.simulate(_config(GridDims(9, 12), kind="static", threads=4, phi=0.15))[1]
    assert a.wall_time_s == b.wall_time_s


# --- trace structure ------------------------------------------------------------


def test_trace_event_accounting():
    dims = GridDims(3, 4)
    frames = 2
    cfg = _config(dims, kind="affinity", threads=3, phi=0.15, frames=frames,
                  sigma=0.4, seed=2)
    trace, rep = engine.simulate(cfg)
    assert trace[-1].kind == "FrameComplete"
    by_kind = {}
    for ev in trace:
        by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
    assert by_kind["FrameComplete"] == frames
    assert by_kind["BarrierReached"] == frames
    assert by_kind["RowComplete"] == dims.rows * frames
    assert by_kind["CtuComplete"] == 4 * dims.n_ctus * frames
    assert by_kind["CtuComplete"] == by_kind["CtuStart"]
    assert rep.frames == frames


def test_completions_cover_every_task_once():
    dims = GridDims(4, 5)
    cfg = _config(dims, kind="affinity", threads=4, phi=0.15, sigma=0.5, seed=9)
    trace, _ = engine.simulate(cfg)
    seen = [ev.task for ev in trace if ev.kind == "CtuComplete"]
    assert len(seen) == len(set(seen)) == 4 * dims.n_ctus


def test_migrations_counted_for_affinity():
    cfg = _config(GridDims(17, 30), kind="affinity", threads=8, phi=0.15,
                  overhead=100e-6, sigma=0.4, seed=7)
    _, rep = engine.simulate(cfg)
    assert rep.migrations > 0
    for kind in ("big-os", "little", "static"):
        cfg = _config(GridDims(9, 12), kind=kind, threads=4, phi=0.15)
        _, rep = engine.simulate(cfg)
        assert rep.migrations == 0


# --- errors and sweep harness -----------------------------------------------------


class RowHoarder(policies.BigOnlyOs):
    """Takes no next row and never parks: every thread ends its first row
    with nothing to run, so the frame deadlocks."""

    def on_row_complete(self, state, thread):
        return []


def test_deadlock_error_shape(monkeypatch):
    monkeypatch.setattr(engine, "make_policy", lambda kind: RowHoarder())
    with pytest.raises(engine.DeadlockError) as info:
        engine.simulate(_config(GridDims(3, 4), threads=2))
    err = info.value
    assert isinstance(err, RuntimeError)
    assert err.blocked == [
        "thread 0: core=0 row=None col=3 job=None",
        "thread 1: core=1 row=None col=3 job=None",
        "recon done 8/12",
    ]
    assert str(err).startswith("no runnable thread at t=0.")


def test_run_sweep_isolates_failing_cells():
    base = _config(GridDims(3, 4), phi=0.15)
    results = engine.run_sweep(base, [1, 9], ["big-os", "static"])
    assert isinstance(results[("static", 9, False)], ValueError)
    ok = results[("big-os", 1, False)]
    assert ok.fps > 0
    assert set(results) == {
        ("big-os", 1, False), ("big-os", 9, False),
        ("static", 1, False), ("static", 9, False),
    }


def test_run_sweep_rejects_empty_axes():
    base = _config(GridDims(2, 2))
    with pytest.raises(ValueError):
        engine.run_sweep(base, [], ["big-os"])
    with pytest.raises(ValueError):
        engine.run_sweep(base, [1], [])
