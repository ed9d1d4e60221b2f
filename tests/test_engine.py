"""Event-driven simulator tests: makespans, wavefront timing, determinism."""

from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavesched import engine, policies
from wavesched.analysis import analytic_wavefront_makespan, reference_simulate
from wavesched.platform import CoreType, Platform, default_platform
from wavesched.workload import WorkloadSpec, effective_cost
from wavesched.wpp_graph import GridDims, Phase

PLAT = default_platform()
# One identical core per row of the default grid, for pure wavefront timing.
WIDE_PLAT = Platform(
    clusters=((CoreType("core", 1000.0, 1.0, 0.1), 17),), base_power_w=1.0
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
    factor = effective_cost(1.0, True)
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


# --- schedule identity ----------------------------------------------------------

# Cluster speeds: drawn with repeats, so equal-speed fast clusters and slow
# clusters listed first both occur.
_SPEEDS = (1000.0, 700.0, 1000.0 / 2.24)
_CLUSTERS = st.lists(st.tuples(st.sampled_from(_SPEEDS), st.integers(1, 3)),
                     min_size=1, max_size=3)


def _clustered(clusters, kappa):
    return Platform(
        clusters=tuple((CoreType(f"c{i}", speed, 1.0, 0.1), n)
                       for i, (speed, n) in enumerate(clusters)),
        base_power_w=1.0, memory_contention=kappa,
    )


def _trace(kind, threads, plat, rows, cols, frames, overhead, sigma, simd):
    cfg = _config(GridDims(rows, cols), kind, threads, phi=0.15, frames=frames,
                  overhead=overhead, sigma=sigma, seed=5, simd=simd, platform=plat)
    assert policies.schedule_of(cfg.policy, plat) == (
        "big-os" if threads <= len(plat.big_ids) else kind)
    return engine.simulate(cfg)[0]


_IDENTITY_AXES = dict(
    kappa=st.floats(0.0, 0.3), simd=st.booleans(), overhead=st.sampled_from([0.0, 100e-6]),
    sigma=st.sampled_from([None, 0.6]), frames=st.integers(1, 2),
    rows=st.integers(1, 6), cols=st.integers(1, 8),
)


@settings(max_examples=200)
@given(clusters=_CLUSTERS, pick=st.integers(0, 8), **_IDENTITY_AXES)
@example(clusters=[(700.0, 2), (1000.0, 2), (1000.0, 1)], pick=2, kappa=0.09, simd=True,
         overhead=100e-6, sigma=0.6, frames=2, rows=6, cols=8)
def test_pinned_policies_trace_big_os_up_to_the_fast_core_count(
        clusters, pick, kappa, simd, overhead, sigma, frames, rows, cols):
    """With threads <= fast cores, `static` and `affinity` produce big-os's
    trace event for event: the identity `simulate_cells` shares results by."""
    plat = _clustered(clusters, kappa)
    threads = 1 + pick % len(plat.big_ids)
    axes = (plat, rows, cols, frames, overhead, sigma, simd)
    want = _trace("big-os", threads, *axes)
    assert _trace("static", threads, *axes) == want
    assert _trace("affinity", threads, *axes) == want


@given(clusters=_CLUSTERS, **_IDENTITY_AXES)
def test_affinity_leaves_big_os_one_thread_past_the_fast_cores(
        clusters, kappa, simd, overhead, sigma, frames, rows, cols):
    """Negative control: the extra thread starts on a slow core, not doubled
    up on a fast one, so the traces differ."""
    plat = _clustered(clusters, kappa)
    assume(plat.little_ids)
    threads = len(plat.big_ids) + 1
    axes = (plat, max(rows, threads), cols, frames, overhead, sigma, simd)
    assert _trace("affinity", threads, *axes) != _trace("big-os", threads, *axes)


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


@pytest.mark.parametrize("threads", [6, 7, 8])
@pytest.mark.parametrize("dims", [GridDims(9, 5), GridDims(17, 30)], ids=["9x5", "17x30"])
def test_zero_overhead_move_matches_a_vanishing_overhead(dims, threads):
    """A thread moved without overhead that then stalls logs ThreadIdle, so
    its new core is not counted active while it waits: overhead 0 reads as
    the limit of a tiny overhead. Once it read up to 34% of wall more active
    time on one core, and 2.3% more energy per frame."""
    def run(overhead):
        return engine.simulate(_config(dims, kind="affinity", threads=threads, phi=0.15,
                                       frames=2, overhead=overhead, sigma=0.4, seed=7))[1]

    zero, tiny = run(0.0), run(1e-9)
    assert zero.epf_j == pytest.approx(tiny.epf_j, rel=1e-5)
    for core, active_s in tiny.core_active_s.items():
        assert abs(zero.core_active_s[core] - active_s) <= 0.01 * tiny.wall_time_s


# --- errors and sweep harness -----------------------------------------------------


class RowHoarder(policies.BigOnlyOs):
    """Takes no next row and never parks: every thread ends its first row
    with nothing to run, so the frame deadlocks."""

    def on_row_complete(self, state, thread):
        return []


class RowSkipper(policies.BigOnlyOs):
    """Skips a row: whoever finishes first takes the row below the next one,
    whose first CTU waits on the skipped row, which nobody takes; the other
    thread parks."""

    def on_row_complete(self, state, thread):
        row = state.next_row + 1
        return [policies.TakeRow(row)] if row < state.dims.rows else [policies.Idle()]


def _blocked(monkeypatch, policy, dims):
    monkeypatch.setattr(engine, "make_policy", lambda kind: policy())
    with pytest.raises(engine.DeadlockError) as info:
        engine.simulate(_config(dims, threads=2))
    err = info.value
    assert isinstance(err, RuntimeError)
    assert str(err).startswith("no runnable thread at t=0.")
    return err.blocked


def test_deadlock_error_shape(monkeypatch):
    assert _blocked(monkeypatch, RowHoarder, GridDims(3, 4)) == [
        "thread 0: core=0 row=None col=3 waits=no row",
        "thread 1: core=1 row=None col=3 waits=no row",
        "recon done 8/12",
    ]


def test_deadlock_report_names_the_stalled_task_and_parking(monkeypatch):
    assert _blocked(monkeypatch, RowSkipper, GridDims(4, 3)) == [
        "thread 0: core=0 row=3 col=0 waits=recon(3,0)",
        "thread 1: core=1 row=None col=2 waits=parked",
        "recon done 6/12",
    ]


def test_simulate_cells_isolates_failing_cells():
    base = _config(GridDims(3, 4), phi=0.15)
    results = engine.simulate_cells(base, [
        ("big-os", 1, False), ("big-os", 9, False), ("static", 1, False), ("static", 9, False),
    ])
    assert isinstance(results[("static", 9, False)], ValueError)
    ok = results[("big-os", 1, False)]
    assert ok.fps > 0
    assert set(results) == {
        ("big-os", 1, False), ("big-os", 9, False),
        ("static", 1, False), ("static", 9, False),
    }


def test_simulate_cells_raises_a_shared_input_error_before_any_cell(monkeypatch, tmp_path):
    """An error in the costs every cell shares is raised once, before any
    cell runs; an error a cell cannot raise on its own (here a TypeError)
    is not mapped to the cell either."""
    simulated = []
    monkeypatch.setattr(engine, "simulate", lambda cfg: simulated.append(cfg))
    cells = [("big-os", 1, False), ("big-os", 2, False)]
    base = _config(GridDims(3, 4))
    missing = replace(base, workload=WorkloadSpec(kind="trace", path=str(tmp_path / "none")))
    with pytest.raises(OSError):
        engine.simulate_cells(missing, cells)
    with pytest.raises(ValueError, match="underflows"):
        engine.simulate_cells(_config(GridDims(3, 4), sigma=40.0), cells)
    assert simulated == []

    def broken(cfg):
        raise TypeError("a bug, not a cell's failure")

    monkeypatch.setattr(engine, "simulate", broken)
    with pytest.raises(TypeError):
        engine.simulate_cells(base, cells)


def test_cells_with_one_schedule_are_simulated_once(monkeypatch):
    simulated = []
    simulate = engine.simulate

    def counted(cfg):
        simulated.append((cfg.policy.kind, cfg.policy.threads))
        return simulate(cfg)

    monkeypatch.setattr(engine, "simulate", counted)
    results = engine.simulate_cells(_config(GridDims(3, 4), phi=0.15), [
        (kind, n, False) for kind in ("affinity", "static", "big-os") for n in (4, 5)
    ])
    assert simulated == [("big-os", 4), ("affinity", 5), ("static", 5), ("big-os", 5)]
    shared = results[("big-os", 4, False)]
    assert results[("affinity", 4, False)] is shared
    assert results[("static", 4, False)] is shared
    assert len({id(r) for r in results.values()}) == 4

