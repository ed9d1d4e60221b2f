"""Metrics, the analytic makespan bound, the reference simulator, and report
serialization."""

import bisect
import csv
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesched import analysis, engine, policies
from wavesched.analysis import (
    analytic_wavefront_makespan,
    compare_to_reference,
    compute_metrics,
    load_reference_targets,
    reference_simulate,
    report_to_dict,
    reports_to_csv,
    SimReport,
)
from wavesched.engine import SimEvent
from wavesched.platform import (
    CORE_ACTIVE,
    CORE_ACTIVE_SIMD,
    CORE_IDLE,
    CoreType,
    Platform,
    default_platform,
    instantaneous_power,
)
from wavesched.policies import POLICY_KINDS
from wavesched.workload import WorkloadSpec
from wavesched.wpp_graph import GridDims

PLAT = default_platform()
# base 1.0 + 4 big idle at 0.10 + 4 little idle at 0.05
IDLE_POWER = 1.6


def _config(dims, kind="big-os", threads=1, *, mean=100.0, phi=0.0,
            frames=1, overhead=0.0, sigma=None, seed=0, simd=False):
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
        platform=PLAT,
        policy=policies.PolicySpec(
            kind=kind, threads=threads, migration_overhead_s=overhead
        ),
        simd=simd,
    )


# --- energy integration ---------------------------------------------------------


def test_idle_trace_integrates_to_a_rectangle():
    trace = [SimEvent(2.0, "FrameComplete", frame=0)]
    report = compute_metrics(trace, PLAT, False)
    assert report.energy_j == pytest.approx(IDLE_POWER * 2.0, rel=1e-12)
    assert report.avg_power_w == pytest.approx(IDLE_POWER, rel=1e-12)
    assert report.frames == 1
    assert report.fps == pytest.approx(0.5, rel=1e-12)
    assert all(u == 0.0 for u in report.core_utilization.values())


def test_single_active_segment_energy():
    # Core 0 (big: 1.10 W active, 0.10 W idle) busy for the first second of a
    # two second frame: 2.6 W then 1.6 W.
    trace = [
        SimEvent(0.0, "CtuStart", thread=0, core=0),
        SimEvent(1.0, "CtuComplete", thread=0, core=0),
        SimEvent(2.0, "FrameComplete", frame=0),
    ]
    report = compute_metrics(trace, PLAT, False)
    assert report.energy_j == pytest.approx(2.6 + 1.6, rel=1e-12)
    assert report.core_active_s[0] == pytest.approx(1.0, rel=1e-12)
    assert report.core_utilization[0] == pytest.approx(0.5, rel=1e-12)
    assert report.migrations == 0


def test_truncated_trace_is_rejected():
    trace = [SimEvent(0.0, "CtuStart", thread=0, core=0)]
    with pytest.raises(ValueError, match="FrameComplete"):
        compute_metrics(trace, PLAT, False)


def test_trace_out_of_time_order_is_rejected():
    trace = [
        SimEvent(1.0, "CtuStart", thread=0, core=0),
        SimEvent(0.5, "CtuComplete", thread=0, core=0),
        SimEvent(2.0, "FrameComplete", frame=0),
    ]
    with pytest.raises(ValueError, match="out of time order: event 1 at 0.5 s"):
        compute_metrics(trace, PLAT, False)


def test_sampled_energy_tracks_exact_integration():
    # A long, uneven run so the 250 ms sampler sees real power variation.
    cfg = _config(GridDims(3, 4), kind="big-os", threads=2, mean=2000.0,
                  phi=0.15, frames=2, sigma=0.5, seed=3)
    trace, report = engine.simulate(cfg)
    assert report.wall_time_s > 10.0
    assert len(report.power_samples) > 40
    assert report.energy_sampled_j == pytest.approx(report.energy_j, rel=0.02)
    assert report.avg_power_sampled_w == pytest.approx(
        report.avg_power_w, rel=0.02
    )


def test_report_identity_assertion_fires():
    with pytest.raises(ValueError, match="energy identity"):
        SimReport(
            frames=1, wall_time_s=1.0, fps=1.0, energy_j=2.0, epf_j=2.0,
            avg_power_w=3.0, energy_sampled_j=2.0, avg_power_sampled_w=2.0,
            power_samples=(), migrations=0, core_active_s={},
            core_utilization={},
        )


def test_report_utilization_check_fires():
    with pytest.raises(ValueError, match="core 0 utilization 1.5 exceeds 1"):
        SimReport(
            frames=1, wall_time_s=1.0, fps=1.0, energy_j=2.0, epf_j=2.0,
            avg_power_w=2.0, energy_sampled_j=2.0, avg_power_sampled_w=2.0,
            power_samples=(), migrations=0, core_active_s={0: 1.5},
            core_utilization={0: 1.5},
        )


def test_report_checks_hold_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
    code = (
        "from wavesched.analysis import SimReport\n"
        "try:\n"
        "    SimReport(frames=1, wall_time_s=1.0, fps=1.0, energy_j=2.0, epf_j=2.0,\n"
        "              avg_power_w=3.0, energy_sampled_j=2.0, avg_power_sampled_w=2.0,\n"
        "              power_samples=(), migrations=0, core_active_s={},\n"
        "              core_utilization={})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("energy identity violated")


def _sweep_metrics(trace, platform, simd):
    """Oracle: the same integration in two passes. It lists every
    positive-length running interval, sorts their start and end deltas, and
    sweeps the distinct times, evaluating power after each."""
    wall = trace[-1].time_s
    intervals = []
    open_seg = {}

    def close(thread, end):
        seg = open_seg.pop(thread, None)
        if seg is not None and end > seg[0]:
            intervals.append((seg[0], end, seg[1], seg[2]))

    for ev in trace:
        if ev.kind == "CtuStart":
            close(ev.thread, ev.time_s)
            open_seg[ev.thread] = (ev.time_s, ev.core, simd)
        elif ev.kind == "Migration":
            close(ev.thread, ev.time_s)
            open_seg[ev.thread] = (ev.time_s, ev.core, False)
        elif ev.kind in ("CtuComplete", "ThreadIdle"):
            close(ev.thread, ev.time_s)
        elif ev.kind == "FrameComplete":
            for t in list(open_seg):
                close(t, ev.time_s)

    deltas = []
    for start, end, core, is_simd in intervals:
        deltas.append((start, core, 1, 1 if is_simd else 0))
        deltas.append((end, core, -1, -1 if is_simd else 0))
    deltas.sort(key=lambda d: d[0])

    n_cores = platform.n_cores
    running = [0] * n_cores
    simd_running = [0] * n_cores
    active_s = {c: 0.0 for c in range(n_cores)}

    def power():
        return instantaneous_power(platform, [
            CORE_IDLE if running[c] == 0
            else CORE_ACTIVE_SIMD if simd_running[c] else CORE_ACTIVE
            for c in range(n_cores)])

    energy = 0.0
    cursor = 0.0
    power_now = power()
    seg_starts, seg_powers = [0.0], [power_now]
    i = 0
    while i < len(deltas):
        t = deltas[i][0]
        if t > cursor:
            dt = t - cursor
            energy += power_now * dt
            for c in range(n_cores):
                if running[c] > 0:
                    active_s[c] += dt
            cursor = t
        while i < len(deltas) and deltas[i][0] == t:
            _, core, dr, ds = deltas[i]
            running[core] += dr
            simd_running[core] += ds
            i += 1
        power_now = power()
        seg_starts.append(cursor)
        seg_powers.append(power_now)
    if wall > cursor:
        dt = wall - cursor
        energy += power_now * dt
        for c in range(n_cores):
            if running[c] > 0:
                active_s[c] += dt

    interval = platform.sample_interval_s
    samples = []
    k = 0
    while (k + 0.5) * interval < wall:
        t = (k + 0.5) * interval
        samples.append((t, seg_powers[bisect.bisect_right(seg_starts, t) - 1]))
        k += 1
    return {
        "energy_j": energy,
        "core_active_s": active_s,
        "power_samples": tuple(samples),
        "migrations": sum(1 for ev in trace if ev.kind == "Migration"),
        "frames": sum(1 for ev in trace if ev.kind == "FrameComplete"),
    }


def _assert_matches_sweep(trace, platform, simd):
    report = compute_metrics(trace, platform, simd)
    got = {key: getattr(report, key) for key in
           ("energy_j", "core_active_s", "power_samples", "migrations", "frames")}
    assert got == _sweep_metrics(trace, platform, simd)


# Steps of 0 make exact ties; 0.125 and 0.25 land events on the 250 ms
# sampling midpoints and on each other.
_STEPS = st.sampled_from([0.0, 0.0, 0.0, 0.125, 0.25, 0.1, 1.0 / 3.0, 0.7])
_KINDS = st.sampled_from(["CtuStart", "CtuStart", "CtuComplete", "CtuComplete",
                          "Migration", "ThreadIdle", "FrameComplete", "RowComplete"])


@st.composite
def _traces(draw):
    """Time-ordered traces over up to 4 threads and the 8 default cores,
    ending in a FrameComplete: runs of equal times, segments that open and
    close at one time, a close and a reopen (or a zero-overhead Migration
    and its CtuStart) at one time, overhead segments, several frames."""
    events = []
    now = 0.0
    for step, kind, thread, core in draw(st.lists(
            st.tuples(_STEPS, _KINDS, st.integers(0, 3), st.integers(0, 7)), max_size=40)):
        now += step
        if kind == "FrameComplete":
            events.append(SimEvent(now, kind, frame=0))
        else:
            events.append(SimEvent(now, kind, thread=thread, core=core))
    # A run takes positive time (fps divides by it).
    events.append(SimEvent(now + draw(_STEPS) or 0.25, "FrameComplete", frame=0))
    return events


@settings(max_examples=300)
@given(trace=_traces(), simd=st.booleans())
def test_one_pass_matches_the_interval_sweep_on_drawn_traces(trace, simd):
    _assert_matches_sweep(trace, PLAT, simd)


@pytest.mark.parametrize("overhead", [0.0, 100e-6])
@pytest.mark.parametrize("kind, threads, simd", [
    ("affinity", 8, False), ("affinity", 6, True), ("big-os", 8, False),
    ("static", 7, True), ("little", 4, False),
])
def test_one_pass_matches_the_interval_sweep_on_engine_traces(kind, threads, simd, overhead):
    cfg = _config(GridDims(9, 12), kind, threads, phi=0.15, frames=3, overhead=overhead,
                  sigma=0.4, seed=7, simd=simd)
    trace, _ = engine.simulate(cfg)
    _assert_matches_sweep(trace, PLAT, simd)


def test_one_pass_holds_no_copy_of_the_trace():
    """Integration keeps per-thread and per-core state only: its peak
    allocation stays a small fraction of the trace it reads (a sweep over
    listed intervals and sorted deltas, as in `_sweep_metrics`, peaks at
    about three quarters of it)."""
    cfg = engine.SimConfig(
        dims=GridDims(17, 30), frames=4,
        workload=WorkloadSpec(kind="lognormal", mean_wu=100.0, seed=7),
        platform=PLAT, policy=policies.PolicySpec(kind="affinity", threads=8),
    )
    tracemalloc.start()
    try:
        trace, _ = engine.simulate(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compute_metrics(trace, cfg.platform, cfg.simd)
        peak = tracemalloc.get_traced_memory()[1] - held
        del trace
        gc.collect()
        trace_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 0.15 * trace_bytes, (peak, trace_bytes)


# --- analytic makespan ------------------------------------------------------------


def test_analytic_makespan_matches_hand_counts():
    t = 0.1
    # A row chains serially; a column chains serially; a full grid staggers
    # rows two CTUs apart.
    assert analytic_wavefront_makespan(GridDims(1, 9), t) == pytest.approx(0.9)
    assert analytic_wavefront_makespan(GridDims(7, 1), t) == pytest.approx(0.7)
    assert analytic_wavefront_makespan(GridDims(17, 30), t) == pytest.approx(6.2)
    assert analytic_wavefront_makespan(GridDims(3, 5), t) == pytest.approx(0.9)


# --- reference simulator ----------------------------------------------------------


def _assert_matches_reference(cfg):
    trace, report = engine.simulate(cfg)
    ref_makespan, ref_completions = reference_simulate(cfg)
    tol = 1e-9 * ref_makespan
    assert abs(report.wall_time_s - ref_makespan) <= tol
    engine_completions = {
        ev.task: ev.time_s for ev in trace if ev.kind == "CtuComplete"
    }
    assert set(engine_completions) == set(ref_completions)
    for task, t_ref in ref_completions.items():
        assert abs(engine_completions[task] - t_ref) <= tol, task


def test_reference_agrees_on_uniform_static_grid():
    # Uniform costs on a 2.24:1 platform produce exactly simultaneous
    # completions; both simulators must break those ties the same way.
    _assert_matches_reference(
        _config(GridDims(3, 4), kind="static", threads=6, phi=0.15)
    )


def test_reference_agrees_on_lognormal_affinity_run():
    _assert_matches_reference(
        _config(GridDims(4, 4), kind="affinity", threads=4, phi=0.15,
                sigma=0.6, seed=11, overhead=100e-6, frames=2)
    )


def test_reference_agrees_on_little_cluster():
    _assert_matches_reference(
        _config(GridDims(2, 3), kind="little", threads=3, phi=0.2,
                sigma=0.4, seed=5)
    )


def test_reference_agrees_under_memory_contention():
    """Engine and oracle carry the contention term independently; they must
    agree on every completion time at kappa > 0 across policies, cluster
    shapes and migration overhead."""
    rng = np.random.default_rng(20261017)
    kinds = itertools.cycle(POLICY_KINDS)
    for i in range(12):
        kind = next(kinds)
        n_big = int(rng.integers(1, 4))
        n_little = int(rng.integers(1, 5 - n_big))
        plat = Platform(
            clusters=(
                (CoreType("fast", 1000.0, 1.0, 0.1), n_big),
                (CoreType("slow", 1000.0 / rng.uniform(1.3, 3.0), 0.4, 0.05),
                 n_little),
            ),
            base_power_w=1.0,
            memory_contention=float(rng.uniform(0.0, 0.3)),
        )
        if kind in ("static", "affinity"):
            threads = int(rng.integers(2, n_big + n_little + 1))
        else:
            threads = int(rng.integers(2, 5))
        cfg = engine.SimConfig(
            dims=GridDims(int(rng.integers(2, 5)), int(rng.integers(1, 5))),
            frames=1,
            workload=WorkloadSpec(
                kind="lognormal", mean_wu=100.0, sigma=0.4,
                seed=int(rng.integers(0, 2**31)), filter_fraction=0.15,
            ),
            platform=plat,
            policy=policies.PolicySpec(
                kind=kind, threads=threads,
                migration_overhead_s=100e-6 if i % 2 else 0.0,
            ),
        )
        _assert_matches_reference(cfg)


def test_reference_rejects_large_instances():
    with pytest.raises(ValueError, match="small instances"):
        reference_simulate(_config(GridDims(40, 32), mean=1.0))


# --- reference targets and comparison ---------------------------------------------


def test_packaged_targets_contain_the_measured_panel():
    targets = load_reference_targets()
    assert targets[("big-os", 1, False, "fps")] == pytest.approx(7.963)
    assert targets[("big-os", 1, False, "epf")] == pytest.approx(0.327)
    assert targets[("affinity", 8, True, "epf")] == pytest.approx(0.193)
    assert targets[("big-os", 4, False, "fps_quote")] == pytest.approx(22.655)


def _fake_report(fps, epf):
    wall = 1.0 / fps
    return SimReport(
        frames=1, wall_time_s=wall, fps=fps, energy_j=epf, epf_j=epf,
        avg_power_w=epf / wall, energy_sampled_j=epf,
        avg_power_sampled_w=epf / wall, power_samples=(), migrations=0,
        core_active_s={}, core_utilization={},
    )


def test_compare_reports_zero_delta_when_simulation_matches():
    targets = {
        ("big-os", 1, False, "fps"): 8.0,
        ("big-os", 1, False, "epf"): 0.3,
        ("big-os", 4, False, "fps"): 20.0,
        ("affinity", 4, False, "fps"): 25.0,
        ("big-os", 4, False, "power_w"): 5.5,
    }
    reports = {
        ("big-os", 1, False): _fake_report(8.0, 0.3),
        ("big-os", 4, False): _fake_report(20.0, 0.5),
        ("affinity", 4, False): _fake_report(30.0, 0.4),
    }
    table = compare_to_reference(reports, targets)
    assert not table["missing"]
    rows = {(r["policy"], r["threads"], r["metric"]): r for r in table["rows"]}
    # power_w rows are quotes for calibration, not comparison rows.
    assert len(rows) == 4
    assert rows[("big-os", 1, "fps")]["delta_pct"] == 0.0
    assert rows[("big-os", 1, "fps")].get("sim_vs_baseline_pct") is None
    aff = rows[("affinity", 4, "fps")]
    assert aff["delta_pct"] == pytest.approx(20.0)
    assert aff["sim_vs_baseline_pct"] == pytest.approx(50.0)
    assert aff["ref_vs_baseline_pct"] == pytest.approx(25.0)


def test_compare_lists_failed_and_absent_cells_as_missing():
    targets = {
        ("big-os", 1, False, "fps"): 8.0,
        ("big-os", 2, False, "fps"): 14.0,
        ("big-os", 2, False, "epf"): 0.28,
        ("little", 4, False, "fps"): 10.0,
    }
    reports = {
        ("big-os", 1, False): _fake_report(8.0, 0.3),
        ("big-os", 2, False): ValueError("cell blew up"),
    }
    table = compare_to_reference(reports, targets)
    assert len(table["rows"]) == 1
    missing = {(m["policy"], m["threads"], m["metric"]) for m in table["missing"]}
    # Failed cells are reported; policies never simulated are skipped quietly.
    assert missing == {("big-os", 2, "fps"), ("big-os", 2, "epf")}


# --- serialization -----------------------------------------------------------------


def test_report_dict_is_json_round_trippable():
    _, report = engine.simulate(_config(GridDims(1, 1)))
    d = report_to_dict(report, key=("big-os", 1, False))
    assert d["policy"] == "big-os"
    assert d["threads"] == 1
    assert d["fps"] == pytest.approx(10.0)
    assert json.loads(json.dumps(d)) == d


def test_reports_csv_carries_ok_and_error_rows():
    _, report = engine.simulate(_config(GridDims(1, 1)))
    results = {
        ("big-os", 1, False): report,
        ("static", 9, False): ValueError("needs one thread per core, got 9"),
    }
    text = reports_to_csv(results)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "policy", "threads", "simd", "frames", "wall_time_s", "fps",
        "energy_j", "epf_j", "avg_power_w", "migrations", "status",
    ]
    ok = dict(zip(rows[0], rows[1]))
    assert ok["policy"] == "big-os"
    assert ok["status"] == "ok"
    assert float(ok["fps"]) == pytest.approx(10.0)
    bad = dict(zip(rows[0], rows[2]))
    assert bad["policy"] == "static"
    assert bad["fps"] == ""
    assert bad["status"].startswith("error:")
    # Commas in error text must not add CSV columns.
    assert ";" in bad["status"] and len(rows[2]) == len(rows[0])
