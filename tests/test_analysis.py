"""Metrics, the analytic makespan bound, the reference simulator, and report
serialization."""

import csv
import io
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
from wavesched.platform import CoreType, Platform, default_platform
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
                (CoreType("fast", 2.0, 1000.0, 1.0, 0.1), n_big),
                (CoreType("slow", 1.4, 1000.0 / rng.uniform(1.3, 3.0), 0.4, 0.05),
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
