"""Golden outputs: the CLI tables and a panel of engine traces, frozen.

Any change that is meant to keep the simulated results the same (a refactor,
a speed-up) must keep these tests passing:

- the `paper-repro` table (17x30 grid, 4 frames, seed 7) and the default
  `sweep` table, both as full-precision JSON, value by value at a relative
  1e-12;
- the event traces of a small panel of engine configurations (all four
  policies, with and without memory contention and migration overhead,
  SIMD, two frames, three clusters, and uniform costs full of exact ties):
  kind, thread, core, task, frame and source core exactly, times at a
  relative 1e-12.

A change that is meant to move the results regenerates the data and says
by how much they moved:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import math
import os
import sys
from pathlib import Path

import pytest

from wavesched import cli, engine
from wavesched.platform import CoreType, Platform
from wavesched.policies import PolicySpec
from wavesched.workload import WorkloadSpec
from wavesched.wpp_graph import GridDims

DATA = Path(__file__).parent / "data"
REL = 1e-12

TABLES = {
    "paper_repro.json": ["paper-repro", "--format", "json"],
    "sweep.json": ["sweep", "--format", "json"],
}

_BIG = CoreType("big", 1000.0, 1.10, 0.10, 0.96)
_LITTLE = CoreType("little", 1000.0 / 2.24, 0.28, 0.05, 0.96)
_MID = CoreType("mid", 700.0, 0.60, 0.08)


def _platform(kappa=0.0, clusters=((_BIG, 4), (_LITTLE, 4))):
    return Platform(clusters=clusters, base_power_w=1.0, memory_contention=kappa)


def _trace_panel():
    """(name, SimConfig) pairs covering policies, contention, overhead, SIMD."""
    lognormal = WorkloadSpec(kind="lognormal", mean_wu=100.0, sigma=0.6, seed=21)
    uniform = WorkloadSpec(kind="uniform", mean_wu=100.0)
    rows = [
        # name, grid, frames, workload, kappa, policy, threads, overhead, simd
        ("bigos-4t", (4, 5), 2, lognormal, 0.0, "big-os", 4, 100e-6, False),
        ("bigos-8t-kappa", (4, 6), 1, lognormal, 0.09, "big-os", 8, 100e-6, False),
        ("little-3t-simd", (3, 5), 1, lognormal, 0.0, "little", 3, 100e-6, True),
        ("static-6t-kappa", (4, 6), 1, lognormal, 0.09, "static", 6, 100e-6, False),
        ("affinity-8t", (6, 7), 1, lognormal, 0.0, "affinity", 8, 100e-6, False),
        ("affinity-8t-kappa-simd", (5, 6), 2, lognormal, 0.09, "affinity", 8, 100e-6, True),
        ("affinity-5t-no-overhead", (5, 6), 1, lognormal, 0.09, "affinity", 5, 0.0, False),
        ("affinity-8t-uniform", (5, 6), 2, uniform, 0.0, "affinity", 8, 0.0, False),
        ("affinity-6t-uniform-kappa", (5, 7), 1, uniform, 0.09, "affinity", 6, 100e-6, False),
        ("bigos-6t-uniform", (3, 5), 1, uniform, 0.0, "big-os", 6, 100e-6, True),
    ]
    panel = []
    for name, (r, c), frames, wl, kappa, kind, threads, overhead, simd in rows:
        panel.append((name, engine.SimConfig(
            dims=GridDims(r, c),
            frames=frames,
            workload=wl,
            platform=_platform(kappa),
            policy=PolicySpec(kind=kind, threads=threads, migration_overhead_s=overhead),
            simd=simd,
        )))
    three = _platform(0.05, ((_BIG, 2), (_MID, 2), (_LITTLE, 2)))
    panel.append(("affinity-6t-three-clusters", engine.SimConfig(
        dims=GridDims(4, 7), frames=1, workload=lognormal, platform=three,
        policy=PolicySpec(kind="affinity", threads=6),
    )))
    return panel


def _event_row(ev):
    task = None
    if ev.task is not None:
        task = [ev.task.frame, ev.task.phase.value, ev.task.row, ev.task.col]
    return [ev.time_s, ev.kind, ev.thread, ev.core, task, ev.frame, ev.src_core]


def _run_table(argv, tmp_path):
    """The command's JSON output without the power-sample series, which
    `energy_sampled_j` integrates; every CSV column is kept at full precision."""
    out = tmp_path / "table.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    table = json.loads(out.read_text())
    for cell in table["reports"] if isinstance(table, dict) else table:
        cell.pop("power_samples", None)
    return table


def _assert_close(got, want, where):
    """Structural equality, floats at a relative REL, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (
            f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        )
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(autouse=True)
def _no_config_env(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_cli_table_matches_golden(name, tmp_path):
    want = json.loads((DATA / name).read_text())
    _assert_close(_run_table(TABLES[name], tmp_path), want, name)


def test_engine_traces_match_golden():
    want = json.loads((DATA / "engine_traces.json").read_text())
    panel = _trace_panel()
    assert [name for name, _ in panel] == list(want)
    for name, cfg in panel:
        trace, _ = engine.simulate(cfg)
        _assert_close([_event_row(ev) for ev in trace], want[name], name)


def test_golden_trace_panel_is_tie_heavy():
    """The uniform cells must really hold simultaneous completions, or the
    golden check would not pin the engine's tie order."""
    want = json.loads((DATA / "engine_traces.json").read_text())
    rows = want["affinity-8t-uniform"]
    times = [r[0] for r in rows if r[1] == "CtuComplete"]
    assert len(times) - len(set(times)) > len(times) // 4


def _write() -> None:
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in TABLES.items():
            table = _run_table(argv, Path(tmp))
            (DATA / name).write_text(json.dumps(table, indent=1) + "\n")
    traces = {}
    for name, cfg in _trace_panel():
        trace, _ = engine.simulate(cfg)
        traces[name] = [_event_row(ev) for ev in trace]
    with open(DATA / "engine_traces.json", "w", encoding="utf-8") as f:
        f.write("{\n")
        for k, (name, rows) in enumerate(traces.items()):
            f.write(f"{json.dumps(name)}: [\n")
            f.write(",\n".join(json.dumps(r, separators=(",", ":")) for r in rows))
            f.write("\n]" + ("," if k + 1 < len(traces) else "") + "\n")
        f.write("}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.environ.pop(cli.CONFIG_ENV_VAR, None)
    _write()
