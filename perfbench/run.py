"""wavesched benchmark: times the `wavesched` CLI end to end and splits one
traced invocation by module.

Usage:
    python3 perfbench/run.py --workload {repro,affinity-8t,bigos-wide}
                             [--seed N] [--seconds S] [--trace {0,1}]

Run from the repository root. One run of a workload does, in order:

1. a warm-up `python3 -m wavesched.cli --help` (it also compiles the
   bytecode); for the `run` workloads, `wavesched calibrate` writes the
   platform config they simulate on, as a user reproducing the board would;
2. with --trace 1 only, one traced invocation of the workload's command
   (`perfbench/invoke.py trace`): the per-module split, the event count by
   kind and the trace conservation check;
3. rounds of SETUP_PER_ROUND set-up repetitions (`python3 -m wavesched.cli
   --help`: a fresh interpreter imports `wavesched.cli` and builds its
   parser) and one untraced invocation of the command (`perfbench/invoke.py
   count`), until the rounds add up to --seconds (and at least MIN_TIMED
   invocations and SETUP_REPS repetitions).

Host times are scaled to a reference host speed: each untraced invocation
samples the host's speed while it runs (`invoke.HostProbe`), and its time,
and that of its round's set-up repetitions, is multiplied by
PROBE_REF_S / (the invocation's median probe time). See README.md.

Every invocation's output is checked and hashed; see README.md for the rules
and for what each metric means. Human-readable lines come first; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-module ones with
--trace 1).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform as host_platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from invoke import POLICY_CALLBACKS, PROBE_INTERVAL_S

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_CSV = os.path.join(SRC, "wavesched", "data", "reference_targets.csv")

DEFAULT_SEED = 7
SETUP_REPS = 7  # at least, interleaved with the timed invocations
SETUP_PER_ROUND = 2
MIN_TIMED = 3
RUN_BUDGET_S = 170.0  # every child is killed before the run reaches this
UTILIZATION_MAX = 1.0
IDENTITY_RTOL = 1e-9
COVERAGE_MIN = 0.95  # traced self times must cover this share of traced wall_s
# Median time of one `invoke._probe_work` on the reference host (Xeon, 2 vCPUs,
# Python 3.11.7); host times are reported as if measured at that speed.
PROBE_REF_S = 500e-6
MIN_PROBES = 20  # probe samples an invocation needs for its speed to count

REFERENCE_GRID_CTUS = 17 * 30  # the grid paper-repro compares the board table on
MODELLED_POLICIES = ("big-os", "little", "static", "affinity")
CALIBRATED_CELLS = {("big-os", 1, False), ("big-os", 4, False)}
REPRO_CELLS = 24

# name -> (CLI arguments without --seed, frames, grid CTUs, board cell).
# Workloads with a board cell run on a freshly calibrated platform config.
WORKLOADS = {
    "repro": (["paper-repro", "--frames", "4", "--format", "json"], 4, 17 * 30, None),
    "affinity-8t": (
        ["run", "--policy", "affinity", "--threads", "8", "--frames", "50",
         "--format", "json"],
        50, 17 * 30, ("affinity", 8, False),
    ),
    "bigos-wide": (
        ["run", "--policy", "big-os", "--threads", "8", "--grid", "68x120",
         "--frames", "4", "--format", "json"],
        4, 68 * 120, ("big-os", 8, False),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "fps_err_pct": "%",
    "epf_err_pct": "%",
    "fps_heldout_err_pct": "%",
    "epf_heldout_err_pct": "%",
}

EVENT_KINDS = (
    "CtuStart", "CtuComplete", "RowComplete", "BarrierReached", "Migration",
    "FrameComplete", "ThreadIdle", "ThreadResume",
)
PER_CTU_CALLBACKS = ("on_recon_ctu_complete", "on_filter_ctu_complete")
LAYERS = ("cli", "engine", "policies", "analysis", "platform", "workload")

PER_LAYER = {
    "cli.self_s": "s",
    "cli.import_s": "s",
    "engine.self_s": "s",
    "engine.calls": "count",
    "engine.events": "count",
    **{f"engine.events.{kind}": "count" for kind in EVENT_KINDS},
    "engine.us_per_event": "us",
    "policies.self_s": "s",
    "policies.calls": "count",
    **{f"policies.calls.{cb}": "count" for cb in POLICY_CALLBACKS},
    "policies.us_per_call": "us",
    "policies.action_ratio": "ratio",
    "analysis.self_s": "s",
    "analysis.metrics_s": "s",
    "analysis.us_per_event": "us",
    "analysis.compare_s": "s",
    "analysis.serialize_s": "s",
    "platform.self_s": "s",
    "platform.calibrate_self_s": "s",
    "platform.power_calls": "count",
    "platform.power_s": "s",
    "platform.cores_access": "count",
    "workload.generate_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.check_s": "s",
    "trace.coverage": "ratio",
}


class Failure(Exception):
    """An invocation whose exit code or output breaks a rule."""


# --- child processes ----------------------------------------------------------


class Runner:
    """Starts children one at a time and waits for each, with a run deadline."""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def launch(self, argv: list[str]) -> tuple[float, float, bytes]:
        """Run argv to completion; returns (wall s, peak RSS MiB, stdout)."""
        self.attempted += 1
        out_path = os.path.join(self.tmpdir, "stdout")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Failure("run budget exhausted before start")
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.PIPE)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                err = proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stderr.close()
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
            raise Failure(f"exit code {code}: {' '.join(tail)}")
        with open(out_path, "rb") as f:
            stdout = f.read()
        return wall, usage.ru_maxrss / 1024.0, stdout

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {message}")

    def attempt(self, label: str, fn):
        """Call fn(); a Failure counts the attempt as failed and returns None."""
        try:
            return fn()
        except Failure as exc:
            self.fail(label, str(exc))
            return None


# --- output checks --------------------------------------------------------------


def load_reference() -> dict[tuple[str, int, bool, str], float]:
    """The board measurements, read independently of the package under test."""
    out = {}
    with open(REFERENCE_CSV, encoding="utf-8") as f:
        for row in csv.reader(line for line in f if not line.startswith("#")):
            if row and row[0] != "policy":
                policy, threads, simd, metric, value = row
                out[(policy, int(threads), simd == "on", metric)] = float(value)
    return out


def check_report(rep: dict, frames: int, where: str) -> None:
    if rep.get("frames") != frames:
        raise Failure(f"{where}: {rep.get('frames')} frames, {frames} requested")
    power = rep["avg_power_w"]
    if abs(rep["epf_j"] * rep["fps"] - power) > IDENTITY_RTOL * max(1.0, power):
        raise Failure(f"{where}: epf*fps differs from avg_power_w {power}")
    for core, u in rep["core_utilization"].items():
        if not u <= UTILIZATION_MAX:
            raise Failure(f"{where}: core {core} utilization {u} > 1")


def _mean_abs(values: list[float]) -> float:
    return sum(abs(v) for v in values) / len(values)


def check_output(workload: str, text: bytes, reference: dict) -> dict[str, float]:
    """Apply the output rules; returns the four accuracy metrics."""
    _, frames, ctus, cell = WORKLOADS[workload]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise Failure(f"output does not parse: {exc}") from None
    try:
        if cell is not None:
            check_report(doc, frames, workload)
            # One simulated cell against the board's cell, per CTU.
            fps = doc["fps"] * ctus / REFERENCE_GRID_CTUS
            epf = doc["epf_j"] * REFERENCE_GRID_CTUS / ctus
            fps_err = abs(fps / reference[cell + ("fps",)] - 1.0) * 100.0
            epf_err = abs(epf / reference[cell + ("epf",)] - 1.0) * 100.0
            return {"fps_err_pct": fps_err, "epf_err_pct": epf_err,
                    "fps_heldout_err_pct": fps_err, "epf_heldout_err_pct": epf_err}
        return check_repro(doc, frames, reference)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise Failure(f"output lacks a field or value: {exc!r}") from None


def check_repro(doc: dict, frames: int, reference: dict) -> dict[str, float]:
    expected = {key for key in reference
                if key[3] in ("fps", "epf") and key[0] in MODELLED_POLICIES}
    cells = set()
    for rep in doc["reports"]:
        key = (rep["policy"], rep["threads"], rep["simd"])
        if rep["status"] != "ok":
            raise Failure(f"repro cell {key}: status {rep['status']!r}")
        check_report(rep, frames, f"repro cell {key}")
        cells.add(key)
    if len(doc["reports"]) != REPRO_CELLS or cells != {k[:3] for k in expected}:
        raise Failure(f"repro ran {len(cells)} cells, expected {REPRO_CELLS}")
    rows = doc["deviation"]["rows"]
    have = {(r["policy"], r["threads"], r["simd"], r["metric"]) for r in rows}
    if not expected <= have or doc["deviation"]["missing"]:
        raise Failure(f"deviation rows missing for {sorted(expected - have)[:3]}")
    err = {}
    for metric in ("fps", "epf"):
        deltas = [r["delta_pct"] for r in rows if r["metric"] == metric]
        heldout = [r["delta_pct"] for r in rows if r["metric"] == metric
                   and (r["policy"], r["threads"], r["simd"]) not in CALIBRATED_CELLS]
        err[f"{metric}_err_pct"] = _mean_abs(deltas)
        err[f"{metric}_heldout_err_pct"] = _mean_abs(heldout)
    return err


# --- metrics ------------------------------------------------------------------------


def per_layer(summary: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    self_s, calls, nonempty = summary["self_s"], summary["calls"], summary["nonempty"]

    def total(prefix, table=self_s):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    events = sum(summary["events"].values())
    layer_s = {
        "cli": self_s.get("cli.main", 0.0),
        "engine": self_s.get("engine.simulate", 0.0),
        "policies": total("policies."),
        "analysis": total("analysis."),
        "platform": total("platform."),
        "workload": self_s.get("workload.generate", 0.0),
    }
    check_s = self_s.get("bench.check", 0.0)
    program_s = traced_wall - check_s
    policy_calls = total("policies.", calls)
    per_ctu_calls = sum(calls.get(f"policies.{cb}", 0) for cb in PER_CTU_CALLBACKS)
    per_ctu_actions = sum(nonempty.get(f"policies.{cb}", 0) for cb in PER_CTU_CALLBACKS)
    out = {
        "cli.self_s": layer_s["cli"],
        "cli.import_s": summary["import_s"],
        "engine.self_s": layer_s["engine"],
        "engine.calls": calls.get("engine.simulate", 0),
        "engine.events": events,
        **{f"engine.events.{k}": summary["events"].get(k, 0) for k in EVENT_KINDS},
        "engine.us_per_event": layer_s["engine"] / events * 1e6,
        "policies.self_s": layer_s["policies"],
        "policies.calls": policy_calls,
        **{f"policies.calls.{cb}": calls.get(f"policies.{cb}", 0) for cb in POLICY_CALLBACKS},
        "policies.us_per_call": layer_s["policies"] / policy_calls * 1e6,
        "policies.action_ratio": per_ctu_actions / per_ctu_calls if per_ctu_calls else 0.0,
        "analysis.self_s": layer_s["analysis"],
        "analysis.metrics_s": self_s.get("analysis.compute_metrics", 0.0),
        "analysis.us_per_event": self_s.get("analysis.compute_metrics", 0.0) / events * 1e6,
        "analysis.compare_s": self_s.get("analysis.compare_to_reference", 0.0),
        "analysis.serialize_s": (self_s.get("analysis.report_to_dict", 0.0)
                                 + self_s.get("analysis.reports_to_csv", 0.0)),
        "platform.self_s": layer_s["platform"],
        "platform.calibrate_self_s": self_s.get("platform.calibrate", 0.0),
        "platform.power_calls": calls.get("platform.instantaneous_power", 0),
        "platform.power_s": self_s.get("platform.instantaneous_power", 0.0),
        "platform.cores_access": summary["cores_access"],
        "workload.generate_s": layer_s["workload"],
        **{f"{layer}.share": s / program_s for layer, s in layer_s.items()},
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - check_s - untraced_wall,
        "trace.check_s": check_s,
        "trace.coverage": (sum(layer_s.values()) + summary["import_s"] + check_s) / traced_wall,
    }
    assert out.keys() == PER_LAYER.keys()
    return out


def provenance(seed: int, argv: list[str]) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "wavesched")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            src_hash.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                src_hash.update(hashlib.sha256(f.read()).digest())
    return {
        "python": host_platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "cli_args": argv,
    }


# --- the run ------------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    reference = load_reference()
    cli_args = WORKLOADS[workload][0] + ["--seed", str(seed)]
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    summary_path = os.path.join(tmpdir, "summary.json")
    runner = Runner(tmpdir)
    cli = [sys.executable, "-m", "wavesched.cli"]
    digests: list[str] = []
    events: list[int] = []
    accuracy: dict[str, float] = {}

    def invoke(mode: str):
        """Run the workload through perfbench/invoke.py; check its output."""
        wall, rss, out = runner.launch(
            [sys.executable, os.path.join(ROOT, "perfbench", "invoke.py"), mode,
             summary_path] + cli_args)
        accuracy.update(check_output(workload, out, reference))
        digests.append(hashlib.sha256(out).hexdigest())
        if digests[-1] != digests[0]:
            raise Failure(f"digest {digests[-1][:12]} differs from {digests[0][:12]}")
        with open(summary_path, encoding="utf-8") as f:
            summary = json.load(f)
        if not summary["module_file"].startswith(SRC + os.sep):
            raise Failure(f"imported {summary['module_file']}, not the one under {SRC}")
        count = summary["events"] if mode == "count" else sum(summary["events"].values())
        events.append(count)
        if count != events[0]:
            raise Failure(f"{count} events, {events[0]} in the first invocation")
        if mode == "count" and summary["probe"]["n"] < MIN_PROBES:
            raise Failure(f"{summary['probe']['n']} host-speed samples, fewer than "
                          f"{MIN_PROBES}: the invocation is shorter than "
                          f"{MIN_PROBES * PROBE_INTERVAL_S:.1f} s")
        return wall, rss, summary

    def setup_rep():
        return runner.launch(cli + ["--help"])[0]

    setup: list[float] = []  # raw wall s
    setup_scaled: list[float] = []
    timed: list[tuple[float, float]] = []  # (raw wall s, peak RSS MiB)
    timed_scaled: list[float] = []  # program wall s at the reference host speed
    scales: list[float] = []
    traced_result = None
    try:
        runner.attempt("warm-up", setup_rep)
        if WORKLOADS[workload][3] is not None:
            conf = os.path.relpath(os.path.join(tmpdir, "fitted.conf"), ROOT)
            runner.attempt("calibrate", lambda: runner.launch(cli + ["calibrate", "--out", conf]))
            cli_args += ["--platform", conf]
        if traced:
            traced_result = runner.attempt("traced", lambda: invoke("trace"))
        # Rounds of set-up repetitions and one timed invocation, so that both
        # medians sample the same stretch of machine time.
        while (len(timed) < MIN_TIMED or len(setup) < SETUP_REPS
               or sum(setup) + sum(w for w, _ in timed) < seconds):
            if (timed and time.monotonic() > runner.deadline - 30) or len(runner.failures) > 3:
                break
            round_setup = []
            for _ in range(SETUP_PER_ROUND):
                wall = runner.attempt("setup", setup_rep)
                if wall is not None:
                    round_setup.append(wall)
            setup += round_setup
            r = runner.attempt("timed", lambda: invoke("count"))
            if r is not None:
                wall, rss, summary = r
                probe = summary["probe"]
                scale = PROBE_REF_S / probe["median_s"]
                timed.append((wall, rss))
                scales.append(scale)
                # The probe's own time is not the program's.
                timed_scaled.append((wall - probe["total_s"]) * scale)
                setup_scaled += [w * scale for w in round_setup]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if not timed or not setup_scaled or traced and traced_result is None:
        for line in runner.failures:
            print("FAILED", line, file=sys.stderr)
        raise SystemExit(f"{workload}: no complete measurement; see the failures above")

    wall_s = statistics.median(timed_scaled)
    layer = None
    prov = provenance(seed, cli_args)
    prov["tracing_overhead_s"] = None
    if traced:
        # The traced invocation runs without the probe, so it compares with
        # the untraced invocations' raw times.
        traced_wall, _, summary = traced_result
        layer = per_layer(summary, traced_wall, statistics.median(w for w, _ in timed))
        prov["tracing_overhead_s"] = layer["trace.overhead_s"]
        if summary["check_failures"]:
            runner.fail("traced", "trace conservation: "
                        + "; ".join(summary["check_failures"][:3]))
        if layer["trace.coverage"] < COVERAGE_MIN:
            runner.fail("traced", f"self times cover {layer['trace.coverage']:.3f} of "
                                  f"traced wall_s, below {COVERAGE_MIN}")
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_scaled),
        "events_per_s": events[0] / wall_s,
        "peak_rss_mb": statistics.median(r for _, r in timed),
        **accuracy,
    }
    return {
        "workload": workload,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "digest": digests[0],
        "events": events[0],
        "timed_wall_s": [w for w, _ in timed],
        "timed_scaled_s": timed_scaled,
        "host_scale": scales,
        "setup_wall_s": setup,
        "setup_scaled_s": setup_scaled,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "provenance": prov,
    }


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed passed to the CLI (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=30,
                        help="time to spend in measured rounds (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: report end-to-end metrics; 1: per-module metrics")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and awaited and
    # the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for path in (os.path.join(SRC, "wavesched", "cli.py"), REFERENCE_CSV):
        if not os.path.isfile(path):
            print(f"error: {path} not found; run from a wavesched checkout", file=sys.stderr)
            return 2

    result = run(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  digest {result['digest']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"host scale {_fmt(statistics.median(result['host_scale']))}")
    for line in result["failures"]:
        print("  FAILED", line)
    for name, unit in END_TO_END.items():
        print(f"  {name:28s} {_fmt(result['end_to_end'][name]):>14s} {unit}")
    for name, unit in PER_LAYER.items() if args.trace else ():
        print(f"  {name:28s} {_fmt(result['per_layer'][name]):>14s} {unit}")
    print(json.dumps({"detail": result}))

    table = result["per_layer"] if args.trace else result["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = table[name]
        if isinstance(value, float) and not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
