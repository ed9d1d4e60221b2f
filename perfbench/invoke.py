"""One `wavesched` CLI command, run in this process, counted or traced.

Usage: PYTHONPATH=src python3 perfbench/invoke.py {count|trace} SUMMARY.json CLI-ARG...

The CLI output goes to stdout exactly as `python -m wavesched.cli` writes it,
and a JSON summary goes to SUMMARY.json.

- `count` wraps only `engine.simulate`, to add up the length of every trace
  it returns (a few calls per run, so the timing stays that of the CLI),
  and samples the host's speed while the command runs (`HostProbe`).
- `trace` adds spans around the public entry points of every module, counts
  `Platform.cores` accesses and events by kind, and checks each trace's
  conservation rules; the summary holds per-span calls and self time.

Spans are installed by rebinding, in this process only, the module
attributes that callers look up (`engine.simulate`, `engine.generate`,
`engine.make_policy`, `analysis.instantaneous_power`, ...). A span's self
time is its duration minus the time covered by its child spans; each span
is folded into per-name totals as it closes, so memory stays flat however
many calls a run makes. `Platform.cores` is wrapped to count accesses only.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
from collections import Counter

POLICY_CALLBACKS = (
    "initial_assignment",
    "on_recon_ctu_complete",
    "on_row_complete",
    "filter_stage_start",
    "on_filter_ctu_complete",
)

PROBE_INTERVAL_S = 0.05
_PROBE_TABLE = {k: k for k in range(40000)}
_PROBE_KEYS = tuple(range(0, 40000, 97))


def _probe_work() -> int:
    """A fixed slice of pure-Python work: integer arithmetic, then dict lookups."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    table = _PROBE_TABLE
    for _ in range(6):
        for k in _PROBE_KEYS:
            s += table[k]
    return s


class HostProbe:
    """Times `_probe_work` every PROBE_INTERVAL_S of wall time, in this process.

    The host this runs on is shared, and its speed for this process comes and
    goes by tens of percent within seconds. A SIGALRM handler runs the probe
    between bytecodes of the command under test, on the same core and in the
    same stretch of time, so the median probe time says how fast the host was
    while the command ran. The probe touches nothing of the command's state.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {
            "n": len(self.samples),
            "median_s": statistics.median(self.samples) if self.samples else None,
            "total_s": sum(self.samples),
        }


class Tracer:
    """Stack of open spans; closed spans fold into per-name totals."""

    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: [child seconds]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.nonempty: Counter = Counter()  # action calls that returned actions

    def wrap(self, name, fn, actions=False):
        stack, calls, self_s, nonempty = self.stack, self.calls, self.self_s, self.nonempty
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
            if actions and result:
                nonempty[name] += 1
            return result

        return traced


class TraceCheck:
    """Conservation rules on one engine trace, against `wpp_graph.task_deps`."""

    def __init__(self, wpp_graph):
        self.wpp = wpp_graph
        self.deps: dict = {}  # GridDims -> {task key: [dep keys]} within one frame
        self.events: Counter = Counter()
        self.failures: list[str] = []

    def _frame_deps(self, dims):
        if dims not in self.deps:
            key = lambda t: (t.phase, t.row, t.col)  # noqa: E731
            self.deps[dims] = {
                key(t): [key(d) for d in self.wpp.task_deps(t, dims)]
                for t in self.wpp.all_tasks(dims)
            }
        return self.deps[dims]

    def __call__(self, config, trace) -> None:
        recon = self.wpp.Phase.RECON
        done: list[dict] = [{} for _ in range(config.frames)]
        for ev in trace:
            self.events[ev.kind] += 1
            if ev.kind != "CtuComplete":
                continue
            t = ev.task
            k = (t.phase, t.row, t.col)
            if not 0 <= t.frame < config.frames or k in done[t.frame]:
                self._fail(f"{t} completed twice or outside the run")
                continue
            done[t.frame][k] = ev.time_s
        frame_deps = self._frame_deps(config.dims)
        for f, times in enumerate(done):
            if times.keys() != frame_deps.keys():
                self._fail(f"frame {f}: {len(times)} of {len(frame_deps)} tasks completed")
                continue
            barrier = max(v for (phase, _, _), v in times.items() if phase is recon)
            for k, deps in frame_deps.items():
                t = times[k]
                late = [d for d in deps if times[d] > t]
                if late:
                    self._fail(f"frame {f}: {k} completed before its dependency {late[0]}")
                if k[0] is not recon and t < barrier:
                    self._fail(f"frame {f}: filter task {k} completed before the barrier")

    def _fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


def _install(tracer: Tracer, check: TraceCheck, modules) -> list[int]:
    """Rebind entry points to traced wrappers; returns the cores-access counter."""
    analysis, engine, platform, policies = modules
    wrap = tracer.wrap

    simulate = wrap("engine.simulate", engine.simulate)
    checked = wrap("bench.check", check)

    def simulate_and_check(config):
        trace, report = simulate(config)
        checked(config, trace)
        return trace, report

    engine.simulate = simulate_and_check
    engine.generate = wrap("workload.generate", engine.generate)

    make_policy = policies.make_policy

    def traced_make_policy(kind):
        policy = make_policy(kind)
        for name in POLICY_CALLBACKS:
            callback = getattr(policy, name)
            setattr(policy, name, wrap("policies." + name, callback, actions=True))
        return policy

    engine.make_policy = wrap("policies.make_policy", traced_make_policy)

    analysis.compute_metrics = wrap("analysis.compute_metrics", analysis.compute_metrics)
    analysis.compare_to_reference = wrap(
        "analysis.compare_to_reference", analysis.compare_to_reference)
    analysis.report_to_dict = wrap("analysis.report_to_dict", analysis.report_to_dict)
    analysis.reports_to_csv = wrap("analysis.reports_to_csv", analysis.reports_to_csv)
    analysis.load_reference_targets = wrap(
        "analysis.load_reference_targets", analysis.load_reference_targets)
    analysis.instantaneous_power = wrap(
        "platform.instantaneous_power", analysis.instantaneous_power)
    platform.calibrate = wrap("platform.calibrate", platform.calibrate)

    cores_access = [0]
    cores = platform.Platform.cores.fget

    def counted_cores(self):
        cores_access[0] += 1
        return cores(self)

    platform.Platform.cores = property(counted_cores)
    return cores_access


def _install_count(engine) -> list[int]:
    events = [0]
    simulate = engine.simulate

    def counted(config):
        trace, report = simulate(config)
        events[0] += len(trace)
        return trace, report

    engine.simulate = counted
    return events


def main(argv: list[str]) -> int:
    mode, summary_path, cli_args = argv[0], argv[1], argv[2:]
    probe = HostProbe()
    if mode == "count":
        probe.start()
    t0 = time.perf_counter()
    from wavesched import analysis, cli, engine, platform, policies, wpp_graph
    import_s = time.perf_counter() - t0
    summary = {"module_file": os.path.abspath(cli.__file__), "import_s": import_s}

    if mode == "count":
        events = _install_count(engine)
        try:
            status = cli.main(cli_args)
        finally:
            summary["probe"] = probe.stop()
        summary["events"] = events[0]
    else:
        tracer = Tracer()
        check = TraceCheck(wpp_graph)
        cores_access = _install(tracer, check, (analysis, engine, platform, policies))
        status = tracer.wrap("cli.main", cli.main)(cli_args)
        summary.update({
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "nonempty": dict(tracer.nonempty),
            "cores_access": cores_access[0],
            "events": dict(check.events),
            "check_failures": check.failures,
        })
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump(summary, f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
