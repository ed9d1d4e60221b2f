"""Metrics, the time-stepped reference simulator, and report comparison.

Energy is integrated exactly over piecewise-constant core states
reconstructed from the event trace; a 250 ms midpoint sampling series is
also emitted to mirror how the reference measurements were taken.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass

from wavesched.platform import (
    CORE_ACTIVE,
    CORE_ACTIVE_SIMD,
    CORE_IDLE,
    Platform,
    instantaneous_power,
)
from wavesched.policies import (
    BindTo,
    Idle,
    MigrateSelf,
    TakeRow,
    make_policy,
)
from wavesched.workload import effective_cost
from wavesched.wpp_graph import (
    FILTER_PHASES,
    GridDims,
    Phase,
    TaskId,
    task_deps,
)

# About 69 simulated hours at 250 ms. Longer runs come from a scale error
# (huge work units, a near-zero core speed), not from decoding video.
MAX_POWER_SAMPLES = 1_000_000


@dataclass
class SimReport:
    frames: int
    wall_time_s: float
    fps: float
    energy_j: float
    epf_j: float
    avg_power_w: float
    energy_sampled_j: float
    avg_power_sampled_w: float
    power_samples: tuple[tuple[float, float], ...]
    migrations: int
    core_active_s: dict[int, float]
    core_utilization: dict[int, float]

    def __post_init__(self) -> None:
        # Explicit checks rather than asserts, so that they hold under python -O.
        if not abs(self.epf_j * self.fps - self.avg_power_w) <= 1e-9 * max(
            1.0, self.avg_power_w
        ):
            raise ValueError(
                f"energy identity violated: epf {self.epf_j} J x fps {self.fps} "
                f"!= power {self.avg_power_w} W"
            )
        for core, u in self.core_utilization.items():
            if not u <= 1.0 + 1e-9:
                raise ValueError(f"core {core} utilization {u} exceeds 1")


def compute_metrics(trace, platform: Platform, simd: bool) -> SimReport:
    """Exact piecewise-constant energy integration, in one pass over a
    finished trace in time order.

    CtuStart and Migration open a running segment of their thread on their
    core (migration overhead runs no SIMD code); CtuComplete and ThreadIdle
    close it, and FrameComplete closes every open segment (an in-flight
    migration overhead is abandoned when the frame ends). The events at one
    time form a step. A step at which a segment of positive length starts or
    ends is a boundary: energy and active time are added at the state before
    it, the step's net change of per-core running and SIMD counts is applied,
    and power is evaluated once. A segment that opens and closes within one
    step has zero length and makes no boundary, so it changes neither the
    energy sum nor the power samples.
    """
    if not trace or trace[-1].kind != "FrameComplete":
        raise ValueError("truncated trace: missing final FrameComplete")

    wall = trace[-1].time_s
    interval = platform.sample_interval_s
    if wall / interval > MAX_POWER_SAMPLES:
        raise ValueError(f"{wall:.6g} s of simulated time needs more than "
                         f"{MAX_POWER_SAMPLES} power samples at {interval:g} s")

    n_cores = platform.n_cores
    running = [0] * n_cores
    simd_running = [0] * n_cores
    open_seg: dict[int, tuple[float, int, bool]] = {}  # thread -> (start, core, simd)

    def evaluate() -> tuple[float, list[int]]:
        """Power, and the cores running a job, at the current counts."""
        states = []
        active = []
        for c in range(n_cores):
            if running[c] == 0:
                states.append(CORE_IDLE)
            else:
                active.append(c)
                states.append(CORE_ACTIVE_SIMD if simd_running[c] else CORE_ACTIVE)
        return instantaneous_power(platform, states), active

    frames = 0
    migrations = 0
    energy = 0.0
    active_s = [0.0] * n_cores
    # Power at the midpoints of the sampling intervals: each sample takes the
    # power of the last boundary at or before it.
    samples: list[tuple[float, float]] = []
    k = 0
    cursor = 0.0
    power_now, active = evaluate()

    n = len(trace)
    i = 0
    prev = trace[0].time_s
    while i < n:
        t = trace[i].time_s
        if t < prev:
            raise ValueError(f"trace out of time order: event {i} at {t} s "
                             f"follows one at {prev} s")
        prev = t
        ends = False  # a segment opened before t ends at t
        fresh = 0  # segments opened at t and still open
        while True:
            ev = trace[i]
            kind = ev.kind
            if kind in ("CtuStart", "Migration", "CtuComplete", "ThreadIdle"):
                seg = open_seg.pop(ev.thread, None)
                if seg is not None:
                    running[seg[1]] -= 1
                    if seg[2]:
                        simd_running[seg[1]] -= 1
                    if seg[0] < t:
                        ends = True
                    else:
                        fresh -= 1
                if kind in ("CtuStart", "Migration"):
                    seg_simd = simd and kind == "CtuStart"
                    open_seg[ev.thread] = (t, ev.core, seg_simd)
                    running[ev.core] += 1
                    if seg_simd:
                        simd_running[ev.core] += 1
                    fresh += 1
                    if kind == "Migration":
                        migrations += 1
            elif kind == "FrameComplete":
                frames += 1
                for seg in open_seg.values():
                    running[seg[1]] -= 1
                    if seg[2]:
                        simd_running[seg[1]] -= 1
                    if seg[0] < t:
                        ends = True
                    else:
                        fresh -= 1
                open_seg.clear()
            i += 1
            if i == n or trace[i].time_s != t:
                break
        if not (ends or fresh):
            continue
        if t > cursor:
            dt = t - cursor
            energy += power_now * dt
            for c in active:
                active_s[c] += dt
            cursor = t
        while (k + 0.5) * interval < cursor:
            samples.append(((k + 0.5) * interval, power_now))
            k += 1
        power_now, active = evaluate()
    if not wall / frames >= sys.float_info.min:
        # Shorter runs come from work units near the smallest float: fps
        # overflows, and subnormal times lose the precision energy needs.
        raise ValueError(f"{wall:.6g} s of simulated time for {frames} frames is below "
                         f"{sys.float_info.min:.6g} s per frame, the smallest normal float")
    if wall > cursor:
        dt = wall - cursor
        energy += power_now * dt
        for c in active:
            active_s[c] += dt
    while (k + 0.5) * interval < wall:
        samples.append(((k + 0.5) * interval, power_now))
        k += 1
    energy_sampled = (
        sum(p for _, p in samples) / len(samples) * wall if samples else energy
    )

    return SimReport(
        frames=frames,
        wall_time_s=wall,
        fps=frames / wall,
        energy_j=energy,
        epf_j=energy / frames,
        avg_power_w=energy / wall,
        energy_sampled_j=energy_sampled,
        avg_power_sampled_w=energy_sampled / wall,
        power_samples=tuple(samples),
        migrations=migrations,
        core_active_s=dict(enumerate(active_s)),
        core_utilization={c: a / wall for c, a in enumerate(active_s)},
    )


def analytic_wavefront_makespan(dims: GridDims, t_ctu: float) -> float:
    """Unlimited-thread lower bound for uniform costs on identical cores.

    Consecutive rows run two CTUs apart in the ideal wavefront, so the last
    row starts 2(rows-1) CTU times after the first; single-column grids
    degenerate to a serial chain of rows.
    """
    return (dims.cols + min(dims.cols, 2) * (dims.rows - 1)) * t_ctu


# --- time-stepped reference simulator ----------------------------------------


class _RefThread:
    __slots__ = ("core", "row", "col", "rem", "task", "status")

    def __init__(self):
        self.core = None
        self.row = None
        self.col = 0
        self.rem = None  # wu remaining; None = no job
        self.task = None  # None while rem holds migration overhead
        self.status = "stalled"  # run | stalled | wait_little | parked


def reference_simulate(config):
    """Small-instance oracle: fixed-step time scan with exact completion
    splitting inside each step, sharing no code with the event engine's
    scheduler loop, including its own copy of the shared-memory contention
    term. Returns (makespan, {task: completion time}).
    """
    dims: GridDims = config.dims
    platform = config.platform
    models = config.cost_models()
    n_tasks = config.frames * dims.n_ctus * 4
    if n_tasks > 5000:
        raise ValueError(f"reference simulator is for small instances ({n_tasks} tasks)")

    speeds = [c.speed_wu_per_s for c in platform.cores]
    max_speed = max(speeds)
    kappa = platform.memory_contention
    demand = [s / max_speed for s in speeds]
    min_cost = None
    for m in models:
        costs = [effective_cost(float(w), config.simd) for w in m.recon.flat]
        for p in FILTER_PHASES:
            costs.append(effective_cost(m.filter_cost_per_ctu(p), config.simd))
        positive = [c for c in costs if c > 0]
        if positive:
            m_min = min(positive)
            min_cost = m_min if min_cost is None else min(min_cost, m_min)
    if min_cost is None:
        raise ValueError("step underflow: no positive task cost to derive a step from")
    dt = (min_cost / max_speed) / 1000.0
    if not dt > 0.0:
        raise ValueError("step underflow: non-positive time step")

    policy = make_policy(config.policy.kind)
    spec = config.policy
    overhead = spec.migration_overhead_s
    big_set = set(platform.big_ids)
    little_set = set(platform.little_ids)

    completions: dict[TaskId, float] = {}
    now = 0.0

    for frame in range(config.frames):
        model = models[frame]
        state = policy.initial_assignment(spec, platform, dims)
        threads: dict[int, _RefThread] = {}
        for tid in state.bindings:
            th = _RefThread()
            th.core = state.bindings[tid]
            th.row = state.rows[tid]
            th.status = "parked" if tid in state.parked else "stalled"
            threads[tid] = th
        done: set[TaskId] = set()
        claimed: set[TaskId] = set()
        stage = "recon"
        recon_total = dims.n_ctus
        filter_tasks = [
            TaskId(frame, p, i, j)
            for p in FILTER_PHASES
            for i in range(dims.rows)
            for j in range(dims.cols)
        ]

        def recon_ready(tid: int) -> bool:
            th = threads[tid]
            task = TaskId(frame, Phase.RECON, th.row, th.col)
            return all(d in done for d in task_deps(task, dims))

        def start_job(tid: int, task: TaskId, wu: float) -> None:
            th = threads[tid]
            th.rem = wu
            th.task = task
            th.status = "run"

        def try_dispatch(tid: int) -> None:
            th = threads[tid]
            if th.rem is not None or th.status in ("parked", "wait_little"):
                return
            if stage == "recon":
                if th.row is None:
                    return
                if recon_ready(tid):
                    task = TaskId(frame, Phase.RECON, th.row, th.col)
                    start_job(tid, task, effective_cost(float(model.recon[th.row, th.col]),
                                                         config.simd))
                else:
                    th.status = "stalled"
            else:
                best = None
                for task in filter_tasks:
                    if task in claimed or task in done:
                        continue
                    if any(d not in done for d in task_deps(task, dims)):
                        continue
                    key = (FILTER_PHASES.index(task.phase), task.row, task.col)
                    if best is None or key < best[0]:
                        best = (key, task)
                if best is None:
                    th.status = "stalled"
                    return
                task = best[1]
                claimed.add(task)
                start_job(tid, task, effective_cost(model.filter_cost_per_ctu(task.phase),
                                                     config.simd))

        def dispatch_all() -> None:
            for tid in sorted(threads):
                try_dispatch(tid)

        def fill_vacancy(core: int) -> None:
            if core not in little_set or not state.waiting_little:
                return
            if state.residents(core):
                return
            tid = state.waiting_little.pop(0)
            th = threads[tid]
            th.status = "stalled"
            state.bindings[tid] = core
            th.core = core
            if overhead > 0:
                th.rem = overhead * speeds[core]
                th.task = None
                th.status = "run"

        def migrate(tid: int, dest: int) -> None:
            th = threads[tid]
            src = th.core
            state.bindings[tid] = dest
            th.core = dest
            if src is not None and src in little_set and src != dest:
                fill_vacancy(src)
            if overhead > 0:
                th.rem = overhead * speeds[dest]
                th.task = None
                th.status = "run"

        def begin_filter() -> None:
            nonlocal stage
            stage = "filter"
            rebinds = policy.filter_stage_start(state)
            state.parked.clear()
            state.waiting_little.clear()
            for tid, th in threads.items():
                if th.status in ("parked", "wait_little"):
                    th.status = "stalled"
            for tid, bind in rebinds:
                if bind.core is not None and bind.core != state.bindings[tid]:
                    state.bindings[tid] = bind.core
                    threads[tid].core = bind.core
                    if overhead > 0:
                        th = threads[tid]
                        th.rem = overhead * speeds[bind.core]
                        th.task = None
                        th.status = "run"

        def complete(tid: int) -> bool:
            """Handle one completion; True when it triggered the filter barrier."""
            th = threads[tid]
            task = th.task
            th.rem = None
            th.task = None
            if task is None:  # migration overhead expired
                try_dispatch(tid)
                return False
            done.add(task)
            completions[task] = now
            crossed = False
            if task.phase is Phase.RECON:
                if task.col + 1 < dims.cols:
                    th.col = task.col + 1
                    for act in policy.on_recon_ctu_complete(state, tid, task.coord):
                        if isinstance(act, MigrateSelf):
                            migrate(tid, act.core)
                else:
                    state.rows[tid] = None
                    th.row = None
                    for act in policy.on_row_complete(state, tid):
                        if isinstance(act, TakeRow):
                            state.rows[tid] = act.row
                            state.next_row = max(state.next_row, act.row + 1)
                            th.row, th.col = act.row, 0
                        elif isinstance(act, BindTo):
                            if act.core is None:
                                state.bindings[tid] = None
                                th.core = None
                                th.status = "wait_little"
                                state.waiting_little.append(tid)
                            else:
                                migrate(tid, act.core)
                        elif isinstance(act, Idle):
                            state.rows[tid] = None
                            th.row = None
                            state.parked.add(tid)
                            th.status = "parked"
                            if th.core is not None:
                                fill_vacancy(th.core)
                if sum(1 for t in done if t.phase is Phase.RECON) == recon_total:
                    begin_filter()
                    crossed = True
            elif len(done) < recon_total * 4:
                for act in policy.on_filter_ctu_complete(state, tid):
                    if isinstance(act, MigrateSelf):
                        migrate(tid, act.core)
            return crossed

        dispatch_all()
        frame_tasks = recon_total * 4
        while len(done) < frame_tasks:
            window = dt
            progressed = False
            while window > 0.0:
                running = [(tid, th) for tid, th in sorted(threads.items())
                           if th.rem is not None]
                if not running:
                    break
                occ: dict[int, int] = {}
                for _, th in running:
                    occ[th.core] = occ.get(th.core, 0) + 1
                # Shared-memory contention: each core with work adds its
                # demand (speed relative to the fastest core) to the load
                # that slows every other such core.
                load = 0.0
                for core in occ:
                    load += demand[core]
                rates = []
                etas = []
                for tid, th in running:
                    core = th.core
                    rate = speeds[core] / occ[core] / (1.0 + kappa * (load - demand[core]))
                    rates.append(rate)
                    eta = th.rem / rate
                    if th.task is not None:
                        p = -1 if th.task.phase is Phase.RECON else FILTER_PHASES.index(th.task.phase)
                        order = (0, p, th.task.row, th.task.col, th.core, tid)
                    else:
                        order = (1, 0, 0, 0, th.core, tid)
                    etas.append((eta, order, tid))
                eta = min(e[0] for e in etas)
                if eta <= window:
                    # Stepped accumulation leaves ~1e-12 of fuzz on events
                    # that are exactly simultaneous (uniform costs on cores
                    # with a rational speed ratio).  Snap near-ties and break
                    # them by task coordinates, the same rule the event
                    # engine applies, so tie-heavy configs stay comparable.
                    tol = 1e-9 * (now + eta) + 1e-15
                    tied = [e for e in etas if e[0] - eta <= tol]
                    tied.sort(key=lambda e: e[1])
                    finisher = tied[0][2]
                    for (tid, th), rate in zip(running, rates):
                        th.rem = max(0.0, th.rem - rate * eta)
                    now += eta
                    window -= eta
                    # The completing thread gets first claim on whatever its
                    # completion made ready, except at the stage barrier where
                    # every thread pulls in id order.
                    crossed = complete(finisher)
                    if not crossed:
                        try_dispatch(finisher)
                    dispatch_all()
                    progressed = True
                else:
                    # Nothing finishes in this window: cross it and every
                    # whole step after it that still ends before eta.
                    steps = int((eta - window) // dt)
                    if window + steps * dt >= eta:
                        steps -= 1
                    span = window + steps * dt
                    for (tid, th), rate in zip(running, rates):
                        th.rem -= rate * span
                    now += span
                    window = 0.0
                    progressed = True
            if not progressed:
                raise RuntimeError(
                    f"reference simulator stuck at t={now:.9f} "
                    f"({len(done)}/{frame_tasks} tasks done)"
                )
    return now, completions


# --- reference targets and comparison ----------------------------------------


def load_reference_targets() -> dict[tuple[str, int, bool, str], float]:
    """Parse data/reference_targets.csv into {(policy, threads, simd, metric): value}."""
    import importlib.resources

    path = importlib.resources.files("wavesched").joinpath("data/reference_targets.csv")
    targets: dict[tuple[str, int, bool, str], float] = {}
    with path.open("r", encoding="utf-8") as f:
        for row in csv.reader(line for line in f if not line.startswith("#")):
            if not row or row[0] == "policy":
                continue
            policy, threads, simd, metric, value = row
            targets[(policy, int(threads), simd == "on", metric)] = float(value)
    return targets


def compare_to_reference(reports, targets=None) -> dict:
    """Deviation table between simulated reports and the measured targets.

    `reports` maps (policy, threads, simd) to SimReport (or an exception for
    failed sweep cells). Rows carry the simulated and reference values, their
    percentage delta, and percentage-vs-baseline columns where the same-count
    fast-cluster run exists on both sides.
    """
    if targets is None:
        targets = load_reference_targets()
    simulated_kinds = {k[0] for k in reports}
    rows = []
    missing = []
    for (policy, threads, simd, metric), ref_value in sorted(targets.items()):
        if metric not in ("fps", "epf"):
            continue
        if policy not in simulated_kinds:
            continue
        key = (policy, threads, simd)
        report = reports.get(key)
        if report is None or isinstance(report, Exception):
            missing.append({"policy": policy, "threads": threads,
                            "simd": simd, "metric": metric})
            continue
        sim_value = report.fps if metric == "fps" else report.epf_j
        row = {
            "policy": policy,
            "threads": threads,
            "simd": simd,
            "metric": metric,
            "simulated": sim_value,
            "reference": ref_value,
            "delta_pct": (sim_value - ref_value) / ref_value * 100.0,
        }
        base_key = ("big-os", threads, False)
        base_report = reports.get(base_key)
        base_ref = targets.get(("big-os", threads, False, metric))
        if (
            base_key != key
            and base_report is not None
            and not isinstance(base_report, Exception)
            and base_ref is not None
        ):
            base_sim = base_report.fps if metric == "fps" else base_report.epf_j
            row["sim_vs_baseline_pct"] = (sim_value - base_sim) / base_sim * 100.0
            row["ref_vs_baseline_pct"] = (ref_value - base_ref) / base_ref * 100.0
        rows.append(row)
    return {"rows": rows, "missing": missing}


# --- serialization ------------------------------------------------------------

_CSV_FIELDS = (
    "policy", "threads", "simd", "frames", "wall_time_s", "fps", "energy_j",
    "epf_j", "avg_power_w", "migrations", "status",
)


def report_to_dict(report: SimReport, key=None) -> dict:
    out = {}
    if key is not None:
        out.update({"policy": key[0], "threads": key[1], "simd": key[2]})
    out.update(
        {
            "frames": report.frames,
            "wall_time_s": report.wall_time_s,
            "fps": report.fps,
            "energy_j": report.energy_j,
            "epf_j": report.epf_j,
            "avg_power_w": report.avg_power_w,
            "energy_sampled_j": report.energy_sampled_j,
            "avg_power_sampled_w": report.avg_power_sampled_w,
            "migrations": report.migrations,
            "core_utilization": {str(c): report.core_utilization[c]
                                 for c in sorted(report.core_utilization)},
            "power_samples": [[t, p] for t, p in report.power_samples],
        }
    )
    return out


def reports_to_csv(results) -> str:
    """One row per sweep cell; failed cells carry the error message."""
    lines = [",".join(_CSV_FIELDS)]
    for key in sorted(results, key=lambda k: (k[0], k[1], k[2])):
        policy, threads, simd = key
        cell = results[key]
        if isinstance(cell, Exception):
            vals = [policy, str(threads), "on" if simd else "off",
                    "", "", "", "", "", "", "", f"error: {cell}"]
        else:
            vals = [
                policy, str(threads), "on" if simd else "off",
                str(cell.frames),
                f"{cell.wall_time_s:.9g}", f"{cell.fps:.9g}",
                f"{cell.energy_j:.9g}", f"{cell.epf_j:.9g}",
                f"{cell.avg_power_w:.9g}", str(cell.migrations), "ok",
            ]
        lines.append(",".join(v.replace(",", ";") for v in vals))
    return "\n".join(lines) + "\n"
