"""Deterministic discrete-event simulator.

Time advances completion by completion. Every runnable item (a CTU or a
migration overhead) is a job on some core; cores run their resident jobs
under fair processor sharing, slowed by shared-memory contention. A thread
on core c runs at speed_c / n_c / (1 + kappa * (D - d_c)), where n_c counts
the runnable residents of c, d_c = speed_c / max speed, D sums d over every
core with a runnable job, and kappa is `Platform.memory_contention`. Speeds
are piecewise constant between events. At each completion the policy is
consulted and its actions applied.

A stalled thread (dependency not yet met, or no ready filter task) keeps its
core binding but neither consumes a share nor keeps the core active; a core
with only stalled residents is idle for power yet still occupied for binding
decisions. A parked thread (out of rows) releases the core entirely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import NamedTuple

from wavesched.platform import Platform
from wavesched.policies import (
    BindTo,
    Idle,
    MigrateSelf,
    Policy,
    PolicySpec,
    SchedState,
    TakeRow,
    make_policy,
    schedule_of,
)
from wavesched.workload import CostModel, WorkloadSpec, effective_cost, generate
from wavesched.wpp_graph import (
    FILTER_PHASES,
    PHASES,
    GridDims,
    Phase,
    TaskId,
    frame_graph,
)

EV_CTU_START = "CtuStart"
EV_CTU_COMPLETE = "CtuComplete"
EV_ROW_COMPLETE = "RowComplete"
EV_BARRIER = "BarrierReached"
EV_MIGRATION = "Migration"
EV_FRAME_COMPLETE = "FrameComplete"
EV_THREAD_IDLE = "ThreadIdle"
EV_THREAD_RESUME = "ThreadResume"


class SimEvent(NamedTuple):
    time_s: float
    kind: str
    thread: int | None = None
    core: int | None = None
    task: TaskId | None = None
    frame: int | None = None
    src_core: int | None = None


class DeadlockError(RuntimeError):
    def __init__(self, message: str, blocked: list[str]):
        super().__init__(message + ": " + "; ".join(blocked))
        self.blocked = blocked


@dataclass(frozen=True)
class SimConfig:
    dims: GridDims
    frames: int
    workload: WorkloadSpec
    platform: Platform
    policy: PolicySpec
    simd: bool = False

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")

    def cost_models(self) -> list[CostModel]:
        return generate(self.workload, self.dims, self.frames)


class _Thread:
    """Engine-side progress of one thread. Its row, parking and wait for a
    slow core live in `SchedState`; it is running exactly while
    `job_remaining` is not None."""

    __slots__ = ("id", "col", "job_remaining", "job_task", "job_index", "idle_logged")

    def __init__(self, tid: int):
        self.id = tid
        self.col = 0  # next CTU of the row in state.rows[id]
        self.job_remaining: float | None = None  # wu; None = no job
        self.job_task: TaskId | None = None  # None while job runs overhead
        self.job_index = 0  # frame_graph index of job_task; n_tasks for overhead
        self.idle_logged = False


class _Sim:
    """Readiness comes from `wpp_graph.frame_graph`: each frame copies the
    in-degrees and decrements them as tasks complete. A filter task whose
    count reaches 0 joins the ready heap, ordered by graph index, i.e. by
    (phase, row, col); a reconstruction task whose count reaches 0 wakes the
    thread stalled on it (rows are owned, so there is at most one)."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.platform = config.platform
        self.dims = config.dims
        self.policy: Policy = make_policy(config.policy.kind)
        self.spec = config.policy
        self.models = config.cost_models()
        self.simd = config.simd
        self.events: list[SimEvent] = []
        self.now = 0.0
        self.core_speed = [c.speed_wu_per_s for c in self.platform.cores]
        top = max(self.core_speed)
        self.core_demand = [s / top for s in self.core_speed]
        self.kappa = self.platform.memory_contention
        self.frame = 0
        self.graph = frame_graph(self.dims)
        self.n_ctus = self.dims.n_ctus
        self.n_tasks = len(self.graph.indegree)
        self.filter_roots = [
            k for k in range(self.n_ctus, self.n_tasks) if self.graph.indegree[k] == 0
        ]

    def emit(self, kind, thread=None, core=None, task=None, src_core=None):
        self.events.append(
            SimEvent(self.now, kind, thread, core, task, self.frame, src_core)
        )

    # --- per-frame state ---

    def _reset_frame(self):
        dims = self.dims
        self.state: SchedState = self.policy.initial_assignment(
            self.spec, self.platform, dims
        )
        self.threads = [_Thread(t) for t in range(self.spec.threads)]
        model = self.models[self.frame]
        self.recon_cost = [
            effective_cost(wu, self.simd) for row in model.recon.tolist() for wu in row
        ]
        self.filter_cost = [
            effective_cost(model.filter_cost_per_ctu(p), self.simd) for p in FILTER_PHASES
        ]
        self.pending = list(self.graph.indegree)  # unmet dependencies per task
        self.done = 0  # completed tasks of the frame
        self.stalled_on: dict[int, int] = {}  # recon task index -> waiting thread
        self.stage = "recon"
        self.filter_ready: list[int] = []  # heap of graph indices
        self.filter_waiters: set[int] = set()
        self.frame_done = False

    # --- task start and stall ---

    def _start(self, th: _Thread, task: TaskId, index: int, cost: float):
        th.job_remaining = cost
        th.job_task = task
        th.job_index = index
        core = self.state.bindings[th.id]
        if th.idle_logged:
            self.emit(EV_THREAD_RESUME, th.id, core)
        th.idle_logged = False
        self.emit(EV_CTU_START, th.id, core, task)

    def _stall(self, th: _Thread):
        th.job_remaining = None
        th.job_task = None
        if not th.idle_logged:
            self.emit(EV_THREAD_IDLE, th.id, self.state.bindings[th.id])
            th.idle_logged = True

    def _try_start_recon(self, tid: int):
        """Start the thread's next CTU, or stall on its upper dependency."""
        row = self.state.rows[tid]
        if row is None or tid in self.state.waiting_little:
            return
        th = self.threads[tid]
        k = row * self.dims.cols + th.col
        if self.pending[k] == 0:
            self._start(th, TaskId(self.frame, Phase.RECON, row, th.col), k, self.recon_cost[k])
        else:
            self.stalled_on[k] = tid
            self._stall(th)

    def _start_overhead(self, tid: int, dest: int) -> bool:
        """Charge migration overhead as an active job on the destination."""
        if self.spec.migration_overhead_s <= 0:
            return False
        th = self.threads[tid]
        th.job_remaining = self.spec.migration_overhead_s * self.core_speed[dest]
        th.job_task = None
        th.job_index = self.n_tasks
        th.idle_logged = False
        return True

    def _apply_migration(self, tid: int, dest: int):
        src = self.state.bindings[tid]
        self.state.bindings[tid] = dest
        self.emit(EV_MIGRATION, thread=tid, core=dest, src_core=src)
        if src is not None and src in self.platform.little_set and src != dest:
            self._fill_little_vacancy(src)
        if not self._start_overhead(tid, dest):
            self._continue_after_move(tid)

    def _continue_after_move(self, tid: int):
        # The Migration event counts the thread active on its new core, so a
        # stall right after a move without overhead must log ThreadIdle again.
        self.threads[tid].idle_logged = False
        if self.stage == "recon":
            self._try_start_recon(tid)
        else:
            self._filter_pull(tid)

    def _fill_little_vacancy(self, core: int):
        """Hand a vacated slow core to the longest-waiting rowed thread."""
        if not self.state.waiting_little:
            return
        if self.state.residents(core):
            return
        tid = self.state.waiting_little.pop(0)
        self.state.bindings[tid] = core
        self.emit(EV_MIGRATION, thread=tid, core=core, src_core=None)
        if not self._start_overhead(tid, core):
            self._continue_after_move(tid)

    # --- policy action application ---

    def _apply_row_actions(self, tid: int, actions):
        th = self.threads[tid]
        took_row = False
        moved = False
        for act in actions:
            if isinstance(act, TakeRow):
                self.state.rows[tid] = act.row
                self.state.next_row = max(self.state.next_row, act.row + 1)
                th.col = 0
                took_row = True
            elif isinstance(act, BindTo):
                src = self.state.bindings[tid]
                if act.core is None:
                    self.state.bindings[tid] = None
                    self.state.waiting_little.append(tid)
                    self.emit(EV_THREAD_IDLE, thread=tid, core=src)
                    th.idle_logged = True
                    moved = True
                elif act.core != src:
                    self._apply_migration(tid, act.core)
                    moved = True
            elif isinstance(act, Idle):
                self.state.rows[tid] = None
                self.state.parked.add(tid)
                self.emit(EV_THREAD_IDLE, thread=tid, core=self.state.bindings[tid])
                th.idle_logged = True
                src = self.state.bindings[tid]
                if src is not None and src in self.platform.little_set:
                    self._fill_little_vacancy(src)
        if took_row and not moved and th.job_remaining is None:
            self._try_start_recon(tid)

    def _migrate_if_asked(self, tid: int, actions) -> bool:
        migrated = False
        for act in actions:
            if isinstance(act, MigrateSelf):
                self._apply_migration(tid, act.core)
                migrated = True
        return migrated

    # --- completions ---

    def _complete(self, th: _Thread, task: TaskId) -> list[int]:
        """Record a task completion; returns the tasks it made ready."""
        th.job_remaining = None
        th.job_task = None
        self.done += 1
        self.emit(EV_CTU_COMPLETE, th.id, self.state.bindings[th.id], task)
        pending = self.pending
        ready = []
        for k in self.graph.successors[th.job_index]:
            pending[k] -= 1
            if pending[k] == 0:
                ready.append(k)
        return ready

    def _complete_recon(self, th: _Thread, task: TaskId):
        tid = th.id
        for k in self._complete(th, task):
            waiter = self.stalled_on.pop(k, None)
            if waiter is not None:
                self._try_start_recon(waiter)

        if task.col + 1 < self.dims.cols:
            th.col = task.col + 1
            actions = self.policy.on_recon_ctu_complete(self.state, tid, task.coord)
            if not self._migrate_if_asked(tid, actions):
                self._try_start_recon(tid)
        else:
            self.emit(
                EV_ROW_COMPLETE, thread=tid, core=self.state.bindings[tid], task=task
            )
            self.state.rows[tid] = None
            actions = self.policy.on_row_complete(self.state, tid)
            self._apply_row_actions(tid, actions)

        if self.done == self.n_ctus:
            self._begin_filter_stage()

    def _begin_filter_stage(self):
        self.emit(EV_BARRIER)
        self.stage = "filter"
        rebinds = self.policy.filter_stage_start(self.state)
        self.state.parked.clear()
        self.state.waiting_little.clear()
        for tid, bind in rebinds:
            src = self.state.bindings[tid]
            if bind.core is not None and bind.core != src:
                self.state.bindings[tid] = bind.core
                self.emit(EV_MIGRATION, thread=tid, core=bind.core, src_core=src)
                self._start_overhead(tid, bind.core)
        self.filter_ready = list(self.filter_roots)  # ascending, so a heap
        for th in self.threads:
            if th.job_remaining is None:
                self._filter_pull(th.id)

    def _filter_pull(self, tid: int):
        th = self.threads[tid]
        if self.filter_ready:
            k = heapq.heappop(self.filter_ready)
            p, rest = divmod(k, self.n_ctus)
            row, col = divmod(rest, self.dims.cols)
            self.filter_waiters.discard(tid)
            self._start(th, TaskId(self.frame, PHASES[p], row, col), k, self.filter_cost[p - 1])
        else:
            self.filter_waiters.add(tid)
            self._stall(th)

    def _complete_filter(self, th: _Thread, task: TaskId):
        tid = th.id
        for k in self._complete(th, task):
            heapq.heappush(self.filter_ready, k)

        if self.done == self.n_tasks:
            self.frame_done = True
            self.emit(EV_FRAME_COMPLETE)
            return

        actions = self.policy.on_filter_ctu_complete(self.state, tid)
        if not self._migrate_if_asked(tid, actions):
            self._filter_pull(tid)
        for waiter in sorted(self.filter_waiters):
            if not self.filter_ready:
                break
            self._filter_pull(waiter)

    def _complete_overhead(self, th: _Thread):
        th.job_remaining = None
        self._continue_after_move(th.id)

    # --- main loop ---

    def run(self) -> list[SimEvent]:
        for self.frame in range(self.config.frames):
            self._reset_frame()
            for th in self.threads:
                if th.id not in self.state.parked:
                    self._try_start_recon(th.id)
                else:
                    self.emit(EV_THREAD_IDLE, thread=th.id, core=self.state.bindings[th.id])
                    th.idle_logged = True
            self._run_frame()
        return self.events

    def _waits_for(self, tid: int, stalled: dict[int, int]) -> str:
        """What a thread without a job waits for; `stalled` maps a thread to
        the reconstruction task it waits to start."""
        if tid in self.state.parked:
            return "parked"
        if tid in self.state.waiting_little:
            return "slow-core queue"
        if self.stage == "filter":
            return "filter"
        if tid in stalled:
            row, col = divmod(stalled[tid], self.dims.cols)
            return f"recon({row},{col})"
        return "no row"

    def _blocked_report(self) -> list[str]:
        stalled = {tid: k for k, tid in self.stalled_on.items()}
        out = [
            f"thread {th.id}: core={self.state.bindings[th.id]} "
            f"row={self.state.rows[th.id]} col={th.col} "
            f"waits={self._waits_for(th.id, stalled)}"
            for th in self.threads
        ]
        n = self.n_ctus
        if self.stage == "recon":
            out.append(f"recon done {self.done}/{n}")
        else:
            out.append(f"filter done {self.done - n}/{self.n_tasks - n}")
        return out

    def _run_frame(self):
        threads = self.threads
        bindings = self.state.bindings
        speed, demand, kappa = self.core_speed, self.core_demand, self.kappa

        # Deterministic completion order: CTU tasks by (phase, row, col, core),
        # then overhead expiries by (core, thread).
        def order(th):
            return (th.job_index, bindings[th.id], th.id)

        while not self.frame_done:
            # Runnable jobs, and the per-thread rate on each active core.
            occupancy: dict[int, int] = {}
            runnable = []
            cores = []
            for th in threads:
                if th.job_remaining is not None:
                    core = bindings[th.id]
                    occupancy[core] = occupancy.get(core, 0) + 1
                    runnable.append(th)
                    cores.append(core)
            if not runnable:
                raise DeadlockError(
                    f"no runnable thread at t={self.now:.9f}", self._blocked_report()
                )
            total_demand = sum([demand[c] for c in occupancy])
            rate_on = {
                c: speed[c] / n / (1.0 + kappa * (total_demand - demand[c]))
                for c, n in occupancy.items()
            }
            rates = [rate_on[c] for c in cores]
            dts = [th.job_remaining / rate for th, rate in zip(runnable, rates)]
            dt_min = min(dts)
            limit = dt_min + (dt_min * 1e-12 + 1e-18)
            batch = []
            for th, rate, dt in zip(runnable, rates, dts):
                if dt <= limit:
                    batch.append(th)
                    th.job_remaining = 0.0
                else:
                    th.job_remaining -= dt_min * rate
            self.now += dt_min
            if len(batch) > 1:
                batch.sort(key=order)
            for th in batch:
                if th.job_remaining != 0.0:
                    continue  # a prior barrier/rebind in this batch reset it
                task = th.job_task
                if task is None:
                    self._complete_overhead(th)
                elif task.phase is Phase.RECON:
                    self._complete_recon(th, task)
                else:
                    self._complete_filter(th, task)
                if self.frame_done:
                    break


def simulate(config: SimConfig):
    """Run one configuration; returns (event trace, report)."""
    from wavesched import analysis

    trace = _Sim(config).run()
    report = analysis.compute_metrics(trace, config.platform, config.simd)
    return trace, report


def simulate_cells(base: SimConfig, cells):
    """Simulate each (policy, threads, simd) cell on `base`'s grid, frames,
    workload, platform and migration overhead; returns {cell: report}, with
    the policy kind canonical.

    The costs every cell shares are generated once first, so an error in
    them (a trace file, a cost that underflows) is raised, not given to each
    cell. A cell that fails on its own maps to its exception: a thread count
    its policy cannot hold, a deadlock, or a run too long or too short to
    measure (`ValueError` from `analysis.compute_metrics`).

    Cells whose policies give the same schedule (`policies.schedule_of`) at
    the same thread count and SIMD flag are simulated once and share one
    report, or one exception.
    """
    base.cost_models()
    results = {}
    by_schedule = {}
    for kind, threads, simd in cells:
        spec = PolicySpec(
            kind=kind, threads=threads, migration_overhead_s=base.policy.migration_overhead_s
        )
        schedule = schedule_of(spec, base.platform)
        key = (schedule, threads, simd)
        if key not in by_schedule:
            cfg = replace(base, policy=replace(spec, kind=schedule), simd=simd)
            try:
                by_schedule[key] = simulate(cfg)[1]
            except (ValueError, DeadlockError) as exc:
                by_schedule[key] = exc
        results[(spec.kind, threads, simd)] = by_schedule[key]
    return results
