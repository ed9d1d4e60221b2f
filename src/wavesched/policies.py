"""Scheduling policies as deterministic decision procedures.

The engine owns time and task bookkeeping; it consults the policy at four
event kinds (CTU completion, row completion, filter-stage start, filter CTU
completion) and applies the returned actions. Policies never mutate the
state they are shown, which keeps them unit-testable on hand-built states.

Four policies are modeled:
- big-os: every thread on the fast cluster, round-robin, fair-shared when
  oversubscribed (the OS-default behavior for an unpinned decoder).
- little: the same on the slow cluster.
- static: threads pinned one per core, fast cores first, never migrated.
- affinity: criticality-aware scheduling. The lowest-indexed in-flight rows
  are the most depended-upon, so they belong on fast cores; slow-core threads
  promote themselves at CTU boundaries under a rank guard, and fast-core
  threads that finish a row hand their core over and take the next row on a
  slow core. Bottom rows therefore end on fast cores and are never demoted.
  At the filter stage affinity only splits the threads over the cores.

The filter-CTU hook (`Policy.on_filter_ctu_complete`) acts for no policy.
It and its calls in the engine and the reference simulator stay for now:
the benchmark (`perfbench/invoke.py`) wraps the hook by name and counts its
calls, and its spans are part of the traced run time that the benchmark's
coverage gate reads, so deleting them is a benchmark change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from wavesched import POLICY_KINDS
from wavesched.platform import Platform
from wavesched.wpp_graph import CtuCoord, GridDims

DEFAULT_MIGRATION_OVERHEAD_S = 100e-6

_ALIASES = {
    "bigos": "big-os",
    "bigonlyos": "big-os",
    "little": "little",
    "littleonly": "little",
    "static": "static",
    "staticpinned": "static",
    "affinity": "affinity",
    "criticalityaware": "affinity",
}


def canonical_kind(name: str) -> str:
    key = name.lower().replace("_", "").replace("-", "")
    try:
        return _ALIASES[key]
    except KeyError:
        raise ValueError(f"unknown policy kind {name!r}; expected one of {POLICY_KINDS}") from None


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    threads: int
    migration_overhead_s: float = DEFAULT_MIGRATION_OVERHEAD_S

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.migration_overhead_s < 0:
            raise ValueError("migration overhead must be >= 0")


# --- actions -----------------------------------------------------------------


@dataclass(frozen=True)
class MigrateSelf:
    core: int


@dataclass(frozen=True)
class TakeRow:
    row: int


@dataclass(frozen=True)
class BindTo:
    """Rebind to a core; core=None queues for the next vacated slow core."""

    core: int | None


@dataclass(frozen=True)
class Idle:
    pass


# --- scheduler state (policy view) -------------------------------------------


@dataclass
class SchedState:
    """What a policy may observe: bindings, row ownership, and occupancy.

    This is the one record of each thread's binding, row, parking and wait
    for a slow core (`waiting_little`); the engine updates it in place and
    keeps no copy.

    A parked thread (out of rows) keeps its binding for bookkeeping but no
    longer occupies the core: a sleeping thread does not keep a core busy,
    so the core counts as idle for migration decisions.
    """

    platform: Platform
    dims: GridDims
    bindings: dict[int, int | None] = field(default_factory=dict)
    rows: dict[int, int | None] = field(default_factory=dict)
    next_row: int = 0
    parked: set[int] = field(default_factory=set)
    waiting_little: list[int] = field(default_factory=list)

    def residents(self, core: int) -> list[int]:
        return sorted(
            t for t, c in self.bindings.items() if c == core and t not in self.parked
        )

    def idle_cores(self, core_ids) -> list[int]:
        occupied = {c for t, c in self.bindings.items() if t not in self.parked}
        return [c for c in core_ids if c not in occupied]

    def idle_big_cores(self) -> list[int]:
        return self.idle_cores(self.platform.big_ids)

    def idle_little_cores(self) -> list[int]:
        return self.idle_cores(self.platform.little_ids)

    def on_little(self, thread: int) -> bool:
        return self.bindings.get(thread) in self.platform.little_set

    def on_big(self, thread: int) -> bool:
        return self.bindings.get(thread) in self.platform.big_set

    def little_resident_rows(self) -> list[int]:
        """Row indices currently owned by threads occupying slow cores."""
        little, rows, parked = self.platform.little_set, self.rows, self.parked
        return sorted(
            rows[t]
            for t, c in self.bindings.items()
            if c in little and t not in parked and rows.get(t) is not None
        )

    def little_rank(self, thread: int) -> int:
        """1-based rank of the thread's row among slow-core in-flight rows."""
        row = self.rows[thread]
        return self.little_resident_rows().index(row) + 1


# --- policies ----------------------------------------------------------------


class Policy:
    kind: str = ""

    @classmethod
    def schedule(cls, threads: int, platform: Platform) -> str:
        """The policy kind whose schedule (event trace) this policy produces
        with `threads` threads on `platform`: its own, unless it provably
        reduces to another's."""
        return cls.kind

    def _initial_cores(self, n: int, platform: Platform) -> list[int]:
        raise NotImplementedError

    def initial_assignment(
        self, spec: PolicySpec, platform: Platform, dims: GridDims
    ) -> SchedState:
        """Bind threads to cores and claim the first rows, lowest row index
        to the fastest binding first."""
        n = spec.threads
        cores = self._initial_cores(n, platform)
        state = SchedState(platform=platform, dims=dims)
        for t in range(n):
            state.bindings[t] = cores[t]
            if t < dims.rows:
                state.rows[t] = t
            else:
                state.rows[t] = None
                state.parked.add(t)
        state.next_row = min(n, dims.rows)
        return state

    def on_recon_ctu_complete(
        self, state: SchedState, thread: int, coord: CtuCoord
    ) -> list:
        return []

    def on_row_complete(self, state: SchedState, thread: int) -> list:
        if state.next_row < state.dims.rows:
            return [TakeRow(state.next_row)]
        return [Idle()]

    def filter_stage_start(self, state: SchedState) -> list[tuple[int, BindTo]]:
        """Per-thread rebind actions at the reconstruction barrier."""
        return []

    def on_filter_ctu_complete(self, state: SchedState, thread: int) -> list:
        return []


class BigOnlyOs(Policy):
    kind = "big-os"

    def _initial_cores(self, n: int, platform: Platform) -> list[int]:
        big = platform.big_ids
        return [big[t % len(big)] for t in range(n)]


class LittleOnly(Policy):
    kind = "little"

    def _initial_cores(self, n: int, platform: Platform) -> list[int]:
        little = platform.little_ids or platform.big_ids
        return [little[t % len(little)] for t in range(n)]


class StaticPinned(Policy):
    kind = "static"

    @classmethod
    def schedule(cls, threads: int, platform: Platform) -> str:
        # With no more threads than fast cores, the threads start on
        # big_ids[:threads], as under big-os, and no callback ever acts:
        # nothing sits on a slow core to promote or to hand a core to.
        return BigOnlyOs.kind if threads <= len(platform.big_ids) else cls.kind

    def _initial_cores(self, n: int, platform: Platform) -> list[int]:
        slots = list(platform.big_ids) + list(platform.little_ids)
        if n > len(slots):
            raise ValueError(
                f"{self.kind} policy holds one thread per core: {n} threads > {len(slots)} cores"
            )
        return slots[:n]


class CriticalityAware(StaticPinned):
    """Pinned like `static` at the start, then migrates by criticality.

    In the filter stage nothing moves after the barrier's split, so the
    filter-CTU hook stays the base no-op. A promotion there could never act:
    - `filter_stage_start` binds the lowest thread ids one per fast core,
      and the engine clears `parked` and `waiting_little` at the barrier;
    - so with more threads than fast cores every fast core holds a thread,
      and with no more, no thread sits on a slow core.
    """

    kind = "affinity"

    def on_recon_ctu_complete(
        self, state: SchedState, thread: int, coord: CtuCoord
    ) -> list:
        """Guarded promotion: the k-th most critical slow-core row may move
        only when at least k fast cores are idle, so a higher-priority row
        is never left behind by a lower-priority one."""
        if not state.on_little(thread) or state.rows.get(thread) is None:
            return []
        idle_big = state.idle_big_cores()
        if not idle_big:
            return []
        rank = state.little_rank(thread)
        if len(idle_big) >= rank:
            return [MigrateSelf(idle_big[0])]
        return []

    def on_row_complete(self, state: SchedState, thread: int) -> list:
        if state.next_row >= state.dims.rows:
            # Out of rows: idle in place. Threads that decoded the bottom
            # rows thus finish on fast cores and are never demoted.
            return [Idle()]
        actions = [TakeRow(state.next_row)]
        if state.on_big(thread) and state.dims.cols > 1:
            # Hand the fast core over, but only if someone can actually use
            # it; with no slow-core threads in flight, leaving would just
            # bounce this thread for nothing. A single-column row has no
            # CTU boundary mid-row, where a slow-core thread promotes
            # itself, so there nobody could take the core: this thread
            # would queue for a slow core while the slow-core threads
            # stall on its row.
            little_active = any(
                u != thread
                and u not in state.parked
                and state.rows.get(u) is not None
                and state.on_little(u)
                for u in state.bindings
            )
            if little_active:
                idle_little = state.idle_little_cores()
                if idle_little and not state.waiting_little:
                    actions.append(BindTo(idle_little[0]))
                else:
                    actions.append(BindTo(None))
        return actions

    def filter_stage_start(self, state: SchedState) -> list[tuple[int, BindTo]]:
        """Deterministic split for the filter pool: lowest thread ids on the
        fast cores, the rest one per slow core."""
        big = list(state.platform.big_ids)
        little = list(state.platform.little_ids)
        actions = []
        for pos, t in enumerate(sorted(state.bindings)):
            target = big[pos] if pos < len(big) else little[pos - len(big)]
            if state.bindings[t] != target:
                actions.append((t, BindTo(target)))
        return actions


_POLICY_CLASSES = {
    "big-os": BigOnlyOs,
    "little": LittleOnly,
    "static": StaticPinned,
    "affinity": CriticalityAware,
}


def make_policy(kind: str) -> Policy:
    return _POLICY_CLASSES[canonical_kind(kind)]()


def schedule_of(spec: PolicySpec, platform: Platform) -> str:
    """The policy kind whose simulation gives `spec`'s schedule on `platform`."""
    return _POLICY_CLASSES[spec.kind].schedule(spec.threads, platform)
