"""Task graph for wavefront-parallel CTU decoding.

A frame is a rows x cols grid of CTUs. Reconstruction proceeds row-wise with
the wavefront rule: CTU (i, j) needs its left neighbour (i, j-1) and, one row
up, CTU (i-1, min(j+1, cols-1)). A row therefore trails the one above it by
two CTUs (its first CTU waits for the two leading CTUs of the upper row), and
columns past the right edge clamp to the last CTU of the upper row, which
serialises the tail of consecutive rows.

After every CTU of the frame is reconstructed (the frame barrier), three
filter passes run over the grid: horizontal deblocking, vertical deblocking,
and SAO. Each pass is chained left-to-right within a row and additionally
waits on up to three CTUs of the previous pass: (i, j), (i, j+1), (i+1, j),
with out-of-range members dropped.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple


class Phase(enum.Enum):
    RECON = "recon"
    HFILTER = "hfilter"
    VFILTER = "vfilter"
    SAO = "sao"


# Pass order within the filter stage; also the dispatch priority.
FILTER_PHASES = (Phase.HFILTER, Phase.VFILTER, Phase.SAO)

# Task order within a frame (`all_tasks`, `frame_graph` indices).
PHASES = (Phase.RECON,) + FILTER_PHASES

_PREVIOUS_PASS = {Phase.VFILTER: Phase.HFILTER, Phase.SAO: Phase.VFILTER}


class CtuCoord(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class GridDims:
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    def contains(self, coord: CtuCoord) -> bool:
        return 0 <= coord.row < self.rows and 0 <= coord.col < self.cols

    def check(self, coord: CtuCoord) -> None:
        if not self.contains(coord):
            raise ValueError(f"CTU {tuple(coord)} outside {self.rows}x{self.cols} grid")

    @property
    def n_ctus(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True, order=True, slots=True)
class TaskId:
    frame: int
    phase: Phase
    row: int
    col: int

    def __str__(self) -> str:
        return f"{self.phase.value}[f{self.frame}]({self.row},{self.col})"

    @property
    def coord(self) -> CtuCoord:
        return CtuCoord(self.row, self.col)


def recon_deps(coord: CtuCoord, dims: GridDims) -> list[CtuCoord]:
    """Direct dependencies of a reconstruction CTU, left neighbour first."""
    dims.check(coord)
    i, j = coord
    deps: list[CtuCoord] = []
    if j > 0:
        deps.append(CtuCoord(i, j - 1))
    if i > 0:
        deps.append(CtuCoord(i - 1, min(j + 1, dims.cols - 1)))
    return deps


def filter_deps(task: TaskId, dims: GridDims) -> list[TaskId]:
    """Direct dependencies of a filter task (frame barrier not included)."""
    if task.phase is Phase.RECON:
        raise ValueError(f"{task} is not a filter task")
    coord = task.coord
    dims.check(coord)
    i, j = coord
    deps: list[TaskId] = []
    if j > 0:
        deps.append(TaskId(task.frame, task.phase, i, j - 1))
    if task.phase in _PREVIOUS_PASS:
        prev = _PREVIOUS_PASS[task.phase]
        for di, dj in ((0, 0), (0, 1), (1, 0)):
            if i + di < dims.rows and j + dj < dims.cols:
                deps.append(TaskId(task.frame, prev, i + di, j + dj))
    return deps


def all_tasks(dims: GridDims, frame: int = 0) -> Iterator[TaskId]:
    """Every task of one frame in (phase, row, col) order."""
    for phase in PHASES:
        for i in range(dims.rows):
            for j in range(dims.cols):
                yield TaskId(frame, phase, i, j)


def task_deps(task: TaskId, dims: GridDims) -> list[TaskId]:
    """Direct dependencies of any task, excluding the frame barrier."""
    if task.phase is Phase.RECON:
        return [
            TaskId(task.frame, Phase.RECON, c.row, c.col)
            for c in recon_deps(task.coord, dims)
        ]
    return filter_deps(task, dims)


class FrameGraph(NamedTuple):
    """One frame's task graph as flat arrays, for the engine's hot path.

    Task k is the k-th task of `all_tasks`, so
    k = PHASES.index(phase) * rows * cols + row * cols + col, and ordering
    tasks by k orders them by (phase, row, col). The frame barrier is not
    an edge.
    """

    successors: tuple[tuple[int, ...], ...]
    indegree: tuple[int, ...]


@functools.lru_cache(maxsize=16)
def frame_graph(dims: GridDims) -> FrameGraph:
    """Successor lists and in-degrees of one frame, derived from `task_deps`."""
    n, cols = dims.n_ctus, dims.cols
    successors: list[list[int]] = [[] for _ in range(len(PHASES) * n)]
    indegree = [0] * (len(PHASES) * n)
    for k, task in enumerate(all_tasks(dims)):
        for dep in task_deps(task, dims):
            successors[PHASES.index(dep.phase) * n + dep.row * cols + dep.col].append(k)
            indegree[k] += 1
    return FrameGraph(tuple(map(tuple, successors)), tuple(indegree))


def recon_ancestors(coord: CtuCoord, dims: GridDims) -> set[CtuCoord]:
    """Transitive reconstruction requirement of one CTU (the CTU excluded)."""
    dims.check(coord)
    seen: set[CtuCoord] = set()
    stack = list(recon_deps(coord, dims))
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        stack.extend(d for d in recon_deps(c, dims) if d not in seen)
    return seen


def wavefront_width(dims: GridDims) -> int:
    """Maximum number of reconstruction CTUs that can ever run concurrently.

    One per row at most (rows are chains), and incomparable placements in
    adjacent rows need a column gap of 2; the right-edge clamp prevents the
    gap from straddling the last column. Hence min(rows, (cols-1)//2 + 1).
    """
    return min(dims.rows, (dims.cols - 1) // 2 + 1)
