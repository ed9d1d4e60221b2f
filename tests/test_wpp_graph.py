"""Dependency-rule tests, frozen from hand enumeration of the wavefront rule."""

import pytest

from wavesched.wpp_graph import (
    PHASES,
    CtuCoord,
    GridDims,
    Phase,
    TaskId,
    all_tasks,
    filter_deps,
    frame_barrier,
    frame_graph,
    ready_tasks,
    recon_ancestors,
    recon_deps,
    task_deps,
    wavefront_width,
)

DIMS = GridDims(17, 30)


def test_recon_deps_origin_has_none():
    assert recon_deps(CtuCoord(0, 0), DIMS) == []


def test_recon_deps_row_start_needs_second_ctu_above():
    """A row unblocks once the two leading CTUs of the row above are done."""
    assert recon_deps(CtuCoord(1, 0), DIMS) == [CtuCoord(0, 1)]


def test_recon_deps_right_edge_clamps_to_last_column():
    assert recon_deps(CtuCoord(3, 29), DIMS) == [CtuCoord(3, 28), CtuCoord(2, 29)]


def test_recon_deps_interior():
    assert recon_deps(CtuCoord(5, 10), DIMS) == [CtuCoord(5, 9), CtuCoord(4, 11)]


def test_recon_deps_top_row_is_a_chain():
    for j in range(1, DIMS.cols):
        assert recon_deps(CtuCoord(0, j), DIMS) == [CtuCoord(0, j - 1)]


def test_recon_deps_rejects_out_of_range():
    with pytest.raises(ValueError):
        recon_deps(CtuCoord(17, 0), DIMS)
    with pytest.raises(ValueError):
        recon_deps(CtuCoord(0, 30), DIMS)
    with pytest.raises(ValueError):
        recon_deps(CtuCoord(-1, 0), DIMS)


def test_grid_dims_rejects_empty():
    with pytest.raises(ValueError):
        GridDims(0, 5)
    with pytest.raises(ValueError):
        GridDims(5, 0)


def test_filter_deps_vfilter_origin():
    got = filter_deps(TaskId(0, Phase.VFILTER, 0, 0), DIMS)
    assert got == [
        TaskId(0, Phase.HFILTER, 0, 0),
        TaskId(0, Phase.HFILTER, 0, 1),
        TaskId(0, Phase.HFILTER, 1, 0),
    ]


def test_filter_deps_vfilter_bottom_right_drops_outside():
    got = filter_deps(TaskId(0, Phase.VFILTER, 16, 29), DIMS)
    assert got == [
        TaskId(0, Phase.VFILTER, 16, 28),
        TaskId(0, Phase.HFILTER, 16, 29),
    ]


def test_filter_deps_sao_interior():
    got = filter_deps(TaskId(0, Phase.SAO, 2, 5), DIMS)
    assert got == [
        TaskId(0, Phase.SAO, 2, 4),
        TaskId(0, Phase.VFILTER, 2, 5),
        TaskId(0, Phase.VFILTER, 2, 6),
        TaskId(0, Phase.VFILTER, 3, 5),
    ]


def test_filter_deps_hfilter_is_row_chain_only():
    assert filter_deps(TaskId(0, Phase.HFILTER, 4, 0), DIMS) == []
    assert filter_deps(TaskId(0, Phase.HFILTER, 4, 7), DIMS) == [
        TaskId(0, Phase.HFILTER, 4, 6)
    ]


def test_filter_deps_rejects_recon_task():
    with pytest.raises(ValueError):
        filter_deps(TaskId(0, Phase.RECON, 0, 0), DIMS)


def test_frame_barrier_is_all_recon_tasks():
    small = GridDims(2, 3)
    barrier = frame_barrier(small)
    assert len(barrier) == 6
    assert all(t.phase is Phase.RECON for t in barrier)
    assert frame_barrier(GridDims(1, 1)) == frozenset({TaskId(0, Phase.RECON, 0, 0)})


def test_ready_tasks_empty_progress():
    assert ready_tasks(set(), DIMS) == {TaskId(0, Phase.RECON, 0, 0)}


def test_ready_tasks_row_unblocks_after_two_top_ctus():
    progress = {TaskId(0, Phase.RECON, 0, 0), TaskId(0, Phase.RECON, 0, 1)}
    assert ready_tasks(progress, DIMS) == {
        TaskId(0, Phase.RECON, 0, 2),
        TaskId(0, Phase.RECON, 1, 0),
    }


def test_ready_tasks_after_three_top_row_ctus():
    progress = {TaskId(0, Phase.RECON, 0, j) for j in range(3)}
    assert ready_tasks(progress, DIMS) == {
        TaskId(0, Phase.RECON, 0, 3),
        TaskId(0, Phase.RECON, 1, 0),
    }


def test_ready_tasks_row3_start_gated_by_ctu_2_1():
    """Recon(3,0) becomes ready exactly when (2,1) lands."""
    closure = {
        TaskId(0, Phase.RECON, c.row, c.col)
        for c in recon_ancestors(CtuCoord(3, 0), DIMS)
    }
    target = TaskId(0, Phase.RECON, 3, 0)
    assert target in ready_tasks(closure, DIMS)
    without_gate = closure - {TaskId(0, Phase.RECON, 2, 1)}
    assert target not in ready_tasks(without_gate, DIMS)


def test_ready_tasks_rejects_non_closed_progress():
    with pytest.raises(ValueError):
        ready_tasks({TaskId(0, Phase.RECON, 0, 1)}, DIMS)


def test_no_filter_task_ready_before_barrier():
    small = GridDims(2, 3)
    nearly_done = {
        TaskId(0, Phase.RECON, i, j) for i in range(2) for j in range(3)
    } - {TaskId(0, Phase.RECON, 1, 2)}
    assert all(t.phase is Phase.RECON for t in ready_tasks(nearly_done, small))


def test_first_filter_tasks_after_barrier():
    small = GridDims(2, 3)
    done = {TaskId(0, Phase.RECON, i, j) for i in range(2) for j in range(3)}
    assert ready_tasks(done, small) == {
        TaskId(0, Phase.HFILTER, 0, 0),
        TaskId(0, Phase.HFILTER, 1, 0),
    }


def test_unblock_arithmetic_top_row_requirement():
    """Row i's first CTU transitively needs the top row out to column i;
    the full two-CTU-per-row gap shows up in start times, not the closure
    (see the wavefront timing test in test_engine)."""
    for i, expected in ((3, 3), (7, 7)):
        cols = {c.col for c in recon_ancestors(CtuCoord(i, 0), DIMS) if c.row == 0}
        assert max(cols) == expected
        assert cols == set(range(expected + 1))
    # Deep rows of a narrow grid clamp at the right edge.
    tall = GridDims(40, 5)
    assert max(
        c.col for c in recon_ancestors(CtuCoord(39, 0), tall) if c.row == 0
    ) == 4


def _comparable(a, b, anc):
    return a == b or a in anc[b] or b in anc[a]


def _max_antichain(dims):
    cells = [CtuCoord(i, j) for i in range(dims.rows) for j in range(dims.cols)]
    anc = {c: recon_ancestors(c, dims) for c in cells}
    best = 0

    def extend(start, chosen):
        nonlocal best
        best = max(best, len(chosen))
        for k in range(start, len(cells)):
            cand = cells[k]
            if all(not _comparable(cand, c, anc) for c in chosen):
                chosen.append(cand)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    return best


def test_wavefront_width_matches_exhaustive_search():
    for rows in range(1, 9):
        for cols in range(1, 9):
            dims = GridDims(rows, cols)
            assert wavefront_width(dims) == _max_antichain(dims), (rows, cols)


def test_wavefront_width_examples():
    assert wavefront_width(GridDims(1, 30)) == 1
    assert wavefront_width(GridDims(17, 1)) == 1
    assert wavefront_width(GridDims(2, 2)) == 1
    assert wavefront_width(DIMS) == 15


def test_dependency_graph_is_acyclic_up_to_32x32():
    # The frame barrier is one node that waits on every barrier task and
    # precedes every filter task: the same orders as an edge from each
    # barrier task to each filter task, with rows*cols*4 edges instead of
    # 3*(rows*cols)**2.
    for rows, cols in ((1, 1), (2, 3), (5, 4), (17, 30), (32, 32)):
        dims = GridDims(rows, cols)
        tasks = list(all_tasks(dims))
        barrier = frame_barrier(dims)
        indeg = {"barrier": len(barrier)}
        succs = {t: [] for t in tasks}
        succs["barrier"] = []
        for t in tasks:
            deps = task_deps(t, dims)
            if t.phase.is_filter:
                deps = deps + ["barrier"]
            if t in barrier:
                succs[t].append("barrier")
            indeg[t] = len(deps)
            for d in deps:
                succs[d].append(t)
        queue = [t for t in indeg if indeg[t] == 0]
        seen = 0
        while queue:
            t = queue.pop()
            seen += 1
            for s in succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        assert seen == len(tasks) + 1, f"cycle in {rows}x{cols}"


def test_deps_are_pure():
    a = recon_deps(CtuCoord(4, 4), DIMS)
    b = recon_deps(CtuCoord(4, 4), DIMS)
    assert a == b and a is not b
    t = TaskId(0, Phase.SAO, 2, 5)
    assert filter_deps(t, DIMS) == filter_deps(t, DIMS)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (4, 1), (3, 4), (5, 7)])
def test_frame_graph_is_task_deps_indexed_in_task_order(rows, cols):
    dims = GridDims(rows, cols)
    tasks = list(all_tasks(dims))
    graph = frame_graph(dims)
    assert graph is frame_graph(dims)
    edges = {(tasks.index(d), k) for k, t in enumerate(tasks) for d in task_deps(t, dims)}
    assert {(k, s) for k, succ in enumerate(graph.successors) for s in succ} == edges
    assert list(graph.indegree) == [len(task_deps(t, dims)) for t in tasks]
    # Graph indices order tasks by (phase, row, col), the engine's ready-heap key.
    key = [(PHASES.index(t.phase), t.row, t.col) for t in tasks]
    assert key == sorted(key)
