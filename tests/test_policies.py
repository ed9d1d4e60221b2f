"""Policy decision-procedure tests: bindings, the rank guard, and rebinds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavesched.platform import default_platform
from wavesched.policies import (
    DEFAULT_MIGRATION_OVERHEAD_S,
    POLICY_KINDS,
    BindTo,
    Idle,
    MigrateSelf,
    PolicySpec,
    SchedState,
    TakeRow,
    canonical_kind,
    make_policy,
    schedule_of,
)
from wavesched.wpp_graph import CtuCoord, GridDims

PLAT = default_platform()
DIMS = GridDims(17, 30)


def _state(bindings, rows, next_row, parked=(), waiting=()):
    return SchedState(
        platform=PLAT,
        dims=DIMS,
        bindings=dict(bindings),
        rows=dict(rows),
        next_row=next_row,
        parked=set(parked),
        waiting_little=list(waiting),
    )


# --- kind names ---------------------------------------------------------------


def test_canonical_kind_accepts_aliases():
    assert canonical_kind("big-os") == "big-os"
    assert canonical_kind("BigOnlyOs") == "big-os"
    assert canonical_kind("big_os") == "big-os"
    assert canonical_kind("CriticalityAware") == "affinity"
    assert canonical_kind("AFFINITY") == "affinity"
    assert canonical_kind("LittleOnly") == "little"
    assert canonical_kind("StaticPinned") == "static"


def test_canonical_kind_rejects_unknown():
    with pytest.raises(ValueError, match="unknown policy kind"):
        canonical_kind("cfs")


def test_policy_spec_validation():
    spec = PolicySpec(kind="BigOnlyOs", threads=2)
    assert spec.kind == "big-os"
    assert spec.migration_overhead_s == DEFAULT_MIGRATION_OVERHEAD_S
    with pytest.raises(ValueError):
        PolicySpec(kind="big-os", threads=0)
    with pytest.raises(ValueError):
        PolicySpec(kind="big-os", threads=1, migration_overhead_s=-1e-6)


def test_make_policy_covers_all_kinds():
    for kind in POLICY_KINDS:
        assert make_policy(kind).kind == kind


# --- initial assignment -------------------------------------------------------


def test_affinity_initial_split_8_threads():
    spec = PolicySpec(kind="affinity", threads=8)
    state = make_policy("affinity").initial_assignment(spec, PLAT, DIMS)
    assert state.bindings == {t: t for t in range(8)}
    assert state.rows == {t: t for t in range(8)}
    assert state.next_row == 8
    assert not state.parked


def test_big_os_oversubscribes_round_robin():
    spec = PolicySpec(kind="big-os", threads=5)
    state = make_policy("big-os").initial_assignment(spec, PLAT, DIMS)
    assert state.bindings == {0: 0, 1: 1, 2: 2, 3: 3, 4: 0}
    assert state.residents(0) == [0, 4]


def test_static_matches_big_os_at_four_threads():
    static = make_policy("static").initial_assignment(
        PolicySpec(kind="static", threads=4), PLAT, DIMS
    )
    bigos = make_policy("big-os").initial_assignment(
        PolicySpec(kind="big-os", threads=4), PLAT, DIMS
    )
    assert static.bindings == bigos.bindings


def test_pinned_policies_schedule_as_big_os_up_to_the_fast_core_count():
    for threads in range(1, 9):
        for kind in POLICY_KINDS:
            reduces = kind in ("static", "affinity") and threads <= len(PLAT.big_ids)
            expected = "big-os" if reduces else kind
            assert schedule_of(PolicySpec(kind=kind, threads=threads), PLAT) == expected


def test_little_only_binds_slow_cores():
    spec = PolicySpec(kind="little", threads=2)
    state = make_policy("little").initial_assignment(spec, PLAT, DIMS)
    assert state.bindings == {0: 4, 1: 5}


def test_threads_beyond_rows_start_parked():
    spec = PolicySpec(kind="big-os", threads=4)
    state = make_policy("big-os").initial_assignment(spec, PLAT, GridDims(2, 6))
    assert state.rows == {0: 0, 1: 1, 2: None, 3: None}
    assert state.parked == {2, 3}
    assert state.next_row == 2


def test_pinned_policies_reject_more_threads_than_cores():
    for kind in ("static", "affinity"):
        spec = PolicySpec(kind=kind, threads=9)
        with pytest.raises(ValueError, match="one thread per core"):
            make_policy(kind).initial_assignment(spec, PLAT, DIMS)


# --- scheduler state helpers ----------------------------------------------------


def test_residents_exclude_parked():
    state = _state({0: 0, 1: 0}, {0: 3, 1: None}, 4, parked=[1])
    assert state.residents(0) == [0]
    assert state.idle_big_cores() == [1, 2, 3]


@given(
    order=st.permutations(range(10)),
    cores=st.lists(st.one_of(st.none(), st.integers(0, 7)), min_size=10, max_size=10),
    rows=st.lists(st.one_of(st.none(), st.integers(0, 16), st.just("absent")),
                  min_size=10, max_size=10),
    parked=st.sets(st.integers(0, 11)),
    n=st.integers(0, 10),
)
def test_one_pass_queries_match_their_definitions(order, cores, rows, parked, n):
    """Threads in any insertion order, unbound (None) or parked, with rows
    that are None or missing: each query equals its per-core definition."""
    threads = [t for t in order if t < n]
    state = _state({t: cores[t] for t in threads},
                   {t: rows[t] for t in threads if rows[t] != "absent"}, 0, parked=parked)

    def residents(core):
        return [t for t in sorted(state.bindings)
                if state.bindings[t] == core and t not in state.parked]

    for core in range(PLAT.n_cores):
        assert state.residents(core) == residents(core)
    for ids in (PLAT.big_ids, PLAT.little_ids, (6, 1, 4)):
        assert state.idle_cores(ids) == [c for c in ids if not residents(c)]
    assert state.little_resident_rows() == sorted(
        state.rows[t] for t in sorted(state.bindings)
        if t not in state.parked and state.rows.get(t) is not None
        and state.bindings[t] in PLAT.little_set
    )


def test_little_rank_orders_by_row_index():
    state = _state({0: 4, 1: 5, 2: 6}, {0: 9, 1: 4, 2: 7}, 10)
    assert state.little_resident_rows() == [4, 7, 9]
    assert state.little_rank(1) == 1
    assert state.little_rank(2) == 2
    assert state.little_rank(0) == 3


# --- rank-guarded promotion -----------------------------------------------------


def test_rank_one_migrates_with_one_idle_big():
    """The most critical slow-core row moves as soon as one fast core idles."""
    state = _state(
        {t: t for t in range(8)},
        {0: None, 1: 8, 2: 2, 3: 3, 4: None, 5: 5, 6: 6, 7: 7},
        9,
        parked=[0, 4],
    )
    policy = make_policy("affinity")
    assert state.idle_big_cores() == [0]
    assert policy.on_recon_ctu_complete(state, 5, CtuCoord(5, 3)) == [MigrateSelf(0)]


def test_rank_two_waits_with_one_idle_big():
    state = _state(
        {t: t for t in range(8)},
        {0: None, 1: 8, 2: 2, 3: 3, 4: None, 5: 5, 6: 6, 7: 7},
        9,
        parked=[0, 4],
    )
    policy = make_policy("affinity")
    assert policy.on_recon_ctu_complete(state, 6, CtuCoord(6, 3)) == []


def test_rank_three_migrates_with_three_idle_bigs():
    state = _state(
        {t: t for t in range(8)},
        {0: None, 1: None, 2: None, 3: 10, 4: None, 5: 5, 6: 6, 7: 7},
        11,
        parked=[0, 1, 2, 4],
    )
    policy = make_policy("affinity")
    assert state.idle_big_cores() == [0, 1, 2]
    assert policy.on_recon_ctu_complete(state, 7, CtuCoord(7, 3)) == [MigrateSelf(0)]


def test_big_thread_never_promotes():
    state = _state({0: 0, 1: 4}, {0: 1, 1: 2}, 3)
    assert make_policy("affinity").on_recon_ctu_complete(state, 0, CtuCoord(1, 5)) == []


def test_rowless_thread_never_promotes():
    state = _state({0: 4, 1: 0}, {0: None, 1: 1}, 2)
    assert make_policy("affinity").on_recon_ctu_complete(state, 0, CtuCoord(0, 5)) == []


def test_non_affinity_policies_never_migrate_mid_row():
    state = _state({0: 4, 1: 0}, {0: 2, 1: None}, 3, parked=[1])
    for kind in ("big-os", "little", "static"):
        assert make_policy(kind).on_recon_ctu_complete(state, 0, CtuCoord(2, 1)) == []


# --- row completion -------------------------------------------------------------


def test_affinity_row_complete_hands_big_core_over():
    """A big finisher takes the next row on an idle slow core."""
    state = _state({0: 0, 1: 4}, {0: None, 1: 4}, 5)
    actions = make_policy("affinity").on_row_complete(state, 0)
    assert actions == [TakeRow(5), BindTo(5)]


def test_affinity_row_complete_waits_when_no_little_idle():
    state = _state(
        {0: 0, 1: 4, 2: 5, 3: 6, 4: 7},
        {0: None, 1: 1, 2: 2, 3: 3, 4: 4},
        5,
    )
    actions = make_policy("affinity").on_row_complete(state, 0)
    assert actions == [TakeRow(5), BindTo(None)]


def test_affinity_row_complete_respects_waiting_queue():
    """An idle slow core is not grabbed past threads already queued for one."""
    state = _state(
        {0: 0, 1: 4, 2: None},
        {0: None, 1: 1, 2: 2},
        5,
        waiting=[2],
    )
    actions = make_policy("affinity").on_row_complete(state, 0)
    assert actions == [TakeRow(5), BindTo(None)]


def test_affinity_row_complete_stays_on_big_without_little_work():
    state = _state({0: 0, 1: 1}, {0: None, 1: 1}, 2)
    actions = make_policy("affinity").on_row_complete(state, 0)
    assert actions == [TakeRow(2)]


def test_affinity_little_finisher_keeps_its_core():
    state = _state({0: 4, 1: 5}, {0: None, 1: 1}, 2)
    actions = make_policy("affinity").on_row_complete(state, 0)
    assert actions == [TakeRow(2)]


def test_affinity_idles_in_place_when_rows_run_out():
    state = _state({0: 0, 1: 4}, {0: None, 1: 16}, 17)
    assert make_policy("affinity").on_row_complete(state, 0) == [Idle()]


def test_base_policies_take_next_row_in_place():
    for kind in ("big-os", "little", "static"):
        state = _state({0: 0, 1: 1}, {0: None, 1: 1}, 2)
        assert make_policy(kind).on_row_complete(state, 0) == [TakeRow(2)]
        state = _state({0: 0, 1: 1}, {0: None, 1: 16}, 17)
        assert make_policy(kind).on_row_complete(state, 0) == [Idle()]


# --- filter stage ---------------------------------------------------------------


def test_filter_stage_start_rebinds_to_four_four_split():
    bindings = {0: 4, 1: 0, 2: None, 3: 1, 4: 2, 5: 3, 6: 5, 7: 6}
    state = _state(bindings, {t: None for t in range(8)}, 17)
    actions = make_policy("affinity").filter_stage_start(state)
    final = dict(bindings)
    for tid, bind in actions:
        final[tid] = bind.core
    assert final == {t: t for t in range(8)}


def test_filter_stage_start_fills_big_first_at_four_threads():
    state = _state({0: 4, 1: 5, 2: 0, 3: 1}, {t: None for t in range(4)}, 17)
    actions = make_policy("affinity").filter_stage_start(state)
    final = {0: 4, 1: 5, 2: 0, 3: 1}
    for tid, bind in actions:
        final[tid] = bind.core
    assert final == {0: 0, 1: 1, 2: 2, 3: 3}


def test_filter_stage_start_noop_for_base_policies():
    state = _state({0: 0, 1: 1}, {0: None, 1: None}, 17)
    for kind in ("big-os", "little", "static"):
        assert make_policy(kind).filter_stage_start(state) == []


def test_filter_promotion_waits_when_bigs_busy():
    state = _state({0: 4, 1: 0, 2: 1, 3: 2, 4: 3}, {t: None for t in range(5)}, 17)
    assert make_policy("affinity").on_filter_ctu_complete(state, 0) == []


def test_filter_big_thread_never_demotes():
    state = _state({0: 0, 1: 4}, {0: None, 1: None}, 17)
    assert make_policy("affinity").on_filter_ctu_complete(state, 0) == []


def test_filter_hooks_noop_for_base_policies():
    """Every policy, affinity too, inherits the base filter-CTU hook: none
    moves a slow-core thread after a filter CTU, even with fast cores idle."""
    state = _state({0: 4, 1: 1}, {0: None, 1: None}, 17)
    for kind in POLICY_KINDS:
        assert make_policy(kind).on_filter_ctu_complete(state, 0) == []
