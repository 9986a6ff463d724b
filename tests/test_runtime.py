import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhwsim import runtime
from drhwsim.design_time import build_store, extract_critical_subtasks
from drhwsim.engine import TimedSchedule, place_loads, priority_order
from drhwsim.errors import CapacityError, StoreFormatError
from drhwsim.model import DRHW, Subtask, make_scenario, scenario_map
from drhwsim.runtime import (DESIGN_TIME_PREFETCH, HYBRID, NO_PREFETCH,
                             RUNTIME_HEURISTIC, RUNTIME_INTERTASK,
                             ResidencyMap, _pick_tile, bind_tiles,
                             cancel_reused_loads, execute_task_instance,
                             fixed_schedule, intertask_prefetch, reuse_scan)
from drhwsim.sim import select_iteration
from drhwsim.workloads import GenParams, gen_workload

R = 4.0
# The modes the run-time manager runs; the baselines run no instance.
RUNTIME_MODES = (RUNTIME_HEURISTIC, RUNTIME_INTERTASK, HYBRID)


def run(scenario, entry, residency, mode, **kw):
    return execute_task_instance(scenario, entry, residency, mode, R, **kw)


def absolute_execs(res):
    """The instance's replayed execs in absolute time."""
    return [(sid, pe, s + res.offset, e + res.offset)
            for sid, pe, s, e in res.relative.execs]


# ---------------------------------------------------------------------------
# Residency and reuse
# ---------------------------------------------------------------------------

def test_residency_map_basics():
    rm = ResidencyMap(2)
    assert ("t", 1) not in rm.config
    rm.install(1, ("t", 1), 5.0)
    assert rm.config.index(("t", 1)) == 1
    assert rm.config == [None, ("t", 1)]
    rm.install(1, ("t", 2), 7.0)
    assert ("t", 1) not in rm.config
    with pytest.raises(CapacityError):
        ResidencyMap(0)


def test_reuse_scan_empty_residency(chain4, chain4_entry):
    reused, bindings = reuse_scan("chain4", chain4.index, ResidencyMap(2))
    assert reused == {} and bindings == {}


def test_reuse_scan_binds_slot_by_its_first_subtask(chain4, chain4_entry):
    rm = ResidencyMap(3)
    rm.install(0, ("chain4", 3), 1.0)   # second subtask of slot A
    rm.install(1, ("chain4", 1), 1.0)   # first subtask of slot A
    rm.install(2, ("chain4", 4), 1.0)   # second subtask of slot B
    reused, bindings = reuse_scan("chain4", chain4.index, rm)
    # Slot A goes to tile 1, which holds its first subtask.  3 and 4 are
    # not reusable: each slot loads its first subtask before them, over
    # whatever its tile holds.
    assert bindings == {"A": 1}
    assert reused == {1: 1}


def test_reuse_scan_binds_every_resident_first_subtask(chain4, chain4_entry):
    rm = ResidencyMap(3)
    rm.install(2, ("chain4", 1), 1.0)
    rm.install(0, ("chain4", 2), 1.0)
    reused, bindings = reuse_scan("chain4", chain4.index, rm)
    assert bindings == {"A": 2, "B": 0}
    assert reused == {1: 2, 2: 0}


def test_reuse_scan_same_tile_shares_slot(chain4, chain4_entry):
    rm = ResidencyMap(2)
    rm.install(0, ("chain4", 1), 1.0)
    reused, bindings = reuse_scan("chain4", chain4.index, rm)
    assert reused == {1: 0} and bindings == {"A": 0}


def test_reuse_scan_ignores_other_tasks(chain4, chain4_entry):
    rm = ResidencyMap(2)
    rm.install(0, ("other", 1), 1.0)
    reused, _ = reuse_scan("chain4", chain4.index, rm)
    assert reused == {}


def test_cancel_reused_loads_keeps_times(chain4, chain4_entry):
    loads = chain4_entry.chain[-1][0]
    stored = place_loads(chain4, loads, loads, R)
    adjusted, cancelled, dropped = cancel_reused_loads(stored, {1: 0, 3: 0})
    # 1 is critical (never a stored load); 3 is cancelled, 2 and 4 stay put.
    assert cancelled == frozenset({3})
    assert [l[0] for l in adjusted.loads] == [2, 4]
    assert dropped == ((3, "A", 10.0, 14.0),)
    assert adjusted.execs == stored.execs
    assert adjusted.makespan == stored.makespan


# ---------------------------------------------------------------------------
# Tile binding / replacement
# ---------------------------------------------------------------------------

def test_bind_tiles_prefers_empty(chain4, chain4_entry):
    rm = ResidencyMap(3)
    rm.install(0, ("x", 1), 1.0)
    out = bind_tiles(chain4_entry, chain4.index, {}, rm)
    assert out == {"A": 1, "B": 2}


def test_bind_tiles_evicts_unneeded_lru_first(chain4, chain4_entry):
    rm = ResidencyMap(3)
    rm.install(0, ("x", 1), 9.0)            # unneeded, recently used
    rm.install(1, ("x", 2), 1.0)            # unneeded, oldest
    rm.install(2, ("chain4", 1), 0.5)       # needed by this task
    out = bind_tiles(chain4_entry, chain4.index, {}, rm)
    # Slot A (weight 40) binds before B; both land on unneeded tiles in
    # least-recently-used order, the needed config survives.
    assert out == {"A": 1, "B": 0}


def test_bind_tiles_lookahead_protects_next_task(chain4, chain4_entry):
    rm = ResidencyMap(3)
    rm.install(0, ("next", 1), 1.0)
    rm.install(1, ("x", 1), 2.0)
    rm.install(2, ("x", 2), 3.0)
    lookahead = chain4_entry._replace(task_id="next")
    out = bind_tiles(chain4_entry, chain4.index, {}, rm, lookahead)
    assert 0 not in out.values()


def test_bind_tiles_capacity(chain4, chain4_entry):
    with pytest.raises(CapacityError, match="only 1 exist"):
        bind_tiles(chain4_entry, chain4.index, {}, ResidencyMap(1))


def test_bind_tiles_keeps_given_bindings(chain4, chain4_entry):
    out = bind_tiles(chain4_entry, chain4.index, {"A": 1}, ResidencyMap(2))
    assert out == {"A": 1, "B": 0}


def test_bind_tiles_fills_the_given_bindings(chain4, chain4_entry,
                                             monkeypatch):
    # The slots reuse_scan bound are filled in place; with every slot
    # bound, bind_tiles returns them without a pick.
    bindings = {"A": 1}
    assert bind_tiles(chain4_entry, chain4.index, bindings,
                      ResidencyMap(2)) is bindings
    assert bindings == {"A": 1, "B": 0}
    monkeypatch.setattr(runtime, "_pick_tile", None)
    assert bind_tiles(chain4_entry, chain4.index, bindings,
                      ResidencyMap(2)) is bindings
    assert bindings == {"A": 1, "B": 0}


# ---------------------------------------------------------------------------
# Inter-task prefetch
# ---------------------------------------------------------------------------

def test_intertask_prefetch_uses_idle_tail(chain4_entry):
    # Tiles last used at 34 and 44 (their last execs): the prefetch waits
    # for tile 0 to be free, and its end becomes the tile's last_use.
    rm = ResidencyMap(2)
    rm.install(0, ("chain4", 3), 34.0)
    rm.install(1, ("chain4", 4), 44.0)
    prefetched, ctrl = intertask_prefetch(
        rm, chain4_entry, R, task_end=44.0, ctrl_free=28.0)
    assert prefetched == (("chain4", 1, 0, 34.0, 38.0),)
    assert rm.last_use[0] == 38.0
    assert ctrl == 38.0
    assert rm.config.index(("chain4", 1)) == 0


def test_intertask_prefetch_skips_resident(chain4_entry):
    rm = ResidencyMap(2)
    rm.install(0, ("chain4", 1), 1.0)
    prefetched, ctrl = intertask_prefetch(
        rm, chain4_entry, R, task_end=44.0, ctrl_free=0.0)
    assert prefetched == () and ctrl == 0.0


def test_intertask_prefetch_never_starts_after_task_end(chain4_entry):
    rm = ResidencyMap(2)
    prefetched, _ = intertask_prefetch(
        rm, chain4_entry, R, task_end=10.0, ctrl_free=10.0)
    assert prefetched == ()


def test_intertask_prefetch_never_evicts_next_critical(chain4_entry):
    rm = ResidencyMap(1)
    rm.install(0, ("chain4", 1), 1.0)       # the next task's only critical
    prefetched, _ = intertask_prefetch(
        rm, chain4_entry, R, task_end=100.0, ctrl_free=0.0)
    assert prefetched == ()
    assert rm.config.index(("chain4", 1)) == 0


# ---------------------------------------------------------------------------
# Task instance execution per mode
# ---------------------------------------------------------------------------

def test_instance_no_prefetch(chain4, chain4_entry):
    # A baseline instance runs its fixed schedule, and spans its makespan.
    assert fixed_schedule(NO_PREFETCH, chain4, chain4_entry, R,
                          {}).makespan == 56.0


def test_instance_design_time_prefetch(chain4, chain4_entry):
    assert fixed_schedule(DESIGN_TIME_PREFETCH, chain4, chain4_entry, R,
                          {}).makespan == 44.0


@pytest.mark.parametrize("exec_ms, latency, what", [
    (12.0, R, "weights"), (10.0, 2.0, r"chain\[0\] penalty")])
def test_stored_orders_run_only_after_the_check(chain4_entry, exec_ms,
                                                latency, what):
    # DesignTimePrefetch and Hybrid run their stored orders only as the
    # store check placed them: an entry extracted from other exec times,
    # or at another latency, is refused before any of its orders runs.
    subs = [Subtask(sid, exec_ms, DRHW, "AB"[(sid - 1) % 2])
            for sid in (1, 2, 3, 4)]
    other = make_scenario("s0", subs, [(1, 2), (2, 3), (3, 4)],
                          {"A": [1, 3], "B": [2, 4]})
    message = rf"task chain4 scenario s0 .*\({what} differ\)"
    with pytest.raises(StoreFormatError, match=message):
        fixed_schedule(DESIGN_TIME_PREFETCH, other, chain4_entry, latency, {})
    rm = ResidencyMap(2)
    with pytest.raises(StoreFormatError, match=message):
        execute_task_instance(other, chain4_entry, rm, HYBRID, latency)
    assert rm.config == [None, None]


def test_warm_cache_refuses_another_latency(chain4, chain4_entry):
    # Every schedule cache key holds the latency: a cache warmed at the
    # store's R = 4 does not answer for R = 2.  The stored chain is checked
    # again and refused, as with a cold cache, and the list heuristic and
    # NoPrefetch place their schedules at R = 2.
    cache = {}
    for mode in RUNTIME_MODES:
        run(chain4, chain4_entry, ResidencyMap(2), mode, sched_cache=cache)
    fixed_schedule(NO_PREFETCH, chain4, chain4_entry, R, cache)
    for warm in (cache, {}):
        with pytest.raises(StoreFormatError,
                           match=r"chain\[0\] penalty differ"):
            fixed_schedule(DESIGN_TIME_PREFETCH, chain4, chain4_entry, 2.0,
                           warm)
        with pytest.raises(StoreFormatError,
                           match=r"chain\[0\] penalty differ"):
            execute_task_instance(chain4, chain4_entry, ResidencyMap(2),
                                  HYBRID, 2.0, sched_cache=warm)
    assert fixed_schedule(NO_PREFETCH, chain4, chain4_entry, 2.0,
                          cache).makespan == 48.0
    listed = execute_task_instance(chain4, chain4_entry, ResidencyMap(2),
                                   RUNTIME_HEURISTIC, 2.0, sched_cache=cache)
    assert listed.span == execute_task_instance(
        chain4, chain4_entry, ResidencyMap(2), RUNTIME_HEURISTIC,
        2.0).span < 44.0


def test_instance_runtime_heuristic_cold_and_warm(chain4, chain4_entry):
    rm = ResidencyMap(2)
    cold = run(chain4, chain4_entry, rm, RUNTIME_HEURISTIC)
    assert cold.span == 44.0
    # After the cold run the tiles hold configs 3 and 4.  Neither is the
    # first subtask of its slot, whose load overwrites it before it runs,
    # so nothing is reused and all four loads are issued again.
    assert rm.config == [("chain4", 3), ("chain4", 4)]
    warm = run(chain4, chain4_entry, rm, RUNTIME_HEURISTIC, t0=cold.end)
    assert warm.decision.reused == {}
    assert warm.span == 44.0
    assert len(warm.relative.loads) == 4


def test_instance_hybrid_cold(chain4, chain4_entry):
    res = run(chain4, chain4_entry, ResidencyMap(2), HYBRID)
    assert res.span == 44.0
    assert res.decision.init_loads == ((1, 0, 0.0, 4.0),)
    assert absolute_execs(res)[0] == (1, "A", 4.0, 14.0)


def test_instance_hybrid_critical_resident(chain4, chain4_entry):
    rm = ResidencyMap(2)
    rm.install(0, ("chain4", 1), 0.0)
    res = run(chain4, chain4_entry, rm, HYBRID)
    assert res.span == 40.0                # no init phase, ideal replay
    assert res.decision.init_loads == ()
    assert res.decision.reused == {1: 0}


def test_instance_hybrid_cancels_reused_noncritical(chain4, chain4_entry):
    # Config 2, the non-critical first subtask of slot B, is resident at
    # task start, so its stored load is cancelled; the critical load of 1
    # still runs as the init phase.
    rm = ResidencyMap(2)
    rm.install(0, ("chain4", 2), 0.0)
    res = run(chain4, chain4_entry, rm, HYBRID)
    assert res.decision.reused == {2: 0}
    assert res.decision.bindings == {"B": 0, "A": 1}
    assert res.decision.init_loads == ((1, 1, 0.0, 4.0),)
    assert res.decision.cancelled == frozenset({2})
    # Cancelled loads keep their stored, relative interval.
    assert res.decision.cancelled_loads == ((2, "B", 0.0, 4.0),)
    assert res.offset == 4.0
    assert res.span == 44.0
    assert [l[0] for l in res.relative.loads] == [3, 4]


def test_instance_hybrid_back_to_back(chain4, chain4_entry):
    rm = ResidencyMap(2)
    a = run(chain4, chain4_entry, rm, HYBRID, lookahead=chain4_entry)
    assert a.decision.prefetched == (("chain4", 1, 0, 34.0, 38.0),)
    b = run(chain4, chain4_entry, rm, HYBRID, t0=a.end,
            ctrl_free=a.ctrl_free)
    assert b.end == 84.0                   # 4 ms cold start, then ideal
    # Tile 1 still holds 4, but slot B loads 2 onto it first: only the
    # prefetched 1 is reused.
    assert b.decision.reused == {1: 0}


def test_instance_hybrid_waits_for_overhanging_prefetch(chain4, chain4_entry):
    # A 1 ms task loads its one subtask at [0, 4] and ends at 5; in the
    # controller's idle tail it prefetches chain4's critical 1 onto the
    # empty tile 1 at [4, 8], past its own end.  Its ctrl_free, 8, is
    # that prefetch's end, and chain4 reuses 1 and replays from there.
    sc = make_scenario("s", [Subtask(1, 1.0, DRHW, "A")], [], {"A": [1]})
    rm = ResidencyMap(2)
    a = run(sc, extract_critical_subtasks(sc, R, "t"), rm, HYBRID,
            lookahead=chain4_entry)
    assert a.end == 5.0
    assert a.decision.prefetched == (("chain4", 1, 1, 4.0, 8.0),)
    assert a.ctrl_free == 8.0
    b = run(chain4, chain4_entry, rm, HYBRID, t0=a.end,
            ctrl_free=a.ctrl_free)
    assert b.decision.reused == {1: 1}
    assert b.decision.init_loads == ()
    assert b.start == 5.0
    assert absolute_execs(b)[0] == (1, "A", 8.0, 18.0)
    assert b.end == 48.0


def test_instance_pending_constrains_list_modes(chain4, chain4_entry):
    # Tile 0 is ready at 13, after t0, as is the controller that loaded
    # it: the reused subtask waits for it.
    rm = ResidencyMap(2)
    rm.install(0, ("chain4", 1), 13.0)
    res = run(chain4, chain4_entry, rm, RUNTIME_INTERTASK, t0=10.0,
              ctrl_free=13.0)
    assert absolute_execs(res)[0][2] == 13.0


def test_instance_rejects_unknown_mode(chain4, chain4_entry):
    with pytest.raises(ValueError, match="'Magic' is not a run-time mode"):
        run(chain4, chain4_entry, ResidencyMap(2), "Magic")


@pytest.mark.parametrize("mode", [NO_PREFETCH, DESIGN_TIME_PREFETCH])
def test_instance_rejects_a_baseline(chain4, chain4_entry, mode):
    # A baseline reuses nothing and runs no instance: the simulation sums
    # its fixed schedules instead.
    rm = ResidencyMap(2)
    with pytest.raises(ValueError, match=(
            f"^'{mode}' is not a run-time mode; choose from "
            "RuntimeHeuristic, RuntimeInterTask, Hybrid$")):
        run(chain4, chain4_entry, rm, mode)
    assert rm.config == [None, None]


def test_instance_updates_residency(chain4, chain4_entry):
    rm = ResidencyMap(2)
    run(chain4, chain4_entry, rm, HYBRID)
    assert rm.config.index(("chain4", 3)) == 0   # last config loaded per tile
    assert rm.config.index(("chain4", 4)) == 1


def test_sched_cache_reuses_relative_schedules(chain4, chain4_entry):
    # Both instances start cold: after the first the tiles hold 3 and 4,
    # neither a slot head.  The run-time list modes keep the list order and
    # its placement from the same controller start with no reuse delay;
    # Hybrid keeps its fixed schedule, and its view with no reused load
    # cancelled.
    listed = (priority_order, "chain4", "s0", (), 0.0, (), R)
    for mode in (RUNTIME_HEURISTIC, RUNTIME_INTERTASK, HYBRID):
        cache = {}
        rm = ResidencyMap(2)
        a = run(chain4, chain4_entry, rm, mode, sched_cache=cache)
        b = run(chain4, chain4_entry, rm, mode, t0=a.end, sched_cache=cache)
        kept = (fixed_schedule(mode, chain4, chain4_entry, R, cache)
                if mode == HYBRID else cache[listed])
        assert b.decision.reused == {}, mode
        assert len(cache) == 2, mode
        assert b.relative is a.relative is kept, mode
        assert b.span == a.span == 44.0, mode


def replay_outcomes(plan, store, by_key, mode, tiles, latency, cache):
    """Each instance's result and the residency after it, with its times
    by ``repr`` so that a signed zero counts; a CapacityError ends it."""
    rm = ResidencyMap(tiles)
    t0 = ctrl = 0.0
    out = []
    for k, key in enumerate(plan):
        lookahead = store.entries[plan[k + 1]] if k + 1 < len(plan) else None
        try:
            res = execute_task_instance(
                by_key[key], store.entries[key], rm, mode, latency, t0, ctrl,
                lookahead, cache)
        except CapacityError as exc:
            return out + [str(exc)]
        times = (res.start, res.end, res.offset, res.ctrl_free, *rm.last_use)
        out.append((res, list(rm.config), [repr(t) for t in times]))
        t0, ctrl = res.end, res.ctrl_free
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), tiles=st.integers(2, 6),
       latency=st.sampled_from([0.0, 1.0, R]))
def test_shared_warm_cache_gives_the_same_instances(seed, tiles, latency):
    # One schedule cache shared by every mode and already warm from a first
    # replay of the plan, seeded as run_simulation seeds it, gives every
    # instance exactly what a call with no cache gives.
    w = gen_workload(GenParams(n_min=3, n_max=8, scenarios=3), 3, seed)
    store = build_store(w, latency)
    by_key = scenario_map(w)
    plan = [key for i in range(4)
            for key in select_iteration(w, seed, i, all_tasks=True)]
    cache = {}
    for key, sc in by_key.items():
        fixed_schedule(DESIGN_TIME_PREFETCH, sc, store.entries[key], latency,
                       cache)
    for mode in RUNTIME_MODES:
        replay_outcomes(plan, store, by_key, mode, tiles, latency, cache)
    for mode in RUNTIME_MODES:
        warm = replay_outcomes(plan, store, by_key, mode, tiles, latency,
                               cache)
        cold = replay_outcomes(plan, store, by_key, mode, tiles, latency,
                               None)
        assert warm == cold, mode


# ---------------------------------------------------------------------------
# Tie-breaks of the replacement policy and of the residency update
# ---------------------------------------------------------------------------

def test_pick_tile_empty_tile_lowest_index():
    rm = ResidencyMap(4)
    rm.install(0, ("x", 1), 0.0)
    rm.install(2, ("x", 2), 0.0)
    assert _pick_tile(rm, set(), set()) == 1
    assert _pick_tile(rm, {1}, set()) == 3


def test_pick_tile_lru_tie_goes_to_lower_tile():
    rm = ResidencyMap(3)
    for tile in range(3):
        rm.install(tile, ("x", tile), 5.0)
    assert _pick_tile(rm, set(), set()) == 0
    assert _pick_tile(rm, {0}, set()) == 1
    # Unneeded tiles come before needed ones, whatever their age.
    assert _pick_tile(rm, set(), {("x", 0), ("x", 1)}) == 2
    # When every tile is needed, plain LRU decides, lower tile on a tie.
    assert _pick_tile(rm, set(), {("x", 0), ("x", 1), ("x", 2)}) == 0


def test_pick_tile_never_evicts_forbidden():
    rm = ResidencyMap(3)
    rm.install(0, ("next", 1), 1.0)        # oldest, but protected
    rm.install(1, ("x", 1), 7.0)
    rm.install(2, ("x", 2), 3.0)
    forbidden = frozenset({("next", 1)})
    assert _pick_tile(rm, set(), set(), forbidden) == 2
    assert _pick_tile(rm, {1, 2}, set(), forbidden) is None


def test_pick_tile_all_claimed_is_none():
    rm = ResidencyMap(2)
    assert _pick_tile(rm, {0, 1}, set()) is None
    rm.install(0, ("x", 1), 1.0)
    assert _pick_tile(rm, {0, 1}, set()) is None


def reference_pick(residency, claimed, needed, forbidden=frozenset()):
    """The replacement rule as one minimum: empty tiles first, then tiles
    whose configuration is not needed, then the least recently used, then
    the lower tile, over unclaimed tiles that hold no forbidden config."""
    keys = [(config is not None, config in needed, residency.last_use[tile],
             tile)
            for tile, config in enumerate(residency.config)
            if tile not in claimed and config not in forbidden]
    return min(keys)[-1] if keys else None


@st.composite
def pick_cases(draw):
    """A residency map and the config sets a pick reads.  Each tile is
    empty or holds its own config, which the task, the next task, both or
    neither need, and which may be forbidden.  ``last_use`` takes few
    distinct values (equal ones, 0.0 and -0.0 among them), so ties are
    common.  Returns (map, needed, needed next, forbidden)."""
    rm = ResidencyMap(draw(st.integers(1, 6), label="tiles"))
    sets = (set(), set(), set())
    for tile in range(len(rm)):
        kind = draw(st.sampled_from(
            ["empty", "unneeded", "task", "next", "both"]))
        if kind == "empty":
            rm.last_use[tile] = draw(st.sampled_from([0.0, -0.0]))
            continue
        rm.config[tile] = config = ("a", tile)
        rm.last_use[tile] = draw(st.sampled_from(
            [0.0, -0.0, 1.0, 2.5, 2.5000000000000004]))
        for chosen, s in zip((kind in ("task", "both"),
                              kind in ("next", "both"),
                              draw(st.integers(0, 3)) == 0), sets):
            if chosen:
                s.add(config)
    return (rm, *map(frozenset, sets))


@settings(max_examples=300, deadline=None)
@given(case=pick_cases(), with_lookahead=st.booleans(), data=st.data())
def test_pick_tile_matches_the_reference(case, with_lookahead, data):
    rm, needed, needed_next, forbidden = case
    claimed = data.draw(st.sets(st.integers(0, len(rm) - 1)), label="claimed")
    if with_lookahead:
        got = _pick_tile(rm, claimed, needed, forbidden, needed_next)
    else:
        got = _pick_tile(rm, claimed, needed | needed_next, forbidden)
    assert got == reference_pick(rm, claimed, needed | needed_next, forbidden)


@settings(max_examples=300, deadline=None)
@given(case=pick_cases(), with_lookahead=st.booleans(), data=st.data())
def test_bind_tiles_matches_the_reference(case, with_lookahead, data):
    # bind_tiles picks a tile per unbound slot in binding order, each pick
    # claiming its tile; the residency map itself is not changed.
    rm, configs, lookahead, _ = case
    order = data.draw(st.lists(st.sampled_from("ABCDEFG"), min_size=1,
                               max_size=len(rm) + 1, unique=True),
                      label="bind order")
    bound = data.draw(st.lists(st.sampled_from(order), unique=True,
                               max_size=len(order) - 1), label="bound slots")
    tiles = data.draw(st.permutations(range(len(rm))), label="bound tiles")
    bindings = dict(zip(bound, tiles))
    entry = SimpleNamespace(task_id="a", scenario_id="s", configs=configs)
    idx = SimpleNamespace(bind_order=tuple(order))
    next_entry = None
    needed = configs
    if with_lookahead:
        next_entry = SimpleNamespace(configs=lookahead)
        needed = configs | lookahead
    expected, claimed = dict(bindings), set(bindings.values())
    for slot in order:
        if slot not in bindings:
            tile = reference_pick(rm, claimed, needed)
            if tile is None:
                with pytest.raises(CapacityError):
                    bind_tiles(entry, idx, bindings, rm, next_entry)
                return
            expected[slot] = tile
            claimed.add(tile)
    before = (list(rm.config), list(rm.last_use))
    got = bind_tiles(entry, idx, bindings, rm, next_entry)
    assert got == expected
    assert (rm.config, rm.last_use) == before


def test_residency_update_same_end_keeps_later_load():
    # Slot A runs 3 (zero exec time) then 1.  At R = 0 both loads on A's
    # tile end at 0: the later-issued config (1) stays, and last_use is the
    # latest end on the tile (the exec of 1).
    subs = [Subtask(3, 0.0, "DRHW", "A"), Subtask(1, 5.0, "DRHW", "A")]
    sc = make_scenario("z", subs, [(3, 1)], {"A": [3, 1]})
    for mode in RUNTIME_MODES:
        rm = ResidencyMap(2)
        res = execute_task_instance(
            sc, extract_critical_subtasks(sc, 0.0, "t"), rm, mode, 0.0)
        assert [(sid, e) for sid, _, _, e in res.load_events] == [
            (3, 0.0), (1, 0.0)], mode
        assert rm.config[0] == ("t", 1), mode
        assert rm.last_use[0] == 5.0, mode
        assert rm.config[1] is None, mode


# ---------------------------------------------------------------------------
# Slot table and residency update
# ---------------------------------------------------------------------------

def test_slot_tails_keep_the_last_load_listed_on_each_slot():
    ts = TimedSchedule(20.0, (
        (1, "A", 4.0, 8.0), (2, "B", 8.0, 12.0), (3, "A", 12.0, 20.0),
        (5, "cpu", 0.0, 3.0)), (
        (1, "A", 0.0, 4.0), (2, "B", 4.0, 8.0), (3, "A", 8.0, 12.0)))
    assert ts.slot_table == ({"A": (3, 20.0), "B": (2, 12.0),
                              "cpu": (None, 3.0)}, 12.0)


def test_slot_tails_equal_ends_keep_the_later_load():
    # At R = 0 every load on A ends at 0: the later-issued one is the tail.
    ts = TimedSchedule(5.0, ((3, "A", 0.0, 0.0), (1, "A", 0.0, 5.0)),
                       ((3, "A", 0.0, 0.0), (1, "A", 0.0, 0.0)))
    assert ts.slot_table == ({"A": (1, 5.0)}, 0.0)


def _drhw_then_isp():
    """DRHW subtask 1 (5 ms) on slot A, then ISP subtask 2 (10 ms) on cpu."""
    subs = [Subtask(1, 5.0, "DRHW", "A"), Subtask(2, 10.0, "ISP", "cpu")]
    return make_scenario("s", subs, [(1, 2)], {"A": [1], "cpu": [2]})


def test_residency_update_without_loads_keeps_ctrl_free():
    sc = _drhw_then_isp()
    entry = extract_critical_subtasks(sc, R, "t")
    rm = ResidencyMap(1)
    cold = run(sc, entry, rm, RUNTIME_HEURISTIC)
    warm = run(sc, entry, rm, RUNTIME_HEURISTIC, t0=cold.end,
               ctrl_free=cold.end + 3.0)
    assert warm.decision.reused == {1: 0}
    assert warm.relative.loads == ()
    assert warm.relative.slot_table == ({"A": (None, 5.0),
                                         "cpu": (None, 15.0)}, -math.inf)
    assert warm.ctrl_free == cold.end + 3.0


def test_residency_update_isp_pe_touches_no_tile():
    # Hybrid loads critical 1 as an init load at [0, 4] and replays from
    # 4, so its relative schedule has no load.
    sc = _drhw_then_isp()
    listed = {"A": (1, 9.0), "cpu": (None, 19.0)}
    for mode, table in ((RUNTIME_HEURISTIC, listed),
                        (RUNTIME_INTERTASK, listed),
                        (HYBRID, {"A": (None, 5.0), "cpu": (None, 15.0)})):
        rm = ResidencyMap(2)
        res = run(sc, extract_critical_subtasks(sc, R, "t"), rm, mode)
        assert res.relative.slot_table[0] == table, mode
        assert res.decision.bindings == {"A": 0}, mode
        assert rm.config == [("t", 1), None], mode
        assert rm.last_use == [9.0, 0.0], mode  # the ISP exec ends at 19


def test_residency_update_hybrid_stored_load_replaces_init_load(chain4,
                                                                chain4_entry):
    # Slot A holds critical 1 (init load on tile 0 at [0, 4]) and
    # non-critical 3 (stored load at [14, 18] on the same tile): 3 stays.
    rm = ResidencyMap(2)
    res = run(chain4, chain4_entry, rm, HYBRID)
    assert res.decision.init_loads == ((1, 0, 0.0, 4.0),)
    assert res.relative.slot_table[0]["A"] == (3, 30.0)
    assert rm.config == [("chain4", 3), ("chain4", 4)]
    assert rm.last_use == [34.0, 44.0]
    assert res.ctrl_free == 28.0


def reference_residency(config, last_use, ctrl_free, t0, scenario, res):
    """Tile configs, last uses and controller time after ``res`` by the
    per-load rule: per tile, the load that ends last stays resident (the
    later-issued one on a tie), and last_use is the latest load or exec
    end on the tile.  Inter-task prefetches are issued after the
    instance's own loads."""
    config, last_use = list(config), list(last_use)
    d = res.decision
    loads = [((res.task_id, sid), tile, e)
             for sid, tile, _, e in res.load_events]
    loads += [((task, sid), tile, e)
              for task, sid, tile, _, e in d.prefetched]
    kept = {}
    for cfg, tile, e in loads:
        if tile not in kept or e >= kept[tile][1]:
            kept[tile] = (cfg, e)
        last_use[tile] = max(last_use[tile], e)
    for tile, (cfg, _) in kept.items():
        config[tile] = cfg
    drhw = {sub.id for sub in scenario.graph.subtasks if sub.target == DRHW}
    for sid, pe, _, e in res.relative.execs:
        if sid in drhw:
            tile = d.bindings[pe]
            last_use[tile] = max(last_use[tile], e + res.offset)
    return config, last_use, max([ctrl_free, t0] + [e for _, _, e in loads])


random_plans = given(
    seed=st.integers(0, 10 ** 6), n_max=st.integers(3, 10),
    slots=st.integers(1, 4), scenarios=st.integers(1, 3),
    drhw_fraction=st.sampled_from([0.5, 1.0]),
    latency=st.sampled_from([0.0, 1.0, R]), data=st.data())


def replay_random_plan(seed, n_max, slots, scenarios, drhw_fraction, latency,
                       data):
    """Run every run-time mode over a plan of random instances, each with
    the next one as lookahead, on a tile count from the most slots any
    entry binds up to 8.  Yields (mode, k, scenario, before, res,
    residency) after instance k, where ``before`` is (tile configs, last
    uses, controller free time, t0) as the instance started."""
    w = gen_workload(GenParams(n_min=3, n_max=n_max, slots=slots,
                               scenarios=scenarios,
                               drhw_fraction=drhw_fraction), 3, seed)
    store = build_store(w, latency)
    need = max(1, max(len(sc.index.bind_order)
                      for sc in scenario_map(w).values()))
    tiles = data.draw(st.integers(need, 8), label="tiles")
    by_key = scenario_map(w)
    plan = [key for i in range(4)
            for key in select_iteration(w, seed, i, all_tasks=True)]
    for mode in RUNTIME_MODES:
        rm = ResidencyMap(tiles)
        t0 = ctrl = 0.0
        cache = {}
        for k, key in enumerate(plan):
            lookahead = store.entries[plan[k + 1]] if k + 1 < len(plan) else None
            before = (list(rm.config), list(rm.last_use), ctrl, t0)
            res = execute_task_instance(
                by_key[key], store.entries[key], rm, mode, latency, t0=t0,
                ctrl_free=ctrl, lookahead=lookahead, sched_cache=cache)
            yield mode, k, by_key[key], before, res, rm
            t0, ctrl = res.end, res.ctrl_free


@settings(max_examples=50, deadline=None)
@random_plans
def test_residency_update_matches_the_per_load_rule(seed, n_max, slots,
                                                    scenarios, drhw_fraction,
                                                    latency, data):
    for mode, k, scenario, before, res, rm in replay_random_plan(
            seed, n_max, slots, scenarios, drhw_fraction, latency, data):
        assert (rm.config, rm.last_use, res.ctrl_free) == \
            reference_residency(*before, scenario, res), (mode, k)


@settings(max_examples=25, deadline=None)
@random_plans
def test_last_use_is_when_a_tile_is_ready(seed, n_max, slots, scenarios,
                                          drhw_fraction, latency, data):
    # As an instance starts, a tile is free by t0, or it holds what the
    # previous instance prefetched onto it and last_use is that prefetch's
    # end: last_use alone says when each tile is ready.  Either way it is
    # ready by the controller's free time, which Hybrid's replay relies on.
    prefetched = ()
    for mode, k, _, before, res, _ in replay_random_plan(
            seed, n_max, slots, scenarios, drhw_fraction, latency, data):
        config, last_use, ctrl, t0 = before
        if k == 0:
            prefetched = ()
        ends = {(tile, (task, sid)): e
                for task, sid, tile, _, e in prefetched}
        for tile, used in enumerate(last_use):
            assert used <= t0 or ends.get((tile, config[tile])) == used, \
                (mode, k, tile)
            assert used <= max(t0, ctrl), (mode, k, tile)
        prefetched = res.decision.prefetched


@settings(max_examples=25, deadline=None)
@random_plans
def test_no_load_on_a_bound_tile_ends_after_its_slots_last_exec(
        seed, n_max, slots, scenarios, drhw_fraction, latency, data):
    # Why the residency update raises last_use to exec ends alone: every
    # replayed load and init load on a bound tile ends by the last exec
    # end of that tile's slot.
    for mode, k, _, _, res, _ in replay_random_plan(
            seed, n_max, slots, scenarios, drhw_fraction, latency, data):
        last_exec = {}
        for _, pe, _, e in absolute_execs(res):
            last_exec[pe] = max(last_exec.get(pe, -math.inf), e)
        slot_of = {tile: slot for slot, tile in res.decision.bindings.items()}
        for sid, tile, _, e in res.load_events:
            assert e <= last_exec[slot_of[tile]], (mode, k, sid)
