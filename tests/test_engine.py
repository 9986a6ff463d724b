import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhwsim.design_time import build_store
from drhwsim.engine import (DEFAULT_BB_LIMIT, TIME_TOL, compute_penalty,
                            place_loads, priority_order,
                            schedule_list_heuristic, schedule_no_prefetch,
                            schedule_optimal_bb, _order_constraints,
                            _search_orders)
from drhwsim.errors import OrderError, SearchLimitExceeded
from drhwsim.model import (Subtask, Task, Workload, make_scenario,
                           scenario_map, validate)
from drhwsim.workloads import GenParams, gen_task, gen_workload
from oracle import brute_force_oracle

R = 4.0


def random_scenario(seed, n_min=3, n_max=7):
    return gen_task(GenParams(n_min=n_min, n_max=n_max, scenarios=1),
                    seed).scenarios[0]


# ---------------------------------------------------------------------------
# place_loads on the chain fixture: hand timeline
# ---------------------------------------------------------------------------

def test_place_loads_chain_timeline(chain4):
    ts = place_loads(chain4, (1, 2, 3, 4), (1, 2, 3, 4), R)
    assert ts.loads == ((1, "A", 0.0, 4.0), (2, "B", 4.0, 8.0),
                        (3, "A", 14.0, 18.0), (4, "B", 24.0, 28.0))
    assert ts.execs == ((1, "A", 4.0, 14.0), (2, "B", 14.0, 24.0),
                        (3, "A", 24.0, 34.0), (4, "B", 34.0, 44.0))
    assert ts.makespan == 44.0


def test_place_loads_zero_latency_is_ideal(chain4):
    ts = place_loads(chain4, (1, 2, 3, 4), (1, 2, 3, 4), 0.0)
    assert ts.makespan == chain4.index.ideal == 40.0


def test_place_loads_rejects_non_permutation(chain4):
    with pytest.raises(OrderError, match="permutation"):
        place_loads(chain4, (1, 2), (1, 1), R)
    with pytest.raises(OrderError, match="negative"):
        place_loads(chain4, (1,), (1,), -1.0)


@pytest.mark.parametrize("latency", [-1.0, float("nan"), float("inf")])
def test_schedulers_reject_non_finite_latency(chain4, latency):
    with pytest.raises(OrderError, match="finite"):
        place_loads(chain4, (1,), (1,), latency)
    with pytest.raises(OrderError, match="finite"):
        schedule_no_prefetch(chain4, (1,), latency)
    with pytest.raises(OrderError, match="finite"):
        compute_penalty(chain4, set(), latency)


def test_place_loads_head_of_line_blocking(chain4):
    # Load of 3 heads the queue; its tile's previous subtask (1) cannot
    # run until 1's own load is issued, which sits behind 3. Deadlock.
    with pytest.raises(OrderError, match="deadlock"):
        place_loads(chain4, (1, 3), (3, 1), R)


def test_place_loads_min_start_constraint(chain4):
    ts = place_loads(chain4, (2, 3, 4), (2, 3, 4), R, min_start={1: 6.0})
    assert ts.execs[0] == (1, "A", 6.0, 16.0)


def test_no_prefetch_chain(chain4):
    ts = schedule_no_prefetch(chain4, (1, 2, 3, 4), R)
    # Every load waits for its demand: 4 loads of 4 ms fully exposed.
    assert ts.makespan == 56.0
    assert ts.loads == ((1, "A", 0.0, 4.0), (2, "B", 14.0, 18.0),
                        (3, "A", 28.0, 32.0), (4, "B", 42.0, 46.0))


# ---------------------------------------------------------------------------
# Order construction and search
# ---------------------------------------------------------------------------

def test_priority_order_descending_weight(chain4):
    assert priority_order(chain4, (1, 2, 3, 4)) == (1, 2, 3, 4)


def test_priority_order_takes_the_heaviest_ready_load():
    # At each step, the load of smallest (-weight, id) whose constraints
    # are all issued.  Equal exec times make weights tie.
    for seed, exec_high in itertools.product(range(20), (10.0, 1.0)):
        task = gen_task(GenParams(n_min=4, n_max=12, exec_high=exec_high,
                                  edge_density=0.6, drhw_fraction=0.5,
                                  slots=2, scenarios=2), seed)
        for sc in task.scenarios:
            idx = sc.index
            for loads in (idx.drhw, idx.drhw[::2]):
                before = _order_constraints(idx, frozenset(loads))
                done: list[int] = []
                while len(done) < len(before):
                    done.append(min(
                        (sid for sid in before if sid not in done
                         and before[sid] <= set(done)),
                        key=lambda sid: (-idx.weights[sid], sid)))
                assert priority_order(sc, loads) == tuple(done)


def test_priority_order_always_placeable():
    for seed in range(40):
        sc = random_scenario(seed)
        idx = sc.index
        order = priority_order(sc, idx.drhw)
        place_loads(sc, idx.drhw, order, R)   # must not raise


def test_bb_chain_optimal(chain4):
    order, ts, _ = schedule_optimal_bb(chain4, (1, 2, 3, 4), R)
    assert ts.makespan == 44.0
    assert order == (1, 2, 3, 4)


def test_bb_matches_oracle_small_scenarios():
    checked = 0
    seed = 0
    while checked < 60:
        seed += 1
        sc = random_scenario(seed)
        idx = sc.index
        if not 2 <= len(idx.drhw) <= 6:
            continue
        checked += 1
        order, ts, _ = schedule_optimal_bb(sc, idx.drhw, R)
        oracle = brute_force_oracle(sc, idx.drhw, R)
        assert (order, ts) == oracle     # same order and same schedule


def placed_at(sc, loads, order, R, t0):
    """``order`` placed with the controller and every subtask held until
    the origin ``t0``: the absolute plan a relative one shifts to."""
    return place_loads(sc, loads, order, R, ctrl_start=t0,
                       min_start={sid: t0 for sid in sc.index.order})


def assert_shifted_plan(rel, absolute, t0):
    assert abs(absolute.makespan - (t0 + rel.makespan)) <= TIME_TOL
    for got, want in ((rel.execs, absolute.execs),
                      (rel.loads, absolute.loads)):
        assert [i[:2] for i in got] == [i[:2] for i in want]
        for (_, _, s, e), (_, _, s2, e2) in zip(got, want):
            assert abs(s + t0 - s2) <= TIME_TOL and abs(e + t0 - e2) <= TIME_TOL


def warm_start_hints(rng, sc, loads, optimal):
    """Hints of every kind: a random permutation of the loads, an order
    that deadlocks (when one exists), the optimal order and an order of a
    different load set."""
    ls = frozenset(loads)
    hints = [rng.sample(sorted(ls), len(ls)), optimal]
    blockers = _order_constraints(sc.index, ls)
    blocked = [sid for sid in sorted(ls) if blockers[sid]]
    if blocked:
        hints.append([blocked[0], *sorted(ls - {blocked[0]})])
    other = rng.sample(sc.index.drhw, len(ls) - 1)
    hints.append(rng.sample(other, len(other)))
    return hints


@pytest.mark.parametrize("t0", [0.0, 13.25])
@pytest.mark.parametrize("latency", [0.0, 2.5, 4.0, 7.5, 20.0])
def test_bb_matches_oracle_over_latencies_and_origins(latency, t0):
    # Random load subsets of 2..7 loads; with a zero latency no load moves
    # a subtask, and at 20 ms (above most exec times) the controller sets
    # the makespan.  Plans are relative: shifted to a non-zero origin, the
    # optimal one must be the plan placed directly at that origin.  A hint
    # only lowers the incumbent, so every hinted search returns the same
    # order and schedule, and one seeded with the optimum visits no more
    # nodes.
    rng = random.Random(f"{latency}/{t0}")
    for n, count in {2: 10, 3: 10, 4: 10, 5: 10, 6: 8, 7: 6}.items():
        for _ in range(count):
            sc = random_scenario(rng.randrange(10**6), n_min=n, n_max=n + 3)
            loads = rng.sample(sc.index.drhw, n)
            order, ts, nodes = schedule_optimal_bb(sc, loads, latency)
            assert (order, ts) == brute_force_oracle(sc, loads, latency)
            assert_shifted_plan(ts, placed_at(sc, loads, order, latency, t0),
                                t0)
            for hint in warm_start_hints(rng, sc, loads, order):
                got = schedule_optimal_bb(sc, loads, latency, hint=hint)
                assert got[:2] == (order, ts), hint
            assert schedule_optimal_bb(sc, loads, latency,
                                       hint=order)[2] <= nodes


@pytest.mark.parametrize("t0", [0.0, 13.25])
@pytest.mark.parametrize("latency", [2.5, 4.0, 20.0])
def test_bb_bound_never_prunes_the_optimum(latency, t0):
    # With the incumbent at the optimal makespan, nothing but a lower bound
    # that is never above a completion's makespan keeps the optimal path:
    # a bound too large prunes it and the search finds no order, which the
    # list-order incumbent of schedule_optimal_bb could hide.  The optimum
    # is taken over every order placed at the origin ``t0``, so the
    # relative search must also find the best plan for a later start.
    rng = random.Random(f"admissible/{latency}/{t0}")
    for n in (2, 3, 4, 5, 6, 6, 7, 7):
        sc = random_scenario(rng.randrange(10**6), n_min=n, n_max=n + 3)
        loads = frozenset(rng.sample(sc.index.drhw, n))
        best, best_order = None, None
        for perm in itertools.permutations(sorted(loads)):
            try:
                ts = placed_at(sc, loads, perm, latency, t0)
            except OrderError:
                continue        # deadlocks behind an ineligible head load
            if best is None or ts.makespan < best - TIME_TOL:
                best, best_order = ts.makespan, perm
        assert _search_orders(sc.index, loads, latency,
                              best - t0)[0] == best_order


def test_bb_lex_smallest_tie():
    # Two independent equal subtasks on separate tiles: both orders are
    # optimal, the search must return the lexicographically smaller one.
    sc = make_scenario("s", [Subtask(1, 10.0, "DRHW", "A"),
                             Subtask(2, 10.0, "DRHW", "B")],
                       [], {"A": [1], "B": [2]})
    order, _, _ = schedule_optimal_bb(sc, (1, 2), R)
    assert order == (1, 2)


def test_bb_lex_smallest_of_several_optima():
    # 3 feeds a 13 ms ISP subtask, so it weighs most and the list order
    # (3, 1, 2) is optimal at 22 ms; so are (1, 3, 2), (2, 3, 1) and
    # (3, 2, 1).  The search must return the lex-smallest, not the seed.
    sc = make_scenario("s", [Subtask(1, 10.0, "DRHW", "A"),
                             Subtask(2, 10.0, "DRHW", "B"),
                             Subtask(3, 1.0, "DRHW", "C"),
                             Subtask(4, 13.0, "ISP", "P")],
                       [(3, 4)], {"A": [1], "B": [2], "C": [3], "P": [4]})
    assert priority_order(sc, (1, 2, 3)) == (3, 1, 2)
    optima = [p for p in itertools.permutations((1, 2, 3))
              if place_loads(sc, (1, 2, 3), p, R).makespan == 22.0]
    assert optima == [(1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    order, ts, _ = schedule_optimal_bb(sc, (1, 2, 3), R)
    assert (order, ts.makespan) == ((1, 3, 2), 22.0)
    assert brute_force_oracle(sc, (1, 2, 3), R)[0] == order


def test_bb_limit_raises():
    sc = random_scenario(3, n_min=13, n_max=13)
    idx = sc.index
    assert len(idx.drhw) == DEFAULT_BB_LIMIT + 1
    with pytest.raises(SearchLimitExceeded, match="limit of 12"):
        schedule_optimal_bb(sc, idx.drhw, R)


def test_oracle_guard_raises():
    sc = random_scenario(3, n_min=9, n_max=9)
    idx = sc.index
    if len(idx.drhw) > 8:
        with pytest.raises(SearchLimitExceeded):
            brute_force_oracle(sc, idx.drhw, R)


def test_list_heuristic_never_beats_bb():
    for seed in range(1, 30):
        sc = random_scenario(seed)
        idx = sc.index
        _, lh = schedule_list_heuristic(sc, idx.drhw, R)
        _, bb, _ = schedule_optimal_bb(sc, idx.drhw, R)
        assert bb.makespan <= lh.makespan + TIME_TOL


# ---------------------------------------------------------------------------
# Penalty
# ---------------------------------------------------------------------------

def test_penalty_chain_nothing_reused(chain4):
    rep = compute_penalty(chain4, set(), R)
    assert rep.penalty == 4.0
    assert rep.delayed == frozenset({1})


def test_penalty_chain_first_reused(chain4):
    rep = compute_penalty(chain4, {1}, R)
    assert rep.penalty == 0.0
    assert rep.delayed == frozenset()
    assert rep.schedule.loads == ((2, "B", 0.0, 4.0), (3, "A", 10.0, 14.0),
                                  (4, "B", 20.0, 24.0))


def test_penalty_everything_reused(chain4):
    rep = compute_penalty(chain4, {1, 2, 3, 4}, R)
    assert rep.penalty == 0.0
    assert rep.schedule.makespan == 40.0


def test_penalty_rejects_unknown_subtask(chain4):
    with pytest.raises(OrderError, match="non-DRHW"):
        compute_penalty(chain4, {99}, R)


def test_penalty_delayed_modes_on_chain(chain4):
    # Only subtask 1 waits on its own load; 2..4 wait on their predecessors.
    rep = compute_penalty(chain4, set(), R)
    assert rep.delayed == frozenset({1})


# ---------------------------------------------------------------------------
# Schedule invariants on random scenarios
# ---------------------------------------------------------------------------

def check_schedule_invariants(sc, ts, load_set, latency):
    idx = sc.index
    starts = {sid: s for sid, _, s, _ in ts.execs}
    ends = {sid: e for sid, _, _, e in ts.execs}
    load_end = {sid: e for sid, _, _, e in ts.loads}
    # Controller serialization, fixed duration, declared load set.
    assert sorted(l[0] for l in ts.loads) == sorted(load_set)
    for (_, _, s1, e1), (_, _, s2, e2) in itertools.combinations(ts.loads, 2):
        assert e1 <= s2 + TIME_TOL or e2 <= s1 + TIME_TOL
    for _, _, s, e in ts.loads:
        assert abs((e - s) - latency) <= TIME_TOL
    for sid in idx.order:
        for p in idx.preds[sid]:
            assert starts[sid] >= ends[p] - TIME_TOL
        prev = idx.prev_pe.get(sid)
        if prev is not None:
            assert starts[sid] >= ends[prev] - TIME_TOL
        if sid in load_end:
            assert starts[sid] >= load_end[sid] - TIME_TOL
    assert ts.makespan >= sc.index.ideal - TIME_TOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), latency=st.sampled_from([0.0, 1.0, 4.0, 9.5]))
def test_list_heuristic_invariants(seed, latency):
    sc = random_scenario(seed)
    assert validate(sc) == []
    idx = sc.index
    _, ts = schedule_list_heuristic(sc, idx.drhw, latency)
    check_schedule_invariants(sc, ts, idx.drhw, latency)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_no_prefetch_invariants_and_demand_timing(seed):
    sc = random_scenario(seed)
    idx = sc.index
    ts = schedule_no_prefetch(sc, idx.drhw, R)
    check_schedule_invariants(sc, ts, idx.drhw, R)
    # On demand means a load never starts before its demand is ready.
    ends = {sid: e for sid, _, _, e in ts.execs}
    for sid, _, s, _ in ts.loads:
        deps = list(idx.preds[sid])
        prev = idx.prev_pe.get(sid)
        if prev is not None:
            deps.append(prev)
        ready = max((ends[d] for d in deps), default=0.0)
        assert s >= ready - TIME_TOL


def reference_execs(idx, ts, min_start):
    """The execs of one ``forward`` pass in which each loaded subtask's
    ``min_start`` is raised to its load end."""
    bound = dict(min_start)
    for sid, _, _, e in ts.loads:
        bound[sid] = max(bound.get(sid, 0.0), e)
    starts, ends = idx.forward(bound)
    return tuple((sid, idx.pe_of[sid], starts[sid], ends[sid])
                 for sid in idx.order)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       latency=st.sampled_from([0.0, 2.5, 4.0, 9.5, 20.0]))
def test_placers_match_one_forward_pass(seed, latency):
    # The placers move a timeline with ScenarioIndex.delay one load at a
    # time; the oracle shares that rule, so the timeline is checked here
    # against a single full pass over the loads they placed.
    rng = random.Random(seed)
    sc = random_scenario(seed, n_min=2, n_max=10)
    idx = sc.index
    loads = rng.sample(idx.drhw, rng.randint(0, len(idx.drhw)))
    min_start = {sid: rng.uniform(0.0, 40.0)
                 for sid in rng.sample(idx.order, rng.randint(0, len(idx.order)))}
    ctrl_start = rng.choice([None, rng.uniform(0.0, 20.0)])
    ts = place_loads(sc, loads, priority_order(sc, loads), latency,
                     ctrl_start=ctrl_start, min_start=min_start)
    assert ts.execs == reference_execs(idx, ts, min_start)
    ts = schedule_no_prefetch(sc, loads, latency)
    assert ts.execs == reference_execs(idx, ts, {})


@pytest.mark.parametrize("latency", [0.0, 4.0])
def test_placers_leave_the_shared_timeline_alone(latency):
    # Every placer starts from the index's zero-latency timeline, shared by
    # all of them; one that moved it in place would shift every later
    # placement on the scenario.
    rng = random.Random(7)
    for seed in range(30):
        task = gen_task(GenParams(n_min=2, n_max=10, scenarios=1), seed)
        sc = task.scenarios[0]
        idx = sc.index
        build_store(Workload((task,)), latency)
        assert idx.timeline == idx.forward()
        loads = rng.sample(idx.drhw, rng.randint(0, len(idx.drhw)))
        order = priority_order(sc, loads)
        min_start = {sid: rng.uniform(0.0, 40.0) for sid in idx.order[::2]}
        place_loads(sc, loads, order, latency)
        place_loads(sc, loads, order, latency, min_start=min_start)
        schedule_no_prefetch(sc, loads, latency)
        schedule_list_heuristic(sc, loads, latency)
        schedule_optimal_bb(sc, loads, latency)
        schedule_optimal_bb(sc, loads, latency, hint=order[::-1])
        assert idx.timeline == idx.forward()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_zero_latency_collapses_to_ideal(seed):
    sc = random_scenario(seed)
    idx = sc.index
    _, ts = schedule_list_heuristic(sc, idx.drhw, 0.0)
    assert abs(ts.makespan - sc.index.ideal) <= TIME_TOL


# ---------------------------------------------------------------------------
# The placers' invariants, which no code checks again
# ---------------------------------------------------------------------------

generated_graphs = given(
    seed=st.integers(0, 10 ** 6), n_max=st.integers(3, 12),
    drhw_fraction=st.sampled_from([0.5, 1.0]),
    latency=st.sampled_from([0.0, 1.0, R]))


def generated_load_sets(seed, n_max, drhw_fraction):
    """(scenario, load set) over the scenarios of a generated workload:
    every DRHW subtask, then a random subset."""
    rng = random.Random(seed)
    w = gen_workload(GenParams(n_min=3, n_max=n_max, scenarios=2,
                               drhw_fraction=drhw_fraction), 2, seed)
    for sc in scenario_map(w).values():
        drhw = sc.index.drhw
        yield sc, drhw
        yield sc, tuple(rng.sample(drhw, rng.randint(0, len(drhw))))


@settings(max_examples=40, deadline=None)
@generated_graphs
def test_placed_schedules_never_beat_the_ideal_or_outrun_a_load(
        seed, n_max, drhw_fraction, latency):
    # Every placer starts from the zero-latency timeline and only moves
    # starts later: no makespan is below the ideal one, and no subtask
    # starts before its load ends.  Exact, with no tolerance.
    for sc, loads in generated_load_sets(seed, n_max, drhw_fraction):
        idx = sc.index
        placed = [place_loads(sc, loads, priority_order(sc, loads), latency),
                  schedule_no_prefetch(sc, loads, latency),
                  schedule_list_heuristic(sc, loads, latency)[1]]
        if len(loads) <= DEFAULT_BB_LIMIT:
            placed.append(schedule_optimal_bb(sc, loads, latency)[1])
        for ts in placed:
            assert ts.makespan >= idx.ideal
            starts = {sid: s for sid, _, s, _ in ts.execs}
            for sid, _, _, end in ts.loads:
                assert end <= starts[sid], (sid, ts)


@settings(max_examples=60, deadline=None)
@generated_graphs
def test_priority_order_takes_every_load_once(seed, n_max, drhw_fraction,
                                              latency):
    # Each load's blockers are its ancestors, and the combined order is
    # acyclic, so the list order never stops short.
    for sc, loads in generated_load_sets(seed, n_max, drhw_fraction):
        assert sorted(priority_order(sc, loads)) == sorted(loads)
