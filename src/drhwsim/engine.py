"""Timeline model and load schedulers.

A single reconfiguration controller serializes all loads; every load lasts
exactly the latency R.  The controller takes loads strictly in the given
order and blocks behind an ineligible head: a load is eligible once its
target tile's previous subtask (in the per-PE order) has finished, or at 0
if it is the tile's first.  Subtask order per PE is never altered; only
loads are inserted.  Every placer starts from a copy of the index's
zero-latency timeline (``ScenarioIndex.timeline``, or a pass of
``ScenarioIndex.forward`` under ``min_start``) and moves it with
``ScenarioIndex.delay`` as each load is placed.  The exact search starts
from the warm order a greedy step hands it, and derives the list order
only when it has none.

Two invariants hold by construction and are checked nowhere else.
``delay`` only moves starts later, so no makespan is below the ideal one
and no loaded subtask starts before its load ends.  The combined order is
acyclic and each load's blockers are its ancestors, so the on-demand and
list orders take every load.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import OrderError, SearchLimitExceeded
from .model import (TIME_TOL, FrozenRecord, Scenario, ScenarioIndex,
                    ready_order)

DEFAULT_BB_LIMIT = 12


class TimedSchedule(FrozenRecord):
    """Exec intervals per PE plus load intervals on the controller.

    Times are relative to the schedule's start at 0, and ``makespan`` is
    the last exec end.  The run-time phase replays stored and cached
    schedules in that relative time plus an offset, and the trace adds the
    offset as it builds each row.

    ``slot_table`` is derived on first use and never stored; the run-time
    phase updates residency from it.
    """

    _fields = ("makespan", "execs", "loads")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, makespan: float,
                 execs: tuple[tuple[int, str, float, float], ...],
                 loads: tuple[tuple[int, str, float, float], ...]):
        # execs: (subtask, pe, start, end); loads: (subtask, slot, start, end)
        self._set(makespan, execs, loads)

    @cached_property
    def slot_table(self) -> tuple[dict[str, tuple[Optional[int], float]],
                                  float]:
        """(PE -> (last subtask loaded on it or None, its last exec end),
        end of the last load or -inf without loads).  Execs are listed in
        a topological order that keeps per-PE order, so the last one listed
        on a PE ends last there.  The controller issues loads one at a time
        in list order, so the last one listed on a slot stays resident; at
        R = 0, where ends can be equal, it is the later-issued one."""
        table = {pe: (None, e) for _, pe, _, e in self.execs}
        for sid, slot, _, _ in self.loads:
            table[slot] = (sid, table[slot][1])
        return table, (self.loads[-1][3] if self.loads else -math.inf)


class PenaltyReport(FrozenRecord):
    """``nodes`` counts B&B search nodes; 0 where the list heuristic ran."""

    __slots__ = _fields = ("penalty", "delayed", "order", "schedule", "nodes")

    def __init__(self, penalty: float, delayed: frozenset[int],
                 order: tuple[int, ...], schedule: TimedSchedule, nodes: int):
        self._set(penalty, delayed, order, schedule, nodes)


# ---------------------------------------------------------------------------
# Core placement
# ---------------------------------------------------------------------------

def check_latency(R: float) -> None:
    """Reject a reconfiguration latency that is negative, NaN or infinite."""
    if not (math.isfinite(R) and R >= 0):
        raise OrderError(f"latency must be finite and non-negative, got {R}")


def _check_load_set(idx: ScenarioIndex, load_set: Iterable[int]) -> frozenset[int]:
    ls = frozenset(load_set)
    bad = ls - idx.drhw_set
    if bad:
        raise OrderError(f"load set contains non-DRHW subtasks: {sorted(bad)}")
    return ls


def _timed(idx: ScenarioIndex, starts, ends, loads) -> TimedSchedule:
    """Assemble the schedule of fully placed loads from its timeline."""
    makespan = max(ends.values(), default=0.0)
    execs = tuple((sid, idx.pe_of[sid], starts[sid], ends[sid]) for sid in idx.order)
    return TimedSchedule(makespan, execs, tuple(loads))


def _try_place(idx: ScenarioIndex, order, load_set, R,
               ctrl_start=None, min_start=None) -> Optional[TimedSchedule]:
    """Place loads head-of-line; None if the head can never become eligible.

    The head waits for its tile predecessor, whose end is final once
    neither it nor anything upstream of it has a load left to place.
    """
    starts, ends = idx.forward(min_start) if min_start else map(dict, idx.timeline)
    pending = set(load_set)
    rc = 0.0 if ctrl_start is None else max(0.0, ctrl_start)
    loads = []
    for sid in order:
        prev = idx.prev_pe.get(sid)
        if prev is None:
            elig = 0.0
        elif not pending.isdisjoint(idx.blockers[sid]):
            return None
        else:
            elig = ends[prev]
        start = max(rc, elig)
        rc = start + R
        pending.discard(sid)
        loads.append((sid, idx.pe_of[sid], start, rc))
        if rc > starts[sid]:
            idx.delay(starts, ends, sid, rc)
    return _timed(idx, starts, ends, loads)


def place_loads(scenario: Scenario, load_set, order, R: float, *,
                ctrl_start: Optional[float] = None,
                min_start: Optional[Mapping[int, float]] = None) -> TimedSchedule:
    """Insert loads into the initial schedule following ``order`` strictly."""
    check_latency(R)
    idx = scenario.index
    ls = _check_load_set(idx, load_set)
    order = tuple(order)
    if len(order) != len(ls) or set(order) != ls:
        raise OrderError(f"order {order} is not a permutation of the load set")
    ts = _try_place(idx, order, ls, R, ctrl_start, min_start)
    if ts is None:
        raise OrderError(f"order {order} deadlocks behind an ineligible head load")
    return ts


def schedule_no_prefetch(scenario: Scenario, load_set, R: float) -> TimedSchedule:
    """Baseline: every load is issued on demand, never in advance.

    A load becomes eligible only once all of its subtask's precedence and
    per-PE predecessors have finished; ties resolve to the lower subtask id.
    Those have finished at the subtask's start in the timeline once none of
    its ancestors has a load left to place.
    """
    check_latency(R)
    idx = scenario.index
    ls = _check_load_set(idx, load_set)
    starts, ends = map(dict, idx.timeline)
    rc = 0.0
    loads = []
    remaining = set(ls)
    while remaining:
        best = None
        for sid in sorted(remaining):
            if remaining.isdisjoint(idx.ancestors[sid]) and (
                    best is None or starts[sid] < best[0] - TIME_TOL):
                best = (starts[sid], sid)
        ready, sid = best
        start = max(rc, ready)
        rc = start + R
        remaining.discard(sid)
        loads.append((sid, idx.pe_of[sid], start, rc))
        if rc > starts[sid]:
            idx.delay(starts, ends, sid, rc)
    return _timed(idx, starts, ends, loads)


# ---------------------------------------------------------------------------
# Order construction
# ---------------------------------------------------------------------------

def _order_constraints(idx: ScenarioIndex, load_set: frozenset[int]):
    """Precedence between loads forced by head-of-line controller semantics.

    The load of s waits for its tile's previous subtask, which cannot finish
    until the loads of that subtask and of its combined ancestors are done;
    those loads must therefore be issued before s's.
    """
    blockers = idx.blockers
    return {sid: blockers[sid] & load_set for sid in load_set}


def priority_order(scenario: Scenario, load_set) -> tuple[int, ...]:
    """Deadlock-free load order by descending weight (ties: lower id)."""
    idx = scenario.index
    ls = _check_load_set(idx, load_set)
    w = idx.weights
    return ready_order(_order_constraints(idx, ls), lambda sid: -w[sid])


def schedule_list_heuristic(scenario: Scenario, load_set, R: float):
    """List scheduler: descending-weight order, O(N log N) in the load count."""
    order = priority_order(scenario, load_set)
    return order, place_loads(scenario, load_set, order, R)


def _search_orders(idx, ls, R, incumbent):
    """Lex-smallest load order of minimal makespan, by depth-first B&B.

    Returns (order, nodes): ``order`` is None if no order is within
    ``incumbent``, and ``nodes`` counts the calls of the depth-first step.

    Children are tried in ascending id, so complete orders are met in
    lexicographic order: the first one within ``incumbent`` + ``TIME_TOL``
    is kept, and after it only one shorter by more than ``TIME_TOL``
    replaces it.  A subtree is pruned only when no completion in it could
    be kept, so the result is that of this rule applied to every order.

    Any two incumbents at or above the optimum, such as a warm order's
    makespan and the list order's, return the same order.  Let q be the
    first order within the lower incumbent.  Every order met before q is
    longer than it + ``TIME_TOL``, so at q the search from the higher one
    holds either nothing, and keeps q, or an order c longer than q, and
    moves to q unless c is within ``TIME_TOL`` of q; from then on both
    searches see the same orders from the same state.  So the two can
    differ only if q is longer than the lower incumbent by at most
    ``TIME_TOL`` and c longer than q by at most ``TIME_TOL``, yet more
    than ``TIME_TOL`` above that incumbent: three makespans, pairwise
    within ``TIME_TOL`` but not equal.  Exact ties never do that, and
    makespans built from times of a few decimal digits that differ at all
    differ by far more than ``TIME_TOL``.

    A load is eligible once every load in its blocker set
    (``_order_constraints``) is placed; nothing upstream of its tile
    predecessor is then pending, so the predecessor's end in the node's
    bound timeline is the load's eligibility time.

    A child is pruned if either of two lower bounds on the makespan of
    its completions crosses the prune threshold; the cheap one is tested
    first.  The controller-and-tail bound: the controller runs one load at
    a time, so after the child's load ends at ``load_end`` the j-th
    remaining load ends no earlier than ``load_end + j·R``, and its subtask
    then needs at least its ``tails`` time to the makespan.  Giving the
    longest tails the earliest slots minimises the largest of these sums
    (an exchange argument), so no completion ends before
    ``max_j(load_end + j·R + tail_j)``, with the tails in descending order.
    The loads sorted by tail once per search are walked skipping placed
    ones, and the walk stops at the first term that crosses the threshold.
    The timeline bound: the makespan with only the placed prefix loaded
    and the remaining loads treated as zero-latency; adding real loads
    never shortens the timeline, and with every load placed it is the
    makespan.  Each node carries its bound timeline (starts, ends, latest
    end).  Only a child that passes the first bound builds its own: if its
    load ends by the subtask's start it shares the node's timeline
    unchanged, otherwise it copies it and moves it with
    ``ScenarioIndex.delay``.
    """
    ids = sorted(ls)
    blockers = _order_constraints(idx, ls)
    prev_pe, tails, delay = idx.prev_pe, idx.tails, idx.delay
    by_tail = sorted(ids, key=lambda s: -tails[s])
    # A child is pruned when its bound exceeds ``limit``: the incumbent +
    # TIME_TOL until an order is kept, then the float just below the kept
    # makespan - TIME_TOL (a bound at or above that is pruned).
    limit = incumbent + TIME_TOL
    best_order = None
    nodes = 0

    def dfs(placed, rc, starts, ends, latest):
        nonlocal limit, best_order, nodes
        nodes += 1
        for sid in ids:
            if sid in placed or not placed.keys() >= blockers[sid]:
                continue
            prev = prev_pe.get(sid)
            start = max(rc, 0.0 if prev is None else ends[prev])
            load_end = t = start + R
            for u in by_tail:
                if u != sid and u not in placed:
                    t += R
                    if t + tails[u] > limit:
                        break
            else:   # no controller-and-tail term crossed the threshold
                if load_end <= starts[sid]:
                    cstarts, cends, clatest = starts, ends, latest
                else:
                    cstarts, cends = dict(starts), dict(ends)
                    clatest = delay(cstarts, cends, sid, load_end)
                    if latest > clatest:
                        clatest = latest
                # The loaded subtask ends after load_end, so clatest also
                # covers the controller-and-tail bound's j = 0 term.
                if clatest > limit:
                    continue
                child = {**placed, sid: load_end}
                if len(child) == len(ids):
                    best_order = tuple(child)
                    limit = math.nextafter(clatest - TIME_TOL, -math.inf)
                else:
                    dfs(child, load_end, cstarts, cends, clatest)

    # The root shares the index's timeline: a child copies before it moves.
    starts, ends = idx.timeline
    dfs({}, 0.0, starts, ends, idx.ideal)
    return best_order, nodes


def schedule_optimal_bb(scenario: Scenario, load_set, R: float, *,
                        hint: Optional[Iterable[int]] = None):
    """Branch & bound over load orders: (the lex-smallest optimal order,
    its schedule, the search's node count).

    The incumbent is the makespan of ``hint`` restricted to the load set
    when that is an order of the whole set which places; a hint that
    leaves a load out or deadlocks is ignored.  Without a usable hint, and
    only then, the list order is derived and its makespan is the
    incumbent.  Any incumbent at or above the optimum gives the same
    result (see ``_search_orders``); only the node count moves.
    """
    check_latency(R)
    idx = scenario.index
    ls = _check_load_set(idx, load_set)
    if len(ls) > DEFAULT_BB_LIMIT:
        raise SearchLimitExceeded(
            f"{len(ls)} loads exceed the branch&bound limit of {DEFAULT_BB_LIMIT}")
    if not ls:
        return (), place_loads(scenario, (), (), R), 0
    # The seed is the warm order or, without one that places, the list
    # order, which always does.  The search's order is often the seed,
    # whose schedule is then already placed.
    seed = seed_ts = None
    warm = () if hint is None else tuple(sid for sid in hint if sid in ls)
    if len(warm) == len(set(warm)) == len(ls):
        seed, seed_ts = warm, _try_place(idx, warm, ls, R)
    if seed_ts is None:
        seed = priority_order(scenario, ls)
        seed_ts = _try_place(idx, seed, ls, R)
    order, nodes = _search_orders(idx, ls, R, seed_ts.makespan)
    assert order is not None
    ts = seed_ts if order == seed else _try_place(idx, order, ls, R)
    assert ts is not None
    return order, ts, nodes


# ---------------------------------------------------------------------------
# Penalty
# ---------------------------------------------------------------------------

def _binding_delays(idx: ScenarioIndex, ts: TimedSchedule,
                    load_set) -> frozenset[int]:
    """Subtasks whose own load end is the binding start constraint."""
    ends = {sid: e for sid, _, _, e in ts.execs}
    load_end = {sid: e for sid, _, _, e in ts.loads}
    delayed = set()
    for sid in load_set:
        other = 0.0
        for d in idx.deps[sid]:
            other = max(other, ends[d])
        if load_end[sid] > other + TIME_TOL:
            delayed.add(sid)
    return frozenset(delayed)


def compute_penalty(scenario: Scenario, assumed_reused, R: float, *,
                    hint: Optional[Iterable[int]] = None) -> PenaltyReport:
    """Schedule loads assuming ``assumed_reused`` configurations are resident.

    Everything assigned to DRHW and not assumed reused must be loaded; the
    branch&bound scheduler, warm-started from ``hint``, is used up to
    ``DEFAULT_BB_LIMIT`` loads, the list heuristic beyond it.  The delayed
    set holds the loaded subtasks whose load is their binding start
    constraint.
    """
    idx = scenario.index
    reused = frozenset(assumed_reused)
    bad = reused - idx.drhw_set
    if bad:
        raise OrderError(f"assumed_reused contains non-DRHW subtasks: {sorted(bad)}")
    load_set = idx.drhw_set - reused
    try:
        order, ts, nodes = schedule_optimal_bb(scenario, load_set, R, hint=hint)
    except SearchLimitExceeded:
        order, ts = schedule_list_heuristic(scenario, load_set, R)
        nodes = 0
    penalty = ts.makespan - idx.ideal
    delayed = _binding_delays(idx, ts, load_set)
    if penalty <= TIME_TOL:
        delayed = frozenset()
    return PenaltyReport(penalty, delayed, tuple(order), ts, nodes)
