"""Timeline model and load schedulers.

A single reconfiguration controller serializes all loads; every load lasts
exactly the latency R.  The controller takes loads strictly in the given
order and blocks behind an ineligible head: a load is eligible once its
target tile's previous subtask (in the per-PE order) has finished, or at 0
if it is the tile's first.  Subtask order per PE is never altered; only
loads are inserted.  Every placer starts from the zero-latency timeline of
``ScenarioIndex.forward`` and moves it with ``ScenarioIndex.delay`` as each
load is placed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import OrderError, SearchLimitExceeded, DrhwError
from .model import TIME_TOL, Scenario, ScenarioIndex, ready_order

DEFAULT_BB_LIMIT = 12
ORACLE_LIMIT = 8


@dataclass(frozen=True)
class TimedSchedule:
    """Exec intervals per PE plus load intervals on the controller.

    Times are relative to the schedule's start at 0, and ``makespan`` is
    the last exec end.  The run-time phase replays stored and cached
    schedules in that relative time plus an offset, and the trace adds the
    offset as it builds each row.

    ``slot_tails`` and ``pe_ends`` are derived on first use and never
    stored; the run-time phase updates residency from them.
    """

    makespan: float
    execs: tuple[tuple[int, str, float, float], ...]   # (subtask, pe, start, end)
    loads: tuple[tuple[int, str, float, float], ...]   # (subtask, slot, start, end)

    @cached_property
    def slot_tails(self) -> tuple[dict[str, tuple[int, float]], float]:
        """(slot -> (subtask, end) of the last load listed on it, end of
        the last load or -inf without loads).  The controller issues loads
        one at a time in list order, so that load ends last; at R = 0,
        where ends can be equal, it is the later-issued one."""
        tails = {slot: (sid, e) for sid, slot, _, e in self.loads}
        return tails, (self.loads[-1][3] if self.loads else -math.inf)

    @cached_property
    def pe_ends(self) -> dict[str, float]:
        """PE -> latest exec end on it.  Execs are listed in a topological
        order that keeps per-PE order, so the last one listed ends last."""
        return {pe: e for _, pe, _, e in self.execs}


@dataclass(frozen=True)
class PenaltyReport:
    penalty: float
    delayed: frozenset[int]
    order: tuple[int, ...]
    schedule: TimedSchedule


# ---------------------------------------------------------------------------
# Core placement
# ---------------------------------------------------------------------------

def check_latency(R: float) -> None:
    """Reject a reconfiguration latency that is negative, NaN or infinite."""
    if not (math.isfinite(R) and R >= 0):
        raise OrderError(f"latency must be finite and non-negative, got {R}")


def _check_load_set(idx: ScenarioIndex, load_set: Iterable[int]) -> frozenset[int]:
    ls = frozenset(load_set)
    bad = ls - set(idx.drhw)
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
    starts, ends = idx.forward(min_start)
    pending = set(load_set)
    rc = 0.0 if ctrl_start is None else max(0.0, ctrl_start)
    loads = []
    for sid in order:
        prev = idx.prev_pe.get(sid)
        if prev is None:
            elig = 0.0
        elif prev in pending or not pending.isdisjoint(idx.ancestors[prev]):
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
    starts, ends = idx.forward()
    rc = 0.0
    loads = []
    remaining = set(ls)
    while remaining:
        best = None
        for sid in sorted(remaining):
            if remaining.isdisjoint(idx.ancestors[sid]) and (
                    best is None or starts[sid] < best[0] - TIME_TOL):
                best = (starts[sid], sid)
        if best is None:
            raise OrderError("on-demand loading deadlocked (invalid scenario?)")
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
    before: dict[int, frozenset[int]] = {}
    for sid in load_set:
        prev = idx.prev_pe.get(sid)
        before[sid] = (frozenset() if prev is None
                       else (idx.ancestors[prev] | {prev}) & load_set)
    return before


def priority_order(scenario: Scenario, load_set) -> tuple[int, ...]:
    """Deadlock-free load order by descending weight (ties: lower id)."""
    idx = scenario.index
    ls = _check_load_set(idx, load_set)
    w = idx.weights
    out = ready_order(_order_constraints(idx, ls), lambda sid: -w[sid])
    if len(out) != len(ls):
        raise OrderError("load ordering constraints are cyclic (invalid scenario?)")
    return out


def schedule_list_heuristic(scenario: Scenario, load_set, R: float, *,
                            ctrl_start: Optional[float] = None,
                            min_start: Optional[Mapping[int, float]] = None):
    """List scheduler: descending-weight order, O(N log N) in the load count."""
    order = priority_order(scenario, load_set)
    ts = place_loads(scenario, load_set, order, R,
                     ctrl_start=ctrl_start, min_start=min_start)
    return order, ts


def _search_orders(idx, ls, R, incumbent):
    """Lex-smallest load order of minimal makespan, by depth-first B&B.

    Children are tried in ascending id, so complete orders are met in
    lexicographic order: the first one within ``incumbent`` is kept, and
    after it only a strictly shorter one replaces it.

    A load is eligible once every load in its blocker set
    (``_order_constraints``) is placed; nothing upstream of its tile
    predecessor is then pending, so the predecessor's end in the node's
    bound timeline is the load's eligibility time.

    The bound of a partial order is the makespan with only the placed
    prefix loaded and the remaining loads treated as zero-latency; adding
    real loads never shortens the timeline, and with every load placed it
    is the makespan.  Each node carries its bound timeline (starts, ends,
    latest end).  A child whose load ends by the subtask's start in that
    timeline shares it unchanged; otherwise it copies the timeline and
    moves it with ``ScenarioIndex.delay``.

    A child's bound is the larger of that timeline bound and a
    controller-and-tail bound.  The controller runs one load at a time, so
    after the child's load ends at ``load_end`` the j-th remaining load
    ends no earlier than ``load_end + j·R``, and its subtask then needs at
    least its ``tails`` time to the makespan.  Giving the longest tails the
    earliest slots minimises the largest of these sums (an exchange
    argument), so ``max_j(load_end + j·R + tail_j)``, with the tails
    in descending order, is never above the makespan of a completion.  The
    loads sorted by tail once per search are walked skipping placed ones.
    """
    ids = sorted(ls)
    blockers = _order_constraints(idx, ls)
    prev_pe, tails, delay = idx.prev_pe, idx.tails, idx.delay
    by_tail = sorted(ids, key=lambda s: -tails[s])
    best = incumbent
    best_order = None

    def dfs(placed, rc, starts, ends, latest):
        nonlocal best, best_order
        for sid in ids:
            if sid in placed or not placed.keys() >= blockers[sid]:
                continue
            prev = prev_pe.get(sid)
            start = max(rc, 0.0 if prev is None else ends[prev])
            load_end = start + R
            ctail = t = load_end
            for u in by_tail:
                if u != sid and u not in placed:
                    t += R
                    if t + tails[u] > ctail:
                        ctail = t + tails[u]
            if load_end <= starts[sid]:
                cstarts, cends, clatest = starts, ends, latest
            else:
                cstarts, cends = dict(starts), dict(ends)
                clatest = delay(cstarts, cends, sid, load_end)
                if latest > clatest:
                    clatest = latest
            bound = ctail if ctail > clatest else clatest
            if best_order is None:
                if bound > best + TIME_TOL:
                    continue
            elif bound >= best - TIME_TOL:
                continue
            child = {**placed, sid: load_end}
            if len(child) == len(ids):
                best, best_order = bound, tuple(child)
            else:
                dfs(child, load_end, cstarts, cends, clatest)

    starts, ends = idx.forward()
    dfs({}, 0.0, starts, ends, max(ends.values(), default=0.0))
    return best_order


def schedule_optimal_bb(scenario: Scenario, load_set, R: float):
    """Branch & bound over load orders: the lex-smallest optimal order."""
    check_latency(R)
    idx = scenario.index
    ls = _check_load_set(idx, load_set)
    if len(ls) > DEFAULT_BB_LIMIT:
        raise SearchLimitExceeded(
            f"{len(ls)} loads exceed the branch&bound limit of {DEFAULT_BB_LIMIT}")
    if not ls:
        return (), place_loads(scenario, (), (), R)
    # Seed the incumbent with the (always feasible) list order.
    ts0 = _try_place(idx, priority_order(scenario, ls), ls, R)
    assert ts0 is not None
    order = _search_orders(idx, ls, R, ts0.makespan)
    assert order is not None
    ts = _try_place(idx, order, ls, R)
    assert ts is not None
    return order, ts


def brute_force_oracle(scenario: Scenario, load_set, R: float):
    """Exhaustive minimum over all permutations: the test oracle of the
    search.  It shares the timing rule, which ``place_loads`` tests check
    against one ``forward`` pass."""
    idx = scenario.index
    ls = _check_load_set(idx, load_set)
    if len(ls) > ORACLE_LIMIT:
        raise SearchLimitExceeded(
            f"{len(ls)} loads exceed the oracle guard of {ORACLE_LIMIT}")
    best_ts = None
    best_order: tuple[int, ...] = ()
    for perm in itertools.permutations(sorted(ls)):
        ts = _try_place(idx, perm, ls, R)
        if ts is None:
            continue
        if best_ts is None or ts.makespan < best_ts.makespan - TIME_TOL:
            best_ts, best_order = ts, perm
    if best_ts is None:
        best_ts = place_loads(scenario, (), (), R) if not ls else None
    if best_ts is None:
        raise OrderError("no feasible load order exists (invalid scenario?)")
    return best_order, best_ts


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


def compute_penalty(scenario: Scenario, assumed_reused, R: float) -> PenaltyReport:
    """Schedule loads assuming ``assumed_reused`` configurations are resident.

    Everything assigned to DRHW and not assumed reused must be loaded; the
    branch&bound scheduler is used up to ``DEFAULT_BB_LIMIT`` loads, the list
    heuristic beyond it.  The delayed set holds the loaded subtasks whose
    load is their binding start constraint.
    """
    idx = scenario.index
    reused = frozenset(assumed_reused)
    bad = reused - set(idx.drhw)
    if bad:
        raise OrderError(f"assumed_reused contains non-DRHW subtasks: {sorted(bad)}")
    load_set = frozenset(idx.drhw) - reused
    try:
        order, ts = schedule_optimal_bb(scenario, load_set, R)
    except SearchLimitExceeded:
        order, ts = schedule_list_heuristic(scenario, load_set, R)
    penalty = ts.makespan - idx.ideal
    if penalty < 0:
        if penalty < -TIME_TOL:
            raise DrhwError(f"makespan below ideal by {-penalty} (internal error)")
        penalty = 0.0
    delayed = _binding_delays(idx, ts, load_set)
    if penalty <= TIME_TOL:
        delayed = frozenset()
    return PenaltyReport(penalty, delayed, tuple(order), ts)
