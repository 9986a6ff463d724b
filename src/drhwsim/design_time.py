"""Design-time phase: critical-subtask extraction and the schedule store.

A critical subtask is one whose load latency the prefetch scheduler cannot
hide when everything must be loaded.  Extraction is greedy: start from the
empty set and, while the penalty is non-zero, add the maximum-weight member
of the delayed set.  The loop terminates in at most |DRHW| iterations since
the penalty with everything reused is zero.  Minimality beyond the greedy
loop is not claimed, only the set size is reported.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

from .engine import TimedSchedule, check_latency, compute_penalty, place_loads
from .errors import (ConsistencyError, LatencyMismatch, OrderError,
                     StoreFormatError)
from .model import (TIME_TOL, Record, Scenario, Workload, check_schema,
                    document_text, parse_id, parse_ids, parse_number,
                    read_document, validate, write_text)

STORE_SCHEMA = "drhw-store/6"


class DesignTimeEntry(Record):
    """Per-scenario output of the design-time phase: its decisions only.

    ``extraction_order`` is the order the greedy loop added the critical
    subtasks, and ``chain`` holds one (load order, penalty) pair per greedy
    step j = 0..k: the order of every DRHW load but the first j extracted
    ones, and its exact penalty p_j.  So chain[0] is the no-reuse order
    (used by the design-time-only prefetch mode) and chain[k] the order of
    the loads left when the critical set is reused; placed from time 0 its
    makespan is the scenario's ideal makespan (p_k = 0).  ``weights``
    snapshots the longest-path weights, so the run-time phase never
    recomputes them and ``check_entry_matches`` can tell a store built
    from other graphs.

    No timed schedule is stored: the run-time phase places the orders and
    takes its slot tables from the scenario's index.  The critical set in
    init order, ``drhw`` and the configuration sets are derived on first
    use.
    """

    _fields = ("task_id", "scenario_id", "extraction_order", "weights",
               "chain")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, task_id: str, scenario_id: str,
                 extraction_order: tuple[int, ...], weights: dict[int, float],
                 chain: tuple[tuple[tuple[int, ...], float], ...]):
        self._set(task_id, scenario_id, extraction_order, weights, chain)

    @cached_property
    def critical(self) -> tuple[int, ...]:
        """The critical ids in init order: descending weight, then id."""
        return tuple(sorted(self.extraction_order,
                            key=lambda sid: (-self.weights[sid], sid)))

    @cached_property
    def drhw(self) -> tuple[int, ...]:
        """The DRHW ids, sorted: those of the no-reuse order."""
        return tuple(sorted(self.chain[0][0]))

    @cached_property
    def configs(self) -> frozenset[tuple[str, int]]:
        """The (task, subtask) configurations of every DRHW subtask."""
        return frozenset((self.task_id, sid) for sid in self.drhw)

    @cached_property
    def critical_configs(self) -> frozenset[tuple[str, int]]:
        return frozenset(cfg for _, cfg in self.init_configs)

    @cached_property
    def init_configs(self) -> tuple[tuple[int, tuple[str, int]], ...]:
        """(subtask, configuration) of each critical subtask, in init order."""
        return tuple((sid, (self.task_id, sid)) for sid in self.critical)


def check_entry_matches(entry: DesignTimeEntry, scenario: Scenario,
                        latency: float) -> tuple[TimedSchedule, TimedSchedule]:
    """Refuse an entry that does not belong to ``scenario`` at ``latency``.

    Checks, in order: the weights, which fingerprint the workload, equal
    the scenario's exactly; the extraction order holds distinct DRHW ids;
    the chain has one step more; each chain[j] order places the DRHW loads
    but the first j extracted ones from time 0 without deadlock and gives
    the stored p_j; and p_k is 0, so the critical set hides every load.
    The error names the first step that failed.  Returns the two
    schedules of the chain's ends, kept for the run time: that of chain[k]
    and that of chain[0].
    """
    idx = scenario.index
    cs = entry.extraction_order
    if entry.weights != idx.weights:
        what = "weights"
    elif len(set(cs)) != len(cs) or not idx.drhw_set.issuperset(cs):
        what = "extraction_order"
    elif len(entry.chain) != len(cs) + 1:
        what = "chain length"
    else:
        for j, (order, penalty) in enumerate(entry.chain):
            try:
                ts = place_loads(scenario, idx.drhw_set.difference(cs[:j]),
                                 order, latency)
            except OrderError:
                what = f"chain[{j}] order"
                break
            if abs(ts.makespan - idx.ideal - penalty) > TIME_TOL:
                what = f"chain[{j}] penalty"
                break
            if not j:
                noreuse = ts
        else:
            if abs(penalty) <= TIME_TOL:
                return ts, noreuse
            what = "makespan"
    raise StoreFormatError(
        f"store entry for task {entry.task_id} scenario {entry.scenario_id} "
        f"does not match the workload ({what} differ); rebuild the store "
        "with analyze")


class ScheduleStore(Record):
    """Mapping (task id, scenario id) -> entry, for one latency R."""

    __slots__ = _fields = ("latency", "entries")

    def __init__(self, latency: float,
                 entries: Optional[dict[tuple[str, str], DesignTimeEntry]] = None):
        self._set(latency, {} if entries is None else entries)

    def entry(self, task_id: str, scenario_id: str) -> DesignTimeEntry:
        return self.entries[(task_id, scenario_id)]

    @property
    def cs_fraction(self) -> float:
        total = sum(len(e.drhw) for e in self.entries.values())
        crit = sum(len(e.critical) for e in self.entries.values())
        return crit / total if total else 0.0


def _check_finite(task_id: str, scenario: Scenario, what: str,
                  value: float) -> None:
    if not math.isfinite(value):
        raise ConsistencyError(
            f"task {task_id} scenario {scenario.id}: {what} {value} is not "
            "finite (exec times or latency too large)")


def extract_critical_subtasks(scenario: Scenario, R: float,
                              task_id: str = "") -> DesignTimeEntry:
    """Greedy critical-set extraction for one scenario.

    Each step's search is warm-started from the previous step's order: less
    the load just made critical, it is a feasible order of the new load
    set and never longer, and its makespan alone is the search's
    incumbent.  Only the first step, which has no such order, derives the
    list order.
    """
    idx = scenario.index
    weights = dict(idx.weights)
    cs: list[int] = []
    _check_finite(task_id, scenario, "ideal time", idx.ideal)
    report = compute_penalty(scenario, cs, R)
    _check_finite(task_id, scenario, "no-reuse makespan",
                  report.schedule.makespan)
    chain = [(report.order, report.penalty)]
    while report.penalty > TIME_TOL:
        pool = report.delayed
        if not pool:
            # Degenerate: penalty remains but no load is the binding
            # constraint (tolerance edge).  Fall back to the heaviest
            # remaining load so the loop still terminates.
            pool = idx.drhw_set.difference(cs)
        pick = min(pool, key=lambda sid: (-weights[sid], sid))
        cs.append(pick)
        report = compute_penalty(scenario, cs, R, hint=report.order)
        chain.append((report.order, report.penalty))
    return DesignTimeEntry(task_id=task_id, scenario_id=scenario.id,
                           extraction_order=tuple(cs), weights=weights,
                           chain=tuple(chain))


def build_store(workload: Workload, R: float) -> ScheduleStore:
    """Run extraction for every scenario of every task."""
    check_latency(R)
    store = ScheduleStore(latency=R)
    for task in workload.tasks:
        for scenario in task.scenarios:
            problems = validate(scenario)
            if problems:
                raise ConsistencyError(
                    f"task {task.id} scenario {scenario.id}: " + "; ".join(problems))
            store.entries[(task.id, scenario.id)] = extract_critical_subtasks(
                scenario, R, task_id=task.id)
    return store


# ---------------------------------------------------------------------------
# Store document I/O
#
# Schema (JSON, versioned): top level carries the latency the store was
# built for; each entry carries only decisions: the extraction order, the
# weights and the chain of (load order, penalty) steps.  Timed schedules
# are placed from the orders when the store is used.  Field order is
# stable for diff-based regression tests.
# ---------------------------------------------------------------------------

def _finite(value) -> float:
    x = parse_number(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def store_to_dict(store: ScheduleStore) -> dict:
    return {
        "schema": STORE_SCHEMA,
        "latency_ms": store.latency,
        "entries": [
            {
                "task": e.task_id,
                "scenario": e.scenario_id,
                "extraction_order": list(e.extraction_order),
                "weights": {str(sid): w for sid, w in sorted(e.weights.items())},
                "chain": [{"order": list(order), "penalty_ms": penalty}
                          for order, penalty in e.chain],
            }
            for (_, _), e in sorted(store.entries.items())
        ],
    }


def save_store(store: ScheduleStore, path: str) -> None:
    write_text(path, document_text(store_to_dict(store)))


def store_from_dict(doc: dict) -> ScheduleStore:
    check_schema(doc, STORE_SCHEMA, StoreFormatError)
    try:
        store = ScheduleStore(latency=parse_number(doc["latency_ms"]))
        check_latency(store.latency)
        for edoc in doc.get("entries", []):
            entry = DesignTimeEntry(
                task_id=str(edoc["task"]),
                scenario_id=str(edoc["scenario"]),
                extraction_order=parse_ids(edoc["extraction_order"]),
                weights={parse_id(k): _finite(v)
                         for k, v in edoc["weights"].items()},
                chain=tuple((parse_ids(s["order"]), _finite(s["penalty_ms"]))
                            for s in edoc["chain"]),
            )
            key = (entry.task_id, entry.scenario_id)
            if key in store.entries:
                raise StoreFormatError(
                    f"task {key[0]} scenario {key[1]}: duplicate entry")
            store.entries[key] = entry
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            OrderError) as exc:
        raise StoreFormatError(
            f"malformed store document ({type(exc).__name__}: {exc})") from exc
    return store


def load_store(path: str, expect_latency: Optional[float] = None) -> ScheduleStore:
    store = read_document(path, store_from_dict, StoreFormatError)
    if expect_latency is not None:
        if abs(store.latency - expect_latency) > TIME_TOL:
            raise LatencyMismatch(
                f"store was built for latency {store.latency} ms, "
                f"requested {expect_latency} ms")
        check_latency(expect_latency)      # a NaN passes the comparison
    return store
