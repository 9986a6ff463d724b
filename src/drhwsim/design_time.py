"""Design-time phase: critical-subtask extraction and the schedule store.

A critical subtask is one whose load latency the prefetch scheduler cannot
hide when everything must be loaded.  Extraction is greedy: start from the
empty set and, while the penalty is non-zero, add the maximum-weight member
of the delayed set.  The loop terminates in at most |DRHW| iterations since
the penalty with everything reused is zero.  Minimality beyond the greedy
loop is not claimed, only the set size is reported.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Optional

from .engine import TimedSchedule, check_latency, compute_penalty, place_loads
from .errors import (ConsistencyError, LatencyMismatch, OrderError,
                     StoreFormatError)
from .model import (TIME_TOL, Record, Scenario, Workload, parse_id,
                    parse_number, validate)

STORE_SCHEMA = "drhw-store/5"


class DesignTimeEntry(Record):
    """Per-scenario output of the design-time phase: its decisions only.

    The critical set is in init order (descending weight, then id), and
    ``extraction_order`` is the order the greedy loop added its members.
    ``loads`` is the order in which every other DRHW subtask is loaded
    when the critical set is reused; placed from time 0 its makespan is
    the scenario's ideal makespan.  ``noreuse_order`` is the load order
    when nothing at all is reused (used by the design-time-only prefetch
    mode).  ``weights`` snapshots the
    longest-path weights, so the run-time phase never recomputes them and
    ``check_entry_matches`` can tell a store built from other graphs.

    No timed schedule is stored: the run-time phase places the orders and
    takes its slot tables from the scenario's index.  ``drhw`` and the
    configuration sets are derived on first use.
    """

    _fields = ("task_id", "scenario_id", "critical", "extraction_order",
               "loads", "noreuse_order", "weights", "penalty_noreuse")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, task_id: str, scenario_id: str,
                 critical: tuple[int, ...], extraction_order: tuple[int, ...],
                 loads: tuple[int, ...], noreuse_order: tuple[int, ...],
                 weights: dict[int, float], penalty_noreuse: float):
        self._set(task_id, scenario_id, critical, extraction_order, loads,
                  noreuse_order, weights, penalty_noreuse)

    @cached_property
    def drhw(self) -> tuple[int, ...]:
        """The DRHW ids: the critical ones plus the loaded ones, sorted."""
        return tuple(sorted(self.critical + self.loads))

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
    the scenario's exactly; the DRHW ids (critical plus loaded) are the
    scenario's; the critical set is in init order; the extraction order
    holds the critical ids, each once; ``loads`` places from time 0
    without deadlock; its makespan is the ideal one, so the critical set
    hides every load; and placing every DRHW load in the no-reuse order
    gives the stored no-reuse penalty.  The error names the first step
    that failed.  Returns the two schedules placed: that of ``loads`` and
    that of the no-reuse order.
    """
    idx = scenario.index
    if entry.weights != idx.weights:
        what = "weights"
    elif entry.drhw != idx.drhw:
        what = "drhw"
    elif list(entry.critical) != sorted(
            entry.critical, key=lambda sid: (-idx.weights[sid], sid)):
        what = "critical"
    elif sorted(entry.extraction_order) != sorted(entry.critical):
        what = "extraction_order"
    elif (ts := _replay(scenario, entry.loads, entry.loads, latency)) is None:
        what = "loads"
    elif abs(ts.makespan - idx.ideal) > TIME_TOL:
        what = "makespan"
    elif (noreuse := _noreuse_schedule(entry, scenario, latency)) is None:
        what = "noreuse"
    else:
        return ts, noreuse
    raise StoreFormatError(
        f"store entry for task {entry.task_id} scenario {entry.scenario_id} "
        f"does not match the workload ({what} differ); rebuild the store "
        "with analyze")


def _replay(scenario: Scenario, load_set, order,
            latency: float) -> Optional[TimedSchedule]:
    try:
        return place_loads(scenario, load_set, order, latency)
    except OrderError:
        return None


def _noreuse_schedule(entry: DesignTimeEntry, scenario: Scenario,
                      latency: float) -> Optional[TimedSchedule]:
    """The schedule of the no-reuse order, or None unless it places and
    gives the stored no-reuse penalty."""
    ts = _replay(scenario, scenario.index.drhw_set, entry.noreuse_order,
                 latency)
    if ts is None or abs(ts.makespan - scenario.index.ideal
                         - entry.penalty_noreuse) > TIME_TOL:
        return None
    return ts


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
    penalty_noreuse = report.penalty
    noreuse_order = report.order
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
    return DesignTimeEntry(
        task_id=task_id,
        scenario_id=scenario.id,
        critical=tuple(sorted(cs, key=lambda sid: (-weights[sid], sid))),
        extraction_order=tuple(cs),
        loads=report.order,
        noreuse_order=noreuse_order,
        weights=weights,
        penalty_noreuse=penalty_noreuse,
    )


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
# built for; each entry carries only decisions: the critical ids in init
# order, the extraction order, the load order with the critical set
# reused, the no-reuse order, the weights and the no-reuse penalty.  Timed
# schedules are placed from the orders when the store is used.  Field
# order is stable for diff-based regression tests.
# ---------------------------------------------------------------------------

def _finite(value) -> float:
    x = parse_number(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def _ids(doc) -> tuple[int, ...]:
    if not isinstance(doc, list):       # a string would give its digits
        raise ValueError(f"expected a list of subtask ids, got {doc!r}")
    return tuple(parse_id(s) for s in doc)


def store_to_dict(store: ScheduleStore) -> dict:
    return {
        "schema": STORE_SCHEMA,
        "latency_ms": store.latency,
        "entries": [
            {
                "task": e.task_id,
                "scenario": e.scenario_id,
                "critical": list(e.critical),
                "extraction_order": list(e.extraction_order),
                "loads": list(e.loads),
                "noreuse_order": list(e.noreuse_order),
                "weights": {str(sid): w for sid, w in sorted(e.weights.items())},
                "penalty_noreuse_ms": e.penalty_noreuse,
            }
            for (_, _), e in sorted(store.entries.items())
        ],
    }


def save_store(store: ScheduleStore, path: str) -> None:
    text = json.dumps(store_to_dict(store), indent=2, sort_keys=True,
                      allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def store_from_dict(doc: dict) -> ScheduleStore:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != STORE_SCHEMA:
        raise StoreFormatError(
            f"not a {STORE_SCHEMA} document (schema={schema!r})")
    try:
        store = ScheduleStore(latency=parse_number(doc["latency_ms"]))
        check_latency(store.latency)
        for edoc in doc.get("entries", []):
            entry = DesignTimeEntry(
                task_id=str(edoc["task"]),
                scenario_id=str(edoc["scenario"]),
                critical=_ids(edoc["critical"]),
                extraction_order=_ids(edoc["extraction_order"]),
                loads=_ids(edoc["loads"]),
                noreuse_order=_ids(edoc["noreuse_order"]),
                weights={parse_id(k): _finite(v)
                         for k, v in edoc["weights"].items()},
                penalty_noreuse=_finite(edoc["penalty_noreuse_ms"]),
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StoreFormatError(
                f"{path}: parse error at offset {exc.pos} "
                f"(line {exc.lineno} column {exc.colno}): {exc.msg}") from exc
    try:
        store = store_from_dict(doc)
    except StoreFormatError as exc:
        raise StoreFormatError(f"{path}: {exc}") from exc
    if expect_latency is not None:
        if abs(store.latency - expect_latency) > TIME_TOL:
            raise LatencyMismatch(
                f"store was built for latency {store.latency} ms, "
                f"requested {expect_latency} ms")
        check_latency(expect_latency)      # a NaN passes the comparison
    return store
