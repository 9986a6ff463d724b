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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .engine import TimedSchedule, check_latency, compute_penalty
from .errors import (ConsistencyError, LatencyMismatch, OrderError,
                     StoreFormatError)
from .model import (TIME_TOL, Scenario, ScenarioIndex, Workload, parse_id,
                    validate)

STORE_SCHEMA = "drhw-store/2"


@dataclass
class DesignTimeEntry:
    """Per-scenario output of the design-time phase.

    ``stored_schedule`` assumes the critical set is reused and everything
    else is loaded; by construction its makespan equals the ideal makespan.
    ``noreuse_order`` is the load order when nothing at all is reused (used
    by the design-time-only prefetch mode).  ``weights`` snapshots the
    longest-path weights so the run-time phase never recomputes them.

    The run-time decision tables below are derived from these fields on
    first use and never stored.  A DRHW subtask's PE in the stored schedule
    is its virtual slot (``validate`` enforces slot == PE), so the tables
    need no scenario; ``check_entry_matches`` guards the pairing.
    """

    task_id: str
    scenario_id: str
    critical: tuple[int, ...]            # init order: descending weight, id tie-break
    extraction_order: tuple[int, ...]    # order the greedy loop added them
    stored_order: tuple[int, ...]        # load order of the non-critical loads
    noreuse_order: tuple[int, ...]
    weights: dict[int, float]
    stored_schedule: TimedSchedule
    ideal: float
    drhw: tuple[int, ...]
    penalty_noreuse: float

    @property
    def cs_fraction(self) -> float:
        return len(self.critical) / len(self.drhw) if self.drhw else 0.0

    @cached_property
    def drhw_set(self) -> frozenset[int]:
        return frozenset(self.drhw)

    @cached_property
    def critical_set(self) -> frozenset[int]:
        return frozenset(self.critical)

    @cached_property
    def configs(self) -> frozenset[tuple[str, int]]:
        """The (task, subtask) configurations of every DRHW subtask."""
        return frozenset((self.task_id, sid) for sid in self.drhw)

    @cached_property
    def critical_configs(self) -> frozenset[tuple[str, int]]:
        return frozenset((self.task_id, sid) for sid in self.critical)

    @cached_property
    def stored_starts(self) -> dict[int, float]:
        """Start of each subtask in the stored schedule; its keys are the
        exec ids."""
        return {sid: s for sid, _, s, _ in self.stored_schedule.execs}

    @cached_property
    def slot_of(self) -> dict[int, str]:
        """Virtual slot of each DRHW subtask: its PE in the stored schedule."""
        return {sid: pe for sid, pe, _, _ in self.stored_schedule.execs
                if sid in self.drhw_set}

    @cached_property
    def claim_order(self) -> tuple[tuple[int, str], ...]:
        """(subtask, slot) in reuse-claim order: descending weight, lower id
        first on ties."""
        w = self.weights
        return tuple((sid, self.slot_of[sid])
                     for sid in sorted(self.drhw, key=lambda s: (-w[s], s)))

    @cached_property
    def bind_order(self) -> tuple[str, ...]:
        """Slots in binding order: descending max weight, then slot name."""
        top: dict[str, float] = {}
        for sid, slot in self.slot_of.items():
            top[slot] = max(top.get(slot, -math.inf), self.weights[sid])
        return tuple(sorted(top, key=lambda slot: (-top[slot], slot)))


def check_entry_matches(entry: DesignTimeEntry, scenario: Scenario) -> None:
    """Refuse an entry that was not built from ``scenario``.

    Compares what the run-time phase takes from the entry instead of the
    scenario: the DRHW ids, the exact weights, the ideal makespan and the
    (subtask, PE) of every stored exec.  The stored times must also follow
    the timing rule: replaying the stored load ends through the scenario's
    forward pass from the stored origin gives every exec's start and end
    and the makespan, and no load starts before its tile is free.
    """
    idx = scenario.index
    ts = entry.stored_schedule
    if entry.drhw != idx.drhw:
        what = "drhw"
    elif entry.weights != idx.weights:
        what = "weights"
    elif abs(entry.ideal - idx.ideal) > TIME_TOL:
        what = "ideal_ms"
    elif (sorted((sid, pe) for sid, pe, _, _ in ts.execs)
          != sorted(idx.pe_of.items())):
        what = "schedule execs"
    elif not _obeys_timing_rule(ts, idx):
        what = "schedule times"
    else:
        return
    raise StoreFormatError(
        f"store entry for task {entry.task_id} scenario {entry.scenario_id} "
        f"does not match the workload ({what} differ); rebuild the store "
        "with analyze")


def _obeys_timing_rule(ts: TimedSchedule, idx: ScenarioIndex) -> bool:
    starts, ends = idx.forward({sid: e for sid, _, _, e in ts.loads}, ts.origin)
    if any(abs(s - starts[sid]) > TIME_TOL or abs(e - ends[sid]) > TIME_TOL
           for sid, _, s, e in ts.execs):
        return False
    if abs(max(ends.values(), default=ts.origin) - ts.origin
           - ts.makespan) > TIME_TOL:
        return False
    for sid, _, s, _ in ts.loads:
        prev = idx.prev_pe.get(sid)
        if s < (ts.origin if prev is None else ends[prev]) - TIME_TOL:
            return False
    return True


@dataclass
class ScheduleStore:
    """Mapping (task id, scenario id) -> entry, for one latency R."""

    latency: float
    entries: dict[tuple[str, str], DesignTimeEntry] = field(default_factory=dict)

    def entry(self, task_id: str, scenario_id: str) -> DesignTimeEntry:
        return self.entries[(task_id, scenario_id)]

    @property
    def cs_fraction(self) -> float:
        total = sum(len(e.drhw) for e in self.entries.values())
        crit = sum(len(e.critical) for e in self.entries.values())
        return crit / total if total else 0.0


def extract_critical_subtasks(scenario: Scenario, R: float,
                              task_id: str = "") -> DesignTimeEntry:
    """Greedy critical-set extraction for one scenario."""
    idx = scenario.index
    weights = dict(idx.weights)
    cs: list[int] = []
    report = compute_penalty(scenario, cs, R)
    penalty_noreuse = report.penalty
    noreuse_order = report.order
    while report.penalty > TIME_TOL:
        pool = report.delayed
        if not pool:
            # Degenerate: penalty remains but no load is the binding
            # constraint (tolerance edge).  Fall back to the heaviest
            # remaining load so the loop still terminates.
            pool = frozenset(set(idx.drhw) - set(cs))
        pick = min(pool, key=lambda sid: (-weights[sid], sid))
        cs.append(pick)
        report = compute_penalty(scenario, cs, R)
    ideal = idx.ideal
    if abs(report.schedule.makespan - ideal) > TIME_TOL:
        raise ConsistencyError(
            f"stored schedule makespan {report.schedule.makespan} != ideal {ideal}")
    return DesignTimeEntry(
        task_id=task_id,
        scenario_id=scenario.id,
        critical=tuple(sorted(cs, key=lambda sid: (-weights[sid], sid))),
        extraction_order=tuple(cs),
        stored_order=report.order,
        noreuse_order=noreuse_order,
        weights=weights,
        stored_schedule=report.schedule,
        ideal=ideal,
        drhw=idx.drhw,
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
# built for; each entry carries the critical ids in init order, the
# non-critical load order, the weights and the full event list of the
# stored schedule.  Field order is stable for diff-based regression tests.
# ---------------------------------------------------------------------------

def _schedule_to_dict(ts: TimedSchedule) -> dict:
    return {
        "origin": ts.origin,
        "makespan": ts.makespan,
        "execs": [[sid, pe, s, e] for sid, pe, s, e in ts.execs],
        "loads": [[sid, slot, s, e] for sid, slot, s, e in ts.loads],
    }


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def _ids(doc) -> tuple[int, ...]:
    return tuple(parse_id(s) for s in doc)


def _schedule_from_dict(doc: dict) -> TimedSchedule:
    return TimedSchedule(
        _finite(doc["origin"]), _finite(doc["makespan"]),
        tuple((parse_id(sid), str(pe), _finite(s), _finite(e))
              for sid, pe, s, e in doc["execs"]),
        tuple((parse_id(sid), str(slot), _finite(s), _finite(e))
              for sid, slot, s, e in doc["loads"]),
    )


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
                "stored_order": list(e.stored_order),
                "noreuse_order": list(e.noreuse_order),
                "weights": {str(sid): w for sid, w in sorted(e.weights.items())},
                "schedule": _schedule_to_dict(e.stored_schedule),
                "ideal_ms": e.ideal,
                "drhw": list(e.drhw),
                "penalty_noreuse_ms": e.penalty_noreuse,
            }
            for (_, _), e in sorted(store.entries.items())
        ],
    }


def save_store(store: ScheduleStore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store_to_dict(store), fh, indent=2, sort_keys=True)
        fh.write("\n")


def store_from_dict(doc: dict) -> ScheduleStore:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != STORE_SCHEMA:
        raise StoreFormatError(
            f"not a {STORE_SCHEMA} document (schema={schema!r})")
    try:
        store = ScheduleStore(latency=float(doc["latency_ms"]))
        check_latency(store.latency)
        for edoc in doc.get("entries", []):
            entry = DesignTimeEntry(
                task_id=str(edoc["task"]),
                scenario_id=str(edoc["scenario"]),
                critical=_ids(edoc["critical"]),
                extraction_order=_ids(edoc["extraction_order"]),
                stored_order=_ids(edoc["stored_order"]),
                noreuse_order=_ids(edoc["noreuse_order"]),
                weights={parse_id(k): _finite(v)
                         for k, v in edoc["weights"].items()},
                stored_schedule=_schedule_from_dict(edoc["schedule"]),
                ideal=_finite(edoc["ideal_ms"]),
                drhw=_ids(edoc["drhw"]),
                penalty_noreuse=_finite(edoc["penalty_noreuse_ms"]),
            )
            _check_entry(entry, store.latency)
            store.entries[(entry.task_id, entry.scenario_id)] = entry
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            OrderError) as exc:
        raise StoreFormatError(
            f"malformed store document ({type(exc).__name__}: {exc})") from exc
    return store


def _check_entry(entry: DesignTimeEntry, latency: float) -> None:
    where = f"entry ({entry.task_id},{entry.scenario_id})"
    stray = set(entry.critical) - set(entry.drhw)
    if stray:
        raise StoreFormatError(
            f"{where}: critical subtask {min(stray)} is not a DRHW subtask")
    loads = entry.stored_schedule.loads
    pe_of = {sid: pe for sid, pe, _, _ in entry.stored_schedule.execs}
    for sid, slot, _, _ in loads:
        if sid not in entry.drhw or pe_of.get(sid) != slot:
            raise StoreFormatError(
                f"{where}: stored load of subtask {sid} on {slot!r} does not "
                "match a DRHW exec on that slot")
    wts = [entry.weights[sid] for sid in entry.critical]
    for a, b, sa, sb in zip(wts, wts[1:], entry.critical, entry.critical[1:]):
        if a < b - TIME_TOL or (abs(a - b) <= TIME_TOL and sa > sb):
            raise StoreFormatError(
                f"{where}: critical set is not in descending weight order")
    if abs(entry.stored_schedule.makespan - entry.ideal) > TIME_TOL:
        raise StoreFormatError(
            f"{where}: stored makespan {entry.stored_schedule.makespan} "
            f"differs from ideal {entry.ideal}")
    if (sorted(sid for sid, _, _, _ in loads)
            != sorted(entry.drhw_set - entry.critical_set)):
        raise StoreFormatError(
            f"{where}: stored loads are not exactly the non-critical DRHW "
            "subtasks")
    controller_free = -math.inf
    for sid, _, s, e in sorted(loads, key=lambda load: (load[2], load[3])):
        # s + latency is how the engine computes a load's end, exactly.
        if abs(e - (s + latency)) > TIME_TOL:
            raise StoreFormatError(
                f"{where}: stored load of subtask {sid} lasts {e - s} ms, "
                f"not the store's latency {latency} ms")
        if s < controller_free - TIME_TOL:
            raise StoreFormatError(
                f"{where}: stored load of subtask {sid} overlaps the previous "
                "load on the controller")
        controller_free = e


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
    if expect_latency is not None and abs(store.latency - expect_latency) > TIME_TOL:
        raise LatencyMismatch(
            f"store was built for latency {store.latency} ms, "
            f"requested {expect_latency} ms")
    return store
