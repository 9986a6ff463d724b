"""Domain model: tasks, scenarios, subtask graphs and structural analyses.

Times are non-negative reals in milliseconds.  All comparisons between
times use an absolute tolerance of ``TIME_TOL``.  Every type here is an
immutable value after construction and safe to share between concurrent
experiment runs.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import GraphError, WorkloadFormatError

ISP = "ISP"
DRHW = "DRHW"
TIME_TOL = 1e-9

WORKLOAD_SCHEMA = "drhw-workload/1"
_DECIMAL_ID = re.compile(r"-?(0|[1-9][0-9]*)")


class Record:
    """Base of the package's records: ``==``, ``repr`` and ``_replace``
    over the fields named in the class's ``_fields``, in that order.

    A record equals only a record of its own class with equal fields.
    ``_replace`` builds the new record through ``__init__``, so it is
    validated as the constructor validates.  ``__init__`` sets the fields,
    by ``_set`` or, in records built per task instance, by assignment.
    A record is unhashable unless it is a ``FrozenRecord``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class FrozenRecord(Record):
    """A hashable record whose fields ``__init__`` sets once, by ``_set``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Subtask(FrozenRecord):
    """One node of a task graph.

    ``slot`` names the processing element the initial schedule assigned the
    subtask to: a virtual tile for DRHW subtasks, an ISP name otherwise.
    DRHW subtasks require a configuration identified as (task id, subtask id).
    """

    __slots__ = _fields = ("id", "exec_time", "target", "slot")

    def __init__(self, id: int, exec_time: float, target: str = DRHW,
                 slot: str = ""):
        self._set(id, exec_time, target, slot)


class SubtaskGraph(FrozenRecord):
    __slots__ = _fields = ("subtasks", "edges")

    def __init__(self, subtasks: tuple[Subtask, ...],
                 edges: tuple[tuple[int, int], ...]):
        self._set(subtasks, edges)


class Scenario(FrozenRecord):
    """A data-dependent version of a task: graph plus initial schedule.

    ``schedule`` holds, per processing element, the ordered subtask ids the
    design-time scheduler placed on it (reconfiguration latency neglected).
    """

    _fields = ("id", "graph", "schedule")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, id: str, graph: SubtaskGraph,
                 schedule: tuple[tuple[str, tuple[int, ...]], ...]):
        self._set(id, graph, schedule)

    @cached_property
    def index(self) -> ScenarioIndex:
        """Structural index, built on first use; raises GraphError if cyclic."""
        return ScenarioIndex(self)

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """``validate``'s report, made once for loading and analysis."""
        return tuple(validate(self))


class Task(FrozenRecord):
    __slots__ = _fields = ("id", "scenarios")

    def __init__(self, id: str, scenarios: tuple[Scenario, ...]):
        self._set(id, scenarios)


class Workload(FrozenRecord):
    """An ordered set of tasks plus the feasible inter-task scenarios.

    ``feasible_combinations`` lists the allowed per-task scenario tuples as
    ((task id, scenario id), ...) covering every task; ``None`` means every
    combination is feasible.
    """

    __slots__ = _fields = ("tasks", "feasible_combinations")

    def __init__(self, tasks: tuple[Task, ...],
                 feasible_combinations: Optional[
                     tuple[tuple[tuple[str, str], ...], ...]] = None):
        self._set(tasks, feasible_combinations)


def make_scenario(scenario_id: str, subtasks: Iterable[Subtask],
                  edges: Iterable[tuple[int, int]],
                  schedule: Mapping[str, Sequence[int]]) -> Scenario:
    """Convenience constructor turning mappings/sequences into value tuples."""
    return Scenario(
        id=str(scenario_id),
        graph=SubtaskGraph(tuple(subtasks), tuple((int(u), int(v)) for u, v in edges)),
        schedule=tuple((str(pe), tuple(int(s) for s in order))
                       for pe, order in schedule.items()),
    )


def ready_order(before: Mapping[int, Iterable[int]], key) -> tuple[int, ...]:
    """Kahn's algorithm taking the ready node of smallest ``(key(n), n)``
    first; ``before[n]`` lists the nodes that must precede ``n``.

    Returns fewer nodes than ``before`` holds when the constraints form a
    cycle; the caller raises its own error.
    """
    waiting = {n: len(b) for n, b in before.items()}
    after: dict[int, list[int]] = {n: [] for n in before}
    for n, b in before.items():
        for m in b:
            after[m].append(n)
    heap = [(key(n), n) for n, w in waiting.items() if w == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        n = heapq.heappop(heap)[1]
        out.append(n)
        for m in after[n]:
            waiting[m] -= 1
            if waiting[m] == 0:
                heapq.heappush(heap, (key(m), m))
    return tuple(out)


# ---------------------------------------------------------------------------
# Structural index: adjacency, per-PE chains, combined order, timing rule.
# ---------------------------------------------------------------------------

class ScenarioIndex:
    """Precomputed adjacency, orderings and timing rule for one scenario.

    ``deps[sid]`` lists the graph predecessors of ``sid`` followed by its
    per-PE predecessor in the initial schedule.  The combined order is a
    topological order of ``deps``, so one forward pass computes all
    start/end times.  ``timeline`` keeps that pass without loads as
    (starts, ends); it is shared, so a placer copies it before it moves it.
    """

    def __init__(self, scenario: Scenario):
        g = scenario.graph
        self.exec = {s.id: s.exec_time for s in g.subtasks}
        self.preds: dict[int, list[int]] = {s.id: [] for s in g.subtasks}
        for u, v in g.edges:
            self.preds[v].append(u)
        self.pe_of: dict[int, str] = {}
        self.prev_pe: dict[int, Optional[int]] = {}
        for pe, seq in scenario.schedule:
            prev = None
            for sid in seq:
                self.pe_of[sid] = pe
                self.prev_pe[sid] = prev
                prev = sid
        self.deps: dict[int, tuple[int, ...]] = {}
        for sid, preds in self.preds.items():
            prev = self.prev_pe.get(sid)
            self.deps[sid] = tuple(preds) if prev is None else (*preds, prev)
        self.drhw: tuple[int, ...] = tuple(sorted(
            s.id for s in g.subtasks if s.target == DRHW))
        self.drhw_set = frozenset(self.drhw)
        self.order = self._combined_topo()
        # Longest exec-time path from each start to the graph's end.
        self.weights = self._longest_paths(self.preds)
        self.timeline = self.forward()
        self.ideal: float = max(self.timeline[1].values(), default=0.0)

    def _combined_topo(self) -> tuple[int, ...]:
        out = ready_order(self.deps, lambda sid: sid)
        if len(out) != len(self.exec):
            raise GraphError(
                "initial schedule and precedence edges form a cycle "
                f"({len(out)}/{len(self.exec)} subtasks orderable)")
        return out

    def _longest_paths(self, into: Mapping[int, Iterable[int]]) -> dict[int, float]:
        """Exec time of each subtask plus the longest exec-time path after
        it, following ``into`` (each subtask's predecessors) backwards: one
        reverse pass over the combined order.  Each path starts at
        ``exec + 0.0``, so a sink of exec time -0.0 gets 0.0."""
        execs = self.exec
        longest = {sid: e + 0.0 for sid, e in execs.items()}
        for sid in reversed(self.order):
            t = longest[sid]
            for p in into[sid]:
                if execs[p] + t > longest[p]:
                    longest[p] = execs[p] + t
        return longest

    def forward(self, min_start: Optional[Mapping[int, float]] = None):
        """The zero-latency timeline: one pass over the combined order.

        A subtask starts at the latest of 0, the ends of its ``deps`` and
        its ``min_start``.  Returns (starts, ends) keyed by id; ``delay``
        then adds load ends one at a time.
        """
        starts: dict[int, float] = {}
        ends: dict[int, float] = {}
        deps, execs = self.deps, self.exec
        for sid in self.order:
            t = 0.0
            if min_start and sid in min_start and min_start[sid] > t:
                t = min_start[sid]
            for d in deps[sid]:
                e = ends[d]
                if e > t:
                    t = e
            starts[sid] = t
            ends[sid] = t + execs[sid]
        return starts, ends

    def delay(self, starts: dict[int, float], ends: dict[int, float],
              sid: int, t: float) -> float:
        """Start ``sid`` at ``t``, later than its start, in a timeline from
        ``forward``; update its descendants in place and return the latest
        end this moved.

        A descendant starts at the latest of its old start and the new ends
        of its ``deps``: times only grow, and no other constraint on it
        changes, so this equals a full pass with the new start.
        """
        deps, execs = self.deps, self.exec
        starts[sid] = t
        latest = ends[sid] = t + execs[sid]
        for d in self.descendants[sid]:
            s = starts[d]
            for p in deps[d]:
                e = ends[p]
                if e > s:
                    s = e
            starts[d] = s
            e = ends[d] = s + execs[d]
            if e > latest:
                latest = e
        return latest

    @cached_property
    def ancestors(self) -> dict[int, frozenset[int]]:
        """Ancestor set of each subtask in the combined (graph + per-PE)
        order."""
        anc: dict[int, frozenset[int]] = {}
        for node in self.order:
            acc = set(self.deps[node])
            for d in self.deps[node]:
                acc |= anc[d]
            anc[node] = frozenset(acc)
        return anc

    @cached_property
    def blockers(self) -> dict[int, frozenset[int]]:
        """Each subtask's tile predecessor and that one's ancestors (empty
        for a tile's first subtask): what must finish before its load is
        eligible."""
        anc = self.ancestors
        return {sid: (frozenset() if (prev := self.prev_pe.get(sid)) is None
                      else anc[prev] | {prev})
                for sid in self.order}

    @cached_property
    def descendants(self) -> dict[int, tuple[int, ...]]:
        """Descendants of each subtask in the combined order, listed in that
        order, so ``delay`` updates their times in one pass."""
        anc = self.ancestors
        return {sid: tuple(n for n in self.order if sid in anc[n])
                for sid in self.order}

    @cached_property
    def tails(self) -> dict[int, float]:
        """Exec time of each subtask plus the longest exec-time path after
        it along ``deps``: the least time from its start to the makespan."""
        return self._longest_paths(self.deps)

    @cached_property
    def slot_heads(self) -> tuple[tuple[str, int], ...]:
        """(slot, first DRHW subtask on it) in combined order, which keeps
        per-PE order; a DRHW subtask's PE is its slot (``validate``).  Only
        a slot's first subtask can be reused: the slot's own loads
        overwrite any other before it runs."""
        heads: dict[str, int] = {}
        for sid in self.order:
            if sid in self.drhw_set:
                heads.setdefault(self.pe_of[sid], sid)
        return tuple(heads.items())

    @cached_property
    def bind_order(self) -> tuple[str, ...]:
        """Slots in binding order: descending max weight, then slot name."""
        top: dict[str, float] = {}
        for sid in self.drhw:
            slot = self.pe_of[sid]
            top[slot] = max(top.get(slot, -math.inf), self.weights[sid])
        return tuple(sorted(top, key=lambda slot: (-top[slot], slot)))


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def validate(scenario: Scenario) -> list[str]:
    """Check every scenario invariant; return one message per violation.

    An empty report means the scenario is valid.
    """
    report: list[str] = []
    g = scenario.graph
    seen: set[int] = set()
    for s in g.subtasks:
        if s.id in seen:
            report.append(f"duplicate subtask id {s.id}")
        seen.add(s.id)
        if not math.isfinite(s.exec_time):
            report.append(f"subtask {s.id}: non-finite exec time {s.exec_time}")
        elif s.exec_time < 0:
            report.append(f"subtask {s.id}: negative exec time {s.exec_time}")
        if s.target not in (ISP, DRHW):
            report.append(f"subtask {s.id}: unknown target {s.target!r}")
        if s.target == DRHW and not s.slot:
            report.append(f"subtask {s.id}: DRHW subtask without a slot")
    if all(s.exec_time == 0 for s in g.subtasks):
        report.append("no subtask has a positive exec time (ideal time 0)")
    ids = {s.id for s in g.subtasks}
    for u, v in g.edges:
        if u not in ids or v not in ids:
            report.append(f"edge ({u},{v}) references a missing subtask")

    # Schedule coverage and placement.
    placed: dict[int, str] = {}
    for pe, seq in scenario.schedule:
        for sid in seq:
            if sid in placed:
                report.append(f"subtask {sid} scheduled more than once")
            placed[sid] = pe
    for s in g.subtasks:
        if s.id not in placed:
            report.append(f"subtask {s.id} missing from the initial schedule")
        elif s.slot and placed[s.id] != s.slot:
            report.append(
                f"subtask {s.id} scheduled on {placed[s.id]!r}, assigned to {s.slot!r}")
    for sid in placed:
        if sid not in ids:
            report.append(f"schedule names unknown subtask {sid}")
    target = {s.id: s.target for s in g.subtasks}
    for pe, seq in scenario.schedule:
        if {target.get(sid) for sid in seq} >= {DRHW, ISP}:
            report.append(f"PE {pe!r} holds both DRHW and ISP subtasks")

    # One cycle check for the graph edges and the per-PE orders together.
    # It builds the scenario's index, which later phases reuse.
    if not report:
        try:
            scenario.index
        except GraphError as exc:
            report.append(str(exc))
    return report


# ---------------------------------------------------------------------------
# Workload document I/O
#
# Schema (JSON, versioned):
# {
#   "schema": "drhw-workload/1",
#   "tasks": [
#     {"id": "t1",
#      "scenarios": [
#        {"id": "a",
#         "subtasks": [{"id": 1, "exec_ms": 10.0, "target": "DRHW", "slot": "A"}],
#         "edges": [[1, 2]],
#         "schedule": {"A": [1, 3], "B": [2, 4]}}]}],
#   "feasible_combinations": [[["t1", "a"], ["t2", "b"]], ...] | null
# }
# ---------------------------------------------------------------------------

def parse_id(value) -> int:
    """A subtask id read from a document: a JSON integer or, as an object
    key, its decimal string.  Booleans, fractions and other text are
    rejected instead of truncated.
    """
    if isinstance(value, str) and _DECIMAL_ID.fullmatch(value):
        return int(value)
    if type(value) is int:
        return value
    raise ValueError(f"subtask id must be an integer, got {value!r}")


def parse_number(value) -> float:
    """A time read from a document: a JSON integer or float.  Booleans and
    text are rejected instead of converted."""
    if type(value) is float or type(value) is int:
        return float(value)
    raise ValueError(f"time must be a JSON number, got {value!r}")


def _text(value) -> str:
    """An id or name read from a document as text.  Every output file is
    UTF-8, so text that cannot be written as UTF-8 (a lone surrogate) is
    rejected."""
    text = str(value)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{text!r} cannot be written as UTF-8") from None
    return text


def parse_ids(doc) -> tuple[int, ...]:
    """Subtask ids from a list; a string is refused, not split."""
    if not isinstance(doc, list):
        raise ValueError(f"expected a list of subtask ids, got {doc!r}")
    return tuple(parse_id(s) for s in doc)


def _pair(doc, what: str, parse) -> tuple:
    """``parse`` of each item of a two-item list, such as an edge."""
    if not isinstance(doc, list) or len(doc) != 2:
        raise ValueError(f"{what} must be a pair, got {doc!r}")
    return parse(doc[0]), parse(doc[1])


def check_schema(doc, schema: str, error: type[Exception]) -> None:
    """Raise ``error`` unless ``doc`` is an object of schema ``schema``."""
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise error(f"not a {schema} document (schema={found!r})")


def read_document(path: str, parse, error: type[Exception]):
    """``parse`` of the JSON document at ``path``.  Bad UTF-8 or JSON (too
    deep or an integer too long included), or ``parse``'s ``error``,
    raises ``error`` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc})") from None
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not a JSON document ({exc})") from None
    try:
        return parse(doc)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


def document_text(doc) -> str:
    """Indented JSON with sorted keys, no NaN and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def workload_to_dict(workload: Workload) -> dict:
    return {
        "schema": WORKLOAD_SCHEMA,
        "tasks": [
            {
                "id": t.id,
                "scenarios": [
                    {
                        "id": sc.id,
                        "subtasks": [
                            {"id": s.id, "exec_ms": s.exec_time,
                             "target": s.target, "slot": s.slot}
                            for s in sc.graph.subtasks
                        ],
                        "edges": [[u, v] for u, v in sc.graph.edges],
                        "schedule": {pe: list(seq) for pe, seq in sc.schedule},
                    }
                    for sc in t.scenarios
                ],
            }
            for t in workload.tasks
        ],
        "feasible_combinations": (
            None if workload.feasible_combinations is None
            else [[[tid, sid] for tid, sid in combo]
                  for combo in workload.feasible_combinations]
        ),
    }


def save_workload(workload: Workload, path: str) -> None:
    write_text(path, document_text(workload_to_dict(workload)))


def workload_from_dict(doc: dict) -> Workload:
    check_schema(doc, WORKLOAD_SCHEMA, WorkloadFormatError)
    try:
        violations: list[str] = []
        tasks: list[Task] = []
        task_ids: set[str] = set()
        for tdoc in doc.get("tasks", []):
            tid = _text(tdoc["id"])
            if tid in task_ids:
                violations.append(f"task {tid}: duplicate task id")
            task_ids.add(tid)
            scenarios: list[Scenario] = []
            scn_ids: set[str] = set()
            sdocs = tdoc.get("scenarios", [])
            if not sdocs:
                violations.append(f"task {tid}: no scenarios")
            for sdoc in sdocs:
                sid = _text(sdoc["id"])
                if sid in scn_ids:
                    violations.append(
                        f"task {tid} scenario {sid}: duplicate scenario id")
                scn_ids.add(sid)
                try:
                    scn = make_scenario(
                        sid,
                        [Subtask(parse_id(d["id"]), parse_number(d["exec_ms"]),
                                 _text(d.get("target", DRHW)),
                                 _text(d.get("slot", "")))
                         for d in sdoc.get("subtasks", [])],
                        [_pair(e, "edge", parse_id) for e in sdoc.get("edges", [])],
                        {_text(pe): parse_ids(seq)
                         for pe, seq in sdoc.get("schedule", {}).items()},
                    )
                except (KeyError, OverflowError, TypeError, ValueError) as exc:
                    violations.append(
                        f"task {tid} scenario {sid}: malformed entry ({exc})")
                    continue
                for msg in scn.problems:
                    violations.append(f"task {tid} scenario {sid}: {msg}")
                scenarios.append(scn)
            tasks.append(Task(tid, tuple(scenarios)))
        if not tasks:
            violations.append("no tasks")

        feasible = None
        raw_feasible = doc.get("feasible_combinations")
        if raw_feasible is not None:
            combos = []
            known = {t.id: {sc.id for sc in t.scenarios} for t in tasks}
            for i, combo in enumerate(raw_feasible):
                pairs = tuple(_pair(p, "(task, scenario)", _text) for p in combo)
                named = {tid for tid, _ in pairs}
                if named != set(known):
                    violations.append(
                        f"feasible combination {i}: must name one scenario per task")
                for tid, sid in pairs:
                    if sid not in known.get(tid, set()):
                        violations.append(
                            f"feasible combination {i}: unknown scenario ({tid},{sid})")
                combos.append(pairs)
            feasible = tuple(combos)
            if not combos:
                violations.append("feasible_combinations is present but empty")

        if violations:
            raise WorkloadFormatError("; ".join(violations))
        return Workload(tuple(tasks), feasible)
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise WorkloadFormatError(
            f"malformed document ({type(exc).__name__}: {exc})") from exc


def load_workload(path: str) -> Workload:
    return read_document(path, workload_from_dict, WorkloadFormatError)


def scenario_map(workload: Workload) -> dict[tuple[str, str], Scenario]:
    return {(t.id, sc.id): sc for t in workload.tasks for sc in t.scenarios}
