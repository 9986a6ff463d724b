"""Discrete-event experiment driver.

Each iteration draws a feasible scenario combination and a task sequence;
together the iterations form one plan, which each run-time mode replays
through the run-time manager once per tile count.  Residency persists
across iterations within a replay, so reuse carries from one execution to
the next; replays share no map.  A baseline never reuses, so its figures
and trace lines come from one pass over its fixed schedules and serve
every tile count.

Every iteration draws from its own substream ``rng.Rng(seed, i)`` (NumPy's
PCG64), so draws are reproducible and independent of how many iterations
run.
"""

from __future__ import annotations

import csv
import math
from typing import Optional

from .design_time import ScheduleStore, check_entry_matches
from .errors import DrhwError, StoreFormatError
from .model import TIME_TOL, FrozenRecord, Workload, scenario_map
from .rng import Rng
from .runtime import (DESIGN_TIME_PREFETCH, HYBRID, MODES, NO_PREFETCH,
                      InstanceResult, ResidencyMap, RuntimeDecision,
                      execute_task_instance, fixed_schedule, too_few_tiles)

TRACE_FIELDS = ("iteration", "task", "scenario", "resource", "kind",
                "subtask", "start", "end")
_TRACE_BLOCK_ROWS = 8192        # lines per write
REPORT_SCHEMA = "drhw-report/1"


class SimConfig(FrozenRecord):
    """A simulation's settings; its latency is the store's.

    ``tiles`` lists the tile counts swept over the same plan; ``all_tasks``
    runs every task each iteration instead of a random subset.
    """

    __slots__ = _fields = ("tiles", "iterations", "seed", "modes", "trace",
                           "all_tasks")

    def __init__(self, tiles: tuple[int, ...], iterations: int = 1000,
                 seed: int = 0, modes: tuple[str, ...] = MODES,
                 trace: bool = False, all_tasks: bool = False):
        if not tiles:
            raise DrhwError("tiles must name at least one tile count")
        if len(set(tiles)) != len(tiles):
            raise DrhwError(f"tiles must be distinct, got {list(tiles)}")
        if min(tiles) < 1:
            raise DrhwError(f"tiles must be >= 1, got {min(tiles)}")
        if iterations < 1:
            raise DrhwError(f"iterations must be >= 1, got {iterations}")
        if seed < 0:
            raise DrhwError(f"seed must be >= 0, got {seed}")
        if not modes:
            raise DrhwError("modes must name at least one mode")
        if len(set(modes)) != len(modes):
            raise DrhwError(f"modes must be distinct, got {list(modes)}")
        unknown = set(modes) - set(MODES)
        if unknown:
            raise DrhwError(f"unknown modes {sorted(unknown)}; "
                            f"choose from {', '.join(MODES)}")
        self._set(tiles, iterations, seed, modes, trace, all_tasks)


class Metrics(FrozenRecord):
    __slots__ = _fields = ("mode", "ideal_total", "actual_total",
                           "drhw_instances", "reused_instances",
                           "loads_issued", "loads_cancelled")

    def __init__(self, mode: str, ideal_total: float = 0.0,
                 actual_total: float = 0.0, drhw_instances: int = 0,
                 reused_instances: int = 0, loads_issued: int = 0,
                 loads_cancelled: int = 0):
        self._set(mode, ideal_total, actual_total, drhw_instances,
                  reused_instances, loads_issued, loads_cancelled)

    @property
    def overhead_pct(self) -> float:
        return overhead_pct(self.ideal_total, self.actual_total)

    @property
    def reuse_pct(self) -> float:
        if self.drhw_instances == 0:
            return 0.0
        return 100.0 * self.reused_instances / self.drhw_instances


def overhead_pct(ideal: float, actual: float) -> float:
    """Percentage of the ideal execution time that was added."""
    if ideal <= 0:
        raise DrhwError(f"ideal time must be positive, got {ideal}")
    if actual < ideal - TIME_TOL:
        raise DrhwError(f"actual {actual} below ideal {ideal}")
    return 100.0 * (actual - ideal) / ideal


def hidden_pct(baseline_overhead: float, achieved_overhead: float) -> float:
    """Share of the baseline overhead that was eliminated."""
    if baseline_overhead <= 0:
        raise DrhwError(f"baseline overhead must be positive, got {baseline_overhead}")
    return 100.0 * (1.0 - achieved_overhead / baseline_overhead)


# ---------------------------------------------------------------------------
# Iteration selection
# ---------------------------------------------------------------------------

def select_iteration(workload: Workload, seed: int, iteration: int,
                     all_tasks: bool = False) -> list[tuple[str, str]]:
    """Draw the (task, scenario) sequence executed in one iteration.

    A feasible scenario combination is chosen uniformly (the cartesian
    product when none are declared) along with a random task order; unless
    ``all_tasks`` is set, a uniformly sized non-empty prefix of that order
    runs.  Deterministic given (seed, iteration).
    """
    rng = Rng(seed, iteration)
    tasks = workload.tasks
    if not tasks:
        raise DrhwError("workload has no tasks")
    if workload.feasible_combinations is not None:
        combos = workload.feasible_combinations
        combo = dict(combos[rng.integers(len(combos))])
    else:
        combo = {t.id: t.scenarios[rng.integers(len(t.scenarios))].id
                 for t in tasks}
    perm = rng.permutation(len(tasks))
    count = len(tasks) if all_tasks else 1 + rng.integers(len(tasks))
    return [(tasks[i].id, combo[tasks[i].id]) for i in perm[:count]]


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def run_simulation(workload: Workload, store: ScheduleStore, config: SimConfig):
    """Execute every enabled mode at every tile count over one iteration plan.

    The store is checked and the plan drawn once; each (tile count,
    run-time mode) then replays the plan on its own residency map, and
    each baseline's figures and trace lines are summed once from its fixed
    schedules and serve every tile count.  Returns (metrics by tile count,
    then mode; trace lines in (tile count, mode) order).  Each trace line
    is one CSV row of text, ending in a newline; ``write_trace`` writes
    them and ``read_trace`` gives the rows back; the trace is empty unless
    the config enables it.  Every load is placed and replayed at the
    store's latency.
    """
    scenarios = scenario_map(workload)
    # No schedule cache key holds the tile count, so one cache serves every
    # mode for the whole sweep.  It starts with the two schedules the store
    # check places per scenario, so neither is placed again.
    cache: dict = {}
    for key, scenario in scenarios.items():
        if key not in store.entries:
            raise StoreFormatError(
                f"store has no entry for task {key[0]} scenario {key[1]}; "
                "rebuild the store with analyze")
        cache[(HYBRID, *key)], cache[(DESIGN_TIME_PREFETCH, *key)] = (
            check_entry_matches(store.entries[key], scenario, store.latency))

    trace = _TraceState() if config.trace else None
    # Each step: (trace row heads or None, scenario, entry, next entry).
    steps = [(trace and trace.heads(i, tid, sid), scenarios[(tid, sid)],
              store.entries[(tid, sid)])
             for i in range(config.iterations)
             for tid, sid in select_iteration(workload, config.seed, i,
                                              config.all_tasks)]
    plan = [(*step, nxt[2]) for step, nxt in zip(steps, steps[1:])]
    plan.append((*steps[-1], None))
    # No replay changes the ideal time or DRHW count of a step: both are
    # summed once, the ideal time by += in plan order (sum() compensates
    # float rounding from Python 3.12 on, which would change its bits).
    ideal = 0.0
    for step in plan:
        ideal += step[1].index.ideal
    drhw = sum(len(step[2].drhw) for step in plan)

    def replay(tiles: int, mode: str) -> tuple[Metrics, list[str]]:
        """Run the plan in a run-time mode on ``tiles`` empty tiles: its
        metrics and trace lines."""
        residency = ResidencyMap(tiles)
        block: list[str] = []
        latency = store.latency
        t0 = ctrl = actual = 0.0
        reused = issued = cancelled = 0
        for heads, scenario, entry, lookahead in plan:
            res = execute_task_instance(scenario, entry, residency, mode,
                                        latency, t0, ctrl, lookahead, cache)
            decision = res.decision
            actual += res.end - t0
            reused += len(decision.reused)
            issued += (len(decision.init_loads) + len(res.relative.loads)
                       + len(decision.prefetched))
            cancelled += len(decision.cancelled)
            if trace is not None:
                _emit_trace(block, trace, heads, res)
            t0 = res.end
            ctrl = res.ctrl_free
        return metrics(mode, tiles, actual, reused, issued, cancelled), block

    def summed(tiles: int, mode: str) -> tuple[Metrics, list[str]]:
        """A baseline's metrics and trace lines: each step runs its fixed
        schedule from the previous step's end, when every tile is idle,
        reuses nothing and binds slot i of its binding order to tile i."""
        latency = store.latency
        t0 = actual = 0.0
        issued = 0
        block: list[str] = []
        for heads, scenario, entry, _ in plan:
            order = scenario.index.bind_order
            if len(order) > tiles:
                raise too_few_tiles(entry, scenario.index, tiles)
            rel = fixed_schedule(mode, scenario, entry, latency, cache)
            end = t0 + rel.makespan
            if trace is not None:
                bound = {slot: tile for tile, slot in enumerate(order)}
                _emit_trace(block, trace, heads, InstanceResult(
                    entry.task_id, scenario.id, t0, end, rel, t0,
                    RuntimeDecision({}, frozenset(), (), bound, ()), end))
            actual += end - t0
            t0 = end
            issued += len(rel.loads)
        return metrics(mode, tiles, actual, 0, issued, 0), block

    def metrics(mode, tiles, actual, reused, issued, cancelled) -> Metrics:
        if not (math.isfinite(ideal) and math.isfinite(actual)):
            raise DrhwError(
                f"{mode} at {tiles} tiles: ideal total {ideal} and actual "
                f"total {actual} must be finite (exec times or iterations "
                "too large)")
        return Metrics(mode=mode, ideal_total=ideal, actual_total=actual,
                       drhw_instances=drhw, reused_instances=reused,
                       loads_issued=issued, loads_cancelled=cancelled)

    # No baseline reads residency, so its metrics and trace lines are the
    # same at every tile count: each is summed once, checked at the fewest
    # tiles, where a step fails if it fails at any.
    shared = {mode: summed(min(config.tiles), mode) for mode in config.modes
              if mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH)}
    results: dict = {tiles: {} for tiles in config.tiles}
    lines: list[str] = []
    for tiles, by_mode in results.items():
        for mode in config.modes:
            by_mode[mode], block = (shared[mode] if mode in shared
                                    else replay(tiles, mode))
            lines += block
    return results, lines


class _RowTemplate:
    """A schedule's exec and load rows in (start, subtask) order, with
    their constant text.  An offset keeps that order unless it rounds two
    starts into one and the later row's subtask is not larger: ``*_gap``
    is the smallest start gap of such adjacent rows, and ``span`` the
    largest start magnitude."""

    __slots__ = ("span", "exec_gap", "execs", "load_gap", "loads")

    def __init__(self, q, rel):
        execs = sorted((s, sub, pe, e) for sub, pe, s, e in rel.execs)
        loads = sorted((s, sub, slot, e) for sub, slot, s, e in rel.loads)
        self.span = max((abs(row[0]) for row in execs + loads), default=0.0)
        self.exec_gap = _tie_gap(execs)
        self.execs = tuple((s, f"{q[pe]},exec,{sub},", e)
                           for s, sub, pe, e in execs)
        self.load_gap = _tie_gap(loads)
        self.loads = tuple((s, slot, f",load,{sub},", e)
                           for s, sub, slot, e in loads)


def _tie_gap(rows) -> float:
    """Smallest start gap of adjacent rows whose subtask does not grow."""
    return min((b[0] - a[0] for a, b in zip(rows, rows[1:]) if b[1] <= a[1]),
               default=math.inf)


class _TraceState:
    """The trace emitter's memos for one simulation: quoted fields, each
    schedule's template under its id (the schedule is kept, so the id is
    never reused), and under (row head, schedule id, offset; a zero offset
    by its repr, as -0.0 prints apart from 0.0) the exec lines and each
    load's (slot, timed text), which lacks the tile.  An exec row that
    named its tile would need the tile in that key."""

    def __init__(self):
        self.q = _CsvFields()
        self.templates: dict[int, tuple[object, _RowTemplate]] = {}
        self.blocks: dict[tuple, tuple] = {}

    def heads(self, iteration, tid, sid) -> tuple[str, str]:
        """A plan step's row head and its prefetch rows' head."""
        pre = f"{iteration},"
        return f"{pre}{self.q[tid]},{self.q[sid]},", pre


def _emit_trace(lines, trace, heads, res):
    """Append the instance's trace lines, built from its relative schedule
    plus offset: execs, then loads, each in (start, subtask) order, then
    prefetches and cancellations.  ``trace`` is the simulation's
    ``_TraceState``, ``heads`` the step's; ``tile<n>`` and the kinds never
    need quoting.  Times are ``repr``, at full precision.

    Where the offset may reorder the template's rows, or an init load
    starts with a replayed one (R = 0), the rows are sorted instead."""
    q, decision, dt, rel = trace.q, res.decision, res.offset, res.relative
    head = heads[0]
    pinned = trace.templates.get(id(rel))
    if pinned is None:
        pinned = trace.templates[id(rel)] = (rel, _RowTemplate(q, rel))
    tmpl = pinned[1]
    # Starts rounded into one were at most an ulp of the result apart.
    tie = 2 * math.ulp(abs(dt) + tmpl.span)
    key = (head, id(rel), dt if dt else repr(dt))
    block = trace.blocks.get(key)
    if block is None:
        if tmpl.exec_gap > tie:
            execs = [f"{head}{text}{s + dt!r},{e + dt!r}\n"
                     for s, text, e in tmpl.execs]
        else:
            execs = sorted([(s + dt, subtask, pe, e + dt)
                            for subtask, pe, s, e in rel.execs])
            execs = [f"{head}{q[pe]},exec,{subtask},{s!r},{e!r}\n"
                     for s, subtask, pe, e in execs]
        loads = None
        if tmpl.load_gap > tie:
            loads = [(slot, f"{text}{s + dt!r},{e + dt!r}\n")
                     for s, slot, text, e in tmpl.loads]
        block = trace.blocks[key] = (execs, loads)
    execs, loads = block
    lines += execs

    bindings, rows = decision.bindings, decision.init_loads
    if rows:
        rows = sorted([(s, subtask, tile, e, "init_load")
                       for subtask, tile, s, e in rows])
        if loads and rows[-1][0] >= tmpl.loads[0][0] + dt:
            loads = None
    if loads is None:
        rows = sorted([(s + dt, subtask, bindings[slot], e + dt, "load")
                       for subtask, slot, s, e in rel.loads] + list(rows))
    if rows:
        lines += [f"{head}tile{tile},{kind},{subtask},{s!r},{e!r}\n"
                  for s, subtask, tile, e, kind in rows]
    if loads:
        lines += [f"{head}tile{bindings[slot]}{text}" for slot, text in loads]
    for task, subtask, tile, start, end in decision.prefetched:
        lines.append(f"{heads[1]}{q[task]},-,tile{tile},prefetch_load,"
                     f"{subtask},{start!r},{end!r}\n")
    if decision.cancelled_loads:
        lines += [f"{head}{q[slot]},cancel,{subtask},{s + dt!r},{e + dt!r}\n"
                  for subtask, slot, s, e in decision.cancelled_loads]


# ---------------------------------------------------------------------------
# Report / trace serialization
# ---------------------------------------------------------------------------

def metrics_to_dict(m: Metrics, baseline: Optional[Metrics] = None) -> dict:
    d = {
        "mode": m.mode,
        "ideal_total_ms": m.ideal_total,
        "actual_total_ms": m.actual_total,
        "overhead_pct": m.overhead_pct,
        "reuse_pct": m.reuse_pct,
        "loads_issued": m.loads_issued,
        "loads_cancelled": m.loads_cancelled,
        "drhw_instances": m.drhw_instances,
        "reused_instances": m.reused_instances,
    }
    if baseline is not None and baseline.overhead_pct > 0:
        d["hidden_pct_vs_noprefetch"] = hidden_pct(baseline.overhead_pct,
                                                   m.overhead_pct)
    else:
        d["hidden_pct_vs_noprefetch"] = None
    return d


class _CsvFields(dict):
    """Text -> its CSV field, made on first use: quoted if the text holds
    a comma, quote, CR or LF, as ``csv.writer`` quotes it (except that
    before Python 3.12 ``csv.writer`` leaves a CR bare under a LF line
    terminator)."""

    def __missing__(self, text: str) -> str:
        field = text
        if any(c in text for c in ',"\r\n'):
            field = '"' + text.replace('"', '""') + '"'
        self[text] = field
        return field


def write_trace(trace, path: str) -> None:
    """Write the header, then the trace lines ``trace`` from
    ``run_simulation``, each already one CSV row, a block of lines a write,
    so the text never holds more than a block."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_FIELDS) + "\n")
        for k in range(0, len(trace), _TRACE_BLOCK_ROWS):
            fh.write("".join(trace[k:k + _TRACE_BLOCK_ROWS]))


def read_trace(path: str) -> list[dict]:
    """The rows of a trace file.  A row that is not valid CSV, lacks or
    adds a field, holds a malformed number or a non-finite time, or ends
    before it starts raises DrhwError naming its line."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)

        def bad(what) -> DrhwError:
            return DrhwError(f"{path}: line {reader.line_num}: {what}")

        try:
            header = next(reader, [])
            if header != list(TRACE_FIELDS):
                raise DrhwError(f"{path}: not a trace file (header {header})")
            for vals in reader:
                if not vals:
                    continue
                if len(vals) != len(TRACE_FIELDS):
                    raise bad(f"{len(vals)} fields, expected "
                              f"{len(TRACE_FIELDS)}")
                row = dict(zip(TRACE_FIELDS, vals))
                try:
                    row["iteration"] = int(row["iteration"])
                    row["subtask"] = int(row["subtask"])
                    row["start"] = float(row["start"])
                    row["end"] = float(row["end"])
                except ValueError as exc:
                    raise bad(f"malformed row ({exc})") from exc
                for key in ("start", "end"):
                    if not math.isfinite(row[key]):
                        raise bad(f"non-finite {key} {row[key]}")
                if row["end"] < row["start"]:
                    raise bad(f"end {row['end']} before start {row['start']}")
                rows.append(row)
        except csv.Error as exc:
            raise bad(exc) from exc
    return rows
