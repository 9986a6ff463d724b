"""Discrete-event experiment driver.

Each iteration draws a feasible scenario combination and a task sequence;
together the iterations form one plan, which each run-time mode replays
through the run-time manager once per tile count.  Residency persists
across iterations within a replay, so reuse carries from one execution to
the next; replays share no map.  A baseline never reuses, so its figures
and trace records come from one pass over its fixed schedules and serve
every tile count.

A trace (``drhw-trace/2``) holds each schedule once and each instance's
decisions, not rows; ``read_trace`` expands it into absolute rows.

Every iteration draws from its own substream ``rng.Rng(seed, i)`` (NumPy's
PCG64), so draws are reproducible and independent of how many iterations
run.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .design_time import ScheduleStore
from .errors import DrhwError, StoreFormatError
from .model import TIME_TOL, FrozenRecord, Workload, scenario_map
from .rng import Rng
from .runtime import (DESIGN_TIME_PREFETCH, MODES, NO_PREFETCH, ResidencyMap,
                      execute_task_instance, fixed_schedule, too_few_tiles)

TRACE_SCHEMA = "drhw-trace/2"
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
    each baseline's figures and instances are summed once from its fixed
    schedules and serve every tile count.  Returns (metrics by tile count,
    then mode; trace records, empty unless the config enables the trace):
    per (tile count, mode) in that order, a run record and one instance
    record per plan step, each schedule's record before the first instance
    that replays it (see ``write_trace``).  Every load is placed and
    replayed at the store's latency.
    """
    scenarios = scenario_map(workload)
    # No schedule cache key holds the tile count, so one cache serves every
    # mode for the whole sweep.  Asking for each scenario's DesignTimePrefetch
    # schedule first checks its entry and caches its whole placed chain.
    cache: dict = {}
    for key, scenario in scenarios.items():
        if key not in store.entries:
            raise StoreFormatError(
                f"store has no entry for task {key[0]} scenario {key[1]}; "
                "rebuild the store with analyze")
        fixed_schedule(DESIGN_TIME_PREFETCH, scenario, store.entries[key],
                       store.latency, cache)
    if len(store.entries) > len(scenarios):
        tid, sid = next(key for key in store.entries if key not in scenarios)
        raise StoreFormatError(
            f"store has an entry for task {tid} scenario {sid}, which the "
            "workload lacks; rebuild the store with analyze")

    trace = config.trace
    # Each step: (iteration, scenario, entry, next entry).
    steps = [(i, scenarios[(tid, sid)], store.entries[(tid, sid)])
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

    def replay(tiles: int, mode: str) -> tuple[Metrics, list[tuple]]:
        """Run the plan in a run-time mode on ``tiles`` empty tiles: its
        metrics and traced instances."""
        residency = ResidencyMap(tiles)
        block: list[tuple] = []
        latency = store.latency
        t0 = ctrl = actual = 0.0
        reused = issued = cancelled = 0
        for i, scenario, entry, lookahead in plan:
            res = execute_task_instance(scenario, entry, residency, mode,
                                        latency, t0, ctrl, lookahead, cache)
            decision = res.decision
            actual += res.end - t0
            reused += len(decision.reused)
            issued += (len(decision.init_loads) + len(res.relative.loads)
                       + len(decision.prefetched))
            cancelled += len(decision.cancelled)
            if trace:
                block.append((res.relative, i, entry.task_id, scenario.id,
                              res.offset, decision.bindings,
                              decision.init_loads, decision.prefetched,
                              decision.cancelled_loads))
            t0 = res.end
            ctrl = res.ctrl_free
        return metrics(mode, tiles, actual, reused, issued, cancelled), block

    def summed(tiles: int, mode: str) -> tuple[Metrics, list[tuple]]:
        """A baseline's metrics and traced instances: each step runs its
        fixed schedule from the previous step's end, on idle tiles, reuses
        nothing and binds slot i of its binding order to tile i."""
        latency = store.latency
        t0 = actual = 0.0
        issued = 0
        block: list[tuple] = []
        for i, scenario, entry, _ in plan:
            order = scenario.index.bind_order
            if len(order) > tiles:
                raise too_few_tiles(entry, scenario.index, tiles)
            rel = fixed_schedule(mode, scenario, entry, latency, cache)
            if trace:
                bound = {slot: tile for tile, slot in enumerate(order)}
                block.append((rel, i, entry.task_id, scenario.id, t0, bound,
                              (), (), ()))
            end = t0 + rel.makespan
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

    # No baseline reads residency, so its metrics and instances are the
    # same at every tile count: each is summed once, checked at the fewest
    # tiles, where a step fails if it fails at any.
    shared = {mode: summed(min(config.tiles), mode) for mode in config.modes
              if mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH)}
    results: dict = {tiles: {} for tiles in config.tiles}
    records: list[tuple] = []
    numbers: dict = {}      # id(schedule) -> (its number, the schedule)
    built: dict = {}        # baseline mode -> its instance records
    for tiles, by_mode in results.items():
        for mode in config.modes:
            by_mode[mode], block = (shared[mode] if mode in shared
                                    else replay(tiles, mode))
            if trace:
                records.append(("run", mode, tiles))
            if mode in built:
                records += built[mode]
                continue
            start = len(records)
            for rel, i, tid, sid, dt, bound, inits, pre, cancels in block:
                known = numbers.get(id(rel))
                if known is None:
                    known = numbers[id(rel)] = (len(numbers), rel)
                    records.append(("schedule", known[0], rel.execs,
                                    rel.loads))
                records.append(("instance", i, tid, sid, known[0], dt, bound,
                                inits, pre, cancels))
            if mode in shared:
                built[mode] = [r for r in records[start:]
                               if r[0] == "instance"]
    return results, records


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


# Each trace record's layout by its tag: a JSON value of type int, str or
# float (finite); a tuple is an array of that length, a list one of any
# length and a dict an object of ints.
_EVENT = (int, str, float, float)       # (subtask, PE or slot, start, end)
_RECORDS = {
    "schedule": (str, int, [_EVENT], [_EVENT]),
    "run": (str, str, int),
    "instance": (str, int, str, str, int, float, {str: int},
                 [(int, int, float, float)], [(str, int, int, float, float)],
                 [_EVENT]),
}


def _fits(value, shape) -> bool:
    """Whether the decoded JSON ``value`` has ``shape`` (see _RECORDS)."""
    if type(shape) is tuple:
        return (type(value) is list and len(value) == len(shape)
                and all(map(_fits, value, shape)))
    if type(shape) is list:
        return type(value) is list and all(_fits(v, shape[0]) for v in value)
    if type(shape) is dict:
        return type(value) is dict and all(type(v) is int
                                           for v in value.values())
    if shape is float:
        return type(value) is float and -math.inf < value < math.inf
    return type(value) is shape


def write_trace(trace, path: str) -> None:
    """Write the records of ``trace`` from ``run_simulation`` as JSON
    lines (``drhw-trace/2``), after ``{"schema": "drhw-trace/2"}``:

    - ``["schedule", n, execs, loads]``: relative schedule ``n``, its
      execs and loads as ``[subtask, PE or slot, start, end]``;
    - ``["run", mode, tiles]``: that mode's instances at that tile count
      follow;
    - ``["instance", iteration, task, scenario, n, offset, bindings,
      init_loads, prefetches, cancelled]``: an instance that replays
      schedule ``n`` from ``offset`` with ``{slot: tile}`` bindings; init
      loads ``[subtask, tile, start, end]`` and prefetches ``[task,
      subtask, tile, start, end]`` are absolute, cancelled loads relative.

    Each distinct record is encoded once (a baseline's serve every tile
    count), and each run is written in one call.
    """
    encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    lines: dict = {}        # id(record) -> its line
    pairs: dict = {}        # (task, scenario) -> their text
    maps: dict = {}         # bindings' items -> their text

    def line_of(record):
        if record[0] != "instance":
            return encode(record) + "\n"
        # From cached pieces; a finite float is written as encode does.
        _, i, tid, sid, n, dt, bindings, *lists = record
        pair = pairs.get((tid, sid)) or pairs.setdefault(
            (tid, sid), encode([tid, sid])[1:-1])
        items = tuple(bindings.items())
        bound = maps.get(items) or maps.setdefault(items, encode(bindings))
        offset = (float.__repr__(dt) if type(dt) is float and math.isfinite(dt)
                  else encode(dt))
        tail = encode(lists)[1:-1] if any(lists) else "[],[],[]"
        return f'["instance",{i},{pair},{n},{offset},{bound},{tail}]\n'

    chunk = [encode({"schema": TRACE_SCHEMA}) + "\n"]
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace:
            if record[0] == "run":
                fh.write("".join(chunk))
                chunk.clear()
            chunk.append(lines.get(id(record)) or lines.setdefault(
                id(record), line_of(record)))
        fh.write("".join(chunk))


def read_trace(path: str) -> list[dict]:
    """The rows of a ``drhw-trace/2`` file, each a dict of ``mode``,
    ``tiles``, ``iteration``, ``task``, ``scenario``, ``resource``,
    ``kind``, ``subtask``, ``start`` and ``end``.

    An instance gives, in this order: its schedule's execs on their PEs,
    sorted by (start, subtask); its replayed loads on their bound tiles
    (``load``) and its init loads (``init_load``), sorted together; its
    prefetches (``prefetch_load``, under the prefetched task and scenario
    ``-``); and its cancelled loads on their slots (``cancel``).  A
    replayed time is its schedule's time plus the offset.

    A line that breaks the layout of ``write_trace`` (with a NaN or
    infinite time) or its references, or gives a row that ends before it
    starts or past the float range, raises DrhwError naming the line; so
    does a ``drhw-trace/1`` file."""
    schedules, rows = {}, []
    run, number = None, 1

    def bad(what) -> DrhwError:
        return DrhwError(f"{path}: line {number}: {what}")

    def parse(line):
        try:
            return json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise bad(f"not a JSON line ({exc})") from None

    # As bytes: json.loads decodes each line, so bad UTF-8 is a bad line.
    with open(path, "rb") as fh:
        header = fh.readline()
        if header.startswith(b"iteration,task,scenario,"):
            raise bad(f"a drhw-trace/1 file; simulate again to write "
                      f"{TRACE_SCHEMA}")
        if parse(header) != {"schema": TRACE_SCHEMA}:
            raise bad(f"not a {TRACE_SCHEMA} file")
        for number, line in enumerate(fh, 2):
            record = parse(line)
            tag = (record[0] if type(record) is list and record
                   and type(record[0]) is str else None)
            if tag not in _RECORDS:
                raise bad("not a schedule, run or instance record")
            if not _fits(record, _RECORDS[tag]):
                raise bad(f"malformed {tag} record")
            if tag == "schedule":
                if record[1] in schedules:
                    raise bad(f"schedule {record[1]} defined twice")
                schedules[record[1]] = record[2:]
                continue
            if tag == "run":
                run = record
                continue
            if run is None:
                raise bad("instance before any run record")
            _, i, task, scenario, n, dt, bindings, inits, prefetches, \
                cancels = record
            if n not in schedules:
                raise bad(f"schedule {n} is not defined")
            execs, loads = schedules[n]
            try:
                loads = [(s + dt, sub, bindings[slot], e + dt, "load")
                         for sub, slot, s, e in loads]
            except KeyError as exc:
                raise bad(f"slot {exc.args[0]!r} has no tile in bindings"
                          ) from None
            events = [(task, scenario, pe, "exec", sub, s, e) for s, sub, pe, e
                      in sorted([(s + dt, sub, pe, e + dt)
                                 for sub, pe, s, e in execs])]
            events += [(task, scenario, f"tile{tile}", kind, sub, s, e)
                       for s, sub, tile, e, kind in sorted(loads + [
                           (s, sub, tile, e, "init_load")
                           for sub, tile, s, e in inits])]
            events += [(other, "-", f"tile{tile}", "prefetch_load", sub, s, e)
                       for other, sub, tile, s, e in prefetches]
            events += [(task, scenario, slot, "cancel", sub, s + dt, e + dt)
                       for sub, slot, s, e in cancels]
            for task_id, scenario_id, resource, kind, sub, s, e in events:
                if not -math.inf < s <= e < math.inf:
                    raise bad(f"{kind} of subtask {sub} over [{s!r}, {e!r}] "
                              "is not a finite interval")
                rows.append({"mode": run[1], "tiles": run[2], "iteration": i,
                             "task": task_id, "scenario": scenario_id,
                             "resource": resource, "kind": kind,
                             "subtask": sub, "start": s, "end": e})
    return rows
