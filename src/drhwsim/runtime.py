"""Run-time phase: residency, reuse, initialization, replacement, prefetch.

One task graph is active at a time; task instances execute back-to-back on a
shared pool of physical tiles.  The hybrid pipeline per instance is:
reuse scan -> initialization loads (serialized from the task start) ->
cancellation of reused non-critical loads -> replay of the stored load
order's schedule at the end of initialization -> inter-task prefetch into
the controller's idle tail.
"""

from __future__ import annotations

from typing import Collection, Optional

from .design_time import DesignTimeEntry
from .engine import (TimedSchedule, place_loads, priority_order,
                     schedule_no_prefetch)
from .errors import CapacityError
from .model import TIME_TOL, Record, Scenario, ScenarioIndex

NO_PREFETCH = "NoPrefetch"
DESIGN_TIME_PREFETCH = "DesignTimePrefetch"
RUNTIME_HEURISTIC = "RuntimeHeuristic"
RUNTIME_INTERTASK = "RuntimeInterTask"
HYBRID = "Hybrid"
MODES = (NO_PREFETCH, DESIGN_TIME_PREFETCH, RUNTIME_HEURISTIC,
         RUNTIME_INTERTASK, HYBRID)

Config = tuple[str, int]     # (task id, subtask id)


class ResidencyMap:
    """Which configuration each physical tile holds, and when it is ready
    (its slot's last exec end, or an overhanging prefetch's end): two
    per-tile lists, ``config`` (None while empty) and ``last_use``."""

    def __init__(self, tiles: int):
        if tiles < 1:
            raise CapacityError(f"need at least one tile, got {tiles}")
        self.config: list[Optional[Config]] = [None] * tiles
        self.last_use: list[float] = [0.0] * tiles

    def __len__(self) -> int:
        return len(self.config)

    def install(self, tile: int, config: Config, when: float) -> None:
        self.config[tile] = config
        if when > self.last_use[tile]:
            self.last_use[tile] = when


class RuntimeDecision(Record):
    """One instance's decisions, a mutable record with a slot per field.
    Intervals from the replayed schedule (``cancelled_loads``) are
    relative; run-time ones are absolute."""

    __slots__ = _fields = ("reused", "cancelled", "init_loads", "bindings",
                           "prefetched", "cancelled_loads")

    def __init__(self, reused: dict[int, int], cancelled: frozenset[int],
                 init_loads: tuple[tuple[int, int, float, float], ...],
                 bindings: dict[str, int],
                 prefetched: tuple[tuple[str, int, int, float, float], ...],
                 cancelled_loads: tuple[tuple[int, str, float, float], ...] = ()):
        self.reused = reused                # subtask id -> tile
        self.cancelled = cancelled
        self.init_loads = init_loads        # (sid, tile, start, end)
        self.bindings = bindings            # virtual slot -> tile
        self.prefetched = prefetched        # (task, sid, tile, start, end)
        self.cancelled_loads = cancelled_loads  # relative


class InstanceResult(Record):
    """Outcome of one task instance in one mode: a mutable record with a
    slot per field, built positionally once per task instance.

    ``start``, ``end``, ``ctrl_free`` and the run-time decisions (init
    loads and prefetches) are absolute times.  Intervals from the replayed
    schedule (its execs and loads, and the cancelled loads) are relative:
    adding ``offset`` gives the absolute times, as ``read_trace`` does.
    The residency update reads each bound slot's last loaded subtask and
    last exec end from the relative schedule's ``slot_table``, derived
    once per schedule.
    The instance's ideal time and DRHW count depend on its plan step
    alone, so ``run_simulation`` sums them once per plan, not from here.
    ``load_events`` lists every load in absolute time, only when read.
    """

    __slots__ = _fields = ("task_id", "scenario_id", "start", "end",
                           "relative", "offset", "decision", "ctrl_free")

    def __init__(self, task_id: str, scenario_id: str, start: float,
                 end: float, relative: TimedSchedule, offset: float,
                 decision: RuntimeDecision, ctrl_free: float):
        self.task_id = task_id
        self.scenario_id = scenario_id
        self.start = start
        self.end = end
        self.relative = relative      # loads carry virtual slots
        self.offset = offset
        self.decision = decision
        self.ctrl_free = ctrl_free

    @property
    def span(self) -> float:
        return self.end - self.start

    @property
    def load_events(self) -> tuple[tuple[int, int, float, float], ...]:
        """Every load of the instance as absolute (sid, tile, start, end):
        the init loads, then the replayed loads on their bound tiles."""
        bindings, dt = self.decision.bindings, self.offset
        return self.decision.init_loads + tuple(
            (sid, bindings[slot], s + dt, e + dt)
            for sid, slot, s, e in self.relative.loads)


# ---------------------------------------------------------------------------
# Decision steps
# ---------------------------------------------------------------------------

def reuse_scan(task: str, idx: ScenarioIndex, residency: ResidencyMap):
    """Bind each slot whose first subtask's configuration is resident to
    the tile holding it; that subtask is reused.

    Only a slot's first subtask can be reused: the slot's own loads
    overwrite its tile before any later subtask of the slot runs.  Distinct
    first subtasks are distinct configurations, so they never compete for
    a tile.  Returns (subtask -> tile, slot -> tile).
    """
    reused: dict[int, int] = {}
    bindings: dict[str, int] = {}
    resident = residency.config
    for slot, sid in idx.slot_heads:
        config = (task, sid)
        if config in resident:
            reused[sid] = bindings[slot] = resident.index(config)
    return reused, bindings


def cancel_reused_loads(stored: TimedSchedule, reused):
    """Drop the loads of reused subtasks from ``stored``, Hybrid's fixed
    schedule, in which its critical subtasks have no load.

    Every remaining interval keeps its time exactly; the makespan is
    unchanged.  Returns (adjusted schedule, cancelled ids, cancelled loads).
    """
    dropped = tuple(l for l in stored.loads if l[0] in reused)
    if not dropped:
        return stored, _NONE, ()
    kept = tuple(l for l in stored.loads if l[0] not in reused)
    adjusted = TimedSchedule(stored.makespan, stored.execs, kept)
    return adjusted, frozenset(l[0] for l in dropped), dropped


def _pick_tile(residency: ResidencyMap, claimed: Collection[int],
               needed: Collection[Config], forbidden: Collection[Config] = (),
               needed_next: Collection[Config] = ()) -> Optional[int]:
    """Replacement preference: empty, then not-needed LRU, then LRU.

    A configuration is needed if it is in ``needed`` or ``needed_next``.
    One pass in tile order; ties go to the lower tile.  Claimed tiles and
    tiles holding a config in ``forbidden`` are never chosen (the inter-task
    prefetcher uses it to protect the next task's critical configs).  The
    empty defaults are tuples: a test against one hashes nothing.
    """
    spare = spare_last = kept = kept_last = None
    last_use = residency.last_use
    for tile, config in enumerate(residency.config):
        if tile in claimed or config in forbidden:
            continue
        if config is None:
            return tile
        if config in needed or config in needed_next:
            # A needed tile is only chosen when no tile is spare.
            if spare is None and (kept is None or last_use[tile] < kept_last):
                kept, kept_last = tile, last_use[tile]
        elif spare is None or last_use[tile] < spare_last:
            spare, spare_last = tile, last_use[tile]
    return kept if spare is None else spare


def too_few_tiles(entry: DesignTimeEntry, idx: ScenarioIndex,
                  tiles: int) -> CapacityError:
    """The error for an instance of ``idx`` on ``tiles`` tiles, fewer than
    its slots.  An instance needs one tile per slot; with that many no
    pick fails, as reused slots hold distinct tiles and every other slot
    picks an unclaimed one."""
    return CapacityError(
        f"task {entry.task_id} scenario {entry.scenario_id} needs "
        f"{len(idx.bind_order)} tiles, only {tiles} exist")


def bind_tiles(entry: DesignTimeEntry, idx: ScenarioIndex,
               bindings: dict[str, int], residency: ResidencyMap,
               lookahead: Optional[DesignTimeEntry] = None) -> dict[str, int]:
    """Assign a physical tile to every virtual slot of ``idx`` that still
    needs one, in its binding order; ``bindings`` is filled in place and
    returned.  Fewer tiles than slots raise CapacityError
    (``too_few_tiles``).

    ``lookahead`` is the next task's entry; its configurations count as
    needed, so they are evicted last.
    """
    order, tiles = idx.bind_order, len(residency.config)
    if len(order) > tiles:
        raise too_few_tiles(entry, idx, tiles)
    if len(bindings) == len(order):
        return bindings
    claimed = tuple(bindings.values())
    needed_next = () if lookahead is None else lookahead.configs
    for slot in order:
        if slot in bindings:
            continue
        tile = _pick_tile(residency, claimed, entry.configs, (), needed_next)
        bindings[slot] = tile
        claimed += (tile,)
    return bindings


def intertask_prefetch(residency: ResidencyMap, next_entry: DesignTimeEntry,
                       R: float, task_end: float, ctrl_free: float):
    """Use the controller's idle tail to start the next task's init loads.

    Loads run in critical-set order, each starting no earlier than the
    target tile's ``last_use``; they may overhang the current task's end
    but must start before it.  Tiles holding one of the next task's
    critical configurations are never evicted.  Returns (prefetches as
    (task, sid, tile, start, end), controller free time).
    """
    prefetched = ()
    claimed = ()
    ctrl = ctrl_free
    resident, last_use = residency.config, residency.last_use
    for sid, cfg in next_entry.init_configs:
        if cfg in resident:
            continue
        tile = _pick_tile(residency, claimed, next_entry.configs,
                          next_entry.critical_configs)
        if tile is None:
            continue
        start = last_use[tile] if last_use[tile] > ctrl else ctrl
        if start >= task_end - TIME_TOL:
            break                     # no idle window left inside the task
        end = start + R
        prefetched += ((next_entry.task_id, sid, tile, start, end),)
        residency.install(tile, cfg, end)
        claimed += (tile,)
        ctrl = end
    return prefetched, ctrl


# ---------------------------------------------------------------------------
# Task instance execution
# ---------------------------------------------------------------------------

def fixed_schedule(mode: str, scenario: Scenario, entry: DesignTimeEntry,
                   R: float, cache: dict) -> TimedSchedule:
    """The schedule NoPrefetch, DesignTimePrefetch or Hybrid runs for
    ``scenario``, before any reuse: cached in ``cache`` under (mode, task,
    scenario) and placed on a miss."""
    key = (mode, entry.task_id, scenario.id)
    fixed = cache.get(key)
    if fixed is None:
        drhw_set = scenario.index.drhw_set
        if mode == NO_PREFETCH:
            fixed = schedule_no_prefetch(scenario, drhw_set, R)
        elif mode == DESIGN_TIME_PREFETCH:
            fixed = place_loads(scenario, drhw_set, entry.noreuse_order, R)
        else:
            fixed = place_loads(scenario, entry.loads, entry.loads, R)
        cache[key] = fixed
    return fixed


# Per run-time mode: (places the run-time list heuristic's schedule,
# protects and prefetches the next task's configurations).  All reuse;
# Hybrid alone issues init loads and replays its fixed schedule.
_STEPS = {
    RUNTIME_HEURISTIC: (True, False),
    RUNTIME_INTERTASK: (True, True),
    HYBRID: (False, True),
}
_NONE: frozenset = frozenset()


def execute_task_instance(scenario: Scenario, entry: DesignTimeEntry,
                          residency: ResidencyMap, mode: str, R: float,
                          t0: float = 0.0, ctrl_free: float = 0.0,
                          lookahead: Optional[DesignTimeEntry] = None,
                          sched_cache: Optional[dict] = None) -> InstanceResult:
    """Run one task instance in a run-time mode and update residency; a
    baseline reuses nothing, needs no manager and raises ValueError.

    ``lookahead`` is the entry of the task instance that runs next; the
    inter-task modes protect and prefetch its configurations.
    ``sched_cache`` keeps the schedules replayed for later calls; without
    it, each call places its schedule anew.

    Every tile's ``last_use`` must be at most ``max(t0, ctrl_free)``; a
    previous instance's ``end`` and ``ctrl_free`` keep it, being at or
    after every exec, load and prefetch end it issued.  So Hybrid replays
    from the end of its init loads, which start at ``ctrl_free``, and the
    run-time list modes delay a reused subtask until its tile's
    ``last_use``.
    """
    steps = _STEPS.get(mode)
    if steps is None:
        raise ValueError(f"{mode!r} is not a run-time mode; choose from "
                         f"{', '.join(_STEPS)}")
    listed, intertask = steps
    task = entry.task_id
    idx = scenario.index
    if t0 > ctrl_free:
        ctrl_free = t0
    cache = {} if sched_cache is None else sched_cache
    config, last_use = residency.config, residency.last_use

    reused, bindings = reuse_scan(task, idx, residency)
    if not intertask:
        lookahead = None
    bindings = bind_tiles(entry, idx, bindings, residency, lookahead)

    init_loads: tuple[tuple[int, int, float, float], ...] = ()
    cancelled: frozenset[int] = _NONE
    cancelled_loads: tuple = ()
    offset = t0

    if listed:
        min_start = {}
        for sid, tile in reused.items():
            end = last_use[tile]
            if end > t0:
                min_start[sid] = end - t0
        ctrl_rel = ctrl_free - t0
        # Both run-time list modes run the list heuristic with the same
        # arguments, so they share its schedules.  Its load order depends
        # on the load set alone, so it is derived once per load set and
        # placed for each controller start and set of reuse delays.  The
        # load set is the DRHW set less the reused subtasks, which
        # reuse_scan lists in slot-head order, so their tuple keys it.
        key = (priority_order, task, scenario.id, tuple(reused), ctrl_rel,
               tuple(min_start.items()) if min_start else ())
        rel = cache.get(key)
        if rel is None:
            load_set = (idx.drhw_set.difference(reused) if reused
                        else idx.drhw_set)
            order_key = key[:4]
            order = cache.get(order_key)
            if order is None:
                order = cache[order_key] = priority_order(scenario, load_set)
            rel = cache[key] = place_loads(scenario, load_set, order, R,
                                           ctrl_start=ctrl_rel,
                                           min_start=min_start)
    else:
        # Hybrid's init loads run back to back from ctrl_free, each
        # installing its configuration on its slot's tile; the replay of
        # its fixed schedule starts at the last one's end.
        offset = ctrl_free
        pe_of = idx.pe_of
        for sid, cfg in entry.init_configs:     # greatest weight first
            if sid in reused:
                continue
            tile = bindings[pe_of[sid]]
            end = offset + R
            init_loads += ((sid, tile, offset, end),)
            config[tile] = cfg
            offset = end
        # Its schedule without the reused loads is built once per reused
        # set, keyed by its tuple in slot-head order.
        key = (mode, task, scenario.id, tuple(reused) if reused else ())
        adjusted = cache.get(key)
        if adjusted is None:
            adjusted = cache[key] = cancel_reused_loads(
                fixed_schedule(mode, scenario, entry, R, cache), reused)
        rel, cancelled, cancelled_loads = adjusted
    task_end = offset + rel.makespan

    # Update residency: only the last load issued on a slot stays resident
    # on its tile.  Init loads (already written) end by offset, before any
    # replayed load, so each slot's last replayed load is written after
    # them.  last_use becomes the slot's last exec end: each loaded subtask
    # runs on its slot after its load ends, and every replayed exec starts
    # at or after offset, where the init loads have ended.  Replayed times
    # are relative; adding ``offset`` gives the absolute ones.
    table, last_end = rel.slot_table
    for slot, tile in bindings.items():
        sid, e = table[slot]
        if sid is not None:
            config[tile] = (task, sid)
        e += offset
        if e > last_use[tile]:
            last_use[tile] = e
    # Hybrid's init loads end at offset; other modes have offset = t0.
    # max(ctrl_free, offset + max(last_end, 0.0)) without the builtin's
    # call cost; each test keeps max's choice, signed zeros included.
    e = offset + (0.0 if 0.0 > last_end else last_end)
    ctrl_after = e if e > ctrl_free else ctrl_free

    prefetched: tuple = ()
    if lookahead is not None:
        prefetched, ctrl_after = intertask_prefetch(
            residency, lookahead, R, task_end, ctrl_after)

    decision = RuntimeDecision(reused, cancelled, init_loads, bindings,
                               prefetched, cancelled_loads)
    return InstanceResult(task, scenario.id, t0, task_end, rel, offset,
                          decision, ctrl_after)
