"""Run-time phase: residency, reuse, initialization, replacement, prefetch.

One task graph is active at a time; task instances execute back-to-back on a
shared pool of physical tiles.  The hybrid pipeline per instance is:
reuse scan -> initialization loads (serialized from the task start) ->
cancellation of reused non-critical loads -> replay of the stored schedule
at the end of initialization -> inter-task prefetch into the controller's
idle tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .design_time import DesignTimeEntry
from .engine import (TimedSchedule, place_loads, schedule_list_heuristic,
                     schedule_no_prefetch)
from .errors import CapacityError, ConsistencyError
from .model import TIME_TOL, Scenario

NO_PREFETCH = "NoPrefetch"
DESIGN_TIME_PREFETCH = "DesignTimePrefetch"
RUNTIME_HEURISTIC = "RuntimeHeuristic"
RUNTIME_INTERTASK = "RuntimeInterTask"
HYBRID = "Hybrid"
MODES = (NO_PREFETCH, DESIGN_TIME_PREFETCH, RUNTIME_HEURISTIC,
         RUNTIME_INTERTASK, HYBRID)

Config = tuple[str, int]     # (task id, subtask id)


@dataclass
class TileState:
    tile: int
    config: Optional[Config] = None
    last_use: float = 0.0


class ResidencyMap:
    """Which configuration each physical tile currently holds."""

    def __init__(self, tiles: int):
        if tiles < 1:
            raise CapacityError(f"need at least one tile, got {tiles}")
        self.tiles = [TileState(i) for i in range(tiles)]

    def __len__(self) -> int:
        return len(self.tiles)

    def locate(self, config: Config) -> Optional[int]:
        for t in self.tiles:
            if t.config == config:
                return t.tile
        return None

    def install(self, tile: int, config: Config, when: float) -> None:
        ts = self.tiles[tile]
        ts.config = config
        ts.last_use = max(ts.last_use, when)

    def touch(self, tile: int, when: float) -> None:
        ts = self.tiles[tile]
        ts.last_use = max(ts.last_use, when)


@dataclass
class RuntimeDecision:
    reused: dict[int, int]                       # subtask id -> tile
    cancelled: frozenset[int]
    init_loads: tuple[tuple[int, int, float, float], ...]   # (sid, tile, start, end)
    bindings: dict[str, int]                     # virtual slot -> tile
    prefetched: tuple[tuple[str, int, int, float, float], ...]  # (task, sid, tile, s, e)
    cancelled_loads: tuple[tuple[int, str, float, float], ...] = ()  # stored intervals


@dataclass
class InstanceResult:
    """Absolute-time outcome of one task instance in one mode."""

    task_id: str
    scenario_id: str
    start: float
    end: float
    ideal: float
    schedule: TimedSchedule        # absolute times; loads carry virtual slots
    load_events: tuple[tuple[int, int, float, float], ...]   # (sid, tile, start, end)
    decision: RuntimeDecision
    ctrl_free: float
    pending: dict[Config, float]   # prefetched config -> load end (for next task)

    @property
    def span(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Decision steps
# ---------------------------------------------------------------------------

def reuse_scan(entry: DesignTimeEntry, scenario: Scenario,
               residency: ResidencyMap):
    """Identify reusable subtasks and bind their slots to their tiles.

    Claims are resolved in descending weight order (id tie-break); a virtual
    slot hosting several subtasks is bound by its highest-weight resident
    one, and lower-weight subtasks of the same slot are reused only when
    they sit on that very tile.
    """
    idx = scenario.index
    reused: dict[int, int] = {}
    bindings: dict[str, int] = {}
    claimed: set[int] = set()
    for sid in sorted(idx.drhw, key=lambda s: (-entry.weights[s], s)):
        slot = idx.slot_of[sid]
        tile = residency.locate((entry.task_id, sid))
        if slot in bindings:
            if tile is not None and tile == bindings[slot]:
                reused[sid] = tile
            continue
        if tile is not None and tile not in claimed:
            bindings[slot] = tile
            claimed.add(tile)
            reused[sid] = tile
    return reused, bindings


def cancel_reused_loads(entry: DesignTimeEntry, reused):
    """Drop loads of reused non-critical subtasks from the stored schedule.

    Every remaining interval keeps its stored time exactly; the makespan is
    unchanged.  Returns (adjusted schedule, cancelled ids, cancelled loads).
    """
    stored = entry.stored_schedule
    exec_ids = {sid for sid, _, _, _ in stored.execs}
    for sid in reused:
        if sid not in exec_ids:
            raise ConsistencyError(
                f"reused subtask {sid} is not in the stored schedule of "
                f"({entry.task_id},{entry.scenario_id})")
    critical = set(entry.critical)
    cancelled = frozenset(sid for sid in reused if sid not in critical)
    kept = tuple(l for l in stored.loads if l[0] not in cancelled)
    dropped = tuple(l for l in stored.loads if l[0] in cancelled)
    adjusted = TimedSchedule(stored.origin, stored.makespan, stored.execs, kept)
    return adjusted, cancelled, dropped


def _pick_tile(residency: ResidencyMap, claimed: set[int], needed: set[Config],
               forbidden: set[Config] = frozenset()) -> Optional[int]:
    """Replacement preference: empty, then not-needed, then LRU.

    Tiles holding a config in ``forbidden`` are never chosen (used by the
    inter-task prefetcher to protect the next task's critical configs).
    """
    free = [t for t in residency.tiles
            if t.tile not in claimed and t.config not in forbidden]
    if not free:
        return None
    empty = [t for t in free if t.config is None]
    if empty:
        return min(empty, key=lambda t: t.tile).tile
    unneeded = [t for t in free if t.config not in needed]
    if unneeded:
        return min(unneeded, key=lambda t: (t.last_use, t.tile)).tile
    return min(free, key=lambda t: (t.last_use, t.tile)).tile


def bind_tiles(entry: DesignTimeEntry, scenario: Scenario,
               bindings: dict[str, int], residency: ResidencyMap,
               lookahead: Optional[tuple[str, DesignTimeEntry, Scenario]] = None
               ) -> dict[str, int]:
    """Assign a physical tile to every virtual slot that still needs one."""
    idx = scenario.index
    needed = {(entry.task_id, sid) for sid in idx.drhw}
    if lookahead is not None:
        la_task, la_entry, la_scenario = lookahead
        needed |= {(la_task, sid) for sid in la_scenario.index.drhw}
    slots = sorted({idx.slot_of[sid] for sid in idx.drhw} - set(bindings),
                   key=lambda slot: (-max(entry.weights[s] for s in idx.drhw
                                          if idx.slot_of[s] == slot), slot))
    claimed = set(bindings.values())
    out = dict(bindings)
    for slot in slots:
        tile = _pick_tile(residency, claimed, needed)
        if tile is None:
            raise CapacityError(
                f"task {entry.task_id} scenario {entry.scenario_id} needs "
                f"{len(slots) + len(bindings)} tiles, only {len(residency)} exist")
        out[slot] = tile
        claimed.add(tile)
    return out


def intertask_prefetch(residency: ResidencyMap, next_entry: DesignTimeEntry,
                       R: float, task_end: float, ctrl_free: float,
                       tile_last_exec: dict[int, float], t0: float):
    """Use the controller's idle tail to start the next task's init loads.

    Loads run in critical-set order, each starting no earlier than the
    target tile's last exec end in the current task; they may overhang the
    current task's end but must start before it.  Tiles holding one of the next task's
    critical configurations are never evicted.
    """
    next_cs = {(next_entry.task_id, sid) for sid in next_entry.critical}
    needed_next = {(next_entry.task_id, sid) for sid in next_entry.drhw}
    prefetched: list[tuple[str, int, int, float, float]] = []
    pending: dict[Config, float] = {}
    claimed: set[int] = set()
    ctrl = max(ctrl_free, t0)
    for sid in next_entry.critical:
        config = (next_entry.task_id, sid)
        if residency.locate(config) is not None:
            continue
        tile = _pick_tile(residency, claimed, needed_next, forbidden=next_cs)
        if tile is None:
            continue
        start = max(ctrl, tile_last_exec.get(tile, t0))
        if start >= task_end - TIME_TOL:
            break                     # no idle window left inside the task
        end = start + R
        prefetched.append((next_entry.task_id, sid, tile, start, end))
        pending[config] = end
        residency.install(tile, config, end)
        claimed.add(tile)
        ctrl = end
    return tuple(prefetched), pending, ctrl


# ---------------------------------------------------------------------------
# Task instance execution
# ---------------------------------------------------------------------------

def execute_task_instance(scenario: Scenario, entry: DesignTimeEntry,
                          residency: ResidencyMap, mode: str, R: float,
                          t0: float = 0.0, ctrl_free: float = 0.0,
                          pending: Optional[dict[Config, float]] = None,
                          lookahead: Optional[tuple[str, DesignTimeEntry, Scenario]] = None,
                          sched_cache: Optional[dict] = None) -> InstanceResult:
    """Run one task instance in the given mode and update residency."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    idx = scenario.index
    pending = pending or {}
    ctrl_free = max(ctrl_free, t0)

    if mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH):
        reused: dict[int, int] = {}
        bindings: dict[str, int] = {}
    else:
        reused, bindings = reuse_scan(entry, scenario, residency)
    use_lookahead = lookahead if mode in (RUNTIME_INTERTASK, HYBRID) else None
    bindings = bind_tiles(entry, scenario, bindings, residency, use_lookahead)

    init_loads: tuple[tuple[int, int, float, float], ...] = ()
    cancelled: frozenset[int] = frozenset()
    cancelled_loads: tuple = ()

    if mode == HYBRID:
        rc = ctrl_free
        inits = []
        for sid in entry.critical:         # greatest weight first
            if sid in reused:
                continue
            tile = bindings[idx.slot_of[sid]]
            inits.append((sid, tile, rc, rc + R))
            rc += R
        init_loads = tuple(inits)
        origin = max(t0, rc)
        # A prefetched critical load may overhang the task boundary; the
        # stored schedule waits until every such configuration is in.
        stored_starts = {sid: s for sid, _, s, _ in entry.stored_schedule.execs}
        for sid in reused:
            end = pending.get((entry.task_id, sid))
            if end is not None and end > origin + stored_starts[sid]:
                origin = end - stored_starts[sid]
        adjusted, cancelled, dropped = cancel_reused_loads(entry, reused)
        dt = origin - adjusted.origin
        cancelled_loads = tuple((sid, slot, s + dt, e + dt)
                                for sid, slot, s, e in dropped)
        ts = adjusted.shifted(dt)
        task_end = origin + entry.stored_schedule.makespan
    else:
        min_start = {}
        for sid in reused:
            end = pending.get((entry.task_id, sid))
            if end is not None and end > t0:
                min_start[sid] = end - t0
        ctrl_rel = ctrl_free - t0
        if mode == NO_PREFETCH:
            load_set = frozenset(idx.drhw)
            ts_rel = _cached(sched_cache, (NO_PREFETCH, entry.task_id, scenario.id),
                             lambda: schedule_no_prefetch(scenario, load_set, R, 0.0))
        elif mode == DESIGN_TIME_PREFETCH:
            load_set = frozenset(idx.drhw)
            ts_rel = _cached(sched_cache,
                             (DESIGN_TIME_PREFETCH, entry.task_id, scenario.id),
                             lambda: place_loads(scenario, load_set,
                                                 entry.noreuse_order, R, 0.0))
        else:
            load_set = frozenset(idx.drhw) - set(reused)
            key = (mode, entry.task_id, scenario.id, load_set, ctrl_rel,
                   tuple(sorted(min_start.items())))
            ts_rel = _cached(sched_cache, key,
                             lambda: schedule_list_heuristic(
                                 scenario, load_set, R, 0.0,
                                 ctrl_start=ctrl_rel, min_start=min_start)[1])
        ts = ts_rel.shifted(t0)
        task_end = t0 + ts.makespan

    # Map loads to physical tiles and update residency chronologically.
    tile_loads = [(sid, bindings[slot], s, e) for sid, slot, s, e in ts.loads]
    all_loads = list(init_loads) + tile_loads
    events = sorted(
        [("load", sid, tile, s, e) for sid, tile, s, e in all_loads]
        + [("exec", sid, bindings.get(idx.pe_of[sid]), s, e)
           for sid, _, s, e in ts.execs],
        key=lambda ev: (ev[4], ev[0]))
    for kind, sid, tile, s, e in events:
        if tile is None:
            continue                  # ISP exec: no tile involved
        if kind == "load":
            residency.install(tile, (entry.task_id, sid), e)
        else:
            residency.touch(tile, e)

    ctrl_after = max([ctrl_free] + [e for _, _, _, e in all_loads])

    prefetched: tuple = ()
    pending_next: dict[Config, float] = {}
    if use_lookahead is not None:
        la_task, la_entry, la_scenario = use_lookahead
        tile_last_exec: dict[int, float] = {}
        for sid, _, s, e in ts.execs:
            tile = bindings.get(idx.pe_of[sid])
            if tile is not None:
                tile_last_exec[tile] = max(tile_last_exec.get(tile, t0), e)
        prefetched, pending_next, ctrl_after = intertask_prefetch(
            residency, la_entry, R, task_end, ctrl_after, tile_last_exec, t0)

    decision = RuntimeDecision(reused=reused, cancelled=cancelled,
                               init_loads=init_loads, bindings=bindings,
                               prefetched=prefetched,
                               cancelled_loads=tuple(cancelled_loads))
    return InstanceResult(
        task_id=entry.task_id, scenario_id=scenario.id, start=t0, end=task_end,
        ideal=entry.ideal, schedule=ts,
        load_events=tuple(all_loads), decision=decision,
        ctrl_free=ctrl_after, pending=pending_next)


def _cached(cache, key, fn):
    if cache is None:
        return fn()
    if key not in cache:
        cache[key] = fn()
    return cache[key]
