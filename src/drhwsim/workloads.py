"""Synthetic workload construction.

Random tasks are layered DAGs with seed-deterministic statistics; the two
presets approximate published benchmark suites at the aggregate level (the
original graphs are unpublished, so experiments on them are qualitative
reproductions and reports say so).
"""

from __future__ import annotations

import math

from .model import (DRHW, ISP, FrozenRecord, Subtask, Task, Workload,
                    make_scenario, ready_order)
from .rng import Rng


class GenParams(FrozenRecord):
    __slots__ = _fields = ("n_min", "n_max", "exec_low", "exec_high",
                           "edge_density", "drhw_fraction", "slots",
                           "scenarios")

    def __init__(self, n_min: int = 4, n_max: int = 10,
                 exec_low: float = 1.0, exec_high: float = 10.0,
                 edge_density: float = 0.3, drhw_fraction: float = 1.0,
                 slots: int = 3, scenarios: int = 1):
        if n_min < 1 or n_max < n_min:
            raise ValueError(f"bad subtask count range [{n_min},{n_max}]")
        if not (0.0 <= edge_density <= 1.0):
            raise ValueError(f"edge density {edge_density} outside [0,1]")
        if not (0.0 <= drhw_fraction <= 1.0):
            raise ValueError(f"DRHW fraction {drhw_fraction} outside [0,1]")
        # No path holds more than n_max subtasks, so no path time overflows.
        if not (0 <= exec_low <= exec_high
                and exec_high > 0
                and math.isfinite(n_max * exec_high)):
            raise ValueError(f"bad exec range [{exec_low},{exec_high}]")
        if slots < 1:
            raise ValueError("need at least one slot")
        if scenarios < 1:
            raise ValueError("need at least one scenario")
        self._set(n_min, n_max, exec_low, exec_high, edge_density,
                  drhw_fraction, slots, scenarios)


def _list_placement(n, execs, targets, edges, slots):
    """Weight-priority list placement onto the virtual PEs.

    Ready subtasks are placed greatest weight first: a DRHW subtask onto
    the earliest-free virtual tile, an ISP subtask onto the one ISP,
    "ISP0".  This yields the slot assignment and the per-PE orders of the
    initial schedule.
    """
    idx = make_scenario("", (Subtask(i, execs[i]) for i in range(1, n + 1)),
                        edges, {}).index
    weights = idx.weights
    drhw_pes = [f"S{i}" for i in range(slots)]
    free = {pe: 0.0 for pe in drhw_pes + ["ISP0"]}
    order: dict[str, list[int]] = {pe: [] for pe in free}
    end = {}
    slot_of = {}
    for sid in ready_order(idx.preds, lambda i: -weights[i]):
        pe = (min(drhw_pes, key=lambda p: (free[p], p))
              if targets[sid] == DRHW else "ISP0")
        start = max([free[pe]] + [end[p] for p in idx.preds[sid]])
        end[sid] = start + execs[sid]
        free[pe] = end[sid]
        order[pe].append(sid)
        slot_of[sid] = pe
    return slot_of, {pe: seq for pe, seq in order.items() if seq}


def gen_task(params: GenParams, seed: int, task_id: str = "t0") -> Task:
    """Random layered DAG task; every generated scenario validates."""
    n = Rng(seed, 0).integers(params.n_min, params.n_max + 1)
    scenarios = []
    for k in range(params.scenarios):
        rng = Rng(seed, 1, k)
        execs = {i: rng.uniform(params.exec_low, params.exec_high)
                 for i in range(1, n + 1)}
        targets = {i: (DRHW if rng.random() < params.drhw_fraction else ISP)
                   for i in range(1, n + 1)}
        edges = [(u, v) for v in range(2, n + 1) for u in range(1, v)
                 if rng.random() < params.edge_density]
        slot_of, order = _list_placement(n, execs, targets, edges,
                                         params.slots)
        subtasks = [Subtask(i, execs[i], targets[i], slot_of[i])
                    for i in range(1, n + 1)]
        scenarios.append(make_scenario(f"v{k}", subtasks, edges, order))
    return Task(task_id, tuple(scenarios))


def gen_workload(params: GenParams, n_tasks: int, seed: int) -> Workload:
    if n_tasks < 1:
        raise ValueError(f"need at least one task, got {n_tasks}")
    tasks = tuple(gen_task(params, seed + 1000 * i, f"t{i}")
                  for i in range(n_tasks))
    return Workload(tasks)


# ---------------------------------------------------------------------------
# Preset: four multimedia-style tasks
#
# Subtask counts (6, 4, 8, 5) and ideal execution times (94, 81, 57, 33) ms
# match the published aggregates; the graph shapes are hand-calibrated so
# the all-loaded, no-prefetch overhead lands near (+17, +20, +35, +56)% at a
# latency of 4 ms with enough tiles.  The MPEG-like task has three scenarios
# (B/P/I frame variants).
# ---------------------------------------------------------------------------

def _chain_scenario(sid, execs, slots, extra_subtasks=(), extra_edges=()):
    n = len(execs)
    subtasks = [Subtask(i + 1, execs[i], DRHW, slots[i]) for i in range(n)]
    edges = [(i, i + 1) for i in range(1, n)]
    subtasks += list(extra_subtasks)
    edges += list(extra_edges)
    order: dict[str, list[int]] = {}
    for s in subtasks:
        order.setdefault(s.slot, []).append(s.id)
    return make_scenario(sid, subtasks, edges, order)


def preset_table1(seed: int = 0) -> Workload:
    """Four tasks with Table-1-like aggregate statistics (fixed graphs)."""
    # Pattern-recognition-like: 4-stage chain (94 ms critical path) plus a
    # short parallel branch whose loads hide in the slack.
    pattern = Task("pattern_rec", (
        _chain_scenario(
            "main", (24.0, 23.0, 23.0, 24.0), ("A", "B", "A", "B"),
            extra_subtasks=(Subtask(5, 7.0, DRHW, "C"), Subtask(6, 7.0, DRHW, "D")),
            extra_edges=((1, 5), (5, 6), (6, 4))),
    ))
    # Sequential JPEG-decoder-like: plain 4-chain, 81 ms.
    jpeg = Task("jpeg_dec", (
        _chain_scenario("main", (21.0, 20.0, 20.0, 20.0), ("A", "B", "A", "B")),
    ))
    # Parallel JPEG-like: 5-stage chain (57 ms) with a 3-node side branch.
    pjpeg = Task("parallel_jpeg", (
        _chain_scenario(
            "main", (12.0, 11.0, 11.0, 11.0, 12.0), ("A", "B", "A", "B", "A"),
            extra_subtasks=(Subtask(6, 6.0, DRHW, "C"), Subtask(7, 6.0, DRHW, "D"),
                            Subtask(8, 6.0, DRHW, "C")),
            extra_edges=((1, 6), (1, 7), (6, 8), (7, 8), (8, 5))),
    ))
    # MPEG-encoder-like: 5-chain, 33 ms, one scenario per frame type.
    mpeg = Task("mpeg_enc", (
        _chain_scenario("I", (8.0, 7.0, 6.0, 6.0, 6.0), ("A", "B", "A", "B", "A")),
        _chain_scenario("P", (7.0, 7.0, 7.0, 6.0, 6.0), ("A", "B", "A", "B", "A")),
        _chain_scenario("B", (6.0, 7.0, 7.0, 7.0, 6.0), ("A", "B", "A", "B", "A")),
    ))
    return Workload((pattern, jpeg, pjpeg, mpeg))


# ---------------------------------------------------------------------------
# Preset: highly dynamic 3D-rendering-style application
#
# 6 tasks, 10 subtasks in total, 40 scenarios (task "t4" has ten, task "t5"
# four), 20 feasible inter-task combinations; exec times are drawn per
# scenario and rescaled so the global mean is exactly 5.7 ms within the
# published [0.2, 30] ms range.
# ---------------------------------------------------------------------------

_POCKETGL_SHAPE = (          # (task id, subtask count, scenario count)
    ("t1", 2, 7), ("t2", 2, 7), ("t3", 1, 6),
    ("t4", 2, 10), ("t5", 1, 4), ("t6", 2, 6),
)
_POCKETGL_MEAN = 5.7


def preset_pocketgl(seed: int = 0) -> Workload:
    rng = Rng(seed, 7)
    draws: list[list[float]] = []
    for _, count, scenarios in _POCKETGL_SHAPE:
        for _ in range(scenarios):
            draws.append([rng.uniform(3.2, 8.2) for _ in range(count)])
    flat = [x for d in draws for x in d]
    scale = _POCKETGL_MEAN * len(flat) / sum(flat)
    draws = [[x * scale for x in d] for d in draws]

    tasks = []
    k = 0
    for tid, count, scn_count in _POCKETGL_SHAPE:
        scenarios = []
        for s in range(scn_count):
            execs = draws[k]
            k += 1
            if count == 1:
                subtasks = [Subtask(1, execs[0], DRHW, "A")]
                edges: list[tuple[int, int]] = []
                order = {"A": [1]}
            else:
                subtasks = [Subtask(1, execs[0], DRHW, "A"),
                            Subtask(2, execs[1], DRHW, "B")]
                edges = [(1, 2)]
                order = {"A": [1], "B": [2]}
            scenarios.append(make_scenario(f"s{s}", subtasks, edges, order))
        tasks.append(Task(tid, tuple(scenarios)))

    # 20 distinct feasible inter-task combinations.
    combo_rng = Rng(seed, 8)
    combos: list[tuple[tuple[str, str], ...]] = []
    seen = set()
    while len(combos) < 20:
        combo = tuple((t.id, t.scenarios[combo_rng.integers(len(t.scenarios))].id)
                      for t in tasks)
        if combo not in seen:
            seen.add(combo)
            combos.append(combo)
    return Workload(tuple(tasks), tuple(combos))


PRESETS = {
    "table1": preset_table1,
    "pocketgl": preset_pocketgl,
}
