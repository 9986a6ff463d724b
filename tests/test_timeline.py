"""An independent check of simulated timelines against the platform's rules.

``check_timeline`` knows nothing of how the run-time manager decides.  It
takes the loads and execs of each instance, in absolute time, as a
run-time mode reports them or as a baseline's trace rows give them, and
checks them against the physical rules of the modelled platform:

- the reconfiguration controller runs one load at a time;
- each DRHW exec finds its own configuration on the tile its slot is bound
  to when it starts, loads landing at their end;
- no load runs on a tile while an exec runs on it;
- precedence edges and the per-PE order of the initial schedule hold;
- every subtask runs once, on its PE, and none starts before its task.
"""

import bisect
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhwsim import sim
from drhwsim.design_time import build_store
from drhwsim.model import DRHW, scenario_map
from drhwsim.runtime import (DESIGN_TIME_PREFETCH, HYBRID, MODES,
                             NO_PREFETCH, ResidencyMap, execute_task_instance)
from drhwsim.sim import SimConfig, read_trace, run_simulation, write_trace
from drhwsim.workloads import (GenParams, gen_workload, preset_pocketgl,
                               preset_table1)

R = 4.0
TOL = 1e-9


def instance_events(scenario, res):
    """One instance as (scenario, task, start, loads, execs): its loads as
    (start, end, tile, config) and execs as (start, end, subtask, pe,
    tile), in absolute time; an ISP exec's tile is None, and so is a DRHW
    exec's whose slot has no tile."""
    task, dt, d = res.task_id, res.offset, res.decision
    loads = [(s, e, tile, (task, sid)) for sid, tile, s, e in d.init_loads]
    loads += [(s + dt, e + dt, d.bindings[slot], (task, sid))
              for sid, slot, s, e in res.relative.loads]
    loads += [(s, e, tile, (t, sid)) for t, sid, tile, s, e in d.prefetched]
    drhw = {sub.id for sub in scenario.graph.subtasks if sub.target == DRHW}
    execs = [(s + dt, e + dt, sid, pe,
              d.bindings.get(pe) if sid in drhw else None)
             for sid, pe, s, e in res.relative.execs]
    return scenario, task, res.start, loads, execs


def trace_instances(scenarios, rows):
    """The instances of a trace's rows, as ``instance_events`` gives them,
    by (tiles, mode) and grouped within each by (iteration, task,
    scenario); for the rows of baselines, which hold only execs and loads.
    A load row gives (start, end, tile, config); a DRHW exec runs on tile
    ``bind_order.index(pe)``.  An instance starts where the one before it
    ended, at its latest row end; the first at 0."""
    by_run = {}
    for row in rows:
        head = (row["iteration"], row["task"], row["scenario"])
        by_run.setdefault((row["tiles"], row["mode"]), {}).setdefault(
            head, []).append(row)
    runs = {}
    for run, by_head in by_run.items():
        instances, start = runs.setdefault(run, []), 0.0
        for (_, task, sid), rows in by_head.items():
            scenario = scenarios[(task, sid)]
            tile_of = {pe: i for i, pe in enumerate(scenario.index.bind_order)}
            drhw = {sub.id for sub in scenario.graph.subtasks
                    if sub.target == DRHW}
            loads, execs = [], []
            for row in rows:
                sub, s, e = row["subtask"], row["start"], row["end"]
                if row["kind"] == "load":
                    loads.append((s, e, int(row["resource"][len("tile"):]),
                                  (task, sub)))
                else:
                    assert row["kind"] == "exec", row["kind"]
                    execs.append((s, e, sub, row["resource"],
                                  tile_of.get(row["resource"])
                                  if sub in drhw else None))
            instances.append((scenario, task, start, loads, execs))
            start = max(row["end"] for row in rows)
    return runs


def _check_instance(scenario, task, start, execs):
    """Messages for the rules that hold within one instance."""
    where = f"{task}/{scenario.id} at {start}"
    drhw = {sub.id for sub in scenario.graph.subtasks if sub.target == DRHW}
    problems = []
    times, pe_of = {}, {}
    for s, e, sid, pe, tile in execs:
        if sid in times:
            problems.append(f"{where}: subtask {sid} runs twice")
        times[sid], pe_of[sid] = (s, e), pe
        if sid in drhw and tile is None:
            problems.append(f"{where}: slot {pe} of subtask {sid} has no tile")
        if s < start - TOL:
            problems.append(f"{where}: subtask {sid} starts at {s}, before "
                            "its task")
    for sub in scenario.graph.subtasks:
        if sub.id not in times:
            problems.append(f"{where}: subtask {sub.id} does not run")
    for u, v in scenario.graph.edges:
        if u in times and v in times and times[v][0] < times[u][1] - TOL:
            problems.append(f"{where}: edge ({u},{v}): {v} starts at "
                            f"{times[v][0]}, before {u} ends at {times[u][1]}")
    for pe, seq in scenario.schedule:
        for sid in seq:
            if sid in pe_of and pe_of[sid] != pe:
                problems.append(f"{where}: subtask {sid} runs on "
                                f"{pe_of[sid]}, scheduled on {pe}")
        for a, b in zip(seq, seq[1:]):
            if a in times and b in times and times[b][0] < times[a][1] - TOL:
                problems.append(f"{where}: per-PE order on {pe}: {b} starts "
                                f"at {times[b][0]}, before {a} ends at "
                                f"{times[a][1]}")
    return problems


def check_timeline(instances):
    """One message per broken rule in ``instances``: those of one run, in
    execution order, as ``instance_events`` gives them, on tiles that
    start empty."""
    problems, loads, execs = [], [], []
    for scenario, task, start, inst_loads, inst_execs in instances:
        problems += _check_instance(scenario, task, start, inst_execs)
        loads += inst_loads
        execs += [(s, e, tile, (task, sid))
                  for s, e, sid, _, tile in inst_execs if tile is not None]

    busy_until = float("-inf")
    for s, e, tile, config in sorted(loads):
        if s < busy_until - TOL:
            problems.append(f"load of {config} on tile {tile} at {s}: the "
                            f"controller is busy until {busy_until}")
        busy_until = max(busy_until, e)

    # A load lands at its end (within the tolerance), before an exec that
    # starts then.
    events = sorted([(e - TOL, 0, tile, config) for _, e, tile, config in loads]
                    + [(s, 1, tile, config) for s, _, tile, config in execs])
    held = {}
    for t, is_exec, tile, config in events:
        if not is_exec:
            held[tile] = config
        elif held.get(tile) != config:
            problems.append(f"{config} exec at {t} on tile {tile} finds "
                            f"{held.get(tile)}")

    by_tile = {}
    for s, e, tile, config in sorted(execs):
        by_tile.setdefault(tile, []).append((s, e, config))
    for s, e, tile, config in loads:
        runs_on = by_tile.get(tile, [])
        first_after = bisect.bisect_left(runs_on, (e - TOL,))
        for xs, xe, xconfig in runs_on[:first_after]:
            if xe > s + TOL:
                problems.append(f"load of {config} on tile {tile} over "
                                f"[{s}, {e}] while {xconfig} runs over "
                                f"[{xs}, {xe}]")
    return problems


def replays(workload, store, config):
    """Run the simulation and return {(tiles, mode): instances} in
    execution order, as ``instance_events`` gives them.  A run-time mode's
    come from its task instances; a baseline runs none, so its come from
    the rows of the run's trace."""
    runs = {}

    def recording(scenario, entry, residency, mode, *args, **kwargs):
        res = execute_task_instance(scenario, entry, residency, mode, *args,
                                    **kwargs)
        runs.setdefault((len(residency), mode), []).append(
            instance_events(scenario, res))
        return res

    baselines = [mode for mode in config.modes
                 if mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH)]
    with mock.patch.object(sim, "execute_task_instance", recording):
        _, trace = run_simulation(workload, store, config._replace(
            trace=bool(baselines)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(trace, path)
        rows = [row for row in read_trace(path) if row["mode"] in baselines]
    runs.update(trace_instances(scenario_map(workload), rows))
    return runs


# ---------------------------------------------------------------------------
# The checker itself, on the hand timeline of the four-subtask chain
# ---------------------------------------------------------------------------

def test_check_timeline_accepts_the_chain(chain4, chain4_entry):
    # Hybrid, cold: init load of 1 on tile 0 at [0, 4], then the stored
    # schedule from 4 (loads of 2, 3, 4 at [4, 8], [14, 18], [24, 28]).
    rm = ResidencyMap(2)
    a = execute_task_instance(chain4, chain4_entry, rm, HYBRID, R,
                              lookahead=chain4_entry)
    b = execute_task_instance(chain4, chain4_entry, rm, HYBRID, R, t0=a.end,
                              ctrl_free=a.ctrl_free)
    assert check_timeline([instance_events(chain4, a),
                           instance_events(chain4, b)]) == []


def _with_prefetch(load):
    def edit(res):
        return res._replace(decision=res.decision._replace(prefetched=(load,)))
    return edit


def _without(kind, sid):
    def edit(res):
        rel = res.relative
        items = tuple(x for x in getattr(rel, kind) if x[0] != sid)
        return res._replace(relative=rel._replace(**{kind: items}))
    return edit


def _exec_moved(sid, start):
    def edit(res):
        rel = res.relative
        execs = tuple((s, pe, start, start + e - b) if s == sid else (s, pe, b, e)
                      for s, pe, b, e in rel.execs)
        return res._replace(relative=rel._replace(execs=execs))
    return edit


# (edit of the cold Hybrid chain run, expected messages)
BROKEN = {
    "controller": (_with_prefetch(("x", 1, 2, 5.0, 9.0)),
                   ["load of ('x', 1) on tile 2 at 5.0: the controller is "
                    "busy until 8.0"]),
    "residency": (_without("loads", 2),
                  ["('chain4', 2) exec at 14.0 on tile 1 finds None"]),
    "load-under-exec": (_with_prefetch(("x", 1, 0, 30.0, 34.0)),
                        ["load of ('x', 1) on tile 0 over [30.0, 34.0] while "
                         "('chain4', 3) runs over [24.0, 34.0]"]),
    "edge": (_exec_moved(3, 18.0),
             ["chain4/s0 at 0.0: edge (2,3): 3 starts at 22.0, before 2 "
              "ends at 24.0"]),
    "before-task": (lambda res: res._replace(start=5.0),
                    ["chain4/s0 at 5.0: subtask 1 starts at 4.0, before "
                     "its task"]),
    "missing": (_without("execs", 4),
                ["chain4/s0 at 0.0: subtask 4 does not run"]),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_check_timeline_reports_each_broken_rule(chain4, chain4_entry, case):
    edit, expected = BROKEN[case]
    res = execute_task_instance(chain4, chain4_entry, ResidencyMap(2), HYBRID, R)
    assert check_timeline([instance_events(chain4, res)]) == []
    assert check_timeline([instance_events(chain4, edit(res))]) == expected


def test_check_timeline_reports_per_pe_order(chain4, chain4_entry):
    # 3 moved to start at 12 runs before 1, the previous subtask on slot A,
    # ends; its tile still holds 1, and the edge (2,3) breaks too.
    res = execute_task_instance(chain4, chain4_entry, ResidencyMap(2), HYBRID, R)
    problems = check_timeline([instance_events(chain4,
                                               _exec_moved(3, 8.0)(res))])
    assert ("chain4/s0 at 0.0: per-PE order on A: 3 starts at 12.0, before "
            "1 ends at 14.0") in problems
    assert "('chain4', 3) exec at 12.0 on tile 0 finds ('chain4', 1)" in problems


# ---------------------------------------------------------------------------
# Simulated timelines
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def preset_stores():
    return {name: (w, build_store(w, R)) for name, w in
            (("table1", preset_table1(0)), ("pocketgl", preset_pocketgl(0)))}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("preset", ["table1", "pocketgl"])
def test_preset_timelines_keep_the_platform_rules(preset_stores, preset, mode):
    w, store = preset_stores[preset]
    runs = replays(w, store, SimConfig(tiles=(4, 5, 6, 7, 8),
                                       iterations=200, seed=1, modes=(mode,)))
    assert sorted(runs) == [(tiles, mode) for tiles in range(4, 9)]
    for key, pairs in sorted(runs.items()):
        assert check_timeline(pairs) == [], key


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_max=st.integers(3, 10),
       slots=st.integers(1, 4), scenarios=st.integers(1, 3),
       drhw_fraction=st.sampled_from([0.5, 1.0]))
def test_random_timelines_keep_the_platform_rules(seed, n_max, slots,
                                                  scenarios, drhw_fraction):
    # Every tile count from the most slots any entry binds up to 8.
    w = gen_workload(GenParams(n_min=3, n_max=n_max, slots=slots,
                               scenarios=scenarios,
                               drhw_fraction=drhw_fraction), 3, seed)
    store = build_store(w, R)
    need = max(1, max(len(sc.index.bind_order)
                      for sc in scenario_map(w).values()))
    modes = tuple(m for m in MODES if m != HYBRID)
    runs = replays(w, store, SimConfig(tiles=tuple(range(need, 9)),
                                       iterations=8, seed=seed, modes=modes))
    for key, pairs in sorted(runs.items()):
        assert check_timeline(pairs) == [], key


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP open item 2: Hybrid loads every critical subtask in its "
    "initialization phase, and a critical subtask that is not first on its "
    "slot overwrites that slot's earlier configuration"))
def test_random_hybrid_timelines_keep_the_platform_rules():
    w = gen_workload(GenParams(n_min=3, n_max=8, scenarios=3), 5, 3)
    store = build_store(w, R)
    runs = replays(w, store, SimConfig(tiles=(4, 5, 6, 7, 8),
                                       iterations=100, seed=1,
                                       modes=(HYBRID,)))
    for key, pairs in sorted(runs.items()):
        assert check_timeline(pairs) == [], key
