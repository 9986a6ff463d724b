import csv
import hashlib
import io
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhwsim import sim
from drhwsim.design_time import build_store
from drhwsim.errors import (CapacityError, DrhwError, LatencyMismatch,
                            StoreFormatError)
from drhwsim.model import Task, Workload, scenario_map
from drhwsim.engine import TimedSchedule
from drhwsim.runtime import (DESIGN_TIME_PREFETCH, MODES, NO_PREFETCH,
                             InstanceResult, RuntimeDecision)
from drhwsim.sim import (Metrics, SimConfig, hidden_pct, metrics_to_dict,
                         overhead_pct, read_trace, run_simulation,
                         select_iteration, write_trace)
from drhwsim.workloads import PRESETS, GenParams, gen_workload, preset_table1

R = 4.0


def test_sim_config_validation():
    with pytest.raises(DrhwError, match="tiles"):
        SimConfig(tiles=(0,))
    with pytest.raises(DrhwError, match="iterations"):
        SimConfig(tiles=(2,), iterations=0)
    with pytest.raises(DrhwError, match="unknown modes"):
        SimConfig(tiles=(2,), modes=("Magic",))
    with pytest.raises(DrhwError, match="seed must be >= 0, got -1"):
        SimConfig(tiles=(2,), seed=-1)


def test_overhead_and_hidden_math():
    assert overhead_pct(100.0, 140.0) == 40.0
    assert overhead_pct(100.0, 100.0) == 0.0
    assert hidden_pct(40.0, 4.0) == 90.0
    with pytest.raises(DrhwError):
        overhead_pct(0.0, 1.0)
    with pytest.raises(DrhwError):
        overhead_pct(100.0, 90.0)
    with pytest.raises(DrhwError):
        hidden_pct(0.0, 1.0)


def test_metrics_properties():
    m = Metrics(mode="x", ideal_total=100.0, actual_total=130.0,
                drhw_instances=10, reused_instances=4)
    assert m.overhead_pct == 30.0
    assert m.reuse_pct == 40.0
    d = metrics_to_dict(m, baseline=Metrics(mode="b", ideal_total=100.0,
                                            actual_total=160.0))
    assert d["hidden_pct_vs_noprefetch"] == 50.0
    assert set(d) == {"mode", "ideal_total_ms", "actual_total_ms",
                      "overhead_pct", "reuse_pct", "loads_issued",
                      "loads_cancelled", "drhw_instances",
                      "reused_instances", "hidden_pct_vs_noprefetch"}


def test_select_iteration_deterministic_and_feasible():
    w = preset_table1(0)
    allowed = {t.id: {sc.id for sc in t.scenarios} for t in w.tasks}
    for i in range(50):
        seq = select_iteration(w, seed=3, iteration=i)
        assert seq == select_iteration(w, seed=3, iteration=i)
        assert 1 <= len(seq) <= len(w.tasks)
        tids = [tid for tid, _ in seq]
        assert len(set(tids)) == len(tids)
        for tid, sid in seq:
            assert sid in allowed[tid]
        if w.feasible_combinations is not None:
            combo = {tid: sid for tid, sid in seq}
            assert any(all(combo.get(t) in (s, None) or combo[t] == s
                           for t, s in c if t in combo)
                       for c in w.feasible_combinations)


def test_select_iteration_all_tasks():
    w = preset_table1(0)
    for i in range(10):
        seq = select_iteration(w, seed=1, iteration=i, all_tasks=True)
        assert sorted(tid for tid, _ in seq) == sorted(t.id for t in w.tasks)


def test_select_iteration_varies_with_seed():
    w = preset_table1(0)
    a = [select_iteration(w, 1, i) for i in range(20)]
    b = [select_iteration(w, 2, i) for i in range(20)]
    assert a != b


def test_run_simulation_chain(chain4_workload, chain4_store):
    config = SimConfig(tiles=(2,), iterations=5, seed=0)
    results, trace = run_simulation(chain4_workload, chain4_store, config)
    results = results[2]
    assert set(results) == set(config.modes)
    # One task, five back-to-back instances: the established hand timeline
    # says the hybrid pays the 4 ms cold start once and nothing after.
    hyb = results["Hybrid"]
    assert hyb.ideal_total == 200.0
    assert hyb.actual_total == 204.0
    base = results["NoPrefetch"]
    assert base.actual_total == 5 * 56.0
    assert trace == []


def test_run_simulation_same_seed_identical(chain4_workload, chain4_store):
    config = SimConfig(tiles=(2,), iterations=20, seed=9, trace=True)
    r1, t1 = run_simulation(chain4_workload, chain4_store, config)
    r2, t2 = run_simulation(chain4_workload, chain4_store, config)
    assert t1 == t2
    for mode in config.modes:
        assert metrics_to_dict(r1[2][mode]) == metrics_to_dict(r2[2][mode])


def test_run_simulation_missing_entry(chain4_workload, chain4_store):
    w = Workload(chain4_workload.tasks + (Task("extra", chain4_workload.tasks[0].scenarios),))
    config = SimConfig(tiles=(2,), iterations=1)
    with pytest.raises(StoreFormatError, match="no entry for task extra") as exc:
        run_simulation(w, chain4_store, config)
    assert not isinstance(exc.value, LatencyMismatch)


def _csv_lines(rows):
    """Each row as ``csv.writer`` writes it under a LF line terminator."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        lines.append(buf.getvalue())
    return lines


def _rows_from_absolute(iteration, tid, sid, res):
    """One instance's trace rows built from its execs shifted by its offset
    and its load events, each sorted by (start, subtask): the reference the
    trace emitter, which reads the relative schedule, must match."""
    decision, dt = res.decision, res.offset
    init_ids = {l[0] for l in decision.init_loads}
    by_start = lambda ev: (ev[2], ev[0])  # noqa: E731
    execs = [(sub, pe, s + dt, e + dt) for sub, pe, s, e in res.relative.execs]
    rows = [(iteration, tid, sid, pe, "exec", sub, s, e)
            for sub, pe, s, e in sorted(execs, key=by_start)]
    rows += [(iteration, tid, sid, f"tile{tile}",
              "init_load" if sub in init_ids else "load", sub, s, e)
             for sub, tile, s, e in sorted(res.load_events, key=by_start)]
    rows += [(iteration, task, "-", f"tile{tile}", "prefetch_load", sub, s, e)
             for task, sub, tile, s, e in decision.prefetched]
    rows += [(iteration, tid, sid, slot, "cancel", sub, s + dt, e + dt)
             for sub, slot, s, e in decision.cancelled_loads]
    return rows


def _instance(tid, sid, offset=0.0, execs=(), loads=(), bindings=(),
              init_loads=(), prefetched=(), cancelled_loads=()):
    """An InstanceResult holding exactly the given relative schedule and
    decision, for feeding the trace emitter ids no workload would use."""
    makespan = max((e for *_, e in execs), default=0.0)
    decision = RuntimeDecision(
        reused={}, cancelled=frozenset(sub for sub, *_ in cancelled_loads),
        init_loads=tuple(init_loads), bindings=dict(bindings),
        prefetched=tuple(prefetched), cancelled_loads=tuple(cancelled_loads))
    return InstanceResult(
        task_id=tid, scenario_id=sid, start=0.0, end=offset + makespan,
        relative=TimedSchedule(makespan, tuple(execs), tuple(loads)),
        offset=offset, decision=decision, ctrl_free=0.0)


def test_trace_contents(chain4_workload, chain4_store):
    config = SimConfig(tiles=(2,), iterations=2, seed=0,
                       modes=("Hybrid",), trace=True)
    _, trace = run_simulation(chain4_workload, chain4_store, config)
    assert all(type(line) is str and line.endswith("\n") for line in trace)
    rows = list(csv.reader(io.StringIO("".join(trace))))
    assert len(rows) == len(trace)
    kinds = {row[4] for row in rows}
    assert "exec" in kinds and "init_load" in kinds and "load" in kinds
    assert "prefetch_load" in kinds        # the lookahead spans iterations
    execs = [r for r in rows if r[4] == "exec"]
    assert len(execs) == 2 * 4


def test_trace_file_roundtrip(tmp_path, chain4_workload, chain4_store):
    config = SimConfig(tiles=(2,), iterations=3, seed=0,
                       modes=("Hybrid",), trace=True)
    emit, expected = sim._emit_trace, []

    def recording(lines, trace, heads, res):
        expected.extend(_rows_from_absolute(int(heads[1][:-1]), res.task_id,
                                            res.scenario_id, res))
        emit(lines, trace, heads, res)

    with mock.patch.object(sim, "_emit_trace", recording):
        _, trace = run_simulation(chain4_workload, chain4_store, config)
    path = str(tmp_path / "trace.csv")
    write_trace(trace, path)
    rows = read_trace(path)
    assert len(rows) == len(trace) == len(expected)
    assert rows[0]["kind"] == expected[0][4]
    assert rows[0]["start"] == expected[0][6]
    # Full float precision survives the text round trip.
    assert all(r["end"] == t[7] for r, t in zip(rows, expected))
    assert [tuple(r.values()) for r in rows] == expected


def test_trace_lines_header(tmp_path):
    path = tmp_path / "t.csv"
    write_trace([], str(path))
    assert path.read_bytes() == (b"iteration,task,scenario,resource,kind,"
                                 b"subtask,start,end\n")


def test_trace_quotes_ids_with_commas(tmp_path):
    res = _instance("a,b", 's"0', execs=[(3, "x\ny", 0.1, 2.5)],
                    loads=[(4, 'p,"q"', 0.0, 0.1)], bindings={'p,"q"': 1},
                    prefetched=[("c\rd", 6, 2, 2.0, 6.0)],
                    cancelled_loads=[(5, 'p,"q"', 0.0, 4.0)])
    lines, trace = [], sim._TraceState()
    sim._emit_trace(lines, trace, trace.heads(0, "a,b", 's"0'), res)
    assert lines == ['0,"a,b","s""0","x\ny",exec,3,0.1,2.5\n',
                     '0,"a,b","s""0",tile1,load,4,0.0,0.1\n',
                     '0,"c\rd",-,tile2,prefetch_load,6,2.0,6.0\n',
                     '0,"a,b","s""0","p,""q""",cancel,5,0.0,4.0\n']
    path = str(tmp_path / "t.csv")
    write_trace(lines, path)
    assert [tuple(r.values()) for r in read_trace(path)] == [
        (0, "a,b", 's"0', "x\ny", "exec", 3, 0.1, 2.5),
        (0, "a,b", 's"0', "tile1", "load", 4, 0.0, 0.1),
        (0, "c\rd", "-", "tile2", "prefetch_load", 6, 2.0, 6.0),
        (0, "a,b", 's"0', 'p,"q"', "cancel", 5, 0.0, 4.0)]


HEADER = "iteration,task,scenario,resource,kind,subtask,start,end\n"


def test_read_trace_rejects_other_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DrhwError, match="not a trace file"):
        read_trace(str(path))
    for row, message in (("0,t,s,A,exec,x,0.0,1.0", "malformed row"),
                         ("0,t,s,A,exec,1,0.0,1.0,junk", "9 fields, expected 8"),
                         ("0,t,s,A,exec,1,0.0", "7 fields, expected 8"),
                         ("0,t,s,A,exec,1,2.0,1.0", "end 1.0 before start 2.0"),
                         ("0,t,s,A,exec,1," + "9" * 200_000 + ",1.0",
                          "field larger than field limit")):
        path.write_text(HEADER + "0,t,s,A,exec,1,0.0,1.0\n" + row + "\n")
        with pytest.raises(DrhwError, match=f"x.csv: line 3: {message}"):
            read_trace(str(path))


# Text fields that need quoting (comma, quote, CR, LF), empty ones and
# non-ASCII ones.  A trace is UTF-8, so lone surrogates cannot be written;
# Python 3.10's csv reader refuses NUL whatever the writer does, so NUL is
# left out there.
TEXT = st.text(st.sampled_from(',"\r\n ab') | st.characters(
    exclude_categories=("Cs",),
    exclude_characters="\x00" if sys.version_info < (3, 11) else ""),
               max_size=6)
TIME = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 1e-300, 1e300, -1e300])
SUBTASK = st.integers(-10 ** 6, 10 ** 6)
TILE = st.integers(0, 7)
INTERVAL = st.tuples(TIME, TIME).map(sorted)


@st.composite
def hostile_instances(draw):
    """(iteration, task, scenario, instance) with hostile text in every id
    the trace carries: task, scenario, PE and slot.  Subtasks are distinct
    among the execs and among the loads, as in a schedule, so the
    (start, subtask) order is total."""
    exec_subs = draw(st.lists(SUBTASK, unique=True, max_size=4))
    load_subs = draw(st.lists(SUBTASK, unique=True, max_size=4))
    n_init = draw(st.integers(0, len(load_subs)))
    slots = {sub: draw(TEXT) for sub in load_subs[n_init:]}
    res = _instance(
        draw(TEXT), draw(TEXT),
        offset=draw(st.just(0.0) | st.floats(-1e6, 1e6)),
        execs=[(sub, draw(TEXT), *draw(INTERVAL)) for sub in exec_subs],
        loads=[(sub, slot, *draw(INTERVAL)) for sub, slot in slots.items()],
        bindings={slot: draw(TILE) for slot in slots.values()},
        init_loads=[(sub, draw(TILE), *draw(INTERVAL))
                    for sub in load_subs[:n_init]],
        prefetched=draw(st.lists(st.builds(
            lambda task, sub, tile, se: (task, sub, tile, *se),
            TEXT, SUBTASK, TILE, INTERVAL), max_size=2)),
        cancelled_loads=draw(st.lists(st.builds(
            lambda sub, slot, se: (sub, slot, *se),
            SUBTASK, TEXT, INTERVAL), max_size=2)))
    return draw(st.integers(0, 10 ** 6)), res.task_id, res.scenario_id, res


@settings(max_examples=100, deadline=None)
@given(case=hostile_instances())
def test_write_trace_roundtrip_and_csv_bytes(tmp_path_factory, case):
    # Hostile ids survive the emitter, write_trace and read_trace; with no
    # CR in any text field the file is what csv.writer writes, byte for
    # byte.
    iteration, tid, sid, res = case
    lines, trace = [], sim._TraceState()
    sim._emit_trace(lines, trace, trace.heads(iteration, tid, sid), res)
    assert all(type(line) is str and line.endswith("\n") for line in lines)
    rows = _rows_from_absolute(iteration, tid, sid, res)
    path = str(tmp_path_factory.getbasetemp() / "roundtrip.csv")
    write_trace(lines, path)
    assert [tuple(r.values()) for r in read_trace(path)] == rows
    if not any("\r" in text for row in rows for text in row[1:5]):
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(sim.TRACE_FIELDS)
        writer.writerows(rows)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == expected.getvalue()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), latency=st.sampled_from([0.0, R]))
def test_trace_rows_match_the_absolute_schedule(seed, latency):
    # Random workloads, every mode, several tile counts: each instance's
    # lines equal its rows built from its absolute schedule and written by
    # csv.writer, bit for bit.  At R = 0 loads can start together, so only
    # the (start, subtask) sort orders them.  The two baselines emit their
    # instances first and once, and their lines serve every tile count.
    w = gen_workload(GenParams(n_min=3, n_max=8, scenarios=2), 3, seed)
    store = build_store(w, latency)
    emit, checked = sim._emit_trace, []

    def checking(lines, trace, heads, res):
        out = []
        emit(out, trace, heads, res)
        assert out == _csv_lines(_rows_from_absolute(
            int(heads[1][:-1]), res.task_id, res.scenario_id, res))
        checked.append(len(out))
        lines.extend(out)

    config = SimConfig(tiles=(3, 4, 6), iterations=6,
                       seed=seed, trace=True)
    with mock.patch.object(sim, "_emit_trace", checking):
        _, trace = run_simulation(w, store, config)
    instances = sum(len(select_iteration(w, seed, i))
                    for i in range(config.iterations))
    assert len(checked) == instances * (len(config.tiles) * 3 + 2)
    baselines = sum(checked[:2 * instances])
    assert baselines * len(config.tiles) + sum(
        checked[2 * instances:]) == len(trace)


# One trace state for every example of the property below: its schedules
# are dropped after each example, so a template or exec block kept under
# the id of a dead schedule would serve a later schedule at that id.
_SHARED_TRACE = sim._TraceState()
# Offsets at which starts a few ulps apart round together, and signed zeros.
OFFSET = st.sampled_from([0.0, -0.0, 1.0, 2.0 ** 52, 1e15, -1e15]) | st.floats(
    -1e15, 1e15)


@st.composite
def near_tied_instances(draw):
    """(execs, loads, [(offset, init loads, bindings)]) for one plan step.

    Starts lie a few ulps from a common base, with subtasks in random
    order, so that an offset can round two of them into one start with
    the subtasks inverted.  Each instance may hold init loads, some of
    them starting together with the first replayed load, as at R = 0,
    and binds the slots to tiles of its own, so that load text shared
    between instances at one offset meets different tiles."""
    base = draw(st.sampled_from([0.0, -0.0, 1.0, 3.0, 1e-300]) | st.floats(
        -1e6, 1e6))

    def near():
        s = base
        for _ in range(draw(st.integers(0, 3))):
            s = math.nextafter(s, math.inf)
        return s if draw(st.integers(0, 5)) else draw(st.floats(-1e6, 1e6))

    subs = draw(st.permutations(range(8)))
    n_execs = draw(st.integers(0, 4))
    n_loads = draw(st.integers(0, 3))
    execs = [(sub, draw(st.sampled_from("AB")), near(), 2e6)
             for sub in subs[:n_execs]]
    loads = [(sub, draw(st.sampled_from("AB")), near(), 2e6)
             for sub in subs[n_execs:n_execs + n_loads]]
    spare = list(subs[n_execs + n_loads:])
    instances = []
    for dt in draw(st.lists(OFFSET, min_size=1, max_size=4)):
        first = min((s + dt for _, _, s, _ in loads), default=dt)
        inits = [(sub, draw(st.integers(0, 3)), start, start)
                 for sub, start in zip(spare, draw(st.lists(
                     st.sampled_from([first, first - 4.0, 0.0]),
                     max_size=2)))]
        tiles = draw(st.permutations(range(4)))
        instances.append((dt, inits, {"A": tiles[0], "B": tiles[1]}))
    return tuple(execs), tuple(loads), instances


@settings(max_examples=300, deadline=None)
@given(case=near_tied_instances())
def test_row_templates_match_the_sorted_rows(case):
    # The template rows, the shared exec blocks and load text, and the sort
    # fallback give exactly the lines of the rows sorted afresh from absolute times, also
    # where an offset merges starts, at R = 0, and at offsets of +0.0 and
    # -0.0 on the same schedule.
    execs, loads, instances = case
    rel = TimedSchedule(2e6, execs, loads)    # dropped after the example
    for dt, inits, bindings in instances + [
            (-dt, inits, bindings) for dt, inits, bindings in instances
            if dt == 0.0]:
        res = InstanceResult(
            task_id="t", scenario_id="s", start=0.0, end=dt + rel.makespan,
            relative=rel, offset=dt,
            decision=RuntimeDecision(reused={}, cancelled=frozenset(),
                                     init_loads=tuple(inits),
                                     bindings=bindings,
                                     prefetched=()),
            ctrl_free=0.0)
        lines = []
        sim._emit_trace(lines, _SHARED_TRACE, _SHARED_TRACE.heads(0, "t", "s"),
                        res)
        assert lines == _csv_lines(_rows_from_absolute(0, "t", "s", res))


def test_traced_table1_formats_each_exec_block_once(monkeypatch):
    # The benchmark's traced table1 run: 4,400 emitted instances write
    # 68,833 lines, the three run-time modes at each of three tile counts
    # and each baseline once, its lines serving every tile count.  Only 400
    # row heads are formatted, one per plan step, and only 2,106 exec
    # blocks; every other instance repeats the plan step, schedule and
    # offset of an earlier one.  The same blocks hold the timed text of the
    # load rows, without their tiles: 11,141 texts are formatted for 31,858
    # load lines.
    states, instances, heads = [], [], []
    state_class, emit = sim._TraceState, sim._emit_trace

    def recording_state():
        state = state_class()
        step_heads = state.heads
        state.heads = lambda *step: heads.append(step) or step_heads(*step)
        states.append(state)
        return state

    def counting(lines, trace, step_heads, res):
        instances.append(res)
        emit(lines, trace, step_heads, res)

    monkeypatch.setattr(sim, "_TraceState", recording_state)
    monkeypatch.setattr(sim, "_emit_trace", counting)
    w = preset_table1(1)
    _, lines = run_simulation(w, build_store(w, R), SimConfig(
        tiles=(4, 5, 6), iterations=100, seed=1, all_tasks=True,
        trace=True))
    assert (len(lines), len(instances)) == (68_833, 4_400)
    assert len(states) == 1 and len(states[0].blocks) == 2_106
    assert len(heads) == 400
    assert sum(len(loads or ()) for _, loads in states[0].blocks.values()
               ) == 11_141
    assert sum(",load," in line for line in lines) == 31_858
    assert len(states[0].templates) == len({id(r.relative) for r in instances})


def test_list_modes_derive_each_load_order_once(monkeypatch):
    # The run-time list modes derive a load order once per (task, scenario,
    # load set) and place it for each controller start and reuse delays:
    # on the benchmark's random-analyze graphs, 23 orders (123 if derived
    # for every placement).
    from drhwsim import runtime

    w = gen_workload(GenParams(n_min=10, n_max=14), 8, 0)
    store = build_store(w, R)
    derived = []
    order = runtime.priority_order

    def recording(scenario, load_set):
        derived.append((scenario, load_set))
        return order(scenario, load_set)

    monkeypatch.setattr(runtime, "priority_order", recording)
    run_simulation(w, store, SimConfig(tiles=(4, 5, 6),
                                       iterations=30, seed=1, all_tasks=True))
    assert len(derived) == len({(id(sc), ls) for sc, ls in derived}) == 23


# perfbench's pocketgl-switch and random-analyze inputs, simulated at tiles
# 4..6, seed 1, --all-tasks, untraced and (pocketgl) traced.  Per mode: task
# instances, replacement picks (`_pick_tile` calls) and list schedules
# placed at run time.  Traced or not, the baselines are summed from their
# fixed schedules and run no instance.  Only the run-time list modes place
# schedules, the others replay the ones the store check placed.
DECISION_STEPS = {
    "pocketgl": (lambda: PRESETS["pocketgl"](1), 100, False, {
        "NoPrefetch": (0, 0, 0),
        "DesignTimePrefetch": (0, 0, 0),
        "RuntimeHeuristic": (1_800, 2_380, 86),
        "RuntimeInterTask": (1_800, 2_290, 78),
        "Hybrid": (1_800, 2_290, 0)}),
    "pocketgl-traced": (lambda: PRESETS["pocketgl"](1), 100, True, {
        "NoPrefetch": (0, 0, 0),
        "DesignTimePrefetch": (0, 0, 0),
        "RuntimeHeuristic": (1_800, 2_380, 86),
        "RuntimeInterTask": (1_800, 2_290, 78),
        "Hybrid": (1_800, 2_290, 0)}),
    "random": (lambda: gen_workload(GenParams(n_min=10, n_max=14), 8, 0), 30,
               False, {
        "NoPrefetch": (0, 0, 0),
        "DesignTimePrefetch": (0, 0, 0),
        "RuntimeHeuristic": (720, 2_160, 8),
        "RuntimeInterTask": (720, 2_919, 115),
        "Hybrid": (720, 3_124, 0)}),
}


@pytest.mark.parametrize("case", sorted(DECISION_STEPS))
def test_decision_steps_per_mode_are_pinned(monkeypatch, case):
    # Machine-independent run-time work per mode: a change that makes the
    # decisions cheaper must leave every count as it is.
    from drhwsim import runtime

    make, iterations, trace, expected = DECISION_STEPS[case]
    steps = {mode: [0, 0, 0] for mode in MODES}
    current = []
    execute, pick, place = (sim.execute_task_instance, runtime._pick_tile,
                            runtime.place_loads)

    def counted(step, fn):
        def wrapper(*args, **kwargs):
            if step == 0:
                current[:] = [args[3]]
            steps[current[0]][step] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "execute_task_instance", counted(0, execute))
    monkeypatch.setattr(runtime, "_pick_tile", counted(1, pick))
    monkeypatch.setattr(runtime, "place_loads", counted(2, place))
    w = make()
    run_simulation(w, build_store(w, R), SimConfig(
        tiles=(4, 5, 6), iterations=iterations, seed=1,
        all_tasks=True, trace=trace))
    assert {mode: tuple(n) for mode, n in steps.items()} == expected


def test_mode_subset_runs_only_those(chain4_workload, chain4_store):
    config = SimConfig(tiles=(2,), iterations=2,
                       modes=("NoPrefetch", "Hybrid"))
    results, _ = run_simulation(chain4_workload, chain4_store, config)
    assert set(results[2]) == {"NoPrefetch", "Hybrid"}


def test_preset_simulation_mode_ordering_smoke():
    w = preset_table1(0)
    store = build_store(w, R)
    config = SimConfig(tiles=(6,), iterations=50, seed=1)
    results, _ = run_simulation(w, store, config)
    o = {m: results[6][m].overhead_pct for m in results[6]}
    assert o["NoPrefetch"] >= o["DesignTimePrefetch"] >= o["RuntimeHeuristic"]
    assert o["RuntimeHeuristic"] >= o["RuntimeInterTask"] - 1e-9


# sha256 of the simulate report (manifest paths masked) and of the trace for
# each `gen` command, then `analyze` and `simulate --tiles 4..6 --all-tasks
# --iterations 50 --seed 1 --trace`.  A change to the run-time manager that
# is meant to be a pure speed-up must leave both unchanged.  The traces
# bind each baseline's slot i to tile i (`bind_order`) at every tile count.
PINNED_OUTPUTS = {
    "table1": (["--preset", "table1", "--seed", "1"],
               "2b932ae06fd1414552b34a72c82cc525540db4df45d274a462f610b6f5ecc70a",
               "e809716be0f6165a968eae52a48c787bb9b1c056b09d037683cd63aecf1f0147"),
    "pocketgl": (["--preset", "pocketgl", "--seed", "3"],
                 "fde6776e7aac24ca99dae71602ea04ed164e3087561082b62ea81329454e838d",
                 "2edb7ce231eec5a612dcdce345f1cd11326eac82c419aa6995ba6487f3845321"),
    "random": (["--tasks", "4", "--subtasks", "6..11", "--scenarios", "2",
                "--seed", "5"],
               "4bbcb164d624074110166b7b1b444532442c9147b5e87b419848c3dc4e05333b",
               "2ccfe77823f2400085f02a23b6344726ea725b6b8e61ae2021503ee5261c5f22"),
    # The benchmark's random-analyze graphs: 10..14 subtasks, several
    # loads per slot.
    "random-analyze": (["--tasks", "8", "--subtasks", "10..14", "--seed", "0"],
                       "fdfb03211a9a7effa9fef79877e8d46d19c8c0ad0c758487e27683b4229293d1",
                       "dac49912fb84ead1fd3dc61c6eed6bb4a83a3dd5b057f8e8cc7dcba7438e92fe"),
    # The generator's list placement with ISP subtasks, two slots and
    # dense edges.
    "random-isp": (["--tasks", "6", "--subtasks", "4..12", "--drhw-frac", "0.5",
                    "--slots", "2", "--density", "0.6", "--scenarios", "2",
                    "--seed", "11"],
                   "aa64eb8ee0ee2315e4142764cf003f8068e115a02f45415ec461bad39a85cfa6",
                   "2620e3c6a8010f260e5f2eac2a42065caa41ca9297cc53a1576210674e1ca206"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_simulate_outputs_are_pinned(tmp_path, case):
    from drhwsim.cli import main

    gen_args, report_digest, trace_digest = PINNED_OUTPUTS[case]
    w, s = str(tmp_path / "w.json"), str(tmp_path / "s.json")
    report, trace = str(tmp_path / "report.json"), str(tmp_path / "trace.csv")
    assert main(["gen", *gen_args, "--out", w]) == 0
    assert main(["analyze", w, "--out", s]) == 0
    assert main(["simulate", w, s, "--tiles", "4..6", "--all-tasks",
                 "--iterations", "50", "--seed", "1",
                 "--out", report, "--trace", trace]) == 0
    doc = json.load(open(report))
    doc["manifest"].update(workload="w.json", store="s.json", trace="trace.csv")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == report_digest
    with open(trace, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == trace_digest


def test_tracing_leaves_metrics_unchanged():
    # The trace only records the timeline: a traced run reports the same
    # Metrics as an untraced one, in every mode at every tile count.  No
    # baseline reuses, so each is summed from its fixed schedules, traced
    # or not, and runs no instance; only the three run-time modes replay
    # at every tile count.  The trace is one text line per exec, load,
    # init load, prefetch and cancellation the instances produced, plus,
    # at every tile count, one per exec and load of each baseline.
    from drhwsim.workloads import preset_pocketgl

    events = []
    execute = sim.execute_task_instance

    def counting(*args, **kwargs):
        res = execute(*args, **kwargs)
        d = res.decision
        events.append(len(res.relative.execs) + len(res.relative.loads)
                      + len(d.init_loads) + len(d.prefetched)
                      + len(d.cancelled_loads))
        return res

    r5 = gen_workload(GenParams(n_min=3, n_max=8, scenarios=3), 5, 3)
    for w in (preset_table1(3), preset_pocketgl(3), r5):
        store = build_store(w, R)
        config = SimConfig(tiles=(4, 5, 6), iterations=30, seed=2)
        steps = [key for i in range(30) for key in select_iteration(w, 2, i)]
        instances = len(steps)
        execs = sum(len(scenario_map(w)[key].graph.subtasks) for key in steps)
        events.clear()
        with mock.patch.object(sim, "execute_task_instance", counting):
            results, trace = run_simulation(w, store, config)
        assert trace == []
        assert len(events) == 3 * 3 * instances
        assert all(set(by_mode) == set(config.modes)
                   for by_mode in results.values())
        assert all(m.actual_total >= m.ideal_total > 0
                   for by_mode in results.values() for m in by_mode.values())
        events.clear()
        with mock.patch.object(sim, "execute_task_instance", counting):
            traced, trace = run_simulation(w, store,
                                           config._replace(trace=True))
        assert len(events) == 3 * 3 * instances
        assert all(type(line) is str and line.endswith("\n")
                   for line in trace)
        baselines = sum(execs + traced[4][mode].loads_issued
                        for mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH))
        assert len(trace) == sum(events) + 3 * baselines > 0
        assert any(",cancel," in line for line in trace)
        assert traced == results


def test_summed_baselines_refuse_too_few_tiles():
    # Each baseline is summed once, at the fewest tiles, so a sweep with
    # too few tiles anywhere fails, traced or not, with the same message.
    w = preset_table1(0)
    store = build_store(w, R)
    config = SimConfig(tiles=(6, 3), iterations=20, seed=1,
                       modes=("NoPrefetch", "DesignTimePrefetch"),
                       all_tasks=True)
    messages = []
    for trace in (False, True):
        with pytest.raises(CapacityError, match="only 3 exist") as exc:
            run_simulation(w, store, config._replace(trace=trace))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def _exact(m: Metrics) -> tuple:
    """Every field of ``m``, floats by their bits."""
    return tuple(v.hex() if type(v) is float else v
                 for v in (getattr(m, f) for f in Metrics._fields))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), latency=st.sampled_from([0.0, 4.0]),
       all_tasks=st.booleans(), drhw_fraction=st.sampled_from([0.5, 1.0]))
def test_summed_baselines_serve_every_tile_count(seed, latency, all_tasks,
                                                 drhw_fraction):
    # Each baseline's Metrics and trace lines come from one pass over its
    # fixed schedules.  Tracing changes no Metrics bit.  The trace is, per
    # tile count and mode in turn, the lines of a run of that mode alone
    # at that tile count, and a baseline's lines are the same at every
    # tile count.  On a DRHW-only workload it has one row per DRHW
    # instance, issued load and cancelled load of the cells, the identity
    # the benchmark's trace check relies on.
    w = gen_workload(GenParams(n_min=3, n_max=8, scenarios=2,
                               drhw_fraction=drhw_fraction), 3, seed)
    config = SimConfig(tiles=(3, 4, 6), iterations=10, seed=seed,
                       all_tasks=all_tasks)
    store = build_store(w, latency)
    untraced, _ = run_simulation(w, store, config)
    traced, trace = run_simulation(w, store, config._replace(trace=True))
    assert {tiles: {mode: _exact(m) for mode, m in by_mode.items()}
            for tiles, by_mode in traced.items()} == {
        tiles: {mode: _exact(m) for mode, m in by_mode.items()}
        for tiles, by_mode in untraced.items()}
    alone = {(tiles, mode): run_simulation(w, store, config._replace(
        tiles=(tiles,), modes=(mode,), trace=True))[1]
        for tiles in config.tiles for mode in config.modes}
    assert trace == [line for key in alone for line in alone[key]]
    for mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH):
        assert alone[(3, mode)] == alone[(4, mode)] == alone[(6, mode)] != []
    if drhw_fraction == 1.0:
        assert len(trace) == sum(
            m.drhw_instances + m.loads_issued + m.loads_cancelled
            for by_mode in traced.values() for m in by_mode.values())


def test_schedule_cache_spans_the_tile_sweep(monkeypatch):
    # No cache key depends on the tile count, so a sweep computes each
    # NoPrefetch schedule once per scenario run, whatever the number of
    # tile counts, and later tile counts reuse list-heuristic schedules.
    # The store check seeds the cache with the schedules of the stored
    # loads and no-reuse orders, so the run-time phase places only the
    # list orders it derives, each once per (scenario, load set).
    from drhwsim import runtime
    from drhwsim.workloads import preset_pocketgl

    w = preset_pocketgl(3)
    store = build_store(w, R)
    calls = {"schedule_no_prefetch": [], "place_loads": [],
             "priority_order": []}

    def recorded(name):
        fn = getattr(runtime, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append((args, out))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(runtime, name, recorded(name))

    def sweep(tiles):
        for name in calls:
            calls[name] = []
        run_simulation(w, store, SimConfig(tiles=tiles,
                                           iterations=40, seed=1,
                                           all_tasks=True))
        return dict(calls)

    ran = {key for i in range(40)
           for key in select_iteration(w, 1, i, all_tasks=True)}
    one, three = sweep((4,)), sweep((4, 5, 6))
    assert (len(one["schedule_no_prefetch"])
            == len(three["schedule_no_prefetch"]) == len(ran))
    for run in (one, three):
        derived = run["priority_order"]
        assert len({(id(sc), load_set) for (sc, load_set), _ in derived}) \
            == len(derived) > 0
        orders = [order for _, order in derived]
        assert all(any(args[2] is order for order in orders)
                   for args, _ in run["place_loads"])
    assert len(three["place_loads"]) < 3 * len(one["place_loads"])


def test_each_stored_load_order_is_placed_once(monkeypatch):
    # The store check places each entry's loads and no-reuse order once per
    # simulation; Hybrid replays the placed loads, so a sweep over three
    # tile counts places nothing more.
    from drhwsim import design_time
    from drhwsim.workloads import preset_pocketgl

    w = preset_pocketgl(3)
    store = build_store(w, R)
    placed = []
    place = design_time.place_loads

    def recording(scenario, load_set, order, latency):
        placed.append(tuple(order))
        return place(scenario, load_set, order, latency)

    monkeypatch.setattr(design_time, "place_loads", recording)
    run_simulation(w, store, SimConfig(tiles=(4, 5, 6),
                                       iterations=40, seed=1, all_tasks=True,
                                       modes=("Hybrid",)))
    entries = store.entries.values()
    assert len(placed) == 2 * len(entries)
    assert sorted(placed) == sorted([e.loads for e in entries]
                                    + [e.noreuse_order for e in entries])


def test_hybrid_builds_each_adjusted_schedule_once(monkeypatch):
    # Hybrid keeps each stored schedule with its reused loads cancelled in
    # the schedule cache, keyed by the reused set, so a sweep builds each
    # one once however many instances reuse that set.
    from drhwsim import runtime
    from drhwsim.workloads import preset_pocketgl

    w = preset_pocketgl(3)
    store = build_store(w, R)
    keys = []
    cancel = runtime.cancel_reused_loads

    def recording(stored, reused):
        keys.append((id(stored), frozenset(reused)))
        return cancel(stored, reused)

    monkeypatch.setattr(runtime, "cancel_reused_loads", recording)
    config = SimConfig(tiles=(4, 5, 6), iterations=40, seed=1,
                       all_tasks=True, modes=("Hybrid",))
    results, _ = run_simulation(w, store, config)
    instances = len(config.tiles) * sum(
        len(select_iteration(w, 1, i, all_tasks=True)) for i in range(40))
    assert sum(by_mode["Hybrid"].loads_cancelled
               for by_mode in results.values()) > 0
    assert len(keys) == len(set(keys)) < instances


def test_list_modes_share_each_list_schedule(monkeypatch):
    # RuntimeHeuristic and RuntimeInterTask run the list heuristic with the
    # same arguments, so the schedule cache keys its schedules by the
    # heuristic, not the mode: a two-mode sweep places each once.
    from drhwsim import runtime
    from drhwsim.workloads import preset_pocketgl

    w = preset_pocketgl(3)
    store = build_store(w, R)
    calls = []
    place = runtime.place_loads

    def recording(scenario, load_set, order, R, *, ctrl_start, min_start):
        calls.append((scenario, frozenset(load_set), ctrl_start,
                      tuple(sorted(min_start.items()))))
        return place(scenario, load_set, order, R, ctrl_start=ctrl_start,
                     min_start=min_start)

    monkeypatch.setattr(runtime, "place_loads", recording)
    run_simulation(w, store, SimConfig(
        tiles=(4, 5, 6), iterations=40, seed=1, all_tasks=True,
        modes=("RuntimeHeuristic", "RuntimeInterTask")))
    assert calls
    assert len(calls) == len(set(calls))
