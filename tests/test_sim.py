import csv
import hashlib
import io
import json
import math
from pathlib import Path
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
                             InstanceResult, RuntimeDecision, fixed_schedule)
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


V1_FIELDS = ("iteration", "task", "scenario", "resource", "kind", "subtask",
             "start", "end")


def _v1_text(rows) -> str:
    """Trace rows in the ``drhw-trace/1`` layout and quoting (mode and
    tiles dropped, under the /1 header), as ``csv.writer`` writes them
    under a LF line terminator."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(V1_FIELDS)
    writer.writerows([r[f] for f in V1_FIELDS] for r in rows)
    return out.getvalue()


def _rows_from_absolute(mode, tiles, iteration, tid, sid, res):
    """One instance's trace rows built from its execs shifted by its offset
    and its load events, each sorted by (start, subtask): the reference
    ``read_trace``, which reads the relative schedule, must match."""
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
    return [(mode, tiles, *row) for row in rows]


def _instance(tid, sid, offset=0.0, execs=(), loads=(), bindings=(),
              init_loads=(), prefetched=(), cancelled_loads=()):
    """An InstanceResult holding exactly the given relative schedule and
    decision, for feeding the trace ids no workload would use."""
    makespan = max((e for *_, e in execs), default=0.0)
    decision = RuntimeDecision(
        reused={}, cancelled=frozenset(sub for sub, *_ in cancelled_loads),
        init_loads=tuple(init_loads), bindings=dict(bindings),
        prefetched=tuple(prefetched), cancelled_loads=tuple(cancelled_loads))
    return InstanceResult(
        task_id=tid, scenario_id=sid, start=0.0, end=offset + makespan,
        relative=TimedSchedule(makespan, tuple(execs), tuple(loads)),
        offset=offset, decision=decision, ctrl_free=0.0)


def _records(mode, tiles, iteration, res):
    """The trace records of one instance, alone in its run: the run
    record, its schedule (number 0) and the instance."""
    return [("run", mode, tiles),
            ("schedule", 0, res.relative.execs, res.relative.loads),
            _instance_record(iteration, 0, res)]


def _instance_record(iteration, number, res):
    """The instance record of ``res``, replaying schedule ``number``."""
    d = res.decision
    return ("instance", iteration, res.task_id, res.scenario_id, number,
            res.offset, d.bindings, d.init_loads, d.prefetched,
            d.cancelled_loads)


def _read_back(trace, path) -> list[dict]:
    write_trace(trace, str(path))
    return read_trace(str(path))


def _plan(w, config):
    """The plan's steps as (iteration, task, scenario)."""
    return [(i, tid, sid) for i in range(config.iterations)
            for tid, sid in select_iteration(w, config.seed, i,
                                             config.all_tasks)]


def _baseline_results(w, store, config, mode):
    """A baseline's instances, restated: each step runs its fixed
    schedule from the previous step's end and binds slot i of its binding
    order to tile i."""
    scenarios, results, t0 = scenario_map(w), [], 0.0
    for _, tid, sid in _plan(w, config):
        scenario = scenarios[(tid, sid)]
        rel = fixed_schedule(mode, scenario, store.entries[(tid, sid)],
                             store.latency, {})
        bound = {slot: t for t, slot in enumerate(scenario.index.bind_order)}
        results.append(InstanceResult(
            tid, sid, t0, t0 + rel.makespan, rel, t0,
            RuntimeDecision({}, frozenset(), (), bound, ()), t0))
        t0 += rel.makespan
    return results


def test_trace_contents(tmp_path, chain4_workload, chain4_store):
    config = SimConfig(tiles=(2,), iterations=2, seed=0,
                       modes=("Hybrid",), trace=True)
    _, trace = run_simulation(chain4_workload, chain4_store, config)
    assert trace[0] == ("run", "Hybrid", 2)
    assert [r[0] for r in trace].count("instance") == 2
    # Each schedule is defined once, numbered in first-use order, before
    # the first instance that replays it.
    defined = [r[1] for r in trace if r[0] == "schedule"]
    assert defined == list(range(len(defined)))
    for k, record in enumerate(trace):
        if record[0] == "instance":
            assert record[4] in [r[1] for r in trace[:k] if r[0] == "schedule"]
    rows = _read_back(trace, tmp_path / "t.jsonl")
    kinds = {row["kind"] for row in rows}
    assert "exec" in kinds and "init_load" in kinds and "load" in kinds
    assert "prefetch_load" in kinds        # the lookahead spans iterations
    execs = [r for r in rows if r["kind"] == "exec"]
    assert len(execs) == 2 * 4
    assert {(r["mode"], r["tiles"]) for r in rows} == {("Hybrid", 2)}


def test_trace_file_roundtrip(tmp_path, chain4_workload, chain4_store):
    config = SimConfig(tiles=(2,), iterations=3, seed=0,
                       modes=("Hybrid",), trace=True)
    execute, results = sim.execute_task_instance, []

    def recording(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    with mock.patch.object(sim, "execute_task_instance", recording):
        _, trace = run_simulation(chain4_workload, chain4_store, config)
    expected = [row for (i, tid, sid), res in zip(
        _plan(chain4_workload, config), results)
        for row in _rows_from_absolute("Hybrid", 2, i, tid, sid, res)]
    rows = _read_back(trace, tmp_path / "trace.jsonl")
    assert len(rows) == len(expected) > len(trace)
    # Full float precision survives the text round trip.
    assert [tuple(r.values()) for r in rows] == expected


def test_trace_lines_header(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace([], str(path))
    assert path.read_bytes() == b'{"schema":"drhw-trace/2"}\n'
    assert read_trace(str(path)) == []


def test_trace_quotes_ids_with_commas(tmp_path):
    # Ids holding commas, quotes, CR and LF survive the writer and reader.
    res = _instance("a,b", 's"0', execs=[(3, "x\ny", 0.1, 2.5)],
                    loads=[(4, 'p,"q"', 0.0, 0.1)], bindings={'p,"q"': 1},
                    prefetched=[("c\rd", 6, 2, 2.0, 6.0)],
                    cancelled_loads=[(5, 'p,"q"', 0.0, 4.0)])
    rows = _read_back(_records("Hybrid", 4, 0, res), tmp_path / "t.jsonl")
    assert [tuple(r.values()) for r in rows] == [
        ("Hybrid", 4, 0, "a,b", 's"0', "x\ny", "exec", 3, 0.1, 2.5),
        ("Hybrid", 4, 0, "a,b", 's"0', "tile1", "load", 4, 0.0, 0.1),
        ("Hybrid", 4, 0, "c\rd", "-", "tile2", "prefetch_load", 6, 2.0, 6.0),
        ("Hybrid", 4, 0, "a,b", 's"0', 'p,"q"', "cancel", 5, 0.0, 4.0)]


def test_read_trace_rejects_other_files(tmp_path):
    path = tmp_path / "x.csv"
    for text, message in (
            ("iteration,task,scenario,resource,kind,subtask,start,end\n"
             "0,t,s,A,exec,1,0.0,1.0\n",
             "x.csv: line 1: a drhw-trace/1 file; simulate again to write "
             "drhw-trace/2"),
            ("a,b,c\n1,2,3\n", "x.csv: line 1: not a JSON line"),
            ("", "x.csv: line 1: not a JSON line"),
            ('{"schema": "drhw-trace/3"}\n',
             "x.csv: line 1: not a drhw-trace/2 file"),
            ('{"schema": "drhw-store/5"}\n',
             "x.csv: line 1: not a drhw-trace/2 file")):
        path.write_text(text)
        with pytest.raises(DrhwError, match=message):
            read_trace(str(path))


# A valid trace of one instance, one line per record after the schema
# line: its hostile variants below each edit one line.
_GOOD = ['{"schema":"drhw-trace/2"}',
         '["run","Hybrid",4]',
         '["schedule",0,[[1,"A",0.0,2.0],[2,"B",2.0,3.0]],[[2,"B",0.0,2.0]]]',
         '["instance",7,"t","s",0,4.0,{"B":1},[[1,0,0.0,4.0]],'
         '[["u",3,2,5.0,9.0]],[]]']
HOSTILE_TRACES = {
    # line number -> its text, and the message the reader must give
    "not-json": ({4: '["instance",7,"t"'}, "line 4: not a JSON line"),
    # Written with surrogateescape, so "\udcff" is the byte 0xff.
    "not-utf-8": ({2: '["run","\udcff",4]'}, "line 2: not a JSON line"),
    "nan": ({4: _GOOD[3].replace("4.0,{", "NaN,{")},
            "line 4: malformed instance record"),
    "infinity": ({3: _GOOD[2].replace("3.0]", "Infinity]")},
                 "line 3: malformed schedule record"),
    "minus-infinity": ({4: _GOOD[3].replace("5.0", "-Infinity")},
                       "line 4: malformed instance record"),
    "nan-tile": ({4: _GOOD[3].replace('{"B":1}', '{"B":NaN}')},
                 "line 4: malformed instance record"),
    "overflow": ({3: _GOOD[2].replace("3.0]", "1e999]")},
                 "line 3: malformed schedule record"),
    "too-deep": ({2: "[" * 100_000 + "]" * 100_000},
                 "line 2: not a JSON line"),
    "deep-in-a-record": ({4: _GOOD[3][:-1] + ",[" + "[" * 500 + "]" * 501
                          + "]"}, "line 4: malformed instance record"),
    "extra-field": ({4: _GOOD[3][:-1] + ',"junk"]'},
                    "line 4: malformed instance record"),
    "missing-field": ({2: '["run","Hybrid"]'}, "line 2: malformed run record"),
    "not-an-array": ({2: '{"run":["Hybrid",4]}'},
                     "line 2: not a schedule, run or instance record"),
    "unknown-tag": ({2: '["walk","Hybrid",4]'},
                    "line 2: not a schedule, run or instance record"),
    "bool-for-int": ({2: '["run","Hybrid",true]'},
                     "line 2: malformed run record"),
    "int-for-time": ({4: _GOOD[3].replace("4.0,{", "4,{")},
                     "line 4: malformed instance record"),
    "string-for-time": ({3: _GOOD[2].replace("2.0]]]", '"2.0"]]]')},
                        "line 3: malformed schedule record"),
    "tile-not-int": ({4: _GOOD[3].replace('{"B":1}', '{"B":"1"}')},
                     "line 4: malformed instance record"),
    "undefined-schedule": ({4: _GOOD[3].replace('"s",0,', '"s",1,')},
                           "line 4: schedule 1 is not defined"),
    "schedule-defined-twice": ({4: _GOOD[2]},
                               "line 4: schedule 0 defined twice"),
    "unbound-slot": ({4: _GOOD[3].replace('{"B":1}', '{"A":1}')},
                     "line 4: slot 'B' has no tile in bindings"),
    "instance-before-run": ({2: _GOOD[2], 3: '["schedule",1,[],[]]'},
                            "line 4: instance before any run record"),
    "end-before-start": ({3: _GOOD[2].replace("2.0,3.0]", "2.0,1.5]")},
                         "line 4: exec of subtask 2 over [6.0, 5.5] is not a "
                         "finite interval"),
    "prefetch-ends-first": ({4: _GOOD[3].replace("5.0,9.0", "9.0,5.0")},
                            "line 4: prefetch_load of subtask 3 over "
                            "[9.0, 5.0] is not a finite interval"),
    "offset-overflows": ({4: _GOOD[3].replace("4.0,{", "1.7e308,{"),
                          3: _GOOD[2].replace("2.0,3.0", "2.0,1.7e308")},
                         "line 4: exec of subtask 2 over [1.7e+308, inf] is "
                         "not a finite interval"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TRACES))
def test_read_trace_refuses_hostile_records(tmp_path, case):
    edits, message = HOSTILE_TRACES[case]
    lines = [edits.get(k, line) for k, line in enumerate(_GOOD, 1)]
    path = tmp_path / "bad.jsonl"
    path.write_bytes("".join(line + "\n" for line in lines).encode(
        "utf-8", "surrogateescape"))
    with pytest.raises(DrhwError) as exc:
        read_trace(str(path))
    assert str(exc.value).startswith(f"{path}: {message}")


def test_read_trace_expands_an_instance(tmp_path):
    # Execs by start, then replayed and init loads together, then
    # prefetches; replayed times are shifted by the offset.
    path = tmp_path / "good.jsonl"
    path.write_text("".join(line + "\n" for line in _GOOD))
    assert [tuple(r.values())[2:] for r in read_trace(str(path))] == [
        (7, "t", "s", "A", "exec", 1, 4.0, 6.0),
        (7, "t", "s", "B", "exec", 2, 6.0, 7.0),
        (7, "t", "s", "tile0", "init_load", 1, 0.0, 4.0),
        (7, "t", "s", "tile1", "load", 2, 4.0, 6.0),
        (7, "u", "-", "tile2", "prefetch_load", 3, 5.0, 9.0)]


# Text fields that need quoting in CSV (comma, quote, CR, LF), empty ones
# and non-ASCII ones; lone surrogates too, which JSON escapes.  The /1
# layout is compared only without NUL, which Python 3.10's csv reader
# refuses.
TEXT = st.text(st.sampled_from(',"\r\n ab') | st.characters(), max_size=6)
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
    (start, subtask) order is total.  Offset and times are small enough
    that no shifted time overflows."""
    exec_subs = draw(st.lists(SUBTASK, unique=True, max_size=4))
    load_subs = draw(st.lists(SUBTASK, unique=True, max_size=4))
    n_init = draw(st.integers(0, len(load_subs)))
    slots = {sub: draw(TEXT) for sub in load_subs[n_init:]}
    res = _instance(
        draw(TEXT), draw(TEXT),
        offset=draw(st.just(0.0) | st.just(-0.0) | st.floats(-1e6, 1e6)),
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
    # Hostile ids and times survive write_trace and read_trace, which
    # sorts each instance's rows as the absolute reference does.  With no
    # CR or NUL in any text field, the rows rendered in the /1 layout, as
    # the pinned /1 digests read them, parse back into the /1 fields.
    iteration, tid, sid, res = case
    path = tmp_path_factory.getbasetemp() / "roundtrip.jsonl"
    rows = _read_back(_records("RuntimeHeuristic", 3, iteration, res), path)
    expected = _rows_from_absolute("RuntimeHeuristic", 3, iteration, tid, sid,
                                   res)
    assert [tuple(r.values()) for r in rows] == expected
    texts = [text for row in expected for text in row[3:7]]
    if not any("\r" in text or "\x00" in text for text in texts):
        assert list(csv.reader(io.StringIO(_v1_text(rows)))) == [
            list(V1_FIELDS)] + [[str(v) for v in row[2:]] for row in expected]


def _one_record_bytes(trace) -> bytes:
    """The oracle for ``write_trace``: the schema line, then each record
    encoded whole by the trace's JSON encoder, one line each."""
    encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    lines = [encode({"schema": "drhw-trace/2"})] + [encode(r) for r in trace]
    return "".join(line + "\n" for line in lines).encode("utf-8")


# Ids the encoder must escape: a quote, a backslash, control characters,
# non-ASCII text and a lone surrogate.
ESCAPED = 'q"\\\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800'


@settings(max_examples=100, deadline=None)
@given(cases=st.lists(hostile_instances(), min_size=1, max_size=4),
       runs=st.integers(1, 3))
def test_write_trace_writes_what_encoding_each_record_writes(
        tmp_path_factory, cases, runs):
    # Hostile instances, one of them with every escaped character in its
    # ids and slot, then that one again with equal bindings and with its
    # tile moved, and the same record objects at every run, as a
    # baseline's: the trace holds the oracle's bytes.
    hostile = _instance(ESCAPED, ESCAPED[::-1], offset=-0.0,
                        execs=[(1, ESCAPED, 0.0, 1.0)],
                        loads=[(2, ESCAPED, 0.5, 1.0)],
                        bindings={ESCAPED: 3})
    cases = cases + [(0, hostile.task_id, hostile.scenario_id, hostile)]
    schedules = [("schedule", n, res.relative.execs, res.relative.loads)
                 for n, (_, _, _, res) in enumerate(cases)]
    instances = [_instance_record(i, n, res)
                 for n, (i, _, _, res) in enumerate(cases)]
    last = instances[-1]
    instances += [last[:6] + (bindings,) + last[7:]
                  for bindings in ({ESCAPED: 3}, {ESCAPED: 4})]
    trace = [("run", "NoPrefetch", 4)] + schedules + instances
    for tiles in range(5, 4 + runs):
        trace += [("run", "NoPrefetch", tiles)] + instances
    path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
    write_trace(trace, str(path))
    assert path.read_bytes() == _one_record_bytes(trace)


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_write_trace_refuses_a_non_finite_offset(tmp_path, offset):
    res = _instance("t", "s", offset=offset, execs=[(1, "A", 0.0, 1.0)])
    with pytest.raises(ValueError, match="Out of range float values"):
        write_trace(_records("Hybrid", 4, 0, res), str(tmp_path / "t.jsonl"))


def test_baselines_share_their_records_across_tile_counts():
    # A baseline's instance records are built once and stand, as the same
    # objects, at every tile count; a run-time mode builds its own.
    w = preset_table1(1)
    _, trace = run_simulation(w, build_store(w, R), SimConfig(
        tiles=(4, 5, 6), iterations=10, seed=1, all_tasks=True, trace=True))
    runs = {}
    for record in trace:
        if record[0] == "run":
            instances = runs[record[1:]] = []
        elif record[0] == "instance":
            instances.append(record)
    for mode in MODES:
        at4, at5, at6 = (runs[(mode, tiles)] for tiles in (4, 5, 6))
        assert len(at4) == len(at5) == len(at6) == 40
        shared = mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH)
        assert all(a is b is c for a, b, c in zip(at4, at5, at6)) is shared


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), latency=st.sampled_from([0.0, R]))
def test_trace_rows_match_the_absolute_schedule(tmp_path_factory, seed,
                                                latency):
    # Random workloads, every mode, several tile counts: the rows read
    # back from the trace are, per (tile count, mode), each instance's
    # rows built from its absolute schedule, bit for bit.  At R = 0 loads
    # can start together, so only the (start, subtask) sort orders them.
    # The baselines' instances are summed once and serve every tile count.
    w = gen_workload(GenParams(n_min=3, n_max=8, scenarios=2), 3, seed)
    store = build_store(w, latency)
    execute, replayed = sim.execute_task_instance, {}

    def recording(scenario, entry, residency, mode, *args, **kwargs):
        res = execute(scenario, entry, residency, mode, *args, **kwargs)
        replayed.setdefault((len(residency), mode), []).append(res)
        return res

    config = SimConfig(tiles=(3, 4, 6), iterations=6,
                       seed=seed, trace=True)
    with mock.patch.object(sim, "execute_task_instance", recording):
        _, trace = run_simulation(w, store, config)
    plan = _plan(w, config)
    expected = []
    for tiles in config.tiles:
        for mode in config.modes:
            results = replayed.get((tiles, mode)) or _baseline_results(
                w, store, config, mode)
            assert len(results) == len(plan)
            expected += [row for (i, tid, sid), res in zip(plan, results)
                         for row in _rows_from_absolute(mode, tiles, i, tid,
                                                        sid, res)]
    path = tmp_path_factory.getbasetemp() / "absolute.jsonl"
    assert [tuple(r.values()) for r in _read_back(trace, path)] == expected
    kinds = [r[0] for r in trace]
    assert kinds.count("run") == len(config.tiles) * len(config.modes)
    assert kinds.count("instance") == kinds.count("run") * len(plan)


def test_replayed_and_init_loads_sort_together(tmp_path):
    # Init loads and replayed loads that start together: only sorting both
    # kinds by (start, subtask) puts the init load of subtask 2 between the
    # replayed loads of 1 and 3.  No store analyze writes gives such a tie:
    # at R = 0 it extracts nothing, and at R > 0 the last init load ends
    # at the replay's offset, where a replayed load can start first.
    res = _instance("t", "s", offset=4.0,
                    execs=[(sub, "P", 0.0, 1.0) for sub in (1, 2, 3)],
                    loads=[(3, "C", 0.0, 0.0), (1, "A", 0.0, 0.0)],
                    bindings={"A": 0, "C": 2},
                    init_loads=[(2, 1, 4.0, 4.0)])
    rows = _read_back(_records("Hybrid", 3, 0, res), tmp_path / "t.jsonl")
    assert [(r["kind"], r["subtask"], r["start"]) for r in rows
            if r["kind"] != "exec"] == [
        ("load", 1, 4.0), ("init_load", 2, 4.0), ("load", 3, 4.0)]


def test_traced_table1_writes_each_schedule_once(tmp_path):
    # The benchmark's traced table1 run: 6,000 instance records, one per
    # plan step of each mode at each tile count, 15 run records and 39
    # distinct schedules, each written once, expand into 68,833 rows.
    w = preset_table1(1)
    _, trace = run_simulation(w, build_store(w, R), SimConfig(
        tiles=(4, 5, 6), iterations=100, seed=1, all_tasks=True,
        trace=True))
    kinds = [r[0] for r in trace]
    assert [kinds.count(k) for k in ("schedule", "run", "instance")] == [
        39, 15, 6_000]
    assert len(_read_back(trace, tmp_path / "t.jsonl")) == 68_833


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


# sha256 of the simulate report (manifest paths masked), of the trace's
# rows in the drhw-trace/1 layout (`_v1_text`) and of the drhw-trace/2 file
# for each `gen` command, then `analyze` and `simulate --tiles 4..6
# --all-tasks --iterations 50 --seed 1 --trace`.  A change to the run-time
# manager that is meant to be a pure speed-up must leave all three
# unchanged.  The /1 digests are those of the files the /1 writer wrote,
# so the rows read back from a /2 trace are the rows /1 held.  The traces
# bind each baseline's slot i to tile i (`bind_order`) at every tile count.
PINNED_OUTPUTS = {
    "table1": (["--preset", "table1", "--seed", "1"],
               "2b932ae06fd1414552b34a72c82cc525540db4df45d274a462f610b6f5ecc70a",
               "e809716be0f6165a968eae52a48c787bb9b1c056b09d037683cd63aecf1f0147",
               "211668e2426e1d7a5c51c85f11750191cb8e6a8b3df256c1f5314cf4fabc6bc7"),
    "pocketgl": (["--preset", "pocketgl", "--seed", "3"],
                 "fde6776e7aac24ca99dae71602ea04ed164e3087561082b62ea81329454e838d",
                 "2edb7ce231eec5a612dcdce345f1cd11326eac82c419aa6995ba6487f3845321",
                 "82055a1c0eb789680f9b2636c507b69067e790efe07817c1b6372848955e6c3d"),
    "random": (["--tasks", "4", "--subtasks", "6..11", "--scenarios", "2",
                "--seed", "5"],
               "4bbcb164d624074110166b7b1b444532442c9147b5e87b419848c3dc4e05333b",
               "2ccfe77823f2400085f02a23b6344726ea725b6b8e61ae2021503ee5261c5f22",
               "59b43efca9c3b7733fac237fa34ad4b5cb350fd2b2b2f5d99fb37a87308fffb5"),
    # The benchmark's random-analyze graphs: 10..14 subtasks, several
    # loads per slot.
    "random-analyze": (["--tasks", "8", "--subtasks", "10..14", "--seed", "0"],
                       "fdfb03211a9a7effa9fef79877e8d46d19c8c0ad0c758487e27683b4229293d1",
                       "dac49912fb84ead1fd3dc61c6eed6bb4a83a3dd5b057f8e8cc7dcba7438e92fe",
                       "ab4e175b564a214e73e23753db38335b44ac482536f6a9d52e32d49b7113598d"),
    # The generator's list placement with ISP subtasks, two slots and
    # dense edges.
    "random-isp": (["--tasks", "6", "--subtasks", "4..12", "--drhw-frac", "0.5",
                    "--slots", "2", "--density", "0.6", "--scenarios", "2",
                    "--seed", "11"],
                   "aa64eb8ee0ee2315e4142764cf003f8068e115a02f45415ec461bad39a85cfa6",
                   "2620e3c6a8010f260e5f2eac2a42065caa41ca9297cc53a1576210674e1ca206",
                   "33f6ad411ca30a9e0976bf4f8aad1346ae763ef32cedff6c60c60ee523788b30"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_simulate_outputs_are_pinned(tmp_path, case):
    from drhwsim.cli import main

    gen_args, report_digest, rows_digest, trace_digest = PINNED_OUTPUTS[case]
    w, s = str(tmp_path / "w.json"), str(tmp_path / "s.json")
    report, trace = str(tmp_path / "report.json"), str(tmp_path / "trace.csv")
    assert main(["gen", *gen_args, "--out", w]) == 0
    assert main(["analyze", w, "--out", s]) == 0
    assert main(["simulate", w, s, "--tiles", "4..6", "--all-tasks",
                 "--iterations", "50", "--seed", "1",
                 "--out", report, "--trace", trace]) == 0
    doc = json.loads(Path(report).read_text())
    doc["manifest"].update(workload="w.json", store="s.json", trace="trace.csv")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == report_digest
    v1_text = _v1_text(read_trace(trace))
    assert hashlib.sha256(v1_text.encode()).hexdigest() == rows_digest
    with open(trace, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == trace_digest


def test_tracing_leaves_metrics_unchanged(tmp_path):
    # The trace only records the timeline: a traced run reports the same
    # Metrics as an untraced one, in every mode at every tile count.  No
    # baseline reuses, so each is summed from its fixed schedules, traced
    # or not, and runs no instance; only the three run-time modes replay
    # at every tile count.  The trace holds one record per instance of
    # every mode at every tile count, and expands into one row per exec,
    # load, init load, prefetch and cancellation the instances produced,
    # plus, at every tile count, one per exec and load of each baseline.
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
        assert [r[0] for r in trace].count("instance") == 5 * 3 * instances
        rows = _read_back(trace, tmp_path / "t.jsonl")
        baselines = sum(execs + traced[4][mode].loads_issued
                        for mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH))
        assert len(rows) == sum(events) + 3 * baselines > 0
        assert any(row["kind"] == "cancel" for row in rows)
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
def test_summed_baselines_serve_every_tile_count(tmp_path_factory, seed,
                                                 latency, all_tasks,
                                                 drhw_fraction):
    # Each baseline's Metrics and trace records come from one pass over
    # its fixed schedules.  Tracing changes no Metrics bit.  The trace's
    # rows are, per tile count and mode in turn, the rows of a run of that
    # mode alone at that tile count, and a baseline's rows are the same at
    # every tile count.  On a DRHW-only workload each (mode, tile count)
    # has one row per DRHW instance, issued load and cancelled load of its
    # cell, the identity the benchmark's trace check relies on.
    w = gen_workload(GenParams(n_min=3, n_max=8, scenarios=2,
                               drhw_fraction=drhw_fraction), 3, seed)
    config = SimConfig(tiles=(3, 4, 6), iterations=10, seed=seed,
                       all_tasks=all_tasks)
    store = build_store(w, latency)
    path = tmp_path_factory.getbasetemp() / "summed.jsonl"
    untraced, _ = run_simulation(w, store, config)
    traced, trace = run_simulation(w, store, config._replace(trace=True))
    assert {tiles: {mode: _exact(m) for mode, m in by_mode.items()}
            for tiles, by_mode in traced.items()} == {
        tiles: {mode: _exact(m) for mode, m in by_mode.items()}
        for tiles, by_mode in untraced.items()}
    rows = _read_back(trace, path)
    alone = {(tiles, mode): _read_back(run_simulation(
        w, store, config._replace(tiles=(tiles,), modes=(mode,),
                                  trace=True))[1], path)
        for tiles in config.tiles for mode in config.modes}
    assert rows == [row for key in alone for row in alone[key]]
    for mode in (NO_PREFETCH, DESIGN_TIME_PREFETCH):
        assert [tuple(r.values())[2:] for r in alone[(3, mode)]] == [
            tuple(r.values())[2:] for r in alone[(6, mode)]] != []
    if drhw_fraction == 1.0:
        for tiles, by_mode in traced.items():
            for mode, m in by_mode.items():
                assert len(alone[(tiles, mode)]) == (
                    m.drhw_instances + m.loads_issued + m.loads_cancelled)


def test_schedule_cache_spans_the_tile_sweep(monkeypatch):
    # No cache key depends on the tile count, so a sweep computes each
    # NoPrefetch schedule once per scenario run, whatever the number of
    # tile counts, and later tile counts reuse list-heuristic schedules.
    # The store check puts the schedule of every stored order in the
    # cache, so the run-time phase places only the list orders it
    # derives, each once per (scenario, load set).
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
    # The store check places each order of each entry's chain once per
    # simulation and keeps its two ends; Hybrid replays the placed last
    # one, so a sweep over three tile counts places nothing more.
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
    assert len(placed) == sum(len(e.chain) for e in entries)
    assert sorted(placed) == sorted(order for e in entries
                                    for order, _ in e.chain)


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
