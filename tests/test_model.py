import functools
import json
import math

import pytest

from drhwsim.errors import GraphError, WorkloadFormatError
from drhwsim.model import (DRHW, ISP, Subtask, Task, Workload,
                           load_workload, make_scenario, parse_number,
                           ready_order, save_workload, validate,
                           workload_from_dict, workload_to_dict)
from drhwsim.workloads import GenParams, gen_workload, preset_table1


def test_chain4_is_valid(chain4):
    assert validate(chain4) == []


def test_index_weights_chain(chain4):
    # Hand values: longest exec path from each start to the graph end.
    assert chain4.index.weights == {1: 40.0, 2: 30.0, 3: 20.0, 4: 10.0}


def test_index_weights_branch():
    sc = make_scenario("s", [Subtask(1, 3.0, DRHW, "A"),
                             Subtask(2, 5.0, DRHW, "B"),
                             Subtask(3, 2.0, DRHW, "C")],
                       [(1, 2), (1, 3)], {"A": [1], "B": [2], "C": [3]})
    assert sc.index.weights == {1: 8.0, 2: 5.0, 3: 2.0}


def test_index_weights_cycle_raises():
    sc = make_scenario("s", [Subtask(1, 1.0, DRHW, "A"),
                             Subtask(2, 1.0, DRHW, "B")],
                       [(1, 2), (2, 1)], {"A": [1], "B": [2]})
    with pytest.raises(GraphError, match="cycle"):
        sc.index.weights


def test_sink_of_negative_zero_exec_weighs_positive_zero():
    # -0.0 passes validation (it is not below 0); its weight and tail are
    # +0.0, so a store never writes "-0.0".
    sc = make_scenario("s", [Subtask(1, 2.0, DRHW, "A"),
                             Subtask(2, -0.0, DRHW, "B")],
                       [(1, 2)], {"A": [1], "B": [2]})
    assert validate(sc) == []
    for longest in (sc.index.weights, sc.index.tails):
        assert longest == {1: 2.0, 2: 0.0}
        assert math.copysign(1.0, longest[2]) == 1.0


def test_zero_latency_times_chain(chain4):
    starts, ends = chain4.index.forward()
    assert starts == {1: 0.0, 2: 10.0, 3: 20.0, 4: 30.0}
    assert ends == {1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}
    assert chain4.index.ideal == 40.0


def test_ideal_respects_pe_serialization():
    # 1 and 2 are independent but share a tile, so they serialize.
    sc = make_scenario("s", [Subtask(1, 5.0, DRHW, "A"),
                             Subtask(2, 7.0, DRHW, "A")], [], {"A": [1, 2]})
    assert sc.index.ideal == 12.0


def test_validate_reports_each_problem():
    sc = make_scenario("s", [Subtask(1, -1.0, DRHW, ""),
                             Subtask(1, 2.0, "GPU", "A"),
                             Subtask(2, float("nan"), DRHW, "A")],
                       [(1, 9)], {"A": [1]})
    msgs = "\n".join(validate(sc))
    assert "duplicate subtask id" in msgs
    assert "negative exec time" in msgs
    assert "non-finite exec time" in msgs
    assert "unknown target" in msgs
    assert "without a slot" in msgs
    assert "missing subtask" in msgs


def test_validate_refuses_a_scenario_without_work():
    # One zero-time subtask is legal; a scenario whose every exec time is
    # 0, or that has no subtask, has ideal time 0 and is refused.
    for execs in ((0.0, -0.0), ()):
        sc = make_scenario("s", [Subtask(i + 1, e, DRHW, "A")
                                 for i, e in enumerate(execs)],
                           [], {"A": [i + 1 for i in range(len(execs))]})
        assert validate(sc) == ["no subtask has a positive exec time "
                                "(ideal time 0)"]


def test_validate_catches_schedule_graph_cycle():
    # Per-tile order 2 before 1 contradicts the edge 1 -> 2.
    sc = make_scenario("s", [Subtask(1, 1.0, DRHW, "A"),
                             Subtask(2, 1.0, DRHW, "A")],
                       [(1, 2)], {"A": [2, 1]})
    assert any("cycle" in m for m in validate(sc))
    with pytest.raises(GraphError, match="cycle"):
        sc.index


def test_validate_catches_graph_cycle(tmp_path):
    # Edges 1 -> 2 -> 1 on separate tiles: a cycle in the graph alone.
    sc = make_scenario("s", [Subtask(1, 1.0, DRHW, "A"),
                             Subtask(2, 1.0, DRHW, "B")],
                       [(1, 2), (2, 1)], {"A": [1], "B": [2]})
    assert validate(sc) == [
        "initial schedule and precedence edges form a cycle "
        "(0/2 subtasks orderable)"]
    path = str(tmp_path / "w.json")
    save_workload(Workload((Task("t", (sc,)),)), path)
    with pytest.raises(WorkloadFormatError,
                       match=r"task t scenario s: .*form a cycle"):
        load_workload(path)


def test_index_combined_order_topological(chain4):
    idx = chain4.index
    assert idx.order == (1, 2, 3, 4)
    assert idx.prev_pe == {1: None, 3: 1, 2: None, 4: 2}
    assert idx.ancestors[4] == frozenset({1, 2, 3})
    assert idx.deps == {1: (), 2: (1,), 3: (2, 1), 4: (3, 2)}


def generated_scenarios():
    """Seeded generated scenarios: ISP subtasks on two slots with dense
    edges, one slot with sparse edges, and the default 3 slots."""
    for params, seed in (
            (GenParams(n_min=4, n_max=12, edge_density=0.6, drhw_fraction=0.5,
                       slots=2, scenarios=2), 11),
            (GenParams(n_min=6, n_max=16, edge_density=0.1, slots=1), 5),
            (GenParams(n_min=10, n_max=14), 0)):
        for task in gen_workload(params, 6, seed).tasks:
            yield from task.scenarios


def test_index_order_takes_the_smallest_ready_id():
    for sc in generated_scenarios():
        deps = sc.index.deps
        done: list[int] = []
        while len(done) < len(deps):
            done.append(min(sid for sid in deps if sid not in done
                            and all(d in done for d in deps[sid])))
        assert sc.index.order == tuple(done)


def test_index_weights_are_the_longest_path_to_the_graph_end():
    # weight(s) = exec(s) + the largest weight of its graph successors.
    for sc in generated_scenarios():
        execs = {s.id: s.exec_time for s in sc.graph.subtasks}
        succs = {sid: [v for u, v in sc.graph.edges if u == sid]
                 for sid in execs}

        @functools.cache
        def weight(sid):
            return execs[sid] + max(map(weight, succs[sid]), default=0.0)

        assert sc.index.weights == {sid: weight(sid) for sid in execs}


def test_ready_order_stops_short_on_a_cycle():
    before = {1: (), 2: (3,), 3: (2,), 4: (1,)}
    assert ready_order(before, lambda n: -n) == (1, 4)


def test_index_tails(chain4):
    # A subtask's own 10 ms plus the 10 ms subtasks after it on the chain.
    assert chain4.index.tails == {1: 40.0, 2: 30.0, 3: 20.0, 4: 10.0}
    assert max(chain4.index.tails.values()) == chain4.index.ideal
    # The longest path after 1 runs through its tile successor 2, not
    # through its graph successor 3.
    sc = make_scenario("s", [Subtask(1, 5.0, "DRHW", "A"),
                             Subtask(2, 10.0, "DRHW", "A"),
                             Subtask(3, 1.0, "DRHW", "B")],
                       [(1, 3)], {"A": [1, 2], "B": [3]})
    assert sc.index.tails == {1: 15.0, 2: 10.0, 3: 1.0}


def test_index_is_built_once_and_invisible_to_equality(tmp_path, chain4_workload):
    sc = chain4_workload.tasks[0].scenarios[0]
    assert sc.index is sc.index
    path = str(tmp_path / "w.json")
    save_workload(chain4_workload, path)
    again = load_workload(path)
    assert again.tasks[0].scenarios[0].index is not sc.index
    assert again == chain4_workload
    assert hash(again.tasks[0].scenarios[0]) == hash(sc)


def test_workload_roundtrip(tmp_path, chain4_workload):
    path = str(tmp_path / "w.json")
    save_workload(chain4_workload, path)
    again = load_workload(path)
    assert again == chain4_workload


def test_workload_roundtrip_with_combinations(tmp_path):
    w = preset_table1(0)
    path = str(tmp_path / "w.json")
    save_workload(w, path)
    assert load_workload(path) == w


def test_load_workload_anchors_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "schema": "drhw-workload/1",\n  "tasks": [}\n')
    with pytest.raises(WorkloadFormatError, match=r"line 3 column"):
        load_workload(str(path))


def test_load_workload_names_offending_scenario(tmp_path, chain4_workload):
    path = str(tmp_path / "w.json")
    save_workload(chain4_workload, path)
    doc = json.loads(open(path).read())
    doc["tasks"][0]["scenarios"][0]["edges"].append([1, 99])
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps(doc))
    with pytest.raises(WorkloadFormatError,
                       match=r"task chain4 scenario s0.*missing subtask"):
        load_workload(str(path2))


def test_load_workload_rejects_wrong_schema(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "something-else/9"}')
    with pytest.raises(WorkloadFormatError, match="schema"):
        load_workload(str(path))


def test_workload_rejects_bad_combination(tmp_path, chain4_workload):
    w = Workload(chain4_workload.tasks, ((("chain4", "nope"),),))
    path = str(tmp_path / "w.json")
    save_workload(w, path)
    with pytest.raises(WorkloadFormatError, match="unknown scenario"):
        load_workload(path)


def test_isp_subtasks_carry_no_load():
    sc = make_scenario("s", [Subtask(1, 2.0, ISP, "ISP0"),
                             Subtask(2, 3.0, DRHW, "A")],
                       [(1, 2)], {"ISP0": [1], "A": [2]})
    assert validate(sc) == []
    assert sc.index.drhw == (2,)


def test_loader_refuses_a_pe_holding_drhw_and_isp_subtasks(tmp_path):
    # Without the check, DRHW 2's load waited for ISP 1's exec on X as if
    # that were its tile's previous configuration.
    sc = make_scenario("s", [Subtask(1, 5.0, ISP, "X"),
                             Subtask(2, 3.0, DRHW, "X"),
                             Subtask(3, 2.0, DRHW, "Y")],
                       [(1, 3)], {"X": [1, 2], "Y": [3]})
    assert validate(sc) == ["PE 'X' holds both DRHW and ISP subtasks"]
    path = str(tmp_path / "w.json")
    save_workload(Workload((Task("t", (sc,)),)), path)
    with pytest.raises(WorkloadFormatError,
                       match="task t scenario s: PE 'X' holds both DRHW "
                             "and ISP subtasks"):
        load_workload(path)


def test_parse_number_takes_json_numbers_only():
    assert parse_number(3) == 3.0 and type(parse_number(3)) is float
    assert parse_number(2.5) == 2.5
    assert math.isnan(parse_number(float("nan")))
    for value in (True, False, "12.5", " 7 ", "1_0", None, [1]):
        with pytest.raises(ValueError, match="time must be a JSON number"):
            parse_number(value)


def test_loader_reports_a_malformed_only_scenario_once():
    # jpeg_dec has one scenario; when it is malformed the task is not also
    # reported as having none.
    doc = workload_to_dict(preset_table1(0))
    task = next(t for t in doc["tasks"] if t["id"] == "jpeg_dec")
    task["scenarios"][0]["subtasks"][0]["exec_ms"] = True
    with pytest.raises(WorkloadFormatError) as exc:
        workload_from_dict(doc)
    assert str(exc.value) == ("task jpeg_dec scenario main: malformed entry "
                              "(time must be a JSON number, got True)")
    task["scenarios"] = []
    with pytest.raises(WorkloadFormatError) as exc:
        workload_from_dict(doc)
    assert str(exc.value) == "task jpeg_dec: no scenarios"
