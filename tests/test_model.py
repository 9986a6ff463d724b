import json

import pytest

from drhwsim.errors import GraphError, WorkloadFormatError
from drhwsim.model import (DRHW, ISP, Subtask, SubtaskGraph, Task, Workload,
                           alap_weights, load_workload, make_scenario,
                           save_workload, validate)
from drhwsim.workloads import preset_table1


def test_chain4_is_valid(chain4):
    assert validate(chain4) == []


def test_alap_weights_chain(chain4):
    # Hand values: longest exec path from each start to the graph end.
    assert alap_weights(chain4.graph) == {1: 40.0, 2: 30.0, 3: 20.0, 4: 10.0}


def test_alap_weights_branch():
    g = SubtaskGraph((Subtask(1, 3.0, DRHW, "A"), Subtask(2, 5.0, DRHW, "B"),
                      Subtask(3, 2.0, DRHW, "C")), ((1, 2), (1, 3)))
    assert alap_weights(g) == {1: 8.0, 2: 5.0, 3: 2.0}


def test_alap_weights_cycle_raises():
    g = SubtaskGraph((Subtask(1, 1.0, DRHW, "A"), Subtask(2, 1.0, DRHW, "B")),
                     ((1, 2), (2, 1)))
    with pytest.raises(GraphError):
        alap_weights(g)


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
    assert idx.ancestors(4) == frozenset({1, 2, 3})
    assert idx.deps == {1: (), 2: (1,), 3: (2, 1), 4: (3, 2)}


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
