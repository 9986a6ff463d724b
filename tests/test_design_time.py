import hashlib
import json
from dataclasses import replace

import pytest

from drhwsim.design_time import (build_store, check_entry_matches,
                                 extract_critical_subtasks, load_store,
                                 save_store, store_to_dict)
from drhwsim.engine import TimedSchedule, compute_penalty
from drhwsim.errors import (ConsistencyError, LatencyMismatch,
                            StoreFormatError)
from drhwsim.model import Subtask, Task, Workload, make_scenario
from drhwsim.workloads import GenParams, gen_task, gen_workload, preset_table1

R = 4.0


def test_table1_store_is_pinned():
    # table1 draws no random numbers, so any change to this digest is a
    # change in the stored critical sets, orders or schedules.
    doc = store_to_dict(build_store(preset_table1(0), R))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == ("9936e0c52cae8f48442f4f37bcfb86fb"
                      "b644d675eac3fbee74f38da6bc0bde70")


def test_random_analyze_store_is_pinned():
    # The graphs of `gen --tasks 8 --subtasks 10..14 --seed 0`: exact search
    # up to 12 loads and the list fallback above, so a change to any load
    # order or tie-break changes this digest.
    workload = gen_workload(GenParams(n_min=10, n_max=14), 8, 0)
    doc = store_to_dict(build_store(workload, R))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == ("725f32fcbe096b558b57a155efa1bc4d"
                      "110ea225c4e67b7c08ca00aa5d398de9")


def test_chain_critical_set(chain4_entry):
    assert chain4_entry.critical == (1,)
    assert chain4_entry.penalty_noreuse == 4.0
    assert chain4_entry.stored_schedule.makespan == chain4_entry.ideal == 40.0
    assert chain4_entry.cs_fraction == 0.25


def test_chain_stored_orders(chain4_entry):
    # With s1 reused the remaining loads go in weight order.
    assert chain4_entry.stored_order == (2, 3, 4)
    assert chain4_entry.noreuse_order == (1, 2, 3, 4)
    assert chain4_entry.weights == {1: 40.0, 2: 30.0, 3: 20.0, 4: 10.0}


def test_extraction_prefixes_keep_penalty(chain4):
    entry = extract_critical_subtasks(chain4, R)
    order = entry.extraction_order
    for i in range(len(order)):
        assert compute_penalty(chain4, set(order[:i]), R).penalty > 0
    assert compute_penalty(chain4, set(entry.critical), R).penalty == 0.0


def test_extraction_zero_latency_needs_nothing(chain4):
    entry = extract_critical_subtasks(chain4, 0.0)
    assert entry.critical == ()
    assert entry.penalty_noreuse == 0.0


def test_extraction_of_parallel_slots():
    # Two independent subtasks on distinct tiles: nothing overlaps either
    # load, so both latencies are exposed and both subtasks are critical.
    sc = make_scenario("s", [Subtask(1, 10.0, "DRHW", "A"),
                             Subtask(2, 10.0, "DRHW", "B")],
                       [], {"A": [1], "B": [2]})
    entry = extract_critical_subtasks(sc, R)
    assert entry.critical == (1, 2)
    assert entry.extraction_order == (1, 2)   # equal weights, lower id first


def test_build_store_covers_every_scenario():
    w = preset_table1(0)
    store = build_store(w, R)
    keys = {(t.id, sc.id) for t in w.tasks for sc in t.scenarios}
    assert set(store.entries) == keys
    assert 0.0 < store.cs_fraction < 1.0


def test_build_store_rejects_invalid_scenario():
    sc = make_scenario("s", [Subtask(1, 1.0, "DRHW", "")], [], {"A": [1]})
    w = Workload((Task("t", (sc,)),))
    with pytest.raises(ConsistencyError, match="task t scenario s"):
        build_store(w, R)


def test_store_roundtrip(tmp_path, chain4_workload):
    store = build_store(chain4_workload, R)
    path = str(tmp_path / "store.json")
    save_store(store, path)
    again = load_store(path, expect_latency=R)
    assert again.latency == R
    e1, e2 = store.entry("chain4", "s0"), again.entry("chain4", "s0")
    assert e1 == e2


def test_store_roundtrip_random_workloads(tmp_path):
    for seed in range(5):
        task = gen_task(GenParams(n_min=3, n_max=8, scenarios=2), seed)
        w = Workload((task,))
        store = build_store(w, R)
        path = str(tmp_path / f"s{seed}.json")
        save_store(store, path)
        assert load_store(path).entries == store.entries


def test_load_store_latency_mismatch(tmp_path, chain4_workload):
    store = build_store(chain4_workload, R)
    path = str(tmp_path / "store.json")
    save_store(store, path)
    with pytest.raises(LatencyMismatch, match="built for latency 4.0"):
        load_store(path, expect_latency=2.0)


def test_load_store_anchors_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "drhw-store/2",\n "entries": [')
    with pytest.raises(StoreFormatError, match=r"line 2"):
        load_store(str(path))


def test_load_store_rejects_wrong_schema(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "drhw-workload/1"}')
    with pytest.raises(StoreFormatError, match="schema"):
        load_store(str(path))


def corrupt(doc, mutate):
    doc = json.loads(json.dumps(doc))
    mutate(doc["entries"][0])
    return doc


def test_load_store_validates_entries(tmp_path, chain4_workload):
    store = build_store(chain4_workload, R)
    doc = store_to_dict(store)
    cases = [
        (lambda e: e.update(critical=[4, 1], extraction_order=[4, 1]),
         "descending weight"),
        (lambda e: e["schedule"].update(makespan=99.0), "differs from ideal"),
        (lambda e: e.pop("weights"), "malformed"),
        (lambda e: e.update(drhw=[2, 3, 4]), "1 is not a DRHW subtask"),
        (lambda e: e["schedule"]["loads"][0].__setitem__(1, "A"),
         "load of subtask 2 on 'A' does not match a DRHW exec"),
        (lambda e: e["schedule"]["loads"].pop(),
         "not exactly the non-critical DRHW subtasks"),
        (lambda e: e["schedule"]["loads"].append([1, "A", 30.0, 34.0]),
         "not exactly the non-critical DRHW subtasks"),
        (lambda e: e["schedule"]["loads"][0].__setitem__(3, 5.0),
         "load of subtask 2 lasts 5.0 ms, not the store's latency 4.0 ms"),
        (lambda e: e["schedule"]["loads"][1].__setitem__(slice(2, 4), [2.0, 6.0]),
         "load of subtask 3 overlaps the previous load"),
    ]
    for i, (mutate, msg) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(corrupt(doc, mutate)))
        with pytest.raises(StoreFormatError, match=msg):
            load_store(str(path))


def test_load_store_accepts_large_times(tmp_path):
    # At 1e10 ms a float's spacing is about 2e-6 ms, so a load's end minus
    # its start is not exactly the latency; the store must still load.
    subs = [Subtask(i, 1e10 + i, "DRHW", "AB"[i % 2]) for i in range(1, 5)]
    sc = make_scenario("big", subs, [(1, 2), (2, 3), (3, 4)],
                       {"A": [2, 4], "B": [1, 3]})
    workload = Workload((Task("big", (sc,)),))
    store = build_store(workload, 3.7)
    path = str(tmp_path / "big.json")
    save_store(store, path)
    check_entry_matches(load_store(path).entry("big", "big"), sc)


def test_runtime_tables_of_chain(chain4_entry):
    e = chain4_entry                       # weights 40, 30, 20, 10
    assert e.claim_order == ((1, "A"), (2, "B"), (3, "A"), (4, "B"))
    assert e.bind_order == ("A", "B")
    assert e.slot_of == {1: "A", 2: "B", 3: "A", 4: "B"}
    assert e.configs == frozenset(("chain4", s) for s in (1, 2, 3, 4))
    assert e.critical_set == frozenset({1})
    assert e.critical_configs == frozenset({("chain4", 1)})
    assert e.drhw_set == frozenset({1, 2, 3, 4})
    assert e.stored_starts == {1: 0.0, 2: 10.0, 3: 20.0, 4: 30.0}


def test_runtime_table_ties():
    # Equal weights: the lower id claims first; slots tie on their max
    # weight and bind in name order.
    subs = [Subtask(1, 5.0, "DRHW", "B"), Subtask(2, 5.0, "DRHW", "A")]
    sc = make_scenario("p", subs, [], {"B": [1], "A": [2]})
    e = extract_critical_subtasks(sc, R, "t")
    assert e.claim_order == ((1, "B"), (2, "A"))
    assert e.bind_order == ("A", "B")


def test_runtime_tables_follow_the_scenario():
    for seed in range(5):
        task = gen_task(GenParams(n_min=5, n_max=10, scenarios=2,
                                  drhw_fraction=0.7), seed, "t")
        for sc in task.scenarios:
            e = extract_critical_subtasks(sc, R, "t")
            check_entry_matches(e, sc)
            idx = sc.index
            assert e.slot_of == idx.slot_of
            assert [s for s, _ in e.claim_order] == sorted(
                idx.drhw, key=lambda s: (-idx.weights[s], s))
            assert set(e.bind_order) == set(idx.slot_of.values())


def test_check_entry_matches_names_the_field(chain4, chain4_entry):
    check_entry_matches(chain4_entry, chain4)
    ts = chain4_entry.stored_schedule

    def schedule(execs=ts.execs, loads=ts.loads, makespan=ts.makespan):
        return replace(chain4_entry, stored_schedule=TimedSchedule(
            ts.origin, makespan, tuple(execs), tuple(loads)))

    swapped = [(sid, "B" if sid == 1 else pe, s, e) for sid, pe, s, e in ts.execs]
    # Subtask 2 starts before its load ends (and before subtask 1 ends).
    early = [(sid, pe, 0.0, e) if sid == 2 else (sid, pe, s, e)
             for sid, pe, s, e in ts.execs]
    # The load of 3 starts while subtask 1 still runs on tile A.
    eager = [(3, "A", 8.0, 12.0) if sid == 3 else (sid, slot, s, e)
             for sid, slot, s, e in ts.loads]
    wrong = [
        ("drhw", replace(chain4_entry, drhw=(1, 2, 3))),
        ("weights", replace(chain4_entry,
                            weights={**chain4_entry.weights, 1: 41.0})),
        ("ideal_ms", replace(chain4_entry, ideal=40.5)),
        ("schedule execs", schedule(execs=swapped)),
        ("schedule times", schedule(execs=early)),
        ("schedule times", schedule(makespan=41.0)),
        ("schedule times", schedule(loads=eager)),
    ]
    for field, entry in wrong:
        with pytest.raises(StoreFormatError,
                           match=rf"task chain4 scenario s0 .*\({field} differ\)"):
            check_entry_matches(entry, chain4)
