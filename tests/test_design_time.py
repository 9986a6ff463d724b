import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhwsim.design_time import (DesignTimeEntry, build_store,
                                 check_entry_matches,
                                 extract_critical_subtasks, load_store,
                                 save_store, store_from_dict, store_to_dict)
from drhwsim.engine import compute_penalty, place_loads
from drhwsim.errors import (ConsistencyError, LatencyMismatch, OrderError,
                            StoreFormatError)
from drhwsim.model import TIME_TOL, Subtask, Task, Workload, make_scenario
from drhwsim.workloads import GenParams, gen_task, gen_workload, preset_table1

R = 4.0


def test_table1_store_is_pinned():
    # table1 draws no random numbers, so any change to this digest is a
    # change in the stored critical sets or orders.
    doc = store_to_dict(build_store(preset_table1(0), R))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == ("75843c0348aaa7fba99348478a92f218"
                      "cabec74cdbf28b53c660d68ee79a0cfa")


def test_random_analyze_store_is_pinned():
    # The graphs of `gen --tasks 8 --subtasks 10..14 --seed 0`: exact search
    # up to 12 loads and the list fallback above, so a change to any load
    # order or tie-break changes this digest.
    workload = gen_workload(GenParams(n_min=10, n_max=14), 8, 0)
    doc = store_to_dict(build_store(workload, R))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == ("04d8865c66aebf523bc04fb3faa040b1"
                      "d689f67006f214893e98acc7a52bce28")


def warm_and_cold_reports(monkeypatch, seed):
    """Every greedy step's report of `build_store` on the graphs of `gen
    --tasks 8 --subtasks 10..14 --seed <seed>`, warm-started from the
    previous step's order, and the same steps searched again without it."""
    import drhwsim.design_time as design_time
    calls = []

    def counted(scenario, reused, latency, **kwargs):
        calls.append((scenario, tuple(reused), latency,
                      compute_penalty(scenario, reused, latency, **kwargs)))
        return calls[-1][3]

    monkeypatch.setattr(design_time, "compute_penalty", counted)
    build_store(gen_workload(GenParams(n_min=10, n_max=14), 8, seed), R)
    cold = [compute_penalty(sc, reused, latency)
            for sc, reused, latency, _ in calls]
    return [r for *_, r in calls], cold


def test_random_analyze_search_nodes_are_pinned(monkeypatch):
    # The deterministic work counter of the design-time search on the same
    # graphs: B&B nodes summed over every greedy step (0 where the list
    # heuristic ran).  Each step is warm-started from the previous step's
    # order, whose makespan alone is its incumbent; searched again without
    # that hint, from the list order's makespan, every step gives the same
    # report, in more nodes over all steps.
    warm, cold = warm_and_cold_reports(monkeypatch, 0)
    assert [r._replace(nodes=0) for r in warm] == [
        r._replace(nodes=0) for r in cold]
    assert sum(r.nodes for r in warm) == 1899
    assert sum(r.nodes for r in cold) == 2440


@pytest.mark.parametrize("seed", [7, 9001])
def test_warm_and_cold_searches_agree(monkeypatch, seed):
    # Any incumbent at or above the optimum gives the same order, so the
    # warm start moves only the node count, on graphs beyond the pinned ones.
    warm, cold = warm_and_cold_reports(monkeypatch, seed)
    assert [r._replace(nodes=0) for r in warm] == [
        r._replace(nodes=0) for r in cold]


def test_chain_critical_set(chain4, chain4_store, chain4_entry):
    assert chain4_entry.critical == (1,)
    assert chain4_entry.penalty_noreuse == 4.0
    placed = check_entry_matches(chain4_entry, chain4, R)[0]
    assert placed == place_loads(chain4, (2, 3, 4), (2, 3, 4), R)
    assert placed.makespan == chain4.index.ideal == 40.0
    assert chain4_store.cs_fraction == 0.25      # its only entry's fraction


def test_entry_holds_only_the_store_decisions():
    # An entry is a plain record of the eight decisions a store entry
    # holds; no placed schedule hides in it.
    assert list(DesignTimeEntry._fields) == [
        "task_id", "scenario_id", "critical", "extraction_order", "loads",
        "noreuse_order", "weights", "penalty_noreuse"]


def test_chain_stored_orders(chain4_entry):
    # With s1 reused the remaining loads go in weight order.
    assert chain4_entry.loads == (2, 3, 4)
    assert chain4_entry.drhw == (1, 2, 3, 4)
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


def test_save_store_writes_no_non_finite_number(tmp_path, chain4_workload):
    store = build_store(chain4_workload, R)
    store.entries[("chain4", "s0")].penalty_noreuse = math.inf
    path = tmp_path / "store.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_store(store, str(path))
    assert not path.exists()


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


def test_load_store_refuses_a_nan_expected_latency(tmp_path, chain4_workload):
    # Every comparison with a NaN is false, so it passes the tolerance
    # test; it is refused as a latency instead.
    path = str(tmp_path / "store.json")
    save_store(build_store(chain4_workload, R), path)
    with pytest.raises(OrderError, match="got nan"):
        load_store(path, expect_latency=math.nan)


def test_load_store_anchors_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "drhw-store/2",\n "entries": [')
    with pytest.raises(StoreFormatError, match=r"line 2"):
        load_store(str(path))


def test_load_store_rejects_a_version_3_store(tmp_path, chain4,
                                             chain4_store):
    # A drhw-store/4 document holds each entry's timed schedule instead of
    # its loads; a /3 one adds each schedule's origin.  Both are refused
    # with a schema error.
    v4 = store_to_dict(chain4_store)
    v4["schema"] = "drhw-store/4"
    for entry in v4["entries"]:
        loads = entry.pop("loads")
        ts = place_loads(chain4, loads, loads, R)
        entry["schedule"] = {
            "makespan": ts.makespan,
            "execs": [list(event) for event in ts.execs],
            "loads": [list(event) for event in ts.loads]}
    v3 = json.loads(json.dumps(v4))
    v3["schema"] = "drhw-store/3"
    for entry in v3["entries"]:
        entry["schedule"]["origin"] = 0.0
    for version, doc in ((3, v3), (4, v4)):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreFormatError,
                           match=f"schema='drhw-store/{version}'"):
            load_store(str(path))


def test_load_store_rejects_wrong_schema(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "drhw-workload/1"}')
    with pytest.raises(StoreFormatError, match="schema"):
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
    check_entry_matches(load_store(path).entry("big", "big"), sc, 3.7)


def test_runtime_tables_of_chain(chain4, chain4_entry):
    idx, e = chain4.index, chain4_entry    # weights 40, 30, 20, 10
    assert idx.slot_heads == (("A", 1), ("B", 2))
    assert idx.bind_order == ("A", "B")
    assert e.configs == frozenset(("chain4", s) for s in (1, 2, 3, 4))
    assert e.critical_configs == frozenset({("chain4", 1)})
    assert idx.drhw_set == frozenset({1, 2, 3, 4})


def test_runtime_table_ties():
    # Equal weights: slots tie on their max weight and bind in name order.
    # A slot's first subtask is its first in per-PE order, whatever the
    # weights and ids: 3 runs before 1 on slot B.
    subs = [Subtask(1, 5.0, "DRHW", "B"), Subtask(2, 5.0, "DRHW", "A"),
            Subtask(3, 0.0, "DRHW", "B")]
    sc = make_scenario("p", subs, [], {"B": [3, 1], "A": [2]})
    assert sc.index.slot_heads == (("A", 2), ("B", 3))
    assert sc.index.bind_order == ("A", "B")


def test_runtime_tables_follow_the_scenario():
    for seed in range(5):
        task = gen_task(GenParams(n_min=5, n_max=10, scenarios=2,
                                  drhw_fraction=0.7), seed, "t")
        for sc in task.scenarios:
            idx = sc.index
            firsts = {pe: [sid for sid in seq if sid in idx.drhw]
                      for pe, seq in sc.schedule}
            assert dict(idx.slot_heads) == {
                pe: ids[0] for pe, ids in firsts.items() if ids}
            top = {pe: max(idx.weights[sid] for sid in ids)
                   for pe, ids in firsts.items() if ids}
            assert idx.bind_order == tuple(
                sorted(top, key=lambda pe: (-top[pe], pe)))


def _edit(*path, value):
    """Document edit that sets the item at ``path`` of the first entry."""
    def edit(entry):
        node = entry
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# Each case corrupts the chain4 store document (critical 1; loads 2, 3, 4;
# execs 10 ms each, ideal 40 ms) and the message the loader or the check
# must reject it with.
CORRUPT_ENTRIES = [
    # Parse checks of the loader.
    (lambda e: e.pop("weights"), "malformed"),
    (lambda e: e.pop("loads"), "malformed"),
    (_edit("loads", value=[2, 3.5, 4]), "malformed"),
    (_edit("loads", value="234"), "malformed"),
    # The weights fingerprint the workload.
    (_edit("weights", "1", value=41.0), r"\(weights differ\)"),
    # DRHW ids: the critical ones plus the loads, exactly the scenario's.
    (_edit("critical", value=[1, 5]), r"\(drhw differ\)"),
    (_edit("critical", value=[1, 1]), r"\(drhw differ\)"),
    (_edit("loads", value=[2, 3]), r"\(drhw differ\)"),
    (_edit("loads", value=[2, 3, 4, 5]), r"\(drhw differ\)"),
    (_edit("loads", value=[2, 3, 3]), r"\(drhw differ\)"),
    (_edit("loads", value=[1, 2, 3, 4]), r"\(drhw differ\)"),
    # Critical set in init order; the loads without 4 are otherwise what
    # extraction with {1, 4} critical gives.
    (lambda e: e.update(critical=[4, 1], loads=[2, 3]),
     r"\(critical differ\)"),
    # The extraction order holds the critical ids, each once.
    (_edit("extraction_order", value=[1, 999]),
     r"\(extraction_order differ\)"),
    (_edit("extraction_order", value=[]), r"\(extraction_order differ\)"),
    (_edit("extraction_order", value=[1, 1]), r"\(extraction_order differ\)"),
    # The load of 4 first waits for subtask 2 on tile B, whose own load is
    # behind it: the order deadlocks.
    (_edit("loads", value=[4, 2, 3]), r"\(loads differ\)"),
    # Feasible, but loading 3 first delays 2 and everything after it.
    (_edit("loads", value=[3, 2, 4]), r"\(makespan differ\)"),
    # Nothing critical: every load placed, 4 ms over the ideal.
    (lambda e: e.update(critical=[], extraction_order=[], loads=[1, 2, 3, 4]),
     r"\(makespan differ\)"),
]


def test_check_entry_matches_names_the_field(chain4, chain4_store):
    doc = store_to_dict(chain4_store)
    store = store_from_dict(json.loads(json.dumps(doc)))
    check_entry_matches(store.entry("chain4", "s0"), chain4, store.latency)
    for mutate, msg in CORRUPT_ENTRIES:
        bad = json.loads(json.dumps(doc))
        mutate(bad["entries"][0])
        with pytest.raises(StoreFormatError, match=msg):
            store = store_from_dict(bad)
            check_entry_matches(store.entry("chain4", "s0"), chain4,
                                store.latency)


def test_load_store_validates_entries(tmp_path, chain4, chain4_store):
    # The loader refuses an entry it cannot parse and names the file; an
    # entry it parses is then checked against the scenario by replaying it.
    doc = store_to_dict(chain4_store)
    malformed = [
        lambda e: e.pop("weights"),
        _edit("critical", value=[1.5]),
        _edit("noreuse_order", value=[True, 2, 3, 4]),
        _edit("weights", "x", value=1.0),
        _edit("loads", 0, value="two"),
        _edit("loads", value=None),
        _edit("penalty_noreuse_ms", value="nan"),
    ]
    cases = [(mutate, "malformed") for mutate in malformed] + CORRUPT_ENTRIES
    for i, (mutate, msg) in enumerate(cases):
        bad = json.loads(json.dumps(doc))
        mutate(bad["entries"][0])
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(StoreFormatError, match=msg) as info:
            store = load_store(str(path))
            check_entry_matches(store.entry("chain4", "s0"), chain4,
                                store.latency)
        if msg == "malformed":
            assert str(path) in str(info.value)


def test_load_store_rejects_a_duplicate_entry(tmp_path, chain4_store):
    # A second entry for the same (task, scenario) is refused, whichever
    # copy is garbage: neither may silently replace the other.
    good = store_to_dict(chain4_store)["entries"][0]
    garbage = json.loads(json.dumps(good))
    garbage.update(critical=[999], weights={"1": -1.0})
    for i, entries in enumerate(([garbage, good], [good, garbage])):
        doc = dict(store_to_dict(chain4_store), entries=entries)
        path = tmp_path / f"dup{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreFormatError,
                           match="task chain4 scenario s0: duplicate entry"):
            load_store(str(path))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), latency=st.sampled_from([0.0, 2.5, 4.0]),
       data=st.data())
def test_check_entry_matches_replays_exactly(seed, latency, data):
    # An honest store passes the check after a document round trip; with
    # its loads in any other order it passes exactly when placing that
    # order from time 0 gives the ideal makespan.
    task = gen_task(GenParams(n_min=2, n_max=9, drhw_fraction=0.8), seed, "t")
    sc = task.scenarios[0]
    doc = json.loads(json.dumps(store_to_dict(
        build_store(Workload((task,)), latency))))
    check_entry_matches(store_from_dict(doc).entry("t", sc.id), sc, latency)
    loads = doc["entries"][0]["loads"]
    order = data.draw(st.permutations(loads), label="loads")
    doc["entries"][0]["loads"] = order
    entry = store_from_dict(doc).entry("t", sc.id)
    try:
        ideal = abs(place_loads(sc, order, order, latency).makespan
                    - sc.index.ideal) <= TIME_TOL
    except OrderError:
        ideal = False
    if ideal:
        check_entry_matches(entry, sc, latency)
    else:
        with pytest.raises(StoreFormatError,
                           match=r"\((loads|makespan) differ\)"):
            check_entry_matches(entry, sc, latency)
