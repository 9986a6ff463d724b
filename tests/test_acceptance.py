"""End-to-end acceptance checks, one test per criterion.

Each test records one PASS/FAIL line (printed in the terminal summary) with
its measured numbers and the tolerance it was judged against.
"""

import json
import time

import pytest

from drhwsim import engine
from drhwsim.design_time import build_store, extract_critical_subtasks
from drhwsim.engine import (compute_penalty, schedule_list_heuristic,
                            schedule_no_prefetch, schedule_optimal_bb)
from drhwsim.model import (Subtask, Task, Workload, make_scenario)
from drhwsim.runtime import (HYBRID, ResidencyMap, execute_task_instance,
                             fixed_schedule)
from drhwsim.sim import SimConfig, hidden_pct, run_simulation
from drhwsim.workloads import (GenParams, gen_task, preset_pocketgl,
                               preset_table1)
from conftest import acceptance_verdicts, chain4_scenario
from oracle import brute_force_oracle

R = 4.0
TOL = 1e-9


def record(n, ok, detail):
    acceptance_verdicts.append((n, "PASS" if ok else "FAIL", detail))
    assert ok, f"criterion {n}: {detail}"


def small_scenario(seed):
    return gen_task(GenParams(n_min=3, n_max=6, scenarios=1), seed).scenarios[0]


@pytest.fixture(scope="module")
def presets():
    out = {}
    for name, w in (("table1", preset_table1(0)), ("pocketgl", preset_pocketgl(0))):
        out[name] = (w, build_store(w, R))
    return out


@pytest.fixture(scope="module")
def preset_grid(presets):
    """Overhead per (preset, seed, tiles, mode): 1000 iterations each."""
    grid = {}
    for name, (w, store) in presets.items():
        for seed in (1, 2, 3):
            cfg = SimConfig(tiles=(4, 5, 6, 7, 8), iterations=1000,
                            seed=seed)
            results, _ = run_simulation(w, store, cfg)
            for tiles, by_mode in results.items():
                for mode, m in by_mode.items():
                    grid[(name, seed, tiles, mode)] = m.overhead_pct
    return grid


def test_criterion_1_search_equals_oracle():
    """Optimal search == exhaustive oracle on 200 scenarios, tolerance 0."""
    mismatches = 0
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        sc = small_scenario(seed)
        loads = sc.index.drhw
        if not 2 <= len(loads) <= 6:
            continue
        checked += 1
        _, bb, _ = schedule_optimal_bb(sc, loads, R)
        _, oracle = brute_force_oracle(sc, loads, R)
        if bb.makespan != oracle.makespan:
            mismatches += 1
    record(1, mismatches == 0,
           f"{checked} scenarios, {mismatches} makespan mismatches "
           "(exact equality required)")


def test_criterion_2_critical_set_definition(presets):
    """Penalty(CS)=0 and every proper extraction prefix has penalty>0."""
    scenarios = [sc for _, (w, _) in sorted(presets.items())
                 for t in w.tasks for sc in t.scenarios]
    seed = 500
    while len(scenarios) < 60:
        seed += 1
        scenarios.append(small_scenario(seed))
    bad = []
    for sc in scenarios:
        entry = extract_critical_subtasks(sc, R)
        if compute_penalty(sc, set(entry.critical), R).penalty > TOL:
            bad.append((sc.id, "final penalty nonzero"))
        order = entry.extraction_order
        for i in range(len(order)):
            if compute_penalty(sc, set(order[:i]), R).penalty <= TOL:
                bad.append((sc.id, f"prefix {i} already penalty-free"))
    record(2, not bad,
           f"{len(scenarios)} scenarios, {len(bad)} violations "
           f"(penalty tolerance {TOL})")


def test_criterion_3_canonical_fixture():
    """Hand timeline of the four-subtask chain, exact equality."""
    sc = chain4_scenario()
    task = Task("chain4", (sc,))
    store = build_store(Workload((task,)), R)
    entry = store.entry("chain4", "s0")
    loads = sc.index.drhw

    got = {
        "no_prefetch": schedule_no_prefetch(sc, loads, R).makespan,
        "optimal": schedule_optimal_bb(sc, loads, R)[1].makespan,
        "critical": entry.critical,
    }
    rm = ResidencyMap(2)
    cold = execute_task_instance(sc, entry, rm, HYBRID, R)
    got["hybrid_cold"] = cold.span
    rm2 = ResidencyMap(2)
    rm2.install(0, ("chain4", 1), 0.0)
    got["hybrid_resident"] = execute_task_instance(sc, entry, rm2, HYBRID, R).span
    rm3 = ResidencyMap(2)
    a = execute_task_instance(sc, entry, rm3, HYBRID, R, lookahead=entry)
    b = execute_task_instance(sc, entry, rm3, HYBRID, R, t0=a.end,
                              ctrl_free=a.ctrl_free)
    got["back_to_back"] = b.end

    want = {"no_prefetch": 56.0, "optimal": 44.0, "critical": (1,),
            "hybrid_cold": 44.0, "hybrid_resident": 40.0, "back_to_back": 84.0}
    diffs = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    record(3, not diffs, f"fixture values {got} (exact), mismatches: {diffs or 'none'}")


def test_criterion_4_mode_ordering(preset_grid):
    """Overhead ordering across modes; hybrid within +1.5pp of inter-task."""
    order_bad = []
    worst_gap = float("-inf")
    for (name, seed, tiles, mode), ov in preset_grid.items():
        if mode != "NoPrefetch":
            continue
        key = (name, seed, tiles)
        chain = [preset_grid[key + (m,)] for m in
                 ("NoPrefetch", "DesignTimePrefetch", "RuntimeHeuristic",
                  "RuntimeInterTask")]
        if any(a < b - TOL for a, b in zip(chain, chain[1:])):
            order_bad.append(key)
        gap = preset_grid[key + ("Hybrid",)] - chain[-1]
        worst_gap = max(worst_gap, gap)
    record(4, not order_bad and worst_gap <= 1.5,
           f"30 grid cells, {len(order_bad)} ordering violations, worst "
           f"hybrid gap {worst_gap:+.2f}pp (limit +1.5pp)")


def test_criterion_5_overhead_hidden(preset_grid):
    """At 8 tiles the hybrid hides >= 90% of the no-prefetch overhead."""
    worst = {}
    for name in ("table1", "pocketgl"):
        worst[name] = min(
            hidden_pct(preset_grid[(name, seed, 8, "NoPrefetch")],
                       preset_grid[(name, seed, 8, "Hybrid")])
            for seed in (1, 2, 3))
    ok = all(v >= 90.0 for v in worst.values())
    record(5, ok,
           f"hidden overhead at 8 tiles: table1 {worst['table1']:.1f}%, "
           f"pocketgl {worst['pocketgl']:.1f}% (threshold 90%)")


def test_criterion_6_monotonicity(presets):
    """Reuse growth, tile growth and inter-task prefetch never hurt."""
    problems = []

    # (a) enlarging the assumed-reused set never raises the optimal penalty
    import random
    rnd = random.Random(42)
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        sc = small_scenario(seed)
        loads = list(sc.index.drhw)
        if len(loads) < 2:
            continue
        checked += 1
        base = set(rnd.sample(loads, rnd.randrange(len(loads))))
        room = [s for s in loads if s not in base]
        extra = set(rnd.sample(room, rnd.randrange(len(room) + 1)))
        p1 = compute_penalty(sc, base, R).penalty
        p2 = compute_penalty(sc, base | extra, R).penalty
        if p2 > p1 + TOL:
            problems.append(f"reuse growth raised penalty (seed {seed})")

    # (b) more tiles never raise the hybrid overhead on the preset
    w, store = presets["pocketgl"]
    prev = None
    for tiles in range(2, 9):
        cfg = SimConfig(tiles=(tiles,), iterations=1000, seed=7,
                        modes=(HYBRID,))
        results, _ = run_simulation(w, store, cfg)
        ov = results[tiles][HYBRID].overhead_pct
        if prev is not None and ov > prev + TOL:
            problems.append(f"tiles {tiles - 1}->{tiles} raised overhead "
                            f"{prev:.3f}->{ov:.3f}")
        prev = ov

    # (c) inter-task prefetch never extends a two-task sequence
    pairs = 0
    seed = 0
    while pairs < 50:
        seed += 1
        t1 = gen_task(GenParams(n_min=3, n_max=6, scenarios=1), seed, "a")
        t2 = gen_task(GenParams(n_min=3, n_max=6, scenarios=1), seed + 9000, "b")
        st = build_store(Workload((t1, t2)), R)
        pairs += 1
        s1, s2 = t1.scenarios[0], t2.scenarios[0]
        e1, e2 = st.entry("a", s1.id), st.entry("b", s2.id)
        tiles = max(2, len({s1.index.pe_of[x] for x in s1.index.drhw})
                    + len({s2.index.pe_of[x] for x in s2.index.drhw}))
        ends = {}
        for prefetch in (False, True):
            rm = ResidencyMap(tiles)
            la = e2 if prefetch else None
            ra = execute_task_instance(s1, e1, rm, HYBRID, R, lookahead=la)
            rb = execute_task_instance(s2, e2, rm, HYBRID, R, t0=ra.end,
                                       ctrl_free=ra.ctrl_free)
            ends[prefetch] = rb.end
        if ends[True] > ends[False] + TOL:
            problems.append(f"prefetch extended makespan (seed {seed})")

    record(6, not problems,
           f"100 reuse growths, 7 tile counts, 50 task pairs; "
           f"{len(problems)} violations (tolerance {TOL}): {problems[:3]}")


def test_criterion_7_runtime_cost(monkeypatch):
    """Hybrid decisions for 20 tasks x 14 subtasks inside 10 ms, with no
    load order derived or placed at run time.  The timed phase includes
    the inter-task prefetch of each next task's critical configurations."""
    tasks = tuple(gen_task(GenParams(n_min=14, n_max=14, scenarios=1),
                           100 + i, f"t{i}") for i in range(20))
    w = Workload(tasks)
    store = build_store(w, R)
    entries = [store.entry(t.id, t.scenarios[0].id) for t in tasks]
    # As in a simulation, the store check places each stored schedule
    # before the run time starts, and the run time replays it.
    placed = {}
    for t, entry in zip(tasks, entries):
        fixed_schedule(HYBRID, t.scenarios[0], entry, R, placed)
    prefetches = set()

    def run_hybrid():
        rm = ResidencyMap(16)
        cache = dict(placed)
        t0 = ctrl = 0.0
        decisions = []
        tic = time.perf_counter()
        for t, entry, lookahead in zip(tasks, entries, entries[1:] + [None]):
            res = execute_task_instance(t.scenarios[0], entry, rm, HYBRID, R,
                                        t0=t0, ctrl_free=ctrl,
                                        lookahead=lookahead,
                                        sched_cache=cache)
            t0, ctrl = res.end, res.ctrl_free
            decisions.append(res.decision)
        elapsed = time.perf_counter() - tic
        prefetches.add(sum(len(d.prefetched) for d in decisions))
        return elapsed

    def run_list():
        tic = time.perf_counter()
        for t in tasks:
            sc = t.scenarios[0]
            schedule_list_heuristic(sc, sc.index.drhw, R)
        return time.perf_counter() - tic

    def counted(run):
        """Calls of engine.priority_order and engine._try_place in one
        untimed run, so counting costs the timed runs nothing."""
        calls = {"priority_order": 0, "_try_place": 0}
        with monkeypatch.context() as m:
            for name in calls:
                def wrapped(*a, _f=getattr(engine, name), _n=name, **k):
                    calls[_n] += 1
                    return _f(*a, **k)
                m.setattr(engine, name, wrapped)
            run()
        return tuple(calls.values())

    # The two sides alternate, so a change of machine speed moves both.
    # Each round also counts the load orders each side derives and places:
    # a machine-independent half of the verdict.
    rounds = [(run_hybrid(), run_list(), counted(run_hybrid),
               counted(run_list)) for _ in range(5)]
    hybrid_ms = min(r[0] for r in rounds) * 1000.0
    list_ms = min(r[1] for r in rounds) * 1000.0
    hybrid_calls = {r[2] for r in rounds}
    list_calls = {r[3] for r in rounds}
    record(7, hybrid_ms < 10.0 and hybrid_ms < list_ms
           and hybrid_calls == {(0, 0)} and list_calls == {(20, 20)},
           f"hybrid run-time phase {hybrid_ms:.2f} ms for 280 subtasks "
           f"(limit 10 ms), list heuristic {list_ms:.2f} ms; "
           f"(priority_order, _try_place) calls per round: hybrid "
           f"{sorted(hybrid_calls)}, list {sorted(list_calls)}; hybrid "
           f"prefetches per round {sorted(prefetches)}")


def test_criterion_8_deterministic_artifacts(tmp_path, presets, capsys):
    """Equal seeds give byte-identical report and trace files, and the
    same printed table."""
    from drhwsim.cli import main
    from drhwsim.model import save_workload

    w, store = presets["pocketgl"]
    wpath = str(tmp_path / "w.json")
    save_workload(w, wpath)
    spath = str(tmp_path / "s.json")
    main(["analyze", wpath, "--latency-ms", "4", "--out", spath])
    capsys.readouterr()

    blobs = []
    for d in ("one", "two"):
        sub = tmp_path / d
        sub.mkdir()
        rc = main(["simulate", wpath, spath, "--tiles", "4",
                   "--iterations", "100", "--seed", "5",
                   "--out", str(sub / "report.json"),
                   "--trace", str(sub / "trace.csv")])
        assert rc == 0
        report = (sub / "report.json").read_bytes()
        # The manifest records the caller's file paths; mask them so the
        # comparison covers the measured content.
        doc = json.loads(report)
        doc["manifest"]["trace"] = "trace.csv"
        stdout = capsys.readouterr().out.replace(str(sub), "<dir>")
        blobs.append((json.dumps(doc, sort_keys=True),
                      (sub / "trace.csv").read_bytes(), stdout))
    ok = blobs[0] == blobs[1]
    record(8, ok, "two runs, seed 5: report, trace and stdout byte-identical"
           if ok else "two runs, seed 5: artifacts differ")
