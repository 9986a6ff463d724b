#!/usr/bin/env python3
"""drhwsim benchmark: the ``gen -> analyze -> simulate`` CLI pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1-trace --seed 1 --seconds 38 --trace 0

Each repetition runs the three CLI commands, each in its own fresh
interpreter (``child.py``), then checks their output files.  Repetitions
continue until ``--seconds`` is used up (at least three).  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced repetitions alternate and
the JSON object carries the per-layer metrics from the traced ones, plus
the tracing overhead.  Every time is scaled to a fixed machine speed (see
``REF_NOMINAL_S``) and a run reports medians over its repetitions.
``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import read_spans, self_times  # noqa: E402

# Single-threaded children and parent; a fixed hash seed keeps set and dict
# iteration order, and so the work done, identical from run to run.
RUN_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MODES = ("NoPrefetch", "DesignTimePrefetch", "RuntimeHeuristic",
         "RuntimeInterTask", "Hybrid")
TILES = (4, 5, 6)
LATENCY_MS = 4.0
# The random-analyze graphs are fixed: the design-time cost of 20 random
# 10..14-subtask tasks varies from 2.8 s to 5.1 s between generator seeds,
# far beyond any usable regression bound.  --seed moves its simulation.
# Every simulation runs all tasks each iteration (--all-tasks), so the
# number of task instances, and with it the work, does not depend on --seed.
GRAPH_SEED = 0
HELD_OUT_SEED = 9001
MIN_REPS = 3
# Every time is reported at a fixed machine speed: the child runs a fixed
# kernel (child.reference) just before and after the command, and the
# command's wall time is scaled by REF_NOMINAL_S / (kernel time).  On a
# shared 2-core Xeon VM (2.0 GHz) the speed switches every few seconds
# between two states about 1.6x apart, and which one dominates changes over
# minutes; unscaled, run medians spread by 0.16 to 0.35 of their value over
# 10 seeds.  The kernel takes about REF_NOMINAL_S there in the slow state.
REF_NOMINAL_S = 0.045
CHILD_TIMEOUT_S = 150
PHASES = ("setup", "analyze", "simulate")

WORKLOADS = ("table1-trace", "pocketgl-switch", "random-analyze")


def pipeline(workload: str, seed: int, smoke: bool) -> list[tuple[str, list[str]]]:
    """The three CLI commands of one repetition, as (phase, argv)."""
    def iterations(n):
        return ["--iterations", str(5 if smoke else n)]

    if workload == "table1-trace":
        gen = ["--preset", "table1", "--seed", str(seed)]
        sim = iterations(100) + ["--trace", "trace.csv"]
    elif workload == "pocketgl-switch":
        gen = ["--preset", "pocketgl", "--seed", str(seed)]
        sim = iterations(100)
    elif workload == "random-analyze":
        gen = ["--tasks", "2" if smoke else "8", "--subtasks", "10..14",
               "--seed", str(GRAPH_SEED)]
        sim = iterations(30)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    latency = ["--latency-ms", repr(LATENCY_MS)]
    return [
        ("setup", ["gen", *gen, "--out", "workload.json"]),
        ("analyze", ["analyze", "workload.json", *latency, "--out", "store.json"]),
        ("simulate", ["simulate", "workload.json", "store.json",
                      "--tiles", f"{TILES[0]}..{TILES[-1]}", *latency,
                      "--seed", str(seed), "--all-tasks", "--out", "report.json",
                      *sim]),
    ]


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    traced: bool
    seconds: dict[str, float] = field(default_factory=dict)   # scaled
    wall: dict[str, float] = field(default_factory=dict)      # as measured
    scale: dict[str, float] = field(default_factory=dict)
    rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    spans: dict[str, list] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_child(phase, argv, work: Path, spans_path: str):
    """Run one CLI command in a fresh interpreter; None if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), phase,
           spans_path, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=work, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"FAIL {phase}: timed out after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result["rc"] != 0:
        print(f"FAIL {phase}: drhwsim {' '.join(argv)}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return result


def check_store(work: Path, workload: dict) -> None:
    from drhwsim.design_time import load_store
    store = load_store(str(work / "store.json"), expect_latency=LATENCY_MS)
    expected = {(t["id"], s["id"]) for t in workload["tasks"]
                for s in t["scenarios"]}
    if set(store.entries) != expected:
        raise AssertionError("store entries do not match the workload scenarios")


def check_report(report: dict) -> None:
    from drhwsim.sim import REPORT_SCHEMA
    if report.get("schema") != REPORT_SCHEMA:
        raise AssertionError(f"report schema {report.get('schema')!r}")
    cells = sorted((c["mode"], c["tiles"]) for c in report["cells"])
    if cells != sorted((m, t) for m in MODES for t in TILES):
        raise AssertionError(f"report cells {cells}")
    for c in report["cells"]:
        if not (math.isfinite(c["overhead_pct"]) and c["overhead_pct"] >= 0):
            raise AssertionError(f"overhead_pct {c['overhead_pct']} in {c}")


def check_trace(work: Path, workload: dict, report: dict) -> None:
    """Every exec, load, prefetch and cancellation in the report is a row."""
    from drhwsim.sim import read_trace
    if any(s["target"] != "DRHW" for t in workload["tasks"]
           for sc in t["scenarios"] for s in sc["subtasks"]):
        raise AssertionError("row count check assumes DRHW-only workloads")
    expected = sum(c["drhw_instances"] + c["loads_issued"] + c["loads_cancelled"]
                   for c in report["cells"])
    rows = len(read_trace(str(work / "trace.csv")))
    if rows != expected:
        raise AssertionError(f"trace has {rows} rows, report implies {expected}")


def run_rep(commands, work: Path, traced: bool, reference: str) -> Rep:
    rep = Rep(traced=traced)
    for path in work.iterdir():
        path.unlink()
    for phase, argv in commands:
        spans_path = str(work / f"spans-{phase}.jsonl") if traced else ""
        rep.attempted += 1
        result = run_child(phase, argv, work, spans_path)
        if result is None:
            rep.failed += 1
            continue
        rep.scale[phase] = REF_NOMINAL_S / result["ref_s"]
        rep.wall[phase] = result["seconds"]
        rep.seconds[phase] = result["seconds"] * rep.scale[phase]
        rep.rss_mib = max(rep.rss_mib, result["maxrss_kib"] / 1024.0)
        if traced:
            rep.spans[phase] = read_spans(spans_path)

    files = ["workload.json", "store.json", "report.json"]
    has_trace = any("--trace" in argv for _, argv in commands)
    if has_trace:
        files.append("trace.csv")
    workload: dict = {}

    def check(fn, *args):
        rep.attempted += 1
        try:
            fn(*args)
        except Exception as exc:   # any failure of the check is a failed operation
            rep.failed += 1
            print(f"FAIL check {fn.__name__}: {exc!r}", file=sys.stderr)

    def load_docs():
        workload.update(json.loads((work / "workload.json").read_text()))
        rep.report = json.loads((work / "report.json").read_text())

    check(load_docs)
    if not reference:
        # Later reps must reproduce these files byte for byte (the digest
        # check below), so checking their content once is enough.
        check(check_store, work, workload)
        check(check_report, rep.report)
        if has_trace:
            check(check_trace, work, workload, rep.report)

    def check_digest():
        h = hashlib.sha256()
        for name in files:
            h.update((work / name).read_bytes())
        rep.digest = h.hexdigest()
        if reference and rep.digest != reference:
            raise AssertionError(f"output digest {rep.digest} != {reference}")

    check(check_digest)
    return rep


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); zeros when empty."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def typical(values: list[float]) -> float:
    """The value a run reports for a quantity measured once per rep."""
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(reps: list[Rep]) -> dict[str, tuple[list[float], str]]:
    """Metric -> (samples, unit), over successful untraced reps."""
    plain = [r for r in reps if not r.traced]
    good = [r for r in plain if r.ok] or plain
    out = {}
    for phase in PHASES:
        out[f"{phase}_s"] = ([r.seconds[phase] for r in good if phase in r.seconds], "s")
    out["peak_rss_mib"] = ([r.rss_mib for r in good], "MiB")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    out["ok_frac"] = ([1.0 - failed / attempted], "ratio")
    return out


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced rep; times in seconds unless named."""
    m: dict[str, float] = defaultdict(float)
    decisions: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, list[int]] = defaultdict(lambda: [0] * 7)
    list_calls: dict[str, int] = defaultdict(int)
    extract: list[float] = []
    bb_by_loads: dict[str, float] = defaultdict(float)
    for phase, spans in rep.spans.items():
        selfs = self_times(spans)
        k = rep.scale[phase] / 1e9          # ns -> scaled seconds
        instance_mode = {s[0]: s[5][0] for s in spans
                         if s[2] == "runtime.execute_task_instance"}
        m["trace.spans"] += len(spans)
        for sid, parent, name, start, end, info in spans:
            dur = (end - start) * k
            mod = name.split(".", 1)[0]
            if mod == "cli":
                m["cli.self_s"] += selfs[sid] * k
                covered = (end - start - selfs[sid]) * k
                m[f"trace.coverage.{phase}"] = covered / rep.seconds[phase]
            elif name == "engine.schedule_optimal_bb":
                if isinstance(info, dict):
                    m["engine.list_fallback.calls"] += 1
                    continue
                m["engine.bb.calls"] += 1
                m["engine.bb.s"] += dur
                bb_by_loads["le8" if info <= 8 else str(info)] += dur
            elif name == "runtime.execute_task_instance":
                decisions[info[0]].append(dur * 1e6)
                c = counts[info[0]]
                for i, v in enumerate(info[1:]):
                    c[i] += v
            elif name == "design_time.extract_critical_subtasks":
                extract.append(dur)
                m["design_time.greedy_steps"] += info
            elif name == "design_time.build_store":
                m["design_time.cs_fraction"] = info
            elif name == "sim.run_simulation":
                m["sim.run_simulation.self_s"] += selfs[sid] * k
            elif name == "sim.write_trace":
                m["sim.trace_rows"] += info
                m["sim.write_trace.frac"] += dur / rep.seconds[phase]
            elif mod == "workloads":
                m["workloads.gen.s"] += dur
            else:
                m[f"{name}.calls"] += 1
                m[f"{name}.s"] += dur
            if name == "engine.schedule_list_heuristic" and parent in instance_mode:
                list_calls[instance_mode[parent]] += 1
    # Shares rather than times: a time that reads 0 on every run of a
    # workload that never reaches the layer would look like a fake timing.
    for bins, t in bb_by_loads.items():
        m[f"engine.bb.frac.loads_{bins}"] = t / m["engine.bb.s"]
    penalty_calls = m.get("engine.compute_penalty.calls", 0)
    m["engine.bb.exact_frac"] = m["engine.bb.calls"] / penalty_calls if penalty_calls else 0.0
    m["design_time.extract.s_p50"] = statistics.median(extract) if extract else 0.0
    m["design_time.extract.s_max"] = max(extract, default=0.0)
    for mode in MODES:
        d = decisions.get(mode, [])
        reused, drhw, loads, cancelled, init, prefetch, hits = counts[mode]
        p = f"runtime.{mode}."
        m[p + "decision_us_p50"] = statistics.median(d) if d else 0.0
        m[p + "decision_us_p99"] = percentile(d, 99)
        m[p + "instances"] = len(d)
        m[p + "list_calls_per_instance"] = list_calls[mode] / len(d) if d else 0.0
        m[p + "reuse_frac"] = reused / drhw if drhw else 0.0
        m[p + "loads_issued"] = loads
        m[p + "loads_cancelled"] = cancelled
        m[p + "init_loads"] = init
        m[p + "prefetch_loads"] = prefetch
        m[p + "prefetch_hit_frac"] = hits / prefetch if prefetch else 0.0
    for cell in rep.report.get("cells", ()):
        m[f"sim.{cell['mode']}.overhead_pct.tiles_{cell['tiles']}"] = cell["overhead_pct"]
    return m


def per_layer(reps: list[Rep], names: list[str]) -> dict[str, float]:
    traced = [layer_metrics(r) for r in reps if r.traced and r.ok]
    plain = [r for r in reps if not r.traced and r.ok]
    out = {name: typical([t.get(name, 0.0) for t in traced]) for name in names}
    for phase in PHASES:
        on = [r.seconds[phase] for r in reps if r.traced and r.ok]
        off = [r.seconds[phase] for r in plain]
        if on and off:
            out[f"trace.overhead.{phase}_frac"] = typical(on) / typical(off) - 1.0
    return out


# ---------------------------------------------------------------------------
# Run info
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "drhwsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_info(args, commands) -> dict:
    import numpy
    import drhwsim
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commands": {phase: ["drhwsim", *argv] for phase, argv in commands},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "drhwsim": drhwsim.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


def workload_params(work: Path) -> dict:
    doc = json.loads((work / "workload.json").read_text())
    scenarios = [sc for t in doc["tasks"] for sc in t["scenarios"]]
    sizes = [len(sc["subtasks"]) for sc in scenarios]
    return {"tasks": len(doc["tasks"]), "scenarios": len(scenarios),
            "subtasks_min": min(sizes), "subtasks_max": max(sizes),
            "subtasks_total": sum(sizes),
            "feasible_combinations": (None if doc["feasible_combinations"] is None
                                      else len(doc["feasible_combinations"]))}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drhwsim" / "__init__.py").is_file():
        print(f"error: no drhwsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(RUN_ENV)          # before numpy is imported; children inherit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}

    commands = pipeline(args.workload, args.seed, args.smoke)
    work = OUT / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    info = run_info(args, commands)
    print("run-info " + json.dumps(info, sort_keys=True), flush=True)

    # Warm-up: compile bytecode and fill the page cache before timing.
    run_child("setup", commands[0][1], work, "")

    reps: list[Rep] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reference = reps[0].digest if reps else ""
        reps.append(run_rep(commands, work, traced, reference))
        per_rep = (time.perf_counter() - start) / len(reps)
        enough = len(reps) >= MIN_REPS * (2 if args.trace else 1)
        if enough and time.perf_counter() + per_rep > deadline:
            break
    info["workload_params"] = workload_params(work) if reps[-1].ok else None
    print("workload-params " + json.dumps(info["workload_params"]))

    e2e = end_to_end(reps)
    plain = [r for r in reps if not r.traced and r.ok]
    for name, (samples, unit) in e2e.items():
        q1, q2, q3 = quartiles(samples)
        line = (f"{name} = {q2:.6g} {unit}  (median of {len(samples)}; "
                f"quartiles {q1:.6g}..{q3:.6g}")
        if unit == "s":
            wall = statistics.median(r.wall[name[:-2]] for r in plain) if plain else 0.0
            line += f"; unscaled wall median {wall:.6g} s"
        print(line + ")")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"fail_frac = {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print(f"output digest {reps[0].digest}")

    if args.trace:
        values = per_layer(reps, list(wanted))
        for name, value in values.items():
            print(f"{name} = {value:.6g} {wanted[name]}")
    else:
        values = {name: typical(samples) for name, (samples, _) in e2e.items()}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"info": info, "digest": reps[0].digest, "metrics": values,
              "attempted": attempted, "failed": failed,
              "reps": [{"traced": r.traced, "seconds": r.seconds, "wall": r.wall,
                        "scale": r.scale, "rss_mib": r.rss_mib,
                        "failed": r.failed} for r in reps]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
