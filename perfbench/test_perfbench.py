"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_self_time_of_synthetic_span_tree():
    # root [0, 100] has children [10, 30] and [20, 50] (overlapping) and
    # [90, 120] (overhanging the root's end); [20, 50] has a child [25, 35].
    spans = [
        (1, 0, "root", 0, 100, None),
        (2, 1, "a", 10, 30, None),
        (3, 1, "b", 20, 50, None),
        (4, 3, "c", 25, 35, None),
        (5, 1, "d", 90, 120, None),
    ]
    assert self_times(spans) == {1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 10, 5: 30}


def test_tracer_nests_spans_and_records_failures():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", lambda x: x + 1, info=lambda a, k, r: r)
    failing = tracer.wrap("failing", boom)

    def body():
        inner(1)
        with pytest.raises(ValueError):
            failing()
        return 7

    outer = tracer.wrap("outer", body)
    assert outer() == 7
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["failing"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == 0
    assert by_name["inner"][5] == 2
    assert by_name["failing"][5] == {"error": "ValueError"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"{name} = " in proc.stdout and unit in proc.stdout
        assert isinstance(result["metrics"][name]["value"], (int, float))
    values = {n: v["value"] for n, v in result["metrics"].items()}
    if trace:
        # design_time reaches compute_penalty through its own module
        # attribute; sim reaches execute_task_instance through its own.
        assert values["engine.compute_penalty.calls"] > 0
        assert values["runtime.Hybrid.instances"] > 0
        assert values["cli.self_s"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "table1-trace", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
