import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drhwsim
from drhwsim import cli
from drhwsim.cli import main
from drhwsim.sim import read_trace, write_trace


def run_cli(args):
    return main(list(args))


def read_json(path):
    return json.loads(Path(path).read_text())


def _child_env():
    """The environment of a child interpreter that imports this drhwsim."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(drhwsim.__file__)),
        os.environ.get("PYTHONPATH")))))


@pytest.fixture
def workload_file(tmp_path):
    path = str(tmp_path / "w.json")
    assert run_cli(["gen", "--preset", "table1", "--out", path]) == 0
    return path


@pytest.fixture
def store_file(tmp_path, workload_file):
    path = str(tmp_path / "store.json")
    assert run_cli(["analyze", workload_file, "--latency-ms", "4",
                    "--out", path]) == 0
    return path


def test_gen_random_workload(tmp_path, capsys):
    path = str(tmp_path / "w.json")
    rc = run_cli(["gen", "--tasks", "2", "--subtasks", "3..5",
                  "--seed", "1", "--out", path])
    assert rc == 0
    doc = read_json(path)
    assert doc["schema"] == "drhw-workload/1"
    assert len(doc["tasks"]) == 2
    assert "wrote" in capsys.readouterr().out


def test_gen_preset(workload_file):
    doc = read_json(workload_file)
    assert {t["id"] for t in doc["tasks"]} == {
        "pattern_rec", "jpeg_dec", "parallel_jpeg", "mpeg_enc"}


def test_analyze_prints_table(store_file, capsys, workload_file):
    run_cli(["analyze", workload_file, "--out", store_file])
    out = capsys.readouterr().out
    assert "critical subtask fraction" in out
    assert "pattern_rec" in out
    doc = read_json(store_file)
    assert doc["schema"] == "drhw-store/6"


def test_simulate_writes_report(tmp_path, workload_file, store_file, capsys):
    report = str(tmp_path / "report.json")
    rc = run_cli(["simulate", workload_file, store_file,
                  "--tiles", "4..5", "--iterations", "20", "--seed", "2",
                  "--out", report])
    assert rc == 0
    doc = read_json(report)
    assert doc["schema"] == "drhw-report/1"
    assert doc["manifest"]["seed"] == 2
    assert doc["manifest"]["tiles"] == [4, 5]
    assert len(doc["cells"]) == 2 * 5       # two tile counts, five modes
    out = capsys.readouterr().out
    assert "NoPrefetch" in out and "Hybrid" in out


def test_simulate_mode_filter(tmp_path, workload_file, store_file):
    report = str(tmp_path / "report.json")
    rc = run_cli(["simulate", workload_file, store_file, "--tiles", "4",
                  "--iterations", "5", "--modes", "NoPrefetch,Hybrid",
                  "--out", report])
    assert rc == 0
    doc = read_json(report)
    assert {c["mode"] for c in doc["cells"]} == {"NoPrefetch", "Hybrid"}


def test_simulate_reports_are_byte_identical(tmp_path, workload_file,
                                             store_file):
    args = ["simulate", workload_file, store_file, "--tiles", "4",
            "--iterations", "30", "--seed", "7"]
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    t1, t2 = str(tmp_path / "t.csv"), str(tmp_path / "sub" / "t.csv")
    (tmp_path / "sub").mkdir()
    assert run_cli(args + ["--out", r1, "--trace", t1]) == 0
    assert run_cli(args + ["--out", r2, "--trace", t2]) == 0
    assert Path(t1).read_bytes() == Path(t2).read_bytes()
    d1, d2 = read_json(r1), read_json(r2)
    d1["manifest"].pop("trace"), d2["manifest"].pop("trace")
    assert d1 == d2


def test_trace_render_gantt(tmp_path, workload_file, store_file, capsys):
    # One chart per (mode, tile count), in the trace's order, each headed
    # by that pair; the table names both on every row.
    trace = str(tmp_path / "trace.csv")
    run_cli(["simulate", workload_file, store_file, "--tiles", "4..5",
             "--iterations", "2", "--modes", "NoPrefetch,Hybrid",
             "--trace", trace])
    capsys.readouterr()
    assert run_cli(["trace", trace, "--width", "60"]) == 0
    out = capsys.readouterr().out
    assert "#" in out and "|" in out
    assert [line for line in out.splitlines() if " at " in line] == [
        "NoPrefetch at 4 tiles", "Hybrid at 4 tiles",
        "NoPrefetch at 5 tiles", "Hybrid at 5 tiles"]
    assert out.count("time 0.000..") == 4
    assert run_cli(["trace", trace, "--format", "table"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["mode", "tiles", "iteration"]
    assert {tuple(row.split()[:2]) for row in rows} == {
        (mode, tiles) for mode in ("NoPrefetch", "Hybrid")
        for tiles in ("4", "5")}
    assert any(row.split()[6] == "exec" for row in rows)


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


# A run record and a schedule of one exec, for instances that replay it.
ONE_EXEC = [("run", "Hybrid", 1), ("schedule", 0, ((1, "A", 0.0, 1.0),), ())]


def test_trace_to_a_closed_pipe_ends_quietly(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "t.csv")
    write_trace(ONE_EXEC + [("instance", 0, "t", "s", 0, 0.0, {}, (), (), ())],
                path)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run_cli(["trace", path, "--format", "table"]) == 0
    assert capsys.readouterr().err == ""


def test_trace_piped_into_a_reader_that_stops_early(tmp_path):
    # Far more rows than a pipe buffers, read one line at a time: the
    # command finds the pipe closed mid-output and again at its exit flush.
    path = str(tmp_path / "t.csv")
    write_trace(ONE_EXEC + [
        ("instance", i, "t", "s", 0, float(i), {}, (), (), ())
        for i in range(20_000)], path)
    with subprocess.Popen(
            [sys.executable, "-m", "drhwsim.cli", "trace", path, "--format",
             "table"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_child_env()) as proc:
        assert proc.stdout.readline().split()[0] == b"mode"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 0


def test_commands_run_without_numpy(tmp_path):
    # The seeded streams are pure Python: no command imports NumPy.
    code = (
        "import sys\n"
        "from drhwsim.cli import main\n"
        "w, s = sys.argv[1] + '/w.json', sys.argv[1] + '/s.json'\n"
        "assert main(['gen', '--preset', 'pocketgl', '--out', w]) == 0\n"
        "assert main(['analyze', w, '--out', s]) == 0\n"
        "assert main(['simulate', w, s, '--iterations', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_generates_no_dataclasses():
    # Every record is a plain class, so importing the CLI compiles no
    # generated methods and loads neither dataclasses nor what it imports.
    code = ("import drhwsim.cli, sys\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli(["analyze", missing, "--out", str(tmp_path / "s.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli(["analyze", str(bad), "--out", str(tmp_path / "s.json")]) == 2


def test_cli_latency_mismatch_exit_2(tmp_path, workload_file, store_file,
                                     capsys):
    rc = run_cli(["simulate", workload_file, store_file,
                  "--latency-ms", "2", "--iterations", "1"])
    assert rc == 2
    assert "latency" in capsys.readouterr().err


def test_cli_rejects_unknown_mode(workload_file, store_file, capsys):
    rc = run_cli(["simulate", workload_file, store_file, "--modes", "Bogus"])
    assert rc == 2
    assert "unknown modes" in capsys.readouterr().err


@pytest.fixture
def r5_store_at_2ms(tmp_path):
    """r5 (`gen --tasks 5 --subtasks 3..8 --scenarios 3 --seed 3`) and its
    store analyzed at R = 2 ms."""
    w, s = str(tmp_path / "r5.json"), str(tmp_path / "r5-store.json")
    assert run_cli(["gen", "--tasks", "5", "--subtasks", "3..8",
                    "--scenarios", "3", "--seed", "3", "--out", w]) == 0
    assert run_cli(["analyze", w, "--latency-ms", "2", "--out", s]) == 0
    return w, s


def test_simulate_runs_at_the_store_latency(tmp_path, r5_store_at_2ms):
    # No --latency-ms: the simulation takes R from the store, and every
    # load, init load and prefetch of the trace lasts it.
    w, s = r5_store_at_2ms
    report, trace = str(tmp_path / "report.json"), str(tmp_path / "t.csv")
    assert run_cli(["simulate", w, s, "--tiles", "8", "--iterations", "20",
                    "--seed", "1", "--out", report, "--trace", trace]) == 0
    assert read_json(report)["manifest"]["latency_ms"] == 2.0
    kinds = ("load", "init_load", "prefetch_load")
    durations = [r["end"] - r["start"] for r in read_trace(trace)
                 if r["kind"] in kinds]
    assert durations
    # Times stay below 4096 ms, where an ulp is under 1e-12.
    assert all(abs(d - 2.0) < 1e-11 for d in durations)


def test_latency_flag_only_checks_the_store(tmp_path, r5_store_at_2ms,
                                            capsys):
    # A --latency-ms within the tolerance of the store's R is accepted and
    # changes nothing: the same report, trace and stdout as without it.
    w, s = r5_store_at_2ms
    report, trace = str(tmp_path / "report.json"), str(tmp_path / "t.csv")
    outputs = []
    for flag in ([], ["--latency-ms", "2.0000000001"]):
        capsys.readouterr()
        assert run_cli(["simulate", w, s, "--tiles", "8", "--iterations",
                        "20", "--seed", "1", "--out", report,
                        "--trace", trace, *flag]) == 0
        outputs.append((Path(report).read_bytes(), Path(trace).read_bytes(),
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def _first_exec_nan(doc):
    doc["tasks"][0]["scenarios"][0]["subtasks"][0]["exec_ms"] = float("nan")
    return doc


def _mixed_pe(doc):
    """Workload whose PE X holds ISP subtask 1 and DRHW subtask 2."""
    subtasks = [{"id": 1, "exec_ms": 5.0, "target": "ISP", "slot": "X"},
                {"id": 2, "exec_ms": 3.0, "target": "DRHW", "slot": "X"},
                {"id": 3, "exec_ms": 2.0, "target": "DRHW", "slot": "Y"}]
    scenario = {"id": "s", "subtasks": subtasks, "edges": [[1, 3]],
                "schedule": {"X": [1, 2], "Y": [3]}}
    return {"schema": doc["schema"],
            "tasks": [{"id": "t", "scenarios": [scenario]}]}


def _all_exec_zero(doc):
    for sub in doc["tasks"][0]["scenarios"][0]["subtasks"]:
        sub["exec_ms"] = 0
    return doc


def _all_exec_huge(doc):
    """Workload edit: every exec time of the first scenario is 1e308, so
    any path of two subtasks overflows to inf."""
    for sub in doc["tasks"][0]["scenarios"][0]["subtasks"]:
        sub["exec_ms"] = 1e308
    return doc


def _without_latency(doc):
    del doc["latency_ms"]
    return doc


def _updated(*path, **fields):
    """Edit that updates the object at ``path`` with ``fields``."""
    def edit(doc):
        node = doc
        for key in path:
            node = node[key]
        node.update(fields)
        return doc
    return edit


def _first_subtask(key, text):
    """Workload text whose first subtask has ``key`` written as ``text``."""
    def edit(doc):
        doc["tasks"][0]["scenarios"][0]["subtasks"][0][key] = "@VALUE@"
        return json.dumps(doc).replace('"@VALUE@"', text)
    return edit


def _all_exec_times(factor):
    """Workload edit that multiplies every exec time by ``factor``."""
    def edit(doc):
        for task in doc["tasks"]:
            for scenario in task["scenarios"]:
                for sub in scenario["subtasks"]:
                    sub["exec_ms"] *= factor
        return doc
    return edit


def _trace_edit(line, old, new):
    """Trace edit that replaces the first ``old`` of line ``line`` (from 1)
    with ``new``; the trace is Hybrid's one-iteration table1 run, whose
    line 3 is its first schedule and line 4 its first instance."""
    def edit(lines):
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
        return "".join(lines)
    return edit


def _jpeg_dec_noreuse_order(doc):
    """Store edit: jpeg_dec's no-reuse order (chain[0]) becomes
    [2, 1, 3, 4], which replays to an 8 ms penalty against the stored
    4 ms."""
    entry = next(e for e in doc["entries"] if e["task"] == "jpeg_dec")
    entry["chain"][0]["order"] = [2, 1, 3, 4]
    return doc


def _feasible_pair_text(doc):
    """Workload edit: one task t whose one scenario a is listed as feasible
    by the 2-character string "ta" instead of the pair ["t", "a"]."""
    scenario = dict(doc["tasks"][0]["scenarios"][0], id="a")
    return {"schema": doc["schema"],
            "tasks": [{"id": "t", "scenarios": [scenario]}],
            "feasible_combinations": [["ta"]]}


# (command, document written to bad.json (bad.csv for a trace): text,
# bytes, a JSON value, an edit of the input or None; extra args, expected
# text).  A "pipeline" document is a workload that
# analyze accepts and simulate then refuses.
PROBES = {
    "workload-not-object": ("analyze", [1, 2], [], "bad.json"),
    "task-without-id": ("analyze", {"schema": "drhw-workload/1",
                                    "tasks": [{"scenarios": []}]}, [], "bad.json"),
    "exec-nan": ("analyze", _first_exec_nan, [], "non-finite exec time nan"),
    "exec-bool": ("analyze", _first_subtask("exec_ms", "true"), [],
                  "time must be a JSON number, got True"),
    "exec-text": ("analyze", _first_subtask("exec_ms", '"12.5"'), [],
                  "time must be a JSON number, got '12.5'"),
    "mixed-pe": ("analyze", _mixed_pe, [],
                 "task t scenario s: PE 'X' holds both DRHW and ISP subtasks"),
    "exec-all-zero": ("analyze", _all_exec_zero, [],
                      "task pattern_rec scenario main: no subtask has a "
                      "positive exec time"),
    "exec-overflow": ("analyze", _all_exec_huge, [],
                      "task pattern_rec scenario main: ideal time inf is "
                      "not finite"),
    "analyze-latency-nan": ("analyze", None, ["--latency-ms", "nan"], "nan"),
    "analyze-latency-overflow": ("analyze", None, ["--latency-ms", "1e308"],
                                 "task pattern_rec scenario main: no-reuse "
                                 "makespan inf is not finite"),
    "store-not-object": ("simulate", [], [], "bad.json"),
    "store-without-latency": ("simulate", _without_latency, [], "bad.json"),
    "simulate-latency-nan": ("simulate", None, ["--latency-ms", "nan"], "nan"),
    "edge-one-id": ("analyze", _updated("tasks", 0, "scenarios", 0,
                                        edges=[[1]]),
                    [], "edge must be a pair"),
    "edge-three-ids": ("analyze", _updated("tasks", 0, "scenarios", 0,
                                           edges=[[1, 2, 3]]),
                       [], "edge must be a pair"),
    "id-overflow": ("analyze", _first_subtask("id", "1e400"), [],
                    "subtask id must be an integer"),
    "id-fraction": ("analyze", _first_subtask("id", "1.5"), [],
                    "subtask id must be an integer"),
    "id-bool": ("analyze", _first_subtask("id", "true"), [],
                "subtask id must be an integer"),
    "task-id-lone-surrogate": ("analyze", _updated("tasks", 0, id="jpeg\ud800"),
                               [], "'jpeg\\ud800' cannot be written as UTF-8"),
    "slot-lone-surrogate": ("analyze", _first_subtask("slot", '"A\\udfff"'),
                            [], "'A\\udfff' cannot be written as UTF-8"),
    "exec-huge-int": ("analyze", _first_subtask("exec_ms", "1" + "0" * 400),
                      [], "int too large to convert to float"),
    "store-latency-text": ("simulate", _updated(latency_ms="4.0"), [],
                           "time must be a JSON number, got '4.0'"),
    "store-weight-bool": ("simulate", _updated("entries", 0, weights={"1": True}),
                          [], "time must be a JSON number, got True"),
    "store-id-fraction": ("simulate",
                          _updated("entries", 0, extraction_order=[1.5]),
                          [], "subtask id must be an integer"),
    "store-id-bool": ("simulate",
                      _updated("entries", 0, extraction_order=[True]),
                      [], "subtask id must be an integer"),
    "store-weight-key": ("simulate",
                         _updated("entries", 0, weights={"1.0": 1.0}),
                         [], "subtask id must be an integer"),
    "store-loads-not-id": ("simulate",
                           _updated("entries", 0, "chain", 1,
                                    order=[2, 3, "4x"]),
                           [], "subtask id must be an integer"),
    "store-critical-not-drhw": ("simulate",
                                _updated("entries", 0,
                                         extraction_order=[1, 9]), [],
                                "task jpeg_dec scenario main does not match "
                                "the workload (extraction_order differ)"),
    "store-extraction-order": ("simulate",
                               _updated("entries", 0,
                                        extraction_order=[999, 7]), [],
                               "task jpeg_dec scenario main does not match "
                               "the workload (extraction_order differ)"),
    # jpeg_dec: extraction order 1; chain 1, 2, 3, 4 at 4 ms, then 2, 3, 4
    # at 0 ms; 2 and 4 share a tile.
    "store-loads-repeated": ("simulate",
                             _updated("entries", 0, "chain", 1,
                                      order=[2, 3, 3]), [],
                             "task jpeg_dec scenario main does not match "
                             "the workload (chain[1] order differ)"),
    "store-loads-deadlock": ("simulate",
                             _updated("entries", 0, "chain", 1,
                                      order=[4, 2, 3]), [],
                             "task jpeg_dec scenario main does not match "
                             "the workload (chain[1] order differ)"),
    # The order and its 8 ms penalty agree, but the last step must be 0.
    "store-loads-not-ideal": ("simulate",
                              _updated("entries", 0, "chain", 1,
                                       order=[2, 4, 3], penalty_ms=8.0), [],
                              "task jpeg_dec scenario main does not match "
                              "the workload (makespan differ)"),
    "store-noreuse-order": ("simulate", _jpeg_dec_noreuse_order, [],
                            "task jpeg_dec scenario main does not match "
                            "the workload (chain[0] penalty differ)"),
    "workload-not-utf-8": ("analyze", b"\xff\xfe{}", [],
                           "bad.json: not UTF-8 text"),
    "store-not-utf-8": ("simulate", b"\xff\xfe{}", [],
                        "bad.json: not UTF-8 text"),
    # Past the parser's depth, and past the integer digit limit of some
    # Python builds: only the file name is matched.
    "workload-deep": ("analyze", "[" * 200000, [], "bad.json"),
    "store-deep": ("simulate", "[" * 200000, [], "bad.json"),
    "workload-long-int": ("analyze", "1" * 5000, [], "bad.json"),
    "store-long-int": ("simulate", "1" * 5000, [], "bad.json"),
    # Read as a list, "13" would be the ids 1 and 3, and "ta" the pair
    # (t, a): both were accepted.
    "schedule-text": ("analyze", _updated("tasks", 0, "scenarios", 0,
                                          "schedule", A="13"), [],
                      "bad.json: task pattern_rec scenario main: malformed "
                      "entry (expected a list of subtask ids, got '13')"),
    "feasible-pair-text": ("analyze", _feasible_pair_text, [],
                           "bad.json: malformed document (ValueError: "
                           "(task, scenario) must be a pair, got 'ta')"),
    "workload-no-tasks": ("analyze", {"schema": "drhw-workload/1"}, [],
                          "bad.json: no tasks"),
    "tiles-empty-range": ("simulate", None, ["--tiles", "5..3"],
                          "empty range '5..3'"),
    "tiles-not-int": ("simulate", None, ["--tiles", "x"], "'x'"),
    "tiles-list": ("simulate", None, ["--tiles", "4..4,5"], "'4..4,5'"),
    "gen-subtasks-empty-range": ("gen", None, ["--subtasks", "5..3"],
                                 "empty range '5..3'"),
    "gen-subtasks-zero": ("gen", None, ["--subtasks", "0..3"],
                          "bad subtask count range [0,3]"),
    "gen-slots-zero": ("gen", None, ["--slots", "0"],
                       "need at least one slot"),
    "gen-density": ("gen", None, ["--density", "2"],
                    "edge density 2.0 outside [0,1]"),
    "gen-scenarios-zero": ("gen", None, ["--scenarios", "0"],
                           "need at least one scenario"),
    "gen-tasks-zero": ("gen", None, ["--tasks", "0"],
                       "need at least one task, got 0"),
    "gen-tasks-negative": ("gen", None, ["--tasks", "-2"],
                           "need at least one task, got -2"),
    "gen-exec-high-nan": ("gen", None, ["--exec-high", "nan"],
                          "bad exec range [1.0,nan]"),
    "gen-exec-zero": ("gen", None, ["--exec-low", "0", "--exec-high", "0"],
                      "bad exec range [0.0,0.0]"),
    "gen-seed-negative": ("gen", None, ["--seed", "-3"],
                          "seed must be >= 0, got -3"),
    "gen-table1-seed-negative": ("gen", None,
                                 ["--preset", "table1", "--seed", "-1"],
                                 "seed must be >= 0, got -1"),
    "gen-pocketgl-seed-negative": ("gen", None,
                                   ["--preset", "pocketgl", "--seed", "-1"],
                                   "seed must be >= 0, got -1"),
    "gen-seed-not-int": ("gen", None, ["--seed", "1.5"],
                         "seed must be an integer, got '1.5'"),
    "simulate-seed-negative": ("simulate", None, ["--seed", "-2"],
                               "seed must be >= 0, got -2"),
    # analyze accepts exec times near the float limit; two iterations of
    # the timeline then overflow.
    "simulate-overflow": ("pipeline", _all_exec_times(1e306),
                          ["--iterations", "2", "--tiles", "4"],
                          "NoPrefetch at 4 tiles: ideal total inf and actual "
                          "total nan must be finite"),
    "gen-exec-overflow": ("gen", None, ["--tasks", "2", "--subtasks", "3..4",
                                        "--exec-high", "1e308"],
                          "bad exec range [1.0,1e+308]"),
    "modes-empty": ("simulate", None, ["--modes", ""],
                    "modes must name at least one mode"),
    "modes-comma": ("simulate", None, ["--modes", ","],
                    "modes must name at least one mode"),
    "modes-repeated": ("simulate", None, ["--modes", "Hybrid,Hybrid"],
                       "modes must be distinct, got ['Hybrid', 'Hybrid']"),
    "trace-nan": ("trace", _trace_edit(4, ',4.0,{', ',NaN,{'), [],
                  "bad.csv: line 4: malformed instance record"),
    "trace-inf": ("trace", _trace_edit(3, "21.0]", "Infinity]"), [],
                  "bad.csv: line 3: malformed schedule record"),
    "trace-extra-field": ("trace", _trace_edit(4, "]\n", ',"junk"]\n'), [],
                          "bad.csv: line 4: malformed instance record"),
    "trace-end-before-start": ("trace",
                               _trace_edit(3, "0.0,21.0", "9999.0,21.0"), [],
                               "bad.csv: line 4: exec of subtask 1 over "
                               "[10003.0, 25.0] is not a finite interval"),
    "trace-width-zero": ("trace", _trace_edit(1, "", ""), ["--width", "0"],
                         "width must be >= 1, got 0"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_input_exits_2(tmp_path, workload_file, store_file, capsys,
                                 probe):
    command, doc, extra, expected = PROBES[probe]
    bad = str(tmp_path / "bad.json")
    workload, store = workload_file, store_file
    if command == "trace":
        bad = str(tmp_path / "bad.csv")
        trace = str(tmp_path / "trace.csv")
        assert run_cli(["simulate", workload, store, "--iterations", "1",
                        "--modes", "Hybrid", "--trace", trace]) == 0
        doc = doc(Path(trace).read_text().splitlines(keepends=True))
    elif callable(doc):
        source = store_file if command == "simulate" else workload_file
        doc = doc(read_json(source))
    if doc is not None:
        if isinstance(doc, bytes):
            Path(bad).write_bytes(doc)
        else:
            Path(bad).write_text(doc if isinstance(doc, str)
                                 else json.dumps(doc))
        if command == "simulate":
            store = bad
        else:
            workload = bad
    if command == "pipeline":
        store = str(tmp_path / "s.json")
        assert run_cli(["analyze", workload, "--out", store]) == 0
    capsys.readouterr()
    if command == "gen":
        argv = ["gen", "--out", str(tmp_path / "g.json")]
    elif command == "analyze":
        argv = ["analyze", workload, "--out", str(tmp_path / "s.json")]
    elif command == "trace":
        argv = ["trace", bad]
    else:
        argv = ["simulate", workload, store, "--iterations", "1",
                "--out", str(tmp_path / "r.json")]
    assert run_cli(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert expected in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()     # no report is written


@pytest.mark.parametrize("unwritable", ["trace", "report"])
def test_unwritable_output_leaves_no_output(tmp_path, workload_file,
                                            store_file, capsys, unwritable):
    # Either output failing to open exits 2, and the other output, written
    # or not yet written, is not left behind.
    report, trace = str(tmp_path / "rep.json"), str(tmp_path / "t.csv")
    missing = str(tmp_path / "no" / "such" / "dir" / "out")
    if unwritable == "trace":
        trace = missing
    else:
        report = missing
    capsys.readouterr()
    assert run_cli(["simulate", workload_file, store_file, "--iterations", "2",
                    "--out", report, "--trace", trace]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "No such file or directory" in err
    assert not os.path.exists(report) and not os.path.exists(trace)
    assert sorted(os.listdir(tmp_path)) == ["store.json", "w.json"]


@pytest.mark.parametrize("trace", ["P", "./P", "link-to-P"])
def test_report_and_trace_on_one_file_exit_2(tmp_path, monkeypatch,
                                             workload_file, store_file,
                                             capsys, trace):
    # --out P with a --trace naming the same file, spelled the same, with
    # ./ or through a symlink: exit 2 before simulating, P untouched.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "P").write_text("keep\n")
    os.symlink("P", tmp_path / "link-to-P")
    monkeypatch.setattr(cli, "run_simulation", lambda *a: pytest.fail(
        "simulated although the outputs name one file"))
    capsys.readouterr()
    assert run_cli(["simulate", workload_file, store_file, "--iterations",
                    "2", "--out", "P", "--trace", trace]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: --out 'P' and --trace {trace!r} name the same "
                   "file\n")
    assert (tmp_path / "P").read_text() == "keep\n"


# An output naming an input: (the command with its inputs W, the workload,
# and S, the store; the output flag; the input it names).
OVERWRITES = {
    "analyze-out-workload": (["analyze", "W"], "--out", "W"),
    "simulate-out-store": (["simulate", "W", "S"], "--out", "S"),
    "simulate-out-workload": (["simulate", "W", "S"], "--out", "W"),
    "simulate-trace-workload": (["simulate", "W", "S"], "--trace", "W"),
    "simulate-trace-store": (["simulate", "W", "S"], "--trace", "S"),
}


@pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
@pytest.mark.parametrize("case", sorted(OVERWRITES))
def test_output_naming_an_input_exits_2(tmp_path, monkeypatch, workload_file,
                                        store_file, capsys, case, spelling):
    # The output names the input by the same string, with ./ or through a
    # symlink: exit 2 before reading anything, every file untouched.
    command, flag, target = OVERWRITES[case]
    monkeypatch.chdir(tmp_path)
    os.rename(workload_file, "W")
    os.rename(store_file, "S")
    for name in ("W", "S"):
        os.symlink(name, f"link-to-{name}")
    before = {name: (tmp_path / name).read_bytes()
              for name in sorted(os.listdir(tmp_path))}
    monkeypatch.setattr(cli, "load_workload", lambda *a: pytest.fail(
        "read an input although an output names it"))
    path = {"same": target, "dot": f"./{target}",
            "symlink": f"link-to-{target}"}[spelling]
    capsys.readouterr()
    assert run_cli([*command, flag, path]) == 2
    role = {"W": "workload", "S": "store"}[target]
    assert capsys.readouterr().err == (
        f"error: {role} {target!r} and {flag} {path!r} name the same file\n")
    assert {name: (tmp_path / name).read_bytes()
            for name in sorted(os.listdir(tmp_path))} == before


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_of_each_command_equals_the_full_parsers(command, capsys):
    # main builds only the arguments of the command it runs; its help must
    # read as that of a parser built with every command's arguments.
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    lazy = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    assert lazy == capsys.readouterr().out


# A store analyzed from one generated workload, simulated against another
# with the same task and scenario ids: (store's gen args, simulated
# workload's gen args, extra simulate args).
MISMATCH_PROBES = {
    "pocketgl-8-tiles": (["--preset", "pocketgl", "--seed", "3"],
                         ["--preset", "pocketgl", "--seed", "4"],
                         ["--tiles", "8"]),
    "pocketgl-4-tiles": (["--preset", "pocketgl", "--seed", "3"],
                         ["--preset", "pocketgl", "--seed", "4"],
                         ["--tiles", "4"]),
    "random": (["--tasks", "3", "--subtasks", "5..8", "--seed", "1"],
               ["--tasks", "3", "--subtasks", "5..8", "--seed", "2"], []),
}


@pytest.mark.parametrize("probe", sorted(MISMATCH_PROBES))
def test_store_from_other_workload_exits_2(tmp_path, capsys, probe):
    built_from, simulated, extra = MISMATCH_PROBES[probe]
    w1, w2 = str(tmp_path / "w1.json"), str(tmp_path / "w2.json")
    store = str(tmp_path / "s.json")
    assert run_cli(["gen", *built_from, "--out", w1]) == 0
    assert run_cli(["gen", *simulated, "--out", w2]) == 0
    assert run_cli(["analyze", w1, "--out", store]) == 0
    capsys.readouterr()
    assert run_cli(["simulate", w2, store, "--iterations", "1000", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "does not match the workload (weights differ)" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Work done once per command
# ---------------------------------------------------------------------------

def test_one_scenario_index_per_scenario(tmp_path, monkeypatch, capsys):
    # pocketgl --seed 3 has 40 scenarios; validation, the design-time phase
    # and the store check all use the one cached Scenario.index.
    from drhwsim import model

    builds = []
    init = model.ScenarioIndex.__init__

    def counting_init(self, scenario):
        builds.append(scenario.id)
        init(self, scenario)

    w, s = str(tmp_path / "w.json"), str(tmp_path / "s.json")
    assert run_cli(["gen", "--preset", "pocketgl", "--seed", "3", "--out", w]) == 0
    monkeypatch.setattr(model.ScenarioIndex, "__init__", counting_init)
    assert run_cli(["analyze", w, "--out", s]) == 0
    assert len(builds) == 40
    builds.clear()
    assert run_cli(["simulate", w, s, "--tiles", "4..6",
                    "--iterations", "20"]) == 0
    assert len(builds) == 40


SWEEP_WORKLOADS = {
    "table1": ["--preset", "table1", "--seed", "1"],
    "pocketgl": ["--preset", "pocketgl", "--seed", "3"],
    "random": ["--tasks", "4", "--subtasks", "6..11", "--scenarios", "2",
               "--seed", "5"],
}


@pytest.mark.parametrize("case", sorted(SWEEP_WORKLOADS))
def test_tile_sweep_equals_single_tile_runs(tmp_path, monkeypatch, case):
    # One simulate over --tiles 4..6 draws the plan and checks the store
    # once, and reports and traces exactly what three single-tile runs
    # report and trace.
    from drhwsim import sim

    calls = {"select_iteration": 0, "check_entry_matches": 0}

    def counted(name):
        fn = getattr(sim, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    w, s = str(tmp_path / "w.json"), str(tmp_path / "s.json")
    assert run_cli(["gen", *SWEEP_WORKLOADS[case], "--out", w]) == 0
    assert run_cli(["analyze", w, "--out", s]) == 0
    n_scenarios = sum(len(t["scenarios"]) for t in read_json(w)["tasks"])

    def simulate(tiles):
        report, trace = (str(tmp_path / f"{tiles}.json"),
                         str(tmp_path / f"{tiles}.csv"))
        assert run_cli(["simulate", w, s, "--tiles", tiles, "--seed", "1",
                        "--iterations", "100", "--out", report,
                        "--trace", trace]) == 0
        return read_json(report)["cells"], read_trace(trace)

    for name in calls:
        monkeypatch.setattr(sim, name, counted(name))
    cells, rows = simulate("4..6")
    assert calls == {"select_iteration": 100, "check_entry_matches": n_scenarios}
    single = [simulate(str(tiles)) for tiles in (4, 5, 6)]
    assert cells == [c for one in single for c in one[0]]
    assert rows == [r for one in single for r in one[1]]
