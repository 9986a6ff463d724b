"""Command-line front end: generate, analyze, simulate, render traces.

All times on the interfaces are milliseconds as decimal numbers; integer
ranges are accepted as ``a..b``.  Every command is deterministic given its
flags; re-running a command with the same flags reproduces its output files
byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from . import __version__
from .design_time import build_store, load_store, save_store
from .errors import DrhwError
from .model import load_workload, save_workload
from .runtime import MODES
from .sim import (SimConfig, metrics_to_dict, read_trace, run_simulation,
                  write_trace, REPORT_SCHEMA)
from .workloads import PRESETS, GenParams, gen_workload


def _parse_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise DrhwError(
            f"expected an integer or a range a..b, got {text!r}") from None
    if hi < lo:
        raise DrhwError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise DrhwError(f"seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise DrhwError(f"seed must be >= 0, got {seed}")
    return seed


def _parse_modes(text: str) -> tuple[str, ...]:
    """The modes of ``--modes``; ``SimConfig`` checks them."""
    if text == "all":
        return MODES
    return tuple(m.strip() for m in text.split(",") if m.strip())


def cmd_gen(args) -> int:
    if args.preset:
        workload = PRESETS[args.preset](args.seed)
    else:
        n = _parse_range(args.subtasks)
        try:
            params = GenParams(
                n_min=n[0], n_max=n[-1],
                exec_low=args.exec_low, exec_high=args.exec_high,
                edge_density=args.density, drhw_fraction=args.drhw_frac,
                slots=args.slots, scenarios=args.scenarios)
            workload = gen_workload(params, args.tasks, args.seed)
        except ValueError as exc:
            raise DrhwError(str(exc)) from exc
    save_workload(workload, args.out)
    n_scn = sum(len(t.scenarios) for t in workload.tasks)
    print(f"wrote {args.out}: {len(workload.tasks)} tasks, {n_scn} scenarios")
    return 0


def cmd_analyze(args) -> int:
    _check_paths([("workload", args.workload)], [("--out", args.out)])
    workload = load_workload(args.workload)
    store = build_store(workload, args.latency_ms)
    save_store(store, args.out)
    print(f"{'task':<16}{'scenario':<10}{'|DRHW|':>7}{'|CS|':>6}"
          f"{'penalty before':>16}")
    for (tid, sid), e in sorted(store.entries.items()):
        print(f"{tid:<16}{sid:<10}{len(e.drhw):>7}{len(e.critical):>6}"
              f"{e.chain[0][1]:>16.3f}")
    frac = store.cs_fraction
    print(f"critical subtask fraction: {100.0 * frac:.1f}% "
          f"(qualitative reproduction; the published graphs are not available)")
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    _check_paths([("workload", args.workload), ("store", args.store)],
                 [("--out", args.out), ("--trace", args.trace)])
    workload = load_workload(args.workload)
    store = load_store(args.store, expect_latency=args.latency_ms)
    modes = _parse_modes(args.modes)
    tiles_list = _parse_range(args.tiles)
    config = SimConfig(tiles=tuple(tiles_list), iterations=args.iterations,
                       seed=args.seed, modes=modes,
                       trace=args.trace is not None, all_tasks=args.all_tasks)
    results, records = run_simulation(workload, store, config)
    cells, cs_fraction = [], store.cs_fraction
    for tiles, by_mode in results.items():
        baseline = by_mode.get("NoPrefetch")
        for mode in modes:
            cell = {"tiles": tiles, "cs_fraction": cs_fraction}
            cell.update(metrics_to_dict(by_mode[mode], baseline))
            cells.append(cell)
    manifest = {
        "tool": "drhwsim",
        "version": __version__,
        "workload": args.workload,
        "store": args.store,
        "tiles": tiles_list,
        "latency_ms": store.latency,
        "iterations": args.iterations,
        "seed": args.seed,
        "modes": list(modes),
        "all_tasks": args.all_tasks,
        "trace": args.trace,
    }
    report = {"schema": REPORT_SCHEMA, "manifest": manifest, "cells": cells}
    payload = json.dumps(report, indent=2, sort_keys=True,
                         allow_nan=False) + "\n"
    outputs = []
    if args.trace:
        outputs.append((args.trace, lambda path: write_trace(records, path)))
    if args.out:
        outputs.append((args.out, lambda path: _write_text(path, payload)))
    _write_outputs(outputs)
    print(f"{'mode':<22}{'tiles':>6}{'overhead%':>11}{'reuse%':>8}"
          f"{'hidden%':>9}")
    for cell in cells:
        hid = cell["hidden_pct_vs_noprefetch"]
        print(f"{cell['mode']:<22}{cell['tiles']:>6}"
              f"{cell['overhead_pct']:>11.3f}{cell['reuse_pct']:>8.1f}"
              f"{(f'{hid:.1f}' if hid is not None else '-'):>9}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _check_paths(inputs, outputs) -> None:
    """Refuse an output that names an input or another output, before any
    work.  Both are lists of (name, path) pairs; an unset output is None."""
    named = list(inputs)
    for name, path in outputs:
        if path:
            for other, seen in named:
                if _same_file(seen, path):
                    raise DrhwError(f"{other} {seen!r} and {name} {path!r} "
                                    "name the same file")
            named.append((name, path))


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file: the same resolved path,
    or, when both exist, the same file (a hard link)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_outputs(outputs) -> None:
    """Call each ``write(path)`` of ``outputs`` in turn.  If one fails,
    remove the files written before it, and the failing one if it did not
    exist before, so that a command that exits 2 leaves no output."""
    written = []
    for path, write in outputs:
        fresh = not os.path.lexists(path)
        try:
            write(path)
        except OSError:
            for done in written + [path] * fresh:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise
        written.append(path)


def cmd_trace(args) -> int:
    if args.width < 1:
        raise DrhwError(f"width must be >= 1, got {args.width}")
    rows = read_trace(args.trace)
    if args.format == "table":
        print(f"{'mode':<20}{'tiles':>5} {'iteration':>9} {'task':<14}"
              f"{'scenario':<10}{'resource':<10}{'kind':<14}{'subtask':>7} "
              f"{'start':>10} {'end':>10}")
        for r in rows:
            print(f"{r['mode']:<20}{r['tiles']:>5} {r['iteration']:>9} "
                  f"{r['task']:<14}{r['scenario']:<10}{r['resource']:<10}"
                  f"{r['kind']:<14}{r['subtask']:>7} "
                  f"{r['start']:>10.3f} {r['end']:>10.3f}")
        return 0
    if not rows:
        print("(empty trace)")
    for (mode, tiles), chart in itertools.groupby(
            rows, key=lambda r: (r["mode"], r["tiles"])):
        print(f"{mode} at {tiles} tiles")
        _render_gantt(list(chart), width=args.width)
    return 0


def _render_gantt(rows, width: int = 100) -> None:
    t_lo = min(r["start"] for r in rows)
    t_hi = max(r["end"] for r in rows)
    span = max(t_hi - t_lo, 1e-9)
    resources = sorted({r["resource"] for r in rows})
    glyph = {"exec": "#", "load": "=", "init_load": "+",
             "prefetch_load": "*", "cancel": "x"}
    print(f"time {t_lo:.3f}..{t_hi:.3f} ms  "
          f"(#=exec ==load +=init *=prefetch x=cancelled)")
    for res in resources:
        line = [" "] * width
        for r in rows:
            if r["resource"] != res:
                continue
            a = int((r["start"] - t_lo) / span * (width - 1))
            b = max(a + 1, int((r["end"] - t_lo) / span * (width - 1)))
            for i in range(a, min(b, width)):
                line[i] = glyph.get(r["kind"], "?")
        print(f"{res:<10}|{''.join(line)}|")


def _gen_arguments(g) -> None:
    g.add_argument("--preset", choices=sorted(PRESETS))
    g.add_argument("--tasks", type=int, default=4)
    g.add_argument("--subtasks", default="4..10",
                   help="subtask count or range a..b (random workloads)")
    g.add_argument("--exec-low", type=float, default=1.0)
    g.add_argument("--exec-high", type=float, default=10.0)
    g.add_argument("--density", type=float, default=0.3)
    g.add_argument("--drhw-frac", type=float, default=1.0)
    g.add_argument("--slots", type=int, default=3)
    g.add_argument("--scenarios", type=int, default=1)
    g.add_argument("--seed", type=_parse_seed, default=0)
    g.add_argument("--out", required=True)


def _analyze_arguments(a) -> None:
    a.add_argument("workload")
    a.add_argument("--latency-ms", type=float, default=4.0)
    a.add_argument("--out", required=True)


def _simulate_arguments(s) -> None:
    s.add_argument("workload")
    s.add_argument("store")
    s.add_argument("--tiles", default="4", help="tile count or range a..b")
    s.add_argument("--latency-ms", type=float,
                   help="refuse a store built for another latency")
    s.add_argument("--iterations", type=int, default=1000)
    s.add_argument("--seed", type=_parse_seed, default=0)
    s.add_argument("--modes", default="all",
                   help="comma-separated mode list or 'all'")
    s.add_argument("--all-tasks", action="store_true",
                   help="run every task each iteration instead of a random subset")
    s.add_argument("--trace", help="write a trace file")
    s.add_argument("--out", help="write the JSON report")


def _trace_arguments(t) -> None:
    t.add_argument("trace")
    t.add_argument("--format", choices=("gantt", "table"), default="gantt")
    t.add_argument("--width", type=int, default=100)


# name -> (help, adds the arguments, runs the command)
COMMANDS = {
    "gen": ("generate a workload file", _gen_arguments, cmd_gen),
    "analyze": ("extract critical subtasks, write the schedule store",
                _analyze_arguments, cmd_analyze),
    "simulate": ("run the discrete-event simulation", _simulate_arguments,
                 cmd_simulate),
    "trace": ("render a trace file", _trace_arguments, cmd_trace),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command.  Each command has a subparser, so help
    and errors name them all, but only ``command``'s arguments are added
    when it names a command: building them all takes a few milliseconds,
    a large part of a short command's run."""
    p = argparse.ArgumentParser(prog="drhwsim", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, func) in COMMANDS.items():
        c = sub.add_parser(name, help=help_text)
        if command == name or command not in COMMANDS:
            add_arguments(c)
        c.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The command is the first word that is not an option: the top-level
    # parser has no option that takes a value.
    parser = build_parser(next((a for a in argv if not a.startswith("-")),
                               None))
    try:
        # Inside the try: a --seed that _parse_seed rejects is a DrhwError.
        args = parser.parse_args(argv)
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader of stdout stopped early, which ends the output.  Point
        # stdout at the null device so the flush at exit cannot fail again
        # (unless stdout has no file descriptor to point).
        with contextlib.suppress(OSError, ValueError), \
                open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 0
    except DrhwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
