"""Run one drhwsim CLI command in a fresh interpreter and report its cost.

Usage: python3 child.py SRC PHASE SPANS_PATH -- ARGS...

Imports drhwsim from SRC, calls ``drhwsim.cli.main(ARGS)`` in-process with
its console output discarded, and prints one JSON line: the command's wall
time in seconds (for PHASE ``setup`` it includes importing drhwsim), the
time of ``reference()`` run just before and just after it, its exit code
and the process's peak resident memory.  A non-empty SPANS_PATH
turns tracing on: every function in ``spans.TARGETS`` and the command itself
get spans, written to SPANS_PATH after the command ends.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def reference() -> float:
    """Seconds taken by a fixed pure-Python kernel.

    The kernel repeats a forward longest-path pass over a 64-node DAG and
    sorts the result: the dict, loop and float work that dominates
    drhwsim.  Its time tracks the speed state of the machine at the moment
    it runs, so the parent can scale the command's time to a fixed speed.
    """
    order = list(range(64))
    preds = {i: list(range(max(0, i - 3), i)) for i in order}
    exec_ms = {i: 1.0 + (i * 7919 % 13) for i in order}
    start = time.perf_counter()
    for _ in range(1000):
        ends: dict[int, float] = {}
        for sid in order:
            t = 0.0
            for d in preds[sid]:
                if ends[d] > t:
                    t = ends[d]
            ends[sid] = t + exec_ms[sid]
        sorted(ends.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


def main() -> int:
    src, phase, spans_path, sep, *args = sys.argv[1:]
    if sep != "--" or not args:
        print(__doc__, file=sys.stderr)
        return 2
    ref_before = reference()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import drhwsim.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(drhwsim.cli.__file__).startswith(
            os.path.abspath(src) + os.sep):
        print(f"drhwsim imported from {drhwsim.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    command = drhwsim.cli.main
    if spans_path:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        command = tracer.wrap(f"cli.{args[0]}", command)

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = command(args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    seconds = time.perf_counter() - start
    ref_after = reference()
    if phase == "setup":
        seconds += import_s
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(spans_path)
    print(json.dumps({"seconds": seconds, "ref_s": (ref_before + ref_after) / 2,
                      "rc": rc, "maxrss_kib": maxrss_kib}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
