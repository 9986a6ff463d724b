"""In-memory spans around drhwsim's public functions (traced benchmark runs).

``install`` wraps each function named in ``TARGETS`` at every module
attribute bound to it, so a caller that imported the name
(``from .engine import compute_penalty`` in ``design_time``) reaches the
wrapper as well.  Spans stay in memory until ``Tracer.write``; the parent
process computes self times from them with ``self_times``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (defining module, function).  The span is named "<module>.<function>".
TARGETS = (
    ("model", "load_workload"),
    ("model", "save_workload"),
    ("model", "validate"),
    ("workloads", "gen_workload"),
    ("workloads", "preset_table1"),
    ("workloads", "preset_pocketgl"),
    ("engine", "compute_penalty"),
    ("engine", "schedule_optimal_bb"),
    ("engine", "schedule_list_heuristic"),
    ("engine", "place_loads"),
    ("engine", "schedule_no_prefetch"),
    ("design_time", "extract_critical_subtasks"),
    ("design_time", "build_store"),
    ("design_time", "save_store"),
    ("design_time", "load_store"),
    ("runtime", "execute_task_instance"),
    ("runtime", "reuse_scan"),
    ("runtime", "bind_tiles"),
    ("runtime", "intertask_prefetch"),
    ("sim", "run_simulation"),
    ("sim", "write_trace"),
)


class Tracer:
    """Collects spans ``(id, parent id, name, start ns, end ns, info)``.

    Parent id 0 means a root span.  ``info`` is None or a JSON-ready value
    computed from the call's arguments and result.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans.append((sid, parent, name, start, clock(),
                              {"error": type(exc).__name__}))
                raise
            finally:
                stack.pop()
            end = clock()
            spans.append((sid, parent, name, start, end,
                          None if info is None else info(args, kwargs, result)))
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _instance_info():
    """Per-instance modelled counts; prefetch hits need the previous call."""
    last_prefetched: set = set()

    def info(args, kwargs, res):
        nonlocal last_prefetched
        mode = args[3] if len(args) > 3 else kwargs["mode"]
        entry = args[1] if len(args) > 1 else kwargs["entry"]
        d = res.decision
        hits = sum((entry.task_id, sid) in last_prefetched for sid in d.reused)
        last_prefetched = {(task, sid) for task, sid, _, _, _ in d.prefetched}
        return [mode, len(d.reused), len(entry.drhw),
                len(res.load_events) + len(d.prefetched), len(d.cancelled),
                len(d.init_loads), len(d.prefetched), hits]

    return info


def _infos():
    return {
        "engine.schedule_optimal_bb":
            lambda a, k, r: len(a[1] if len(a) > 1 else k["load_set"]),
        "design_time.extract_critical_subtasks":
            lambda a, k, r: len(r.extraction_order),
        "design_time.build_store": lambda a, k, r: r.cs_fraction,
        "runtime.execute_task_instance": _instance_info(),
        "sim.run_simulation": lambda a, k, r: len(r[1]),
        "sim.write_trace": lambda a, k, r: len(a[0] if a else k["trace"]),
    }


def install(tracer: Tracer) -> None:
    """Replace every target, wherever a drhwsim module binds it."""
    import drhwsim.cli  # noqa: F401  (loads every module that binds a target)
    from drhwsim.workloads import PRESETS

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "drhwsim" or n.startswith("drhwsim.")]
    infos = _infos()
    for mod, attr in TARGETS:
        name = f"{mod}.{attr}"
        original = getattr(sys.modules[f"drhwsim.{mod}"], attr)
        wrapper = tracer.wrap(name, original, infos.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
        for key, value in PRESETS.items():
            if value is original:
                PRESETS[key] = wrapper


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is not None and a <= run_end:
                run_end = max(run_end, b)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out
