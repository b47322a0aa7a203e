"""Outside-in tracing of the package's public functions.

``install`` replaces each traced function at every ``rit_layout.*`` module
attribute that holds it, so a span follows the function wherever its caller
looks it up.  Spans (op id, span id, parent span id, stage, start, end) are
kept in memory; ``derive`` turns them into per-op self times and counters.
The time spent computing a counter is taken out of the enclosing stage's
self time.  With ``memory=True`` the tracer instead records each stage's
tracemalloc peak above the memory in use when the stage began, and computes
no counters.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# (home module, function, stage name)
TRACED = (
    ("rit_layout.cli", "main", "cli.main"),
    ("rit_layout.tree", "parse_tree", "tree.parse"),
    ("rit_layout.tree", "normalize", "tree.normalize"),
    ("rit_layout.colors", "assign_colors", "colors.assign"),
    ("rit_layout.layout", "layout_rit", "layout.rit"),
    ("rit_layout.geometry", "build_node_path", "geometry.build_node_path"),
    ("rit_layout.layout", "relax_thin_nodes", "layout.relax"),
    ("rit_layout.layout", "layout_to_json", "layout.to_json"),
    ("rit_layout.svg", "render_svg", "svg.render"),
    ("rit_layout.layout", "layout_sunburst", "layout.sunburst"),
    ("rit_layout.layout", "layout_icicle", "layout.icicle"),
    ("rit_layout.diagnostics", "diagnostics", "diagnostics.run"),
    ("rit_layout.measure", "path_area", "measure.path_area"),
    ("rit_layout.measure", "loop_vertices", "measure.loop_vertices"),
)


def _stage_name(name: str, parent: str | None) -> str:
    # loop_vertices is one function serving two stages, told apart by caller.
    if name != "measure.loop_vertices":
        return name
    return "svg.bbox" if parent == "svg.render" else "measure.polygonize"


STAGES = tuple(n for _, _, n in TRACED if n != "measure.loop_vertices") + (
    "svg.bbox",
    "measure.polygonize",
)


def time_metric(stage: str) -> str:
    return "cli.self_s" if stage == "cli.main" else f"{stage}_s"


def peak_metric(stage: str) -> str:
    return f"{stage}_peak_kb"


def _arc_vertices(args, kwargs) -> int:
    """Kernel operation count of one path_area call: sum of ceil(|span|/step)."""
    from rit_layout.measure import DEFAULT_ARC_STEP

    path = args[0] if args else kwargs["path"]
    step = args[1] if len(args) > 1 else kwargs.get("max_arc_step", DEFAULT_ARC_STEP)
    return sum(
        max(1, math.ceil(abs(seg.span) / step))
        for loop in path.loops
        for seg in loop
        if hasattr(seg, "radius")
    )


# Counters read at a stage boundary from its arguments and result.
COUNTERS = {
    "layout.rit": lambda a, k, out: {"layout.visits": out.visits},
    "geometry.build_node_path": lambda a, k, out: {"geometry.paths_built": 1},
    "layout.relax": lambda a, k, out: {"layout.relaxed_nodes": sum(n.relaxed for n in out.nodes)},
    # json.dumps escapes to ASCII by default, so characters are bytes.
    "layout.to_json": lambda a, k, out: {"layout.json_bytes": len(out)},
    "svg.render": lambda a, k, out: {"svg.bytes": len(out)},
    "measure.path_area": lambda a, k, out: {
        "measure.path_area_calls": 1,
        "measure.arc_vertices": _arc_vertices(a, k),
    },
}
COUNTER_NAMES = (
    "layout.visits",
    "geometry.paths_built",
    "layout.relaxed_nodes",
    "layout.json_bytes",
    "svg.bytes",
    "measure.path_area_calls",
    "measure.arc_vertices",
)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.op = 0
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.excluded: dict[int, float] = defaultdict(float)  # span id -> counter time
        self.peaks: dict[str, int] = {}
        self._stack: list[tuple[int, str]] = []
        self._mem: list[list[int]] = []  # [start bytes, running peak bytes]
        self._next = 0

    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self, stage: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        start, running = self._mem.pop()
        top = max(running, peak)
        self.peaks[stage] = max(self.peaks.get(stage, 0), top - start)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], top)
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        counter = None if self.memory else COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else (None, None)
            stage = _stage_name(name, parent[1])
            sid = self._next
            self._next += 1
            self._stack.append((sid, stage))
            if self.memory:
                self._mem_enter()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if self.memory:
                    self._mem_exit(stage)
                self._stack.pop()
                self.spans.append((self.op, sid, parent[0], stage, t0, t1))
            if counter is not None:
                c0 = time.perf_counter()
                for key, value in counter(args, kwargs, out).items():
                    self.counts[(self.op, key)] += value
                if parent[0] is not None:
                    self.excluded[parent[0]] += time.perf_counter() - c0
            return out

        return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function wherever a rit_layout module holds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "rit_layout" or n.startswith("rit_layout."))]
    patches = []
    for home, attr, name in TRACED:
        original = getattr(sys.modules.get(home), attr, None)
        if original is None:
            continue  # the function no longer exists; its stage reads as 0
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patches.append((mod, key, original))
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for mod, key, original in reversed(patches):
        setattr(mod, key, original)


def derive(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Median over ``ops`` of each stage's per-op self time and each counter."""
    durations = {sid: t1 - t0 for _, sid, _, _, t0, t1 in tracer.spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, sid, parent, _, _, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += durations[sid]
    per_op: dict[tuple[int, str], float] = defaultdict(float)
    for op, sid, _, stage, _, _ in tracer.spans:
        per_op[(op, stage)] += durations[sid] - child_time[sid] - tracer.excluded[sid]
    out = {}
    for stage in STAGES:
        out[time_metric(stage)] = statistics.median(per_op[(op, stage)] for op in ops)
    for name in COUNTER_NAMES:
        out[name] = statistics.median(tracer.counts[(op, name)] for op in ops)
    return out
