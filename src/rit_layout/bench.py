"""Scalability benchmark: layout wall time versus node count.

Only the layout call and the construction of every node's outline sit
inside the timed region (no parsing, no file output).  Each generated tree
is laid out ``repeats`` times, in rounds that lay out every tree once, so
a phase in which the host runs slower or faster falls on every tree size
alike instead of on one size's repeats.  The averaged times feed an
ordinary least-squares fit whose R^2 quantifies linear scaling.  The
layout's visit counter is recorded per run and must equal 3*(N-1) + 1 for
an N-node tree.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import math
import time
from dataclasses import dataclass

from .generate import GeneratorSpec, generate_tree
from .layout import layout_rit
from .tree import NormalizedNode, normalize

CSV_HEADER = ("generator", "cmax", "depth", "nodes", "repeat", "seconds", "visits")

DEFAULT_NODE_CAP = 200_000


@dataclass(frozen=True)
class BenchRecord:
    generator: str
    cmax: int
    depth: int
    nodes: int
    repeat: int
    seconds: float
    visits: int


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    defined: bool = True


@dataclass(frozen=True)
class BenchResult:
    records: list[BenchRecord]
    fit: FitResult
    skipped: list[GeneratorSpec]


def fit_linear(points: list[tuple[float, float]]) -> FitResult:
    """OLS slope/intercept/R^2; R^2 is 0 by convention for constant y."""
    if len({x for x, _ in points}) < 2:
        raise ValueError("need at least 2 distinct x values to fit a line")
    n = len(points)
    mean_x = math.fsum(x for x, _ in points) / n
    mean_y = math.fsum(y for _, y in points) / n
    sxx = math.fsum((x - mean_x) ** 2 for x, _ in points)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in points)
    syy = math.fsum((y - mean_y) ** 2 for _, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    if syy == 0.0:
        return FitResult(slope=slope, intercept=intercept, r_squared=0.0)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in points)
    return FitResult(slope=slope, intercept=intercept, r_squared=1.0 - ss_res / syy)


@contextlib.contextmanager
def gc_paused():
    """Run the block with the cyclic garbage collector off.

    The collector is turned back on at exit only if it was on at entry, so
    a caller that had disabled it keeps it disabled, and nested pauses do
    not end early.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _timed_layout(tree: NormalizedNode) -> tuple[float, int]:
    """Seconds for one layout plus every outline, and the layout's visit count."""
    t0 = time.perf_counter()
    layout = layout_rit(tree)
    # Outlines are derived on first use; the drawn geometry is timed too.
    for node in layout.nodes:
        node.path
    return time.perf_counter() - t0, layout.visits


def run_bench(
    specs: list[GeneratorSpec],
    repeats: int = 5,
    node_cap: int = DEFAULT_NODE_CAP,
) -> BenchResult:
    """Generate, lay out (default ``LayoutConfig``), and time every spec under the node cap.

    A spec whose tree has more than ``node_cap`` nodes is skipped (listed in
    ``skipped``); its generation stops as soon as it passes the cap.
    """
    kept: list[tuple[GeneratorSpec, int, NormalizedNode]] = []
    skipped: list[GeneratorSpec] = []
    for spec in specs:
        raw = generate_tree(spec, max_nodes=node_cap)
        if raw is None:
            skipped.append(spec)
        else:
            kept.append((spec, raw.count(), normalize(raw, "strict")))

    per_spec: list[list[BenchRecord]] = [[] for _ in kept]
    # As in timeit, the cyclic garbage collector is off while timing: a full
    # collection costs time in proportion to the whole process heap, not to
    # the layout, which builds no reference cycles.
    with gc_paused():
        for rep in range(repeats):
            for (spec, n, tree), recs in zip(kept, per_spec):
                seconds, visits = _timed_layout(tree)
                recs.append(BenchRecord(spec.kind, spec.c_max, spec.depth, n, rep,
                                        seconds, visits))
    records = [rec for recs in per_spec for rec in recs]

    points: dict[int, list[float]] = {}
    for rec in records:
        points.setdefault(rec.nodes, []).append(rec.seconds)
    averaged = [(float(n), math.fsum(ts) / len(ts)) for n, ts in sorted(points.items())]
    try:
        fit = fit_linear(averaged)
    except ValueError:
        fit = FitResult(slope=float("nan"), intercept=float("nan"),
                        r_squared=float("nan"), defined=False)
    return BenchResult(records=records, fit=fit, skipped=skipped)


def records_to_csv(records: list[BenchRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            [r.generator, r.cmax, r.depth, r.nodes, r.repeat, repr(r.seconds), r.visits]
        )
    return out.getvalue()
