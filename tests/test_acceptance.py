"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import json
import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from rit_layout import (
    GeneratorSpec,
    LayoutConfig,
    demo_tree,
    generate_tree,
    layout_rit,
    layout_sunburst,
    layout_to_json,
    normalize,
    path_area,
    render_svg,
    run_bench,
    sector_area,
    serialize_tree,
)
from rit_layout.cli import main
from rit_layout.geometry import _wedge_pair_area as wedge_pair_area
from rit_layout.diagnostics import diagnostics

from conftest import TAU, full_chain
from oracles import (
    half_topup_height,
    node_by_id,
    path_boundary_points,
    sector_contains_points,
    wedge_bound_satisfied,
)
from test_relax import flanked_thin_run

AREA_TOL = 1e-6


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE criterion {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE criterion {number} ({name}): PASS")


def corpus_specs() -> list[GeneratorSpec]:
    """200 generator trees, depths 2-6, mixed kinds, fixed seeds."""
    cycle = [
        ("fixed", 2, 6),
        ("fixed", 3, 5),
        ("random", 4, 6),
        ("random", 6, 5),
        ("semi-random", 5, 6),
        ("semi-random", 8, 5),
    ]
    specs = []
    for i in range(200):
        kind, cmax, max_depth = cycle[i % 6]
        depth = 2 + i % (max_depth - 1)
        specs.append(GeneratorSpec(kind, cmax, depth, seed=7000 + i))
    return specs


@pytest.fixture(scope="module")
def corpus_layouts():
    cfg = LayoutConfig(r0=2.0, h0=2.0)
    started = time.perf_counter()
    layouts = [
        layout_rit(normalize(generate_tree(spec), "strict"), cfg)
        for spec in corpus_specs()
    ]
    return layouts, started


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "demo.json"
    path.write_text(serialize_tree(demo_tree(), "json-tree"))
    return str(path)


def test_criterion_1_area_constancy(corpus_layouts):
    layouts, started = corpus_layouts
    with criterion(1, "area constancy over 200 generator trees"):
        assert len(layouts) == 200
        worst = 0.0
        for layout in layouts:
            for node in layout.nodes:
                target = node.data * layout.a_std
                err = abs(path_area(node.path) - target) / target
                worst = max(worst, err)
        elapsed = time.perf_counter() - started
        print(f"  worst relative error {worst:.3e} over "
              f"{sum(len(l.nodes) for l in layouts)} nodes in {elapsed:.1f}s")
        assert worst <= AREA_TOL
        assert elapsed <= 60.0


def test_criterion_2_chain_inconsistency_vs_rit():
    with criterion(2, "sunburst growth vs constant-area rings on the 5-chain"):
        chain = normalize(full_chain(5), "strict")
        cfg = LayoutConfig(r0=2.0, h0=1.0, beta0=TAU)

        sunburst = layout_sunburst(chain, cfg)
        ring_areas = [
            sector_area(n.sector.r_in, n.sector.height, n.sector.beta)
            for n in sunburst.nodes
        ]
        expected = [5 * math.pi, 7 * math.pi, 9 * math.pi, 11 * math.pi, 13 * math.pi]
        for got, want in zip(ring_areas, expected):
            assert abs(got - want) / want <= 1e-9

        rit = layout_rit(chain, cfg)
        for node in rit.nodes:
            assert abs(path_area(node.path) - 5 * math.pi) / (5 * math.pi) <= AREA_TOL
        heights = [n.sector.height for n in rit.nodes]
        chain_expected = [
            1.0,
            math.sqrt(14) - 3.0,
            math.sqrt(19) - math.sqrt(14),
            math.sqrt(24) - math.sqrt(19),
            math.sqrt(29) - math.sqrt(24),
        ]
        for got, want in zip(heights, chain_expected):
            assert abs(got - want) <= 1e-9


def test_criterion_3_separation():
    with criterion(3, "sibling separation with wedge-sized gaps"):
        layout = layout_rit(normalize(demo_tree(), "strict"), LayoutConfig(r0=8, h0=2))
        pairs = 0
        for group in layout.sibling_groups():
            for left, right in zip(group, group[1:]):
                gap = right.sector.cut_start - left.sector.cut_end
                assert gap > 0.0
                expected = 0.5 * (left.sector.alpha + right.sector.alpha)
                assert abs(gap - expected) <= 1e-9
                for shape, other in ((left, right), (right, left)):
                    pts = path_boundary_points(shape.path, 10_000)
                    assert len(pts) >= 10_000
                    inside = sector_contains_points(
                        other.sector, pts[:, 0], pts[:, 1], margin=1e-9
                    )
                    assert not inside.any()
                pairs += 1
        print(f"  {pairs} adjacent pairs checked, 10^4 boundary points each")
        assert pairs >= 10


def test_criterion_4_wedge_angle_bounds(corpus_layouts):
    layouts, _ = corpus_layouts
    with criterion(4, "wedge angles strictly inside both caps"):
        checked = 0
        for layout in layouts:
            assert wedge_bound_satisfied(layout)
            checked += sum(1 for n in layout.nodes if n.sector.alpha > 0)
        print(f"  {checked} wedged nodes across {len(layouts)} layouts")
        assert checked > 10_000


def test_criterion_5_half_topup_deficit():
    with criterion(5, "un-halved top-up leaves exactly half the wedge loss"):
        # Each wedged sector of the default layout, rebuilt with the
        # un-halved top-up solve in place of the exact one.
        layout = layout_rit(normalize(demo_tree(), "strict"), LayoutConfig(r0=8.0, h0=2.0))
        wedged = 0
        for node in layout.nodes:
            sec = node.sector
            if sec.alpha <= 0.0:
                continue
            lost = wedge_pair_area(sec.r_in, sec.height, sec.alpha)
            half = half_topup_height(sec.outer_radius, sec.beta, sec.alpha, lost)
            assert 0.0 < half < sec.topup_height
            measured = path_area(replace(sec, topup_height=half).outline())
            expected = node.data * layout.a_std - 0.5 * lost
            assert abs(measured - expected) / expected <= AREA_TOL
            wedged += 1
        assert wedged > 0
        print(f"  deficit verified on {wedged} wedged nodes")


def test_criterion_6_relaxation():
    with criterion(6, "thin-run relaxation: equal gaps, areas kept, flags set"):
        cfg = LayoutConfig(r0=4.0, h0=2.0, relax_threshold=0.01)
        tree = normalize(flanked_thin_run([3.0, 3.0, 3.0]), "strict")
        before = layout_rit(tree, cfg)
        for i in range(3):
            assert node_by_id(before, f"t{i}").data == pytest.approx(0.003)
        after = layout_rit(tree, replace(cfg, relax_enabled=True))

        edges = [node_by_id(after, "left").sector.cut_end]
        for i in range(3):
            sec = node_by_id(after, f"t{i}").sector
            edges.extend([sec.cut_start, sec.cut_end])
        edges.append(node_by_id(after, "right").sector.cut_start)
        gaps = [edges[i + 1] - edges[i] for i in range(0, len(edges) - 1, 2)]
        assert max(gaps) - min(gaps) <= 1e-9

        for b, a in zip(before.nodes, after.nodes):
            assert path_area(a.path) == pytest.approx(path_area(b.path), rel=1e-9, abs=1e-12)
        assert {n.id for n in after.nodes if n.relaxed} == {"t0", "t1", "t2"}


def test_criterion_7_scalability():
    with criterion(7, "linear scaling and exact 3(N-1)+1 visit counts"):
        started = time.perf_counter()
        specs = [GeneratorSpec("fixed", 2, d, seed=100 + d) for d in range(1, 13)]
        specs += [GeneratorSpec("random", 8, d, seed=200 + d) for d in range(2, 7)]
        result = run_bench(specs, repeats=5, node_cap=200_000)
        assert not result.skipped
        for rec in result.records:
            assert rec.visits == 3 * (rec.nodes - 1) + 1
        assert result.fit.defined
        elapsed = time.perf_counter() - started
        print(f"  R^2 = {result.fit.r_squared:.5f} over "
              f"{len(result.records)} runs in {elapsed:.1f}s")
        assert result.fit.r_squared >= 0.95
        assert elapsed <= 120.0


FIGURE_CONFIGS = [
    ("b", ["--r0", "0", "--h0", "2"]),
    ("c", ["--r0", "8", "--h0", "2"]),
    ("d", ["--r0", "8", "--h0", "2"]),
    ("e", ["--theta0", "1.25pi", "--beta0", "0.5pi", "--r0", "20.5", "--h0", "2"]),
    ("f", ["--theta0", "1pi", "--beta0", "1pi", "--r0", "17.5", "--h0", "2"]),
    ("g", ["--theta0", "0.75pi", "--beta0", "1.5pi", "--r0", "14.3", "--h0", "2"]),
    ("h", ["--r0", "0", "--h0", "2"]),
    ("i", ["--r0", "2", "--h0", "2"]),
    ("j", ["--r0", "4", "--h0", "2"]),
    ("k", ["--r0", "6", "--h0", "2"]),
]


def _flags_to_config(flags: list[str]) -> LayoutConfig:
    def grab(name: str, default: float) -> float:
        if name in flags:
            raw = flags[flags.index(name) + 1]
            return float(raw[:-2]) * math.pi if raw.endswith("pi") else float(raw)
        return default

    return LayoutConfig(
        theta0=grab("--theta0", 0.0),
        beta0=grab("--beta0", TAU),
        r0=grab("--r0", 8.0),
        h0=grab("--h0", 2.0),
    )


def test_criterion_8_figure_parameter_sweeps(demo_file, tmp_path):
    with criterion(8, "figure configuration sweeps render and verify"):
        tree = normalize(demo_tree(), "strict")
        for tag, flags in FIGURE_CONFIGS:
            out = tmp_path / f"fig-{tag}.svg"
            rc = main(["render", "--input", demo_file, "--output", str(out),
                       "--style", "rit", *flags])
            assert rc == 0
            svg = out.read_bytes()
            root = ET.fromstring(svg.decode())
            paths = [el for el in root.iter("{http://www.w3.org/2000/svg}path") if el.get("id")]
            assert len(paths) == tree.count()
            cfg = _flags_to_config(flags)
            assert f"r0={cfg.r0!r}".encode() in svg
            assert f"beta0={cfg.beta0!r}".encode() in svg

            layout = layout_rit(tree, cfg)
            report = diagnostics(layout)
            assert report.max_area_error <= AREA_TOL          # criterion 1
            assert report.min_gap is None or report.min_gap > 0  # criterion 3
            for node in report.nodes:
                if node.gap_after is not None:
                    assert abs(node.gap_after - node.gap_after_expected) <= 1e-9
            assert wedge_bound_satisfied(layout)              # criterion 4
            assert report.containment_violations == 0

        outdir = tmp_path / "compare-d"
        rc = main(["compare", "--input", demo_file, "--outdir", str(outdir),
                   "--r0", "8", "--h0", "2"])
        assert rc == 0
        report = json.loads((outdir / "diagnostics.json").read_text())
        assert set(report) == {"rit", "sunburst", "icicle"}
        print(f"  {len(FIGURE_CONFIGS)} render configs plus compare all verified")


def test_criterion_9_determinism(demo_file, tmp_path):
    with criterion(9, "byte-identical rendering and layout JSON"):
        tree = normalize(demo_tree(), "strict")
        cfg = LayoutConfig(r0=8.0, h0=2.0)
        assert render_svg(layout_rit(tree, cfg)) == render_svg(layout_rit(tree, cfg))
        assert layout_to_json(layout_rit(tree, cfg)) == layout_to_json(layout_rit(tree, cfg))

        # Across processes.
        blobs = []
        for name in ("p1.svg", "p2.svg"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "rit_layout.cli", "render",
                 "--input", demo_file, "--output", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
