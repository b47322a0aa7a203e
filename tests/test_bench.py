import csv
import gc
import io
import math

import pytest

from rit_layout import GeneratorSpec, fit_linear, run_bench
from rit_layout import bench, generate
from rit_layout.bench import BenchRecord, records_to_csv


class TestFitLinear:
    def test_exact_line(self):
        fit = fit_linear([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
        assert fit.slope == pytest.approx(2.0, rel=1e-12)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_convention(self):
        fit = fit_linear([(0.0, 2.0), (1.0, 2.0), (5.0, 2.0)])
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0

    def test_requires_two_distinct_abscissae(self):
        with pytest.raises(ValueError):
            fit_linear([(1.0, 2.0), (1.0, 3.0)])

    def test_noisy_line_r2_below_one(self):
        pts = [(x, 2.0 * x + (1 if x % 2 else -1)) for x in range(10)]
        fit = fit_linear([(float(x), float(y)) for x, y in pts])
        assert 0.9 < fit.r_squared < 1.0


class TestRunBench:
    def test_records_and_visits(self):
        specs = [GeneratorSpec("fixed", 2, d, seed=d) for d in range(1, 5)]
        result = run_bench(specs, repeats=2, node_cap=10_000)
        assert len(result.records) == 8
        for rec in result.records:
            assert rec.visits == 3 * (rec.nodes - 1) + 1
            assert rec.seconds >= 0.0
        assert result.fit.defined
        assert [r.nodes for r in result.records[::2]] == [3, 7, 15, 31]

    def test_node_cap_skips_with_record(self):
        specs = [GeneratorSpec("fixed", 2, 2), GeneratorSpec("fixed", 2, 10)]
        result = run_bench(specs, repeats=1, node_cap=100)
        assert result.skipped == [GeneratorSpec("fixed", 2, 10)]
        assert {r.depth for r in result.records} == {2}

    def test_deep_chain_benchmarks(self):
        # Generation, layout and export all walk a 3,000-level chain without
        # recursing per level.
        result = run_bench([GeneratorSpec("fixed", 1, 3000)], repeats=1)
        (record,) = result.records
        assert record.nodes == 3001
        assert record.visits == 3 * 3000 + 1

    def test_single_spec_fit_undefined(self):
        result = run_bench([GeneratorSpec("fixed", 2, 3)], repeats=3, node_cap=1000)
        assert not result.fit.defined
        assert math.isnan(result.fit.slope)

    def test_gc_paused_while_timing(self, monkeypatch, caller_gc):
        # Each layout ends with the collector still off; the caller's state
        # comes back.
        real_layout_rit = bench.layout_rit
        seen = []

        def layout_and_look(tree):
            layout = real_layout_rit(tree)
            seen.append(gc.isenabled())
            return layout

        monkeypatch.setattr(bench, "layout_rit", layout_and_look)
        run_bench([GeneratorSpec("fixed", 2, d) for d in (4, 5, 6)], repeats=2)
        assert gc.isenabled() is caller_gc
        assert seen == [False] * 6

    def test_node_cap_stops_generation(self, monkeypatch):
        # A tree over the cap is abandoned once it passes the cap, not built
        # whole (32,767 nodes here) and then counted.
        built = []

        class CountedNode(generate.TreeNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(generate, "TreeNode", CountedNode)
        result = run_bench([GeneratorSpec("fixed", 2, 14)], repeats=1, node_cap=100)
        assert len(built) <= 100
        assert result.skipped == [GeneratorSpec("fixed", 2, 14)]
        assert not result.records


class TestCsv:
    def test_round_trip(self):
        records = [
            BenchRecord("fixed", 2, 3, 15, 0, 0.00123456789, 43),
            BenchRecord("random", 8, 2, 9, 1, 0.5, 25),
        ]
        rows = list(csv.reader(io.StringIO(records_to_csv(records))))[1:]
        assert [
            BenchRecord(g, int(c), int(d), int(n), int(r), float(s), int(v))
            for g, c, d, n, r, s, v in rows
        ] == records

    def test_header(self):
        text = records_to_csv([])
        assert text.splitlines()[0] == "generator,cmax,depth,nodes,repeat,seconds,visits"
