"""Table 2: case studies — T, T-NR, T-EAC columns plus measured bounds B/B-NR.

Every case study is run under the ReSyn configuration (column T), the
resource-agnostic baseline (T-NR) and the naive enumerate-and-check
combination (T-EAC).  The measured asymptotic bound of each synthesized
program (columns B and B-NR) is recorded in ``extra_info`` by running the
program under the cost semantics on growing inputs and fitting the bound
shape.  The default run covers the fast subset; ``REPRO_FULL=1`` enables the
slow case studies (common, list difference, compress, insert, take/drop).
"""

import pytest

from repro.benchsuite.runner import benchmark_config, measured_bound, selected_benchmarks
from repro.core import synthesize


BENCHMARKS = selected_benchmarks("table2")


def _synthesize(bench, mode):
    result = synthesize(bench.goal, benchmark_config(bench, mode))
    assert result.succeeded, f"{bench.key} failed to synthesize under {mode}"
    return result


def _record(benchmark, bench, result):
    benchmark.extra_info["code_size"] = result.code_size
    benchmark.extra_info["program"] = str(result.program)
    benchmark.extra_info["paper_bound"] = bench.paper_bound
    if bench.input_maker is not None and result.program is not None:
        benchmark.extra_info["measured_bound"] = measured_bound(bench, result.program, (2, 4, 8))


@pytest.mark.parametrize("bench", BENCHMARKS, ids=[b.key for b in BENCHMARKS])
def test_table2_resyn(benchmark, bench):
    """Column T (and B via extra_info)."""
    result = benchmark.pedantic(_synthesize, args=(bench, "resyn"), rounds=1, iterations=1)
    _record(benchmark, bench, result)


@pytest.mark.parametrize("bench", BENCHMARKS, ids=[b.key for b in BENCHMARKS])
def test_table2_synquid(benchmark, bench):
    """Column T-NR (and B-NR via extra_info)."""
    try:
        result = benchmark.pedantic(_synthesize, args=(bench, "synquid"), rounds=1, iterations=1)
    except AssertionError:
        pytest.skip(f"{bench.key}: not synthesizable by the baseline (expected for `range`)")
    _record(benchmark, bench, result)


@pytest.mark.parametrize("bench", BENCHMARKS, ids=[b.key for b in BENCHMARKS])
def test_table2_enumerate_and_check(benchmark, bench):
    """Column T-EAC: functional enumeration followed by resource analysis."""
    try:
        result = benchmark.pedantic(_synthesize, args=(bench, "eac"), rounds=1, iterations=1)
    except AssertionError:
        pytest.skip(f"{bench.key}: enumerate-and-check did not find a resource-correct program")
    _record(benchmark, bench, result)
