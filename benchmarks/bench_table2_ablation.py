"""Ablations of Table 2: incremental CEGIS (T-NInc) and solver workload.

* ``test_incremental_vs_restart`` reproduces the T-NInc column: the same
  ReSyn search with the restart-from-scratch CEGIS solver.
* ``test_cegis_solver_microbench`` measures the constraint-solving substrate
  directly on the dependent-potential constraint system of the ``range``
  example from Sec. 4.2, isolating the cost the synthesizer pays per
  resource-constraint query.
"""

import pytest

from repro.benchsuite.runner import selected_benchmarks
from repro.constraints.cegis import CegisSolver
from repro.constraints.store import ConstraintStore, ResourceConstraint
from repro.core import synthesize
from repro.logic import terms as t


BENCHMARKS = [
    b
    for b in selected_benchmarks("table2")
    if b.group.endswith("dependent") or b.key.startswith("triple")
]


def _synthesize(bench, mode):
    result = synthesize(bench.goal, bench.configs()[mode])
    assert result.succeeded, f"{bench.key} failed under {mode}"
    return result


@pytest.mark.parametrize("bench", BENCHMARKS, ids=[b.key for b in BENCHMARKS])
def test_incremental_cegis(benchmark, bench):
    result = benchmark.pedantic(_synthesize, args=(bench, "resyn"), rounds=1, iterations=1)
    benchmark.extra_info["cegis_counterexamples"] = result.cegis_counterexamples


@pytest.mark.parametrize("bench", BENCHMARKS, ids=[b.key for b in BENCHMARKS])
def test_nonincremental_cegis(benchmark, bench):
    """The T-NInc column: restart-from-scratch CEGIS."""
    result = benchmark.pedantic(_synthesize, args=(bench, "noninc"), rounds=1, iterations=1)
    benchmark.extra_info["cegis_counterexamples"] = result.cegis_counterexamples


def _range_constraint_system():
    a, b, nu = t.int_var("a"), t.int_var("b"), t.int_var("_v")
    template, _ = ConstraintStore().linear_template((a, b, nu))
    guard = t.conj(t.neg(a >= b), nu.eq(b))
    return [
        ResourceConstraint(guard, template - (nu - a)),
        ResourceConstraint(guard, template),
    ]


def test_cegis_solver_microbench(benchmark):
    constraints = _range_constraint_system()

    def solve():
        solver = CegisSolver()
        solution = solver.solve(constraints)
        assert solution is not None
        return solution

    benchmark(solve)
