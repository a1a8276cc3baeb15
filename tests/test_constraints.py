"""Tests for the constraint layer: store, incremental CEGIS, Horn solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.cegis import CegisSolver, Example
from repro.constraints.horn import (
    HornClause,
    HornSolverError,
    Unknown,
    UnknownApp,
    default_qualifiers,
    solve_horn,
)
from repro.constraints.store import (
    ConstraintStore,
    ResourceConstraint,
    coefficients_in,
    fresh_coefficient_var,
    is_coefficient,
    linear_template,
)
from repro.logic import terms as t
from repro.semantics.refinements import eval_term
from repro.smt.encoder import EncodingError
from repro.smt.solver import Solver, SolverError


x = t.int_var("x")
y = t.int_var("y")


class TestStore:
    def test_push_pop(self):
        store = ConstraintStore()
        store.add(ResourceConstraint(t.TRUE, x))
        marker = store.push()
        store.add(ResourceConstraint(t.TRUE, y))
        assert len(store) == 2
        store.pop(marker)
        assert len(store) == 1

    def test_coefficient_detection(self):
        c = fresh_coefficient_var()
        assert is_coefficient(c.name)
        assert not is_coefficient("x")
        constraint = ResourceConstraint(t.TRUE, c + x)
        assert constraint.has_unknowns()
        assert coefficients_in(constraint.expr) == {c.name}

    def test_linear_template_shape(self):
        template, coeffs = linear_template((x, y))
        assert len(coeffs) == 3
        assert coefficients_in(template) == {c.name for c in coeffs}

    def test_constraint_formula(self):
        rc = ResourceConstraint(x >= 0, x - 1)
        formula = rc.formula()
        assert eval_term(formula, {"x": 5})
        assert not eval_term(formula, {"x": 0})
        eq = ResourceConstraint(t.TRUE, x, equality=True)
        assert eval_term(eq.formula(), {"x": 0})
        assert not eval_term(eq.formula(), {"x": 2})


class _RaisingSolver(Solver):
    """A solver whose every satisfiability query raises ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def check_sat(self, formula):
        raise self.error


class TestCegis:
    @pytest.mark.parametrize("error", [SolverError("budget"), EncodingError("non-linear")])
    def test_undecided_verification_fails_closed(self, error):
        """A verification query the solver cannot decide rejects the system."""
        c = fresh_coefficient_var()
        constraints = [
            ResourceConstraint(x >= 0, x + c),
            ResourceConstraint(t.TRUE, c - 1),
        ]
        solver = CegisSolver(solver=_RaisingSolver(error))
        assert solver.solve(constraints) is None
        assert solver.cache_report()["cegis_undecided"] == 1

    def test_unexpected_solver_errors_propagate(self):
        c = fresh_coefficient_var()
        solver = CegisSolver(solver=_RaisingSolver(TypeError("bug")))
        with pytest.raises(TypeError):
            solver.solve([ResourceConstraint(x >= 0, x + c)])

    def test_undecided_counter_is_zero_on_decidable_systems(self):
        c = fresh_coefficient_var()
        solver = CegisSolver()
        assert solver.solve([ResourceConstraint(x >= 0, x + c)]) is not None
        assert solver.cache_report()["cegis_undecided"] == 0

    def test_constraints_without_unknowns(self):
        solver = CegisSolver()
        ok = ResourceConstraint(x >= 1, x - 1)
        assert solver.solve([ok]) is not None
        bad = ResourceConstraint(x >= 0, x - 1)
        assert solver.solve([bad]) is None

    def test_simple_constant_search(self):
        solver = CegisSolver()
        c = fresh_coefficient_var()
        # forall x >= 0:  x + C >= 0   and   C - 1 >= 0   =>  C >= 1.
        constraints = [
            ResourceConstraint(x >= 0, x + c),
            ResourceConstraint(t.TRUE, c - 1),
        ]
        solution = solver.solve(constraints)
        assert solution is not None and solution[c.name] >= 1

    def test_unsatisfiable_system(self):
        solver = CegisSolver()
        c = fresh_coefficient_var()
        constraints = [
            ResourceConstraint(t.TRUE, c - 1),      # C >= 1
            ResourceConstraint(t.TRUE, -c),          # C <= 0
        ]
        assert solver.solve(constraints) is None

    def test_dependent_template_range_example(self):
        """The range constraint system from Sec. 4.2 of the paper."""
        a, b, nu = t.int_var("a"), t.int_var("b"), t.int_var("_v")
        template, coeffs = linear_template((a, b, nu))
        guard = t.conj(t.neg(a >= b), nu.eq(b))
        # template must cover one unit plus the recursive payment nu - a - 1.
        constraints = [
            ResourceConstraint(guard, template - (nu - a)),
            ResourceConstraint(guard, template),
        ]
        solver = CegisSolver()
        solution = solver.solve(constraints)
        assert solution is not None
        # Check the solution on a few concrete instances.
        subst = {name: t.IntConst(v) for name, v in solution.items()}
        concrete = t.substitute(template - (nu - a), subst)
        for a_val in range(0, 3):
            for b_val in range(a_val + 1, a_val + 4):
                assert eval_term(concrete, {"a": a_val, "b": b_val, "_v": b_val}) >= 0

    def test_incremental_keeps_examples(self):
        solver = CegisSolver(incremental=True)
        c = fresh_coefficient_var()
        solver.solve([ResourceConstraint(x >= 0, c - x + 10)])
        examples_before = len(solver.examples)
        solver.solve([ResourceConstraint(x >= 0, c - x + 10), ResourceConstraint(t.TRUE, c)])
        assert len(solver.examples) >= examples_before

    def test_nonincremental_restarts(self):
        solver = CegisSolver(incremental=False)
        c = fresh_coefficient_var()
        solver.solve([ResourceConstraint(t.TRUE, c - 1)])
        restarts = solver.stats.restarts
        solver.solve([ResourceConstraint(t.TRUE, c - 1)])
        assert solver.stats.restarts == restarts + 1

    def test_equality_constraints(self):
        solver = CegisSolver()
        c = fresh_coefficient_var()
        constraints = [ResourceConstraint(t.TRUE, c - 3, equality=True)]
        solution = solver.solve(constraints)
        assert solution is not None and solution[c.name] == 3

    def test_example_substitution_keeps_booleans_symbolic(self):
        example = Example({"x": 2})
        term = t.conj(t.bool_var("b"), x >= 1)
        grounded = example.substitute_into(term)
        assert t.bool_var("b") in list(grounded.walk())

    @given(st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_found_coefficients_satisfy_constraints(self, lower, slack):
        solver = CegisSolver()
        c = fresh_coefficient_var()
        constraints = [
            ResourceConstraint(t.conj(x >= 0, x <= 10), c - x + slack),
            ResourceConstraint(t.TRUE, c - lower),
        ]
        solution = solver.solve(constraints)
        assert solution is not None
        value = solution[c.name]
        assert value >= lower
        assert all(value - xv + slack >= 0 for xv in range(0, 11))


class TestHorn:
    def test_concrete_clauses_checked(self):
        clause = HornClause((x >= 1,), x >= 0)
        assert solve_horn([clause], {}) == {}
        with pytest.raises(HornSolverError):
            solve_horn([HornClause((x >= 0,), x >= 1)], {})

    def test_unknown_head_gets_strongest_qualifiers(self):
        u = Unknown("U", ("x",))
        clause = HornClause((x >= 2,), UnknownApp(u))
        qualifiers = {"U": [x >= 0, x >= 5]}
        solution = solve_horn([clause], qualifiers)
        assert solution["U"] == (x >= 0)

    def test_unknown_used_in_body(self):
        u = Unknown("U", ("x",))
        clauses = [
            HornClause((x >= 3,), UnknownApp(u)),
            HornClause((UnknownApp(u),), x >= 0),
        ]
        qualifiers = {"U": [x >= 0, x >= 3]}
        solution = solve_horn(clauses, qualifiers)
        assert eval_term(t.implies(x >= 3, solution["U"]), {"x": 3})

    def test_default_qualifiers(self):
        quals = default_qualifiers([x, y])
        assert (x <= y) in quals
        assert (x >= 0) in quals
