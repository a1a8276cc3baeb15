"""A/B and property tests for the integer-scaled LIA core and the CDCL SAT engine.

The integer engine in :mod:`repro.smt.lia` must agree verdict-for-verdict
with the retained Fraction-based reference (``tests/lia_reference.py``),
its unsat cores must be genuinely unsatisfiable *and* minimal, and the VSIDS
CDCL solver in :mod:`repro.smt.sat` must agree with brute-force enumeration
on randomized small formulas (with and without assumptions).
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.smt import lia
from repro.smt.linexpr import Constraint, LinExpr, int_form
from repro.smt.sat import CNF, SatSolver

from lia_reference import (
    check_integer_feasible_reference,
    check_rational_feasible_reference,
)


VARS = ("x", "y", "z")

# Small rational-coefficient systems: a few variables, mixed denominators.
coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda f: f != 0)

linexprs = st.builds(
    lambda coeffs, const: LinExpr.from_dict(coeffs, const),
    st.dictionaries(st.sampled_from(VARS), coefficients, min_size=1, max_size=3),
    st.fractions(min_value=-6, max_value=6, max_denominator=2),
)

systems = st.lists(st.builds(Constraint, linexprs), min_size=1, max_size=6)


class TestIntegerScaling:
    @given(linexprs, st.dictionaries(st.sampled_from(VARS), st.integers(-8, 8)))
    @settings(max_examples=120, deadline=None)
    def test_int_form_preserves_sign(self, expr, point):
        """``expr <= 0`` iff the integer-scaled form is ``<= 0`` at any point."""
        items, constant = int_form(expr)
        scaled = constant + sum(c * point.get(k, 0) for k, c in items)
        original = expr.evaluate(point)
        assert (original <= 0) == (scaled <= 0)
        assert (original == 0) == (scaled == 0)

    @given(linexprs)
    @settings(max_examples=120, deadline=None)
    def test_int_form_is_primitive(self, expr):
        """Scaled coefficients are integers with trivial common divisor."""
        import math

        items, constant = int_form(expr)
        values = [constant] + [c for _, c in items]
        assert all(isinstance(v, int) for v in values)
        g = 0
        for v in values:
            g = math.gcd(g, v)
        assert g in (0, 1)  # 0 only for the all-zero expression


class TestIntegerEngineAgainstReference:
    @given(systems)
    @settings(max_examples=80, deadline=None)
    def test_integer_verdicts_agree(self, constraints):
        reference = check_integer_feasible_reference(constraints)
        result = lia.check_integer_feasible(constraints)
        assert result.satisfiable == reference.satisfiable

    @given(systems)
    @settings(max_examples=80, deadline=None)
    def test_models_satisfy_constraints(self, constraints):
        result = lia.check_integer_feasible(constraints)
        if result.satisfiable:
            assert result.model is not None
            assert all(isinstance(v, int) for v in result.model.values())
            assert all(c.holds(result.model) for c in constraints)

    @given(systems)
    @settings(max_examples=80, deadline=None)
    def test_rational_verdicts_agree(self, constraints):
        assert lia.check_rational_feasible(constraints) == check_rational_feasible_reference(
            constraints
        )


class TestUnsatCores:
    @given(systems)
    @settings(max_examples=80, deadline=None)
    def test_cores_are_unsat_and_minimal(self, constraints):
        result = lia.check_integer_feasible(constraints)
        if result.satisfiable:
            assert result.core is None
            return
        core = result.core
        assert core, "unsat result must carry a core"
        assert core <= {c.expr for c in constraints}, "core must be a subset of the input"
        core_constraints = [Constraint(e) for e in core]
        # The core itself is unsatisfiable (checked with the reference engine).
        assert not check_integer_feasible_reference(core_constraints).satisfiable
        # ... and irredundant: removing any single member makes it satisfiable.
        for expr in core:
            remainder = [Constraint(e) for e in core if e is not expr]
            assert check_integer_feasible_reference(remainder).satisfiable

    def test_known_minimal_core(self):
        """x <= 1, x >= 3 conflict; the padding constraint stays out of the core."""
        conflict_a = LinExpr.var("x") - LinExpr.const(1)
        conflict_b = LinExpr.const(3) - LinExpr.var("x")
        padding = LinExpr.var("y") - LinExpr.const(100)
        result = lia.check_integer_feasible(
            [Constraint(conflict_a), Constraint(padding), Constraint(conflict_b)]
        )
        assert not result.satisfiable
        assert result.core == frozenset({conflict_a, conflict_b})

    def test_core_from_integrality_conflict(self):
        """2x = 1 is rationally feasible; the core spans both sides of the equality."""
        lo = LinExpr.var("x") * 2 - LinExpr.const(1)
        hi = LinExpr.const(1) - LinExpr.var("x") * 2
        result = lia.check_integer_feasible([Constraint(lo), Constraint(hi)])
        assert not result.satisfiable
        assert result.core == frozenset({lo, hi})


def _brute_force_sat(clauses, num_vars, assumptions=()):
    for bits in itertools.product((False, True), repeat=num_vars):
        model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if any(model[abs(l)] != (l > 0) for l in assumptions):
            continue
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


literals = st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))
clauses_strategy = st.lists(st.lists(literals, min_size=1, max_size=4), min_size=0, max_size=12)


class TestCdclAgainstBruteForce:
    @given(clauses_strategy)
    @settings(max_examples=80, deadline=None)
    def test_verdicts_match_brute_force(self, clauses):
        cnf = CNF(num_vars=6)
        for clause in clauses:
            cnf.add_clause(clause)
        model = SatSolver(cnf).solve()
        expected = _brute_force_sat(cnf.clauses, 6)
        assert (model is not None) == expected
        if model is not None:
            total = dict(model)
            for var in range(1, 7):
                total.setdefault(var, False)
            assert all(any(total[abs(lit)] == (lit > 0) for lit in c) for c in cnf.clauses)

    @given(clauses_strategy, st.lists(literals, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_verdicts_under_assumptions(self, clauses, assumptions):
        cnf = CNF(num_vars=6)
        for clause in clauses:
            cnf.add_clause(clause)
        assumptions = tuple(dict.fromkeys(assumptions))
        if any(-lit in assumptions for lit in assumptions):
            return  # contradictory assumption set; not produced by the solver
        model = SatSolver(cnf).solve(assumptions)
        expected = _brute_force_sat(cnf.clauses, 6, assumptions)
        assert (model is not None) == expected
        if model is not None:
            assert all(model[abs(l)] == (l > 0) for l in assumptions)

    @given(clauses_strategy)
    @settings(max_examples=60, deadline=None)
    def test_incremental_reuse_stays_sound(self, clauses):
        """Learned clauses persist across solve() calls without changing verdicts."""
        cnf = CNF(num_vars=6)
        solver = SatSolver(cnf)
        added = []
        for clause in clauses:
            cnf.add_clause(clause)
            added = cnf.clauses
            model = solver.solve()
            assert (model is not None) == _brute_force_sat(added, 6)

    @given(clauses_strategy, st.lists(literals, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_cone_restricted_solve(self, clauses, assumptions):
        """``solve(assumptions, cone)`` answers for the cone's clauses alone.

        Variables 1..6 form the cone.  The database also holds an
        unsatisfiable clause set whose largest variables (7 and 8) lie outside
        it, including units and clauses that mention cone variables.
        """
        cnf = CNF(num_vars=6)
        for clause in clauses:
            cnf.add_clause(clause)
        cone_clauses = list(cnf.clauses)
        for a in (7, -7):
            for b in (8, -8):
                cnf.add_clause((a, b))
        cnf.add_clause((7,))
        cnf.add_clause((-7,))
        cnf.add_clause((1, 2, -8))
        cnf.add_clause((-1, -3, 8))
        assumptions = tuple(dict.fromkeys(assumptions))
        if any(-lit in assumptions for lit in assumptions):
            return  # contradictory assumption set; not produced by the solver
        solver = SatSolver(cnf)
        cone = frozenset(range(1, 7))
        for _ in range(2):  # learned clauses persist into the second call
            model = solver.solve(assumptions, cone)
            expected = _brute_force_sat(cone_clauses, 6, assumptions)
            assert (model is not None) == expected
            if model is not None:
                assert cone <= set(model), "the assignment covers the cone"
                assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)
                for clause in cone_clauses:
                    assert any(model[abs(lit)] == (lit > 0) for lit in clause)
        assert solver.solve() is None, "the whole database is unsatisfiable"
