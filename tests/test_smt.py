"""Tests for the SMT layer: LIA core, SAT solver, encoder, DPLL(T) solver."""


import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import terms as t
from repro.semantics.refinements import eval_term
from repro.smt import check_sat, check_valid
from repro.smt import encoder as encoder_module
from repro.smt.encoder import EncodingError, IncrementalEncoder, linearize
from repro.smt.lia import check_integer_feasible
from repro.smt.linexpr import Constraint, LinExpr
from repro.smt.sat import CNF, solve
from repro.smt.solver import Solver

from lia_reference import check_rational_feasible_reference


x = t.int_var("x")
y = t.int_var("y")
z = t.int_var("z")
xs = t.data_var("xs")
ys = t.data_var("ys")


class TestLinExpr:
    def test_arithmetic(self):
        e = LinExpr.var("x") + LinExpr.var("y") * 2 - LinExpr.const(3)
        assert e.coefficient("x") == 1
        assert e.coefficient("y") == 2
        assert e.constant == -3

    def test_substitute_and_evaluate(self):
        e = LinExpr.var("x") * 2 + LinExpr.const(1)
        assert e.substitute({"x": 3}).constant == 7
        assert e.evaluate({"x": 4}) == 9

    def test_zero_coefficients_dropped(self):
        e = LinExpr.var("x") - LinExpr.var("x")
        assert e.is_constant()

    def test_rename(self):
        e = LinExpr.var("x") + LinExpr.var("y")
        renamed = e.rename({"x": "y"})
        assert renamed.coefficient("y") == 2


class TestLIA:
    def test_feasible_system(self):
        constraints = [
            Constraint(LinExpr.var("x") * -1),          # -x <= 0, i.e. x >= 0
            Constraint(LinExpr.var("x") - LinExpr.const(5)),  # x <= 5
        ]
        result = check_integer_feasible(constraints)
        assert result.satisfiable
        assert 0 <= result.model["x"] <= 5

    def test_infeasible_system(self):
        constraints = [
            Constraint(LinExpr.var("x") - LinExpr.const(1)),       # x <= 1
            Constraint(LinExpr.const(3) - LinExpr.var("x")),       # x >= 3
        ]
        assert not check_integer_feasible(constraints).satisfiable

    def test_integrality_matters(self):
        # 2x = 1 has a rational but no integer solution.
        constraints = [
            Constraint(LinExpr.var("x") * 2 - LinExpr.const(1)),
            Constraint(LinExpr.const(1) - LinExpr.var("x") * 2),
        ]
        assert check_rational_feasible_reference(constraints)
        assert not check_integer_feasible(constraints).satisfiable

    def test_multivariate(self):
        # x + y <= 3, x >= 2, y >= 2 is infeasible.
        constraints = [
            Constraint(LinExpr.var("x") + LinExpr.var("y") - LinExpr.const(3)),
            Constraint(LinExpr.const(2) - LinExpr.var("x")),
            Constraint(LinExpr.const(2) - LinExpr.var("y")),
        ]
        assert not check_integer_feasible(constraints).satisfiable

    def test_model_satisfies_constraints(self):
        constraints = [
            Constraint(LinExpr.var("x") - LinExpr.var("y")),          # x <= y
            Constraint(LinExpr.const(4) - LinExpr.var("x")),          # x >= 4
            Constraint(LinExpr.var("y") - LinExpr.const(10)),         # y <= 10
        ]
        result = check_integer_feasible(constraints)
        assert result.satisfiable
        assert all(c.holds(result.model) for c in constraints)


class TestSAT:
    def test_simple_sat(self):
        cnf = CNF()
        cnf.add_clause((1, 2))
        cnf.add_clause((-1,))
        model = solve(cnf)
        assert model is not None and model[2] is True

    def test_unsat(self):
        cnf = CNF()
        cnf.add_clause((1,))
        cnf.add_clause((-1,))
        assert solve(cnf) is None

    def test_unit_propagation_chain(self):
        cnf = CNF()
        cnf.add_clause((1,))
        cnf.add_clause((-1, 2))
        cnf.add_clause((-2, 3))
        model = solve(cnf)
        assert model is not None and model[3] is True

    def test_tautological_clause_ignored(self):
        cnf = CNF()
        cnf.add_clause((1, -1))
        assert solve(cnf) is not None

    @given(
        st.lists(
            st.lists(st.integers(1, 5).map(lambda v: v if v % 2 else -v), min_size=1, max_size=3),
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_models_satisfy_clauses(self, clauses):
        cnf = CNF()
        for clause in clauses:
            cnf.add_clause(tuple(clause))
        model = solve(cnf)
        if model is not None:
            for clause in cnf.clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


class TestEncoder:
    def test_linearize_basic(self):
        expr = linearize(x + y * 2 - 3)
        assert expr.coefficient("x") == 1
        assert expr.coefficient("y") == 2
        assert expr.constant == -3

    def test_linearize_measures_as_opaque_keys(self):
        expr = linearize(t.len_(xs) + 1)
        assert expr.constant == 1
        assert t.len_(xs) in dict(expr.coeffs)

    def test_linearize_rejects_nonlinear(self):
        with pytest.raises(EncodingError):
            linearize(t.Mul(x, y))

    def test_trivial_formulas(self):
        encoder = IncrementalEncoder()
        assert encoder.encode(t.TRUE).trivial is True
        assert encoder.encode(t.FALSE).trivial is False
        assert encoder.encode(t.conj(t.IntConst(1) < t.IntConst(0))).trivial is False


class TestSolverArithmetic:
    def test_valid_implication(self):
        assert check_valid(t.implies(t.conj(x >= 0, y >= x), y >= 0))

    def test_invalid_implication(self):
        assert not check_valid(t.implies(x >= 0, x >= 1))

    def test_model_extraction(self):
        model = check_sat(t.conj(x >= 3, x <= 3, y.eq(x + 2)))
        assert model is not None
        assert model.value("x") == 3 and model.value("y") == 5

    def test_unsat_conjunction(self):
        assert check_sat(t.conj(x < y, y < x)) is None

    def test_ite_lifting(self):
        n = t.len_(xs)
        assert check_valid(t.implies(n >= 0, t.Ite(n > 0, n, t.IntConst(0)) >= 0))
        assert not check_valid(t.Ite(x > 0, x, t.IntConst(0)) > 0)

    def test_equality_as_two_inequalities(self):
        assert check_valid(t.implies(x.eq(y), t.conj(x <= y, x >= y)))
        assert check_valid(t.implies(t.conj(x <= y, x >= y), x.eq(y)))

    def test_negated_equality(self):
        assert check_sat(t.conj(x.neq(y), x.eq(3), y.eq(3))) is None

    def test_measure_congruence_via_data_equality(self):
        # xs == ys (data equality) implies len xs == len ys.
        assert check_valid(t.implies(t.Eq(xs, ys), t.len_(xs).eq(t.len_(ys))))

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_validity_agrees_with_evaluation(self, a, c, d):
        formula = t.implies(t.conj(x >= a, x <= c), x + d >= a + d)
        if check_valid(formula):
            for value in range(a, min(c, a + 5) + 1):
                assert eval_term(formula, {"x": value})


class TestSolverSets:
    def test_common_elements_vc(self):
        """The verification condition from Sec. 2.1 of the paper."""
        l1, l2, v, elem = t.data_var("l1"), t.data_var("l2"), t.data_var("v"), t.int_var("x")
        hyp = t.conj(
            t.Eq(t.elems(l1), t.SetUnion(t.SetSingleton(elem), t.elems(xs))),
            t.Not(t.SetMember(elem, t.elems(l2))),
            t.Eq(t.elems(v), t.SetIntersect(t.elems(xs), t.elems(l2))),
        )
        goal = t.Eq(t.elems(v), t.SetIntersect(t.elems(l1), t.elems(l2)))
        assert check_valid(t.implies(hyp, goal))
        wrong = t.Eq(t.elems(v), t.SetUnion(t.elems(l1), t.elems(l2)))
        assert not check_valid(t.implies(hyp, wrong))

    def test_subset_reasoning(self):
        assert check_valid(
            t.implies(
                t.conj(t.SetSubset(t.elems(xs), t.elems(ys)), t.SetMember(x, t.elems(xs))),
                t.SetMember(x, t.elems(ys)),
            )
        )

    def test_sortedness_excludes_membership(self):
        """x < y and every element of l2 >= y implies x not in elems l2."""
        l2 = t.data_var("l2")
        e = t.int_var("e")
        hyp = t.conj(x < y, t.SetAll("e", t.elems(l2), e >= y))
        assert check_valid(t.implies(hyp, t.Not(t.SetMember(x, t.elems(l2)))))
        hyp_weak = t.SetAll("e", t.elems(l2), e >= y)
        assert not check_valid(t.implies(hyp_weak, t.Not(t.SetMember(x, t.elems(l2)))))

    def test_empty_set(self):
        assert check_valid(
            t.implies(t.Eq(t.elems(xs), t.EmptySet()), t.Not(t.SetMember(x, t.elems(xs))))
        )

    def test_set_difference(self):
        hyp = t.conj(t.SetMember(x, t.elems(xs)), t.Not(t.SetMember(x, t.elems(ys))))
        assert check_valid(t.implies(hyp, t.SetMember(x, t.SetDiff(t.elems(xs), t.elems(ys)))))

    def test_singleton_union(self):
        hyp = t.Eq(t.elems(ys), t.SetUnion(t.SetSingleton(x), t.elems(xs)))
        assert check_valid(t.implies(hyp, t.SetMember(x, t.elems(ys))))


class TestSolverObject:
    def test_statistics_are_tracked(self):
        solver = Solver()
        solver.check_valid(t.implies(x >= 0, x >= 0))
        solver.check_sat(x >= 0)
        assert solver.stats.sat_queries >= 2
        assert solver.stats.validity_queries >= 1

    def test_validity_cache(self):
        solver = Solver()
        formula = t.implies(x >= 0, x + 1 >= 1)
        assert solver.check_valid(formula)
        queries = solver.stats.sat_queries
        assert solver.check_valid(formula)
        assert solver.stats.sat_queries == queries


# ---------------------------------------------------------------------------
# Independent oracle: evaluation over a small integer box
# ---------------------------------------------------------------------------

_BOX = range(-4, 5)
_COMPARISONS = (t.Le, t.Lt, t.Ge, t.Gt, t.Eq)


def _random_atom(rng):
    """``a*x + b*y + c*z  <op>  d`` with coefficients in [-3, 3]."""
    lhs = t.IntConst(0)
    for var in (x, y, z):
        coeff = rng.randint(-3, 3)
        if coeff:
            lhs = lhs + t.IntConst(coeff) * var
    return rng.choice(_COMPARISONS)(lhs, t.IntConst(rng.randint(-4, 4)))


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(atoms)
    # Conjunctions are drawn twice as often, so that some formulas are unsat.
    kind = rng.choice(("and", "and", "or", "not", "ite"))
    if kind == "not":
        return t.Not(_random_formula(rng, atoms, depth - 1))
    parts = [_random_formula(rng, atoms, depth - 1) for _ in range(3 if kind == "ite" else 2)]
    if kind == "ite":
        return t.Ite(*parts, sort=t.BOOL)
    return (t.And if kind == "and" else t.Or)(tuple(parts))


def _holds(formula, model):
    env = {name: model.value(name) for name in ("x", "y", "z")}
    return eval_term(formula, env)


class TestSolverOracle:
    """Verdicts and models are checked by evaluation, not by another solver.

    Every formula is solved twice: on a fresh :class:`Solver` and on one warm
    solver that has already answered all earlier formulas of the run, so the
    warm verdicts go through the shared clause database (earlier formulas'
    gates and theory lemmas), gate-cache replay and the model and validity
    LRUs.  Formulas draw on a small shared atom pool to make that reuse
    actually happen.
    """

    def _check_stream(self, warm, rng, atoms, count):
        """Solve ``count`` random formulas fresh and on ``warm``; evaluate both.

        Returns the verdicts seen and the lemmas the fresh solvers learned on
        the distinct formulas of the stream.
        """
        verdicts = set()
        fresh_lemmas = 0
        seen = set()
        for _ in range(count):
            formula = _random_formula(rng, atoms, depth=4)
            fresh = Solver()
            fresh_model = fresh.check_sat(formula)
            if formula not in seen:
                seen.add(formula)
                fresh_lemmas += fresh.stats.lemmas_learned
            warm_model = warm.check_sat(formula)
            unsat = fresh_model is None
            assert (warm_model is None) == unsat, formula
            assert warm.check_valid(t.neg(formula)) == unsat, formula
            if not unsat:
                assert _holds(formula, fresh_model), (formula, fresh_model)
                assert _holds(formula, warm_model), (formula, warm_model)
            else:
                for point in itertools.product(_BOX, repeat=3):
                    env = dict(zip(("x", "y", "z"), point))
                    assert not eval_term(formula, env), (formula, env)
            verdicts.add(unsat)
        return verdicts, fresh_lemmas

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fresh_and_warm_solvers_agree_with_evaluation(self, seed):
        rng = random.Random(seed)
        atoms = [_random_atom(rng) for _ in range(8)]
        warm = Solver()
        verdicts, fresh_lemmas = self._check_stream(warm, rng, atoms, 60)
        assert verdicts == {True, False}
        # Lemmas learned by earlier queries serve later ones: with one lemma
        # store per formula the warm solver would relearn what every fresh
        # solver learns.
        assert 0 < warm.stats.lemmas_learned < fresh_lemmas

    def test_lemma_learned_by_one_query_serves_the_next(self):
        first = t.conj(x <= 0, x >= 1, y >= 5)
        second = t.conj(t.disj(z <= 0, z >= 3), x <= 0, x >= 1)
        fresh = Solver()
        assert fresh.check_sat(second) is None
        assert fresh.stats.lemmas_learned > 0
        warm = Solver()
        assert warm.check_sat(first) is None
        learned = warm.stats.lemmas_learned
        assert warm.check_sat(second) is None
        assert warm.stats.lemmas_learned == learned, "the first query's lemma refutes it"

    @pytest.mark.parametrize("seed", [3, 4])
    def test_clauses_outside_the_cone_do_not_change_verdicts(self, seed):
        """A database holding unrelated unsat formulas and lemmas answers exactly."""
        u, v = t.int_var("u"), t.int_var("v")
        warm = Solver()
        assert warm.check_sat(t.conj(u <= v, v + 1 <= u)) is None
        assert warm.check_sat(t.conj(t.disj(u <= 0, v <= 0), u >= 1, v >= 1)) is None
        assert warm.check_sat(t.disj(t.conj(u >= 3, u <= 2), t.conj(u.eq(v), v >= 7))) is not None
        assert warm.stats.lemmas_learned > 0
        unrelated = len(warm._encoder.cnf.clauses)

        rng = random.Random(seed)
        atoms = [_random_atom(rng) for _ in range(8)]
        verdicts, _ = self._check_stream(warm, rng, atoms, 40)
        assert verdicts == {True, False}
        probe = warm._encoder.encode(_random_formula(rng, atoms, depth=4))
        tops = [max(abs(lit) for lit in clause) for clause in warm._encoder.cnf.clauses]
        assert any(top not in probe.cone for top in tops[:unrelated])

    @pytest.mark.parametrize("bound", ["_MODULE_CACHE_MAX", "_DATABASE_MAX"])
    def test_encoder_rebuilds_the_database_at_its_bounds(self, monkeypatch, bound):
        """A full gate cache or database starts a new one; verdicts stay exact."""
        monkeypatch.setattr(encoder_module, bound, 24)
        rng = random.Random(5)
        atoms = [_random_atom(rng) for _ in range(8)]
        warm = Solver()
        databases = []
        verdicts = set()
        for _ in range(4):
            verdicts |= self._check_stream(warm, rng, atoms, 15)[0]
            if not any(warm._encoder.cnf is db for db in databases):
                databases.append(warm._encoder.cnf)
        assert verdicts == {True, False}
        assert len(databases) > 1
        assert warm._encoder.stats.database_resets >= len(databases) - 1

