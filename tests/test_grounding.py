"""CEGIS grounding on linear forms agrees with grounding by term substitution.

:mod:`repro.constraints.cegis` grounds a constraint on an example by integer
evaluation of the expression's per-coefficient linear form, and decides each
(guard, example) pair once.  The oracle is the substitution-based grounding
it replaced (``tests/cegis_reference.py``): on hypothesis-generated
constraints, including the shapes that have no linear form (``Ite``,
products of two coefficient terms, Boolean and set leaves in numeric
positions), and on the (constraint, example) pairs the portfolio ladders and
``insert_fine`` actually ground, both give the same rows, the same vacuous
``[]`` and the same undecided counts.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cegis_reference import ground_reference, small_coefficient_model_reference
from repro.benchsuite.definitions import benchmark_by_key as table_benchmark
from repro.constraints.cegis import CegisSolver, Example, linear_form
from repro.constraints.store import ConstraintStore, ResourceConstraint
from repro.core import SynthesisConfig, Synthesizer
from repro.logic import terms as t
from repro.portfolio import compile_ladder
from repro.portfolio.suite import benchmark_by_key
from repro.smt.linexpr import Constraint, LinExpr
from repro.smt.solver import Solver

_STORE = ConstraintStore()
C1 = _STORE.fresh_coefficient()
C2 = _STORE.fresh_coefficient()
x = t.int_var("x")
y = t.int_var("y")
b = t.bool_var("b")
LEN = t.len_(t.data_var("xs"))
ELEMS = t.elems(t.data_var("xs"))

_linear_leaves = st.one_of(st.sampled_from([C1, C2, x, y, LEN]), st.integers(-3, 3).map(t.IntConst))
# Leaves without a linear form: linearize keeps b and ELEMS symbolic.
_other_leaves = st.sampled_from([b, ELEMS, t.TRUE])


def _arith(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: t.Add(*p)),
        pairs.map(lambda p: t.Sub(*p)),
        pairs.map(lambda p: t.Mul(*p)),
    )


def _any(children):
    ite = st.tuples(st.integers(-2, 2), children, children).map(
        lambda p: t.Ite(x > p[0], p[1], p[2])
    )
    return st.one_of(_arith(children), ite)


# Mostly sums and products of linear leaves (some products have no form),
# a third of the time any shape.
_linear_exprs = st.recursive(_linear_leaves, _arith, max_leaves=6)
_any_exprs = st.recursive(st.one_of(_linear_leaves, _other_leaves), _any, max_leaves=6)
_exprs = st.one_of(_linear_exprs, _linear_exprs, _any_exprs)
_guards = st.sampled_from(
    [
        t.TRUE,
        t.FALSE,
        x >= 0,
        t.conj(x >= 1, y <= 2),
        LEN >= 1,
        b,
        t.conj(b, x < 0),
        t.SetMember(x, ELEMS),
    ]
)
_constraints = st.builds(ResourceConstraint, _guards, _exprs, st.booleans())
_values = st.fixed_dictionaries(
    {}, optional={"x": st.integers(-3, 3), "y": st.integers(-3, 3), LEN: st.integers(0, 4)}
)


def _ground(rc, values):
    """``(rows, undecided)`` from the linear-form grounding."""
    cegis = CegisSolver()
    rows = cegis._ground(rc, Example(dict(values)))
    return rows, cegis.stats.undecided == 1


class TestAgainstSubstitution:
    @given(_constraints, _values)
    @settings(max_examples=300, deadline=None)
    def test_same_rows_vacuity_and_undecided(self, rc, values):
        assert _ground(rc, values) == ground_reference(Solver(), rc, values)

    def test_encoding_error_shapes_have_no_form_and_ground_to_nothing(self):
        for expr in (t.Mul(C1, C2), t.Mul(t.Mul(C1, x), C2)):
            rc = ResourceConstraint(t.TRUE, expr)
            assert linear_form(expr) is None
            assert _ground(rc, {"x": 2}) == ([], True)
            assert ground_reference(Solver(), rc, {"x": 2}) == ([], True)
        # A product whose coefficient factor vanishes on the example is linear there.
        rc = ResourceConstraint(t.TRUE, t.Mul(t.Mul(C1, x), C2))
        assert _ground(rc, {"x": 0}) == ([Constraint(LinExpr())], False)

    def test_ites_the_example_decides_fold_to_rows(self):
        rc = ResourceConstraint(t.TRUE, t.Ite(x > 1, C1, t.ONE))
        assert linear_form(rc.expr) is None
        row = Constraint(-LinExpr.var(C1.name))  # C1 >= 0
        assert _ground(rc, {"x": 2}) == ([row], False)
        assert ground_reference(Solver(), rc, {"x": 2}) == ([row], False)
        # A symbolic Boolean condition stays an Ite, which has no row.
        rc = ResourceConstraint(t.TRUE, t.Ite(b, C1, t.ONE))
        assert _ground(rc, {"x": 2}) == ([], True)

    def test_forms_are_linear_per_coefficient(self):
        form = linear_form(t.Mul(C1 + 2, LEN) - x + 3)
        assert sorted(form, key=repr) == sorted(
            [(C1.name, LEN, 1), (None, LEN, 2), (None, "x", -1), (None, None, 3)], key=repr
        )

    def test_example_keys_are_values(self):
        assert Example({"x": 1, LEN: 2}).key == Example({LEN: 2, "x": 1}).key
        assert Example({"x": 1}).key != Example({"x": 2}).key


class TestSmallCoefficients:
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-12, 12)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_same_models_as_the_bound_ladder(self, rows):
        linear = [
            Constraint(LinExpr.from_dict({C1.name: a, C2.name: c}, k)) for a, c, k in rows
        ]
        solver = CegisSolver()
        assert solver._solve_with_small_coefficients(
            linear, [C1.name, C2.name]
        ) == small_coefficient_model_reference(linear)


# ---------------------------------------------------------------------------
# Pairs recorded from the portfolio ladders
# ---------------------------------------------------------------------------

LADDER_RUNGS = (("asym_subset", "O(n)[c=1]"), ("asym_triple", "O(1)[c=1]"))


def _recorded(goal, config, monkeypatch):
    """Synthesize ``goal``; return the groundings CEGIS made."""
    groundings = []
    ground = CegisSolver._ground

    def record_ground(self, rc, example):
        before = self.stats.undecided
        rows = ground(self, rc, example)
        groundings.append((rc, dict(example.ints), rows, self.stats.undecided > before))
        return rows

    monkeypatch.setattr(CegisSolver, "_ground", record_ground)
    Synthesizer(goal, config).synthesize()
    monkeypatch.undo()
    return groundings


def _assert_as_by_substitution(groundings):
    solver = Solver()
    for rc, values, rows, undecided in groundings:
        assert (rows, undecided) == ground_reference(solver, rc, values)


@pytest.mark.parametrize("key,label", LADDER_RUNGS)
def test_ladder_pairs_ground_as_by_substitution(key, label, monkeypatch):
    bench = benchmark_by_key(key)
    config = replace(SynthesisConfig.resyn(), **bench.config_overrides)
    (rung,) = [rung for rung in compile_ladder(bench.goal) if rung.label == label]
    groundings = _recorded(rung.goal, config, monkeypatch)
    assert any(rows for _, _, rows, _ in groundings)
    _assert_as_by_substitution(groundings)


@pytest.mark.parametrize("mode", [SynthesisConfig.resyn, SynthesisConfig.resyn_nonincremental])
def test_insert_fine_reaches_substitution_grounding(mode, monkeypatch):
    """Expressions without a linear form are live: ``insert_fine``'s element
    potential ``ite(x > nu, 1, 0)`` leaves an ``Ite`` in constraint
    expressions such as ``((0 - C) - C) - (if (x > x) then 1 else 0)``, and
    CEGIS grounds them by term substitution within the first 100 candidates
    (the program is found at 183).  The example decides the condition, so
    the folded ``Ite`` yields rows."""
    config = replace(mode(), max_candidates=100)
    groundings = _recorded(table_benchmark("insert_fine").goal, config, monkeypatch)
    no_form = [(rc, rows) for rc, _, rows, _ in groundings if linear_form(rc.expr) is None]
    assert any(isinstance(rc.expr, t.Sub) and rows for rc, rows in no_form)
    _assert_as_by_substitution(groundings)
