"""Unit and property tests for the refinement-logic substrate."""

from hypothesis import given, settings, strategies as st

from repro.logic import terms as t
from repro.logic.simplify import is_trivially_false, is_trivially_true, simplify
from repro.logic.sorts import BOOL, DATA, INT, SET, uninterpreted
from repro.semantics.refinements import eval_term


x = t.int_var("x")
y = t.int_var("y")
b = t.bool_var("b")
xs = t.data_var("xs")


class TestSorts:
    def test_basic_sorts_distinct(self):
        assert BOOL != INT != SET != DATA

    def test_uninterpreted_sorts_by_name(self):
        assert uninterpreted("a") == uninterpreted("a")
        assert uninterpreted("a") != uninterpreted("b")

    def test_numeric_sorts(self):
        assert INT.is_numeric
        assert uninterpreted("a").is_numeric
        assert not BOOL.is_numeric
        assert not SET.is_numeric


class TestTermConstruction:
    def test_operator_overloads_build_expected_nodes(self):
        assert isinstance(x + y, t.Add)
        assert isinstance(x - 1, t.Sub)
        assert isinstance(x * 2, t.Mul)
        assert isinstance(x <= y, t.Le)
        assert isinstance(x < y, t.Lt)
        assert isinstance(x >= y, t.Ge)
        assert isinstance(x > y, t.Gt)
        assert isinstance(x.eq(y), t.Eq)

    def test_coercion_of_python_ints(self):
        term = x + 3
        assert isinstance(term.right, t.IntConst)
        assert term.right.value == 3

    def test_conj_flattens_and_short_circuits(self):
        assert t.conj() == t.TRUE
        assert t.conj(x < y) == (x < y)
        assert t.conj(t.TRUE, x < y) == (x < y)
        assert t.conj(t.FALSE, x < y) == t.FALSE
        nested = t.conj(t.conj(x < y, y < x), x.eq(y))
        assert isinstance(nested, t.And) and len(nested.args) == 3

    def test_disj_flattens_and_short_circuits(self):
        assert t.disj() == t.FALSE
        assert t.disj(t.TRUE, x < y) == t.TRUE
        assert t.disj(t.FALSE, x < y) == (x < y)

    def test_neg_involution(self):
        assert t.neg(t.neg(x < y)) == (x < y)
        assert t.neg(t.TRUE) == t.FALSE

    def test_implies_simplification(self):
        assert t.implies(t.TRUE, x < y) == (x < y)
        assert t.implies(t.FALSE, x < y) == t.TRUE
        assert t.implies(x < y, t.TRUE) == t.TRUE

    def test_terms_are_hashable(self):
        assert len({x + y, x + y, y + x}) == 2

    def test_measure_helpers(self):
        assert t.len_(xs).sort == INT
        assert t.elems(xs).sort == SET
        assert t.numgt(x, xs).sort == INT


class TestFreeVarsAndSubstitution:
    def test_free_vars(self):
        term = t.conj(x < y, t.SetMember(x, t.elems(xs)))
        assert t.free_vars(term) == {"x", "y", "xs"}

    def test_setall_binds_variable(self):
        term = t.SetAll("e", t.elems(xs), t.int_var("e") > x)
        assert t.free_vars(term) == {"xs", "x"}

    def test_substitute_simple(self):
        term = x + y
        result = t.substitute(term, {"x": t.IntConst(3)})
        assert result == t.IntConst(3) + y

    def test_substitute_no_op_returns_same_object(self):
        term = x + y
        assert t.substitute(term, {}) is term

    def test_substitute_respects_setall_binder(self):
        term = t.SetAll("e", t.elems(xs), t.int_var("e") > x)
        result = t.substitute(term, {"e": t.IntConst(5), "x": t.IntConst(1)})
        assert isinstance(result, t.SetAll)
        assert t.free_vars(result.body) == {"e"}

    def test_rename_preserves_sorts(self):
        term = t.conj(b, x < y)
        renamed = t.rename(term, {"b": "c", "x": "z"})
        names = {v.name: v.sort for v in t.free_var_terms(renamed)}
        assert names["c"] == BOOL
        assert names["z"] == INT

    def test_apps_in(self):
        term = t.conj(t.len_(xs) >= 0, t.SetMember(x, t.elems(xs)))
        funcs = {a.func for a in t.apps_in(term)}
        assert funcs == {"len", "elems"}


class TestSimplify:
    def test_constant_folding(self):
        assert simplify(t.IntConst(2) + t.IntConst(3)) == t.IntConst(5)
        assert simplify(t.IntConst(2) * t.IntConst(3)) == t.IntConst(6)
        assert simplify(t.IntConst(4) - t.IntConst(4)) == t.ZERO

    def test_unit_laws(self):
        assert simplify(x + 0) == x
        assert simplify(x * 1) == x
        assert simplify(x * 0) == t.ZERO
        assert simplify(x - 0) == x

    def test_self_subtraction(self):
        assert simplify(x - x) == t.ZERO

    def test_comparison_folding(self):
        assert is_trivially_true(t.IntConst(1) <= t.IntConst(2))
        assert is_trivially_false(t.IntConst(3) < t.IntConst(2))
        assert is_trivially_true(x.eq(x))

    def test_ite_folding(self):
        assert simplify(t.Ite(t.TRUE, x, y)) == x
        assert simplify(t.Ite(t.FALSE, x, y)) == y
        assert simplify(t.Ite(x < y, x, x)) == x

    def test_boolean_simplification(self):
        assert simplify(t.And((t.TRUE, x < y))) == (x < y)
        assert simplify(t.Or((t.FALSE, x < y))) == (x < y)
        assert simplify(t.Not(t.Not(x < y))) == (x < y)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_simplify_preserves_semantics(self, a, c):
        term = t.implies(t.conj(x >= a, x <= c), t.disj(x.eq(a), x > a))
        env = {"x": a}
        assert eval_term(term, env) == eval_term(simplify(term), env)

