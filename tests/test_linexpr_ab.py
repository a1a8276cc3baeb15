"""A/B property suite: int-backed ``LinExpr`` vs the Fraction reference.

The int-backed representation (normalized ``(numerator_tuple, common
denominator)`` pairs, :mod:`repro.smt.linexpr`) must be observationally
identical to the retained dict-of-Fractions model
(``RefLinExpr`` in ``tests/lia_reference.py``): random chains of
add/subtract/scale/negate operations evaluate to the same rationals, the
``coeffs``/``constant`` views expose the same Fractions, equality of
expressions matches equality of their rational coefficient maps, and
``int_form`` both round-trips through ``from_dict`` and agrees with a
first-principles LCM/GCD computation on the reference side.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.smt.linexpr import LinExpr, int_form

from lia_reference import RefLinExpr

VARS = ("x", "y", "z", "w")

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=4)
scalars = st.one_of(st.integers(-6, 6), fractions)
coeff_maps = st.dictionaries(st.sampled_from(VARS), fractions, max_size=4)

#: One step of an operation chain: (op name, operand payload).
ops = st.one_of(
    st.tuples(st.just("add"), coeff_maps, fractions),
    st.tuples(st.just("sub"), coeff_maps, fractions),
    st.tuples(st.just("mul"), scalars),
    st.tuples(st.just("neg")),
)


def build_pair(coeffs, constant):
    return LinExpr.from_dict(coeffs, constant), RefLinExpr(dict(coeffs), constant)


def apply_chain(expr, ref, chain):
    for step in chain:
        if step[0] == "add":
            other, other_ref = build_pair(step[1], step[2])
            expr, ref = expr + other, ref + other_ref
        elif step[0] == "sub":
            other, other_ref = build_pair(step[1], step[2])
            expr, ref = expr - other, ref - other_ref
        elif step[0] == "mul":
            expr, ref = expr * step[1], ref * step[1]
        else:
            expr, ref = -expr, -ref
    return expr, ref


def assert_same_value(expr: LinExpr, ref: RefLinExpr) -> None:
    assert dict(expr.coeffs) == ref.coeffs
    assert expr.constant == ref.constant


class TestChainsAgree:
    @given(coeff_maps, fractions, st.lists(ops, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_random_chains_agree(self, coeffs, constant, chain):
        """Random add/scale chains give the same rational coefficients."""
        expr, ref = apply_chain(*build_pair(coeffs, constant), chain)
        assert_same_value(expr, ref)

    @given(coeff_maps, fractions, st.lists(ops, max_size=6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_evaluation_agrees(self, coeffs, constant, chain, data):
        expr, ref = apply_chain(*build_pair(coeffs, constant), chain)
        point = data.draw(st.dictionaries(st.sampled_from(VARS), st.integers(-5, 5)))
        assert expr.evaluate(point) == ref.evaluate(point)

    @given(coeff_maps, fractions, coeff_maps, fractions)
    @settings(max_examples=200, deadline=None)
    def test_equality_matches_semantics(self, c1, k1, c2, k2):
        """Structural equality of LinExpr == semantic equality of the maps."""
        e1, r1 = build_pair(c1, k1)
        e2, r2 = build_pair(c2, k2)
        semantically_equal = r1.coeffs == r2.coeffs and r1.constant == r2.constant
        assert (e1 == e2) == semantically_equal
        if e1 == e2:
            assert hash(e1) == hash(e2)

    @given(coeff_maps, fractions, st.lists(ops, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_representation_invariants(self, coeffs, constant, chain):
        """den positive, no zero numerators, joint GCD (with den) trivial."""
        import math

        expr, _ = apply_chain(*build_pair(coeffs, constant), chain)
        assert expr.den >= 1
        assert all(n != 0 for _, n in expr.nums)
        g = math.gcd(expr.den, expr.const_num)
        for _, n in expr.nums:
            g = math.gcd(g, n)
        assert g == 1


class TestIntFormRoundTrip:
    @given(coeff_maps, fractions)
    @settings(max_examples=200, deadline=None)
    def test_int_form_matches_reference(self, coeffs, constant):
        """`int_form` equals the first-principles LCM/GCD scaling."""
        expr, ref = build_pair(coeffs, constant)
        assert int_form(expr) == ref.int_form()

    @given(coeff_maps, fractions)
    @settings(max_examples=200, deadline=None)
    def test_int_form_round_trips(self, coeffs, constant):
        """Rebuilding from int_form yields a fixpoint of int_form."""
        expr, _ = build_pair(coeffs, constant)
        items, const = int_form(expr)
        rebuilt = LinExpr.from_dict(dict(items), const)
        assert int_form(rebuilt) == (rebuilt.nums, rebuilt.const_num)
        assert int_form(rebuilt) == (items, const)

    @given(coeff_maps, fractions, st.dictionaries(st.sampled_from(VARS), st.integers(-7, 7)))
    @settings(max_examples=200, deadline=None)
    def test_int_form_sign_equivalent(self, coeffs, constant, point):
        """``expr <= 0`` iff its int form is ``<= 0`` at every point."""
        expr, _ = build_pair(coeffs, constant)
        items, const = int_form(expr)
        scaled = const + sum(c * point.get(k, 0) for k, c in items)
        original = expr.evaluate(point)
        assert (original <= 0) == (scaled <= 0)
        assert (original == 0) == (scaled == 0)

    @given(coeff_maps, fractions)
    @settings(max_examples=100, deadline=None)
    def test_ref_conversion_round_trips(self, coeffs, constant):
        """RefLinExpr -> LinExpr -> Fraction views is the identity."""
        expr, ref = build_pair(coeffs, constant)
        again = ref.as_linexpr()
        assert again == expr
        assert dict(again.coeffs) == ref.coeffs
        assert again.constant == ref.constant


class TestAccessors:
    def test_fraction_views(self):
        e = LinExpr.from_dict({"x": Fraction(1, 2), "y": 2}, Fraction(-3, 4))
        assert e.den == 4
        assert dict(e.nums) == {"x": 2, "y": 8}
        assert e.const_num == -3
        assert e.coefficient("x") == Fraction(1, 2)
        assert e.coefficient("missing") == 0
        assert e.constant == Fraction(-3, 4)

    def test_int_fast_path_den_one(self):
        e = LinExpr.var("x") * 6 + LinExpr.const(4)
        assert e.den == 1
        assert int_form(e) == ((("x", 3),), 2)

    def test_stray_floats_coerce_exactly(self):
        """Floats outside the annotated types are converted exactly, not truncated."""
        assert LinExpr.var("x") * 0.5 == LinExpr.var("x", Fraction(1, 2))
        assert LinExpr.const(0.25) == LinExpr.const(Fraction(1, 4))
        assert LinExpr.from_dict({"x": 0.5}, 1.5) == LinExpr.from_dict(
            {"x": Fraction(1, 2)}, Fraction(3, 2)
        )
