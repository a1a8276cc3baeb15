"""Reference Fraction-based LIA arithmetic and decision procedure.

This module preserves the original exact-:class:`fractions.Fraction`
implementations that the optimized pipeline replaced:

* :class:`RefLinExpr` — the dict-of-Fractions affine expression the
  int-backed :class:`repro.smt.linexpr.LinExpr` supersedes, used by the A/B
  property suite in ``tests/test_linexpr_ab.py`` to check that random
  add/scale/negate chains agree between both representations;
* :func:`check_integer_feasible_reference` /
  :func:`check_rational_feasible_reference` — the Fraction-based
  Fourier–Motzkin engine that :mod:`repro.smt.lia` replaced with the
  integer-scaled one, used by ``tests/test_lia_core.py`` as a verdict oracle.

Everything here is deliberately unoptimized and uncached; it lives with the
tests because only the tests use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.smt.lia import BudgetExceeded, LIAResult
from repro.smt.linexpr import Constraint, Key, LinExpr


class RefLinExpr:
    """Fraction-backed affine expression: the pre-int-core ``LinExpr`` model.

    The representation is a plain ``{key: Fraction}`` dict plus a Fraction
    constant.  Operations mirror the public ``LinExpr`` surface the A/B suite
    exercises; :meth:`as_linexpr` converts to the int-backed representation
    and :meth:`int_form` computes the scaled integer form from first
    principles (LCM of denominators, then GCD of numerators) for round-trip
    checks against :func:`repro.smt.linexpr.int_form`.
    """

    def __init__(
        self, coeffs: Optional[Dict[Key, Fraction]] = None, constant: Fraction | int = 0
    ) -> None:
        self.coeffs: Dict[Key, Fraction] = {}
        for k, v in (coeffs or {}).items():
            v = Fraction(v)
            if v != 0:
                self.coeffs[k] = v
        self.constant = Fraction(constant)

    def __add__(self, other: "RefLinExpr") -> "RefLinExpr":
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        return RefLinExpr(merged, self.constant + other.constant)

    def __sub__(self, other: "RefLinExpr") -> "RefLinExpr":
        return self + (other * -1)

    def __mul__(self, scalar: Fraction | int) -> "RefLinExpr":
        scalar = Fraction(scalar)
        return RefLinExpr(
            {k: v * scalar for k, v in self.coeffs.items()}, self.constant * scalar
        )

    __rmul__ = __mul__

    def __neg__(self) -> "RefLinExpr":
        return self * -1

    def evaluate(self, assignment: Dict[Key, Fraction | int]) -> Fraction:
        total = self.constant
        for k, v in self.coeffs.items():
            total += v * Fraction(assignment.get(k, 0))
        return total

    def as_linexpr(self) -> LinExpr:
        return LinExpr.from_dict(self.coeffs, self.constant)

    def int_form(self) -> tuple:
        """``(sorted_items, constant)`` scaled to primitive integers."""
        lcm = self.constant.denominator
        for v in self.coeffs.values():
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        items = {k: v.numerator * (lcm // v.denominator) for k, v in self.coeffs.items()}
        constant = self.constant.numerator * (lcm // self.constant.denominator)
        g = abs(constant)
        for v in items.values():
            g = math.gcd(g, v)
        if g > 1:
            items = {k: v // g for k, v in items.items()}
            constant //= g
        ordered = tuple(sorted(items.items(), key=lambda kv: repr(kv[0])))
        return ordered, constant


def check_integer_feasible_reference(
    constraints: Sequence[Constraint],
    budget: int = 4000,
    depth: int = 40,
) -> LIAResult:
    """Decide integer feasibility with the original Fraction-based engine."""
    variables = sorted({v for c in constraints for v in c.expr.variables}, key=repr)
    exprs = [c.expr for c in constraints]
    model = _solve_integer(exprs, variables, budget, depth)
    if model is None:
        return LIAResult(False, None)
    return LIAResult(True, model)


def check_rational_feasible_reference(
    constraints: Sequence[Constraint], budget: int = 4000
) -> bool:
    """Decide rational feasibility with the original Fraction-based engine."""
    variables = sorted({v for c in constraints for v in c.expr.variables}, key=repr)
    sample = _solve_rational([c.expr for c in constraints], variables, budget)
    return sample is not None


# ---------------------------------------------------------------------------
# Integer feasibility: branch and bound over the rational relaxation
# ---------------------------------------------------------------------------


def _solve_integer(
    exprs: List[LinExpr],
    variables: Sequence[Key],
    budget: int,
    depth: int,
) -> Optional[Dict[Key, int]]:
    if depth <= 0:
        return None
    sample = _solve_rational(exprs, variables, budget)
    if sample is None:
        return None
    fractional = [(v, val) for v, val in sample.items() if val.denominator != 1]
    if not fractional:
        return {v: int(val) for v, val in sample.items()}
    var, value = fractional[0]
    floor_value = Fraction(math.floor(value))
    ceil_value = floor_value + 1
    below = exprs + [LinExpr.var(var) - LinExpr.const(floor_value)]
    result = _solve_integer(below, variables, budget, depth - 1)
    if result is not None:
        return result
    above = exprs + [LinExpr.const(ceil_value) - LinExpr.var(var)]
    return _solve_integer(above, variables, budget, depth - 1)


# ---------------------------------------------------------------------------
# Rational feasibility: Fourier–Motzkin elimination over Fractions
# ---------------------------------------------------------------------------


def _solve_rational(
    exprs: Sequence[LinExpr],
    variables: Sequence[Key],
    budget: int,
) -> Optional[Dict[Key, Fraction]]:
    """Return a rational sample point satisfying ``expr <= 0`` for all exprs."""
    normalized = _prune(list(exprs))
    if normalized is None:
        return None
    systems: List[List[LinExpr]] = [normalized]
    order = list(variables)
    for var in order:
        eliminated = _eliminate(systems[-1], var, budget)
        if eliminated is None:
            return None
        systems.append(eliminated)
    for expr in systems[-1]:
        if expr.const_num > 0:
            return None
    assignment: Dict[Key, Fraction] = {}
    for index in range(len(order) - 1, -1, -1):
        var = order[index]
        value = _choose_value(systems[index], var, assignment)
        if value is None:
            return None
        assignment[var] = value
    return assignment


def _eliminate(exprs: List[LinExpr], var: Key, budget: int) -> Optional[List[LinExpr]]:
    lower: List[LinExpr] = []
    upper: List[LinExpr] = []
    rest: List[LinExpr] = []
    for expr in exprs:
        coeff = expr.coefficient(var)
        if coeff == 0:
            rest.append(expr)
        elif coeff > 0:
            upper.append(expr)
        else:
            lower.append(expr)
    for low in lower:
        for up in upper:
            coeff_low = -low.coefficient(var)
            coeff_up = up.coefficient(var)
            combined = low * coeff_up + up * coeff_low
            combined = combined.substitute({var: Fraction(0)})
            rest.append(combined)
    pruned = _prune(rest)
    if pruned is None:
        return None
    if len(pruned) > budget:
        raise BudgetExceeded(f"Fourier-Motzkin produced {len(pruned)} constraints")
    return pruned


def _prune(exprs: List[LinExpr]) -> Optional[List[LinExpr]]:
    seen = set()
    result: List[LinExpr] = []
    for expr in exprs:
        if expr.is_constant():
            # den is positive, so the sign lives entirely in const_num.
            if expr.const_num > 0:
                return None
            continue
        if expr in seen:
            continue
        seen.add(expr)
        result.append(expr)
    return result


def _choose_value(
    system: List[LinExpr],
    var: Key,
    assignment: Dict[Key, Fraction],
) -> Optional[Fraction]:
    lower_bound: Optional[Fraction] = None
    upper_bound: Optional[Fraction] = None
    for expr in system:
        coeff = expr.coefficient(var)
        if coeff == 0:
            continue
        partial = expr.substitute(assignment)
        remaining_vars = [v for v in partial.variables if v != var]
        if remaining_vars:
            continue
        bound = -partial.constant / coeff
        if coeff > 0:
            upper_bound = bound if upper_bound is None else min(upper_bound, bound)
        else:
            lower_bound = bound if lower_bound is None else max(lower_bound, bound)
    if lower_bound is not None and upper_bound is not None and lower_bound > upper_bound:
        return None
    if lower_bound is None and upper_bound is None:
        return Fraction(0)
    if lower_bound is None:
        assert upper_bound is not None
        return min(Fraction(0), Fraction(math.floor(upper_bound)))
    if upper_bound is None:
        return max(Fraction(0), Fraction(math.ceil(lower_bound)))
    low_int = Fraction(math.ceil(lower_bound))
    if low_int <= upper_bound:
        return max(low_int, min(Fraction(0), Fraction(math.floor(upper_bound))))
    return lower_bound
