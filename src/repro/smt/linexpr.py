"""Linear expressions over named variables, backed by pure-int arithmetic.

This is the shared currency of the LIA decision procedure
(:mod:`repro.smt.lia`), the SMT encoder and the resource-constraint solver:
an affine expression ``c0 + c1*x1 + ... + cn*xn``.

Coefficients are stored as a normalized ``(numerator_tuple, common
denominator)`` pair: ``nums`` maps variable keys to integer numerators over
the single positive ``den``, and ``const_num`` is the constant's numerator
over the same ``den``.  The hot operations (:meth:`LinExpr.__add__`,
:meth:`LinExpr.__mul__`, equality/hashing) therefore run as merge-joins and
scans over machine ints with no :class:`fractions.Fraction` allocation — the
encoder normalizes thousands of comparisons per query, and ``Fraction``
churn used to dominate that path.  ``Fraction`` views remain available
through the :attr:`LinExpr.coeffs` / :attr:`LinExpr.constant` properties for
the off-hot-path consumers (reference oracle, tests, pretty-printing).

Variable keys are ordinarily strings (program variable names), but any
hashable key is accepted; the SMT encoder uses refinement-term keys for
flattened measure applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Tuple


Key = Hashable


@dataclass(frozen=True)
class LinExpr:
    """The affine expression ``(const_num + sum(nums[k] * k)) / den``.

    Invariants (all constructors maintain them, so structurally equal
    expressions compare and hash equal — the atom table and the feasibility
    cache rely on this):

    * ``nums`` is sorted by the canonical key order (the keys' ``repr``) with
      no zero numerators;
    * ``den`` is positive;
    * the joint GCD of all numerators, the constant numerator and ``den`` is
      1 (``den`` is the LCM of the reduced per-coefficient denominators, so
      the representation of a given rational-coefficient expression is
      unique).

    The common case throughout the synthesis pipeline is ``den == 1``:
    every operation takes a pure-int fast path for it.
    """

    nums: Tuple[Tuple[Key, int], ...] = ()
    const_num: int = 0
    den: int = 1

    def __hash__(self) -> int:
        # Computed once per instance: the feasibility cache and the CEGIS
        # row set hash the same expressions many times.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.nums, self.const_num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def from_dict(coeffs: Mapping[Key, Fraction | int], constant: Fraction | int = 0) -> "LinExpr":
        """Build a normalized expression, dropping zero coefficients."""
        items = []
        constant = _as_rational(constant)
        den = constant.denominator if type(constant) is Fraction else 1
        for k, v in coeffs.items():
            if v:
                v = _as_rational(v)
                items.append((k, v))
                if type(v) is Fraction:
                    den = den * v.denominator // math.gcd(den, v.denominator)
        items.sort(key=lambda kv: repr(kv[0]))
        if den == 1:
            return LinExpr(tuple((k, int(v)) for k, v in items), int(constant), 1)
        nums = tuple(
            (k, v.numerator * (den // v.denominator) if type(v) is Fraction else int(v) * den)
            for k, v in items
        )
        if type(constant) is Fraction:
            const_num = constant.numerator * (den // constant.denominator)
        else:
            const_num = int(constant) * den
        return LinExpr(nums, const_num, den)

    @staticmethod
    def const(value: Fraction | int) -> "LinExpr":
        value = _as_rational(value)
        if type(value) is Fraction:
            return LinExpr((), value.numerator, value.denominator)
        return LinExpr((), value, 1)

    @staticmethod
    def var(key: Key, coeff: Fraction | int = 1) -> "LinExpr":
        if not coeff:
            return LinExpr()
        coeff = _as_rational(coeff)
        if type(coeff) is Fraction:
            return LinExpr(((key, coeff.numerator),), 0, coeff.denominator)
        return LinExpr(((key, coeff),), 0, 1)

    # -- Fraction views (compatibility; off the hot path) -----------------
    @property
    def coeffs(self) -> Tuple[Tuple[Key, Fraction], ...]:
        """The coefficients as ``(key, Fraction)`` pairs in canonical order."""
        den = self.den
        return tuple((k, Fraction(n, den)) for k, n in self.nums)

    @property
    def constant(self) -> Fraction:
        return Fraction(self.const_num, self.den)

    def as_dict(self) -> Dict[Key, Fraction]:
        return dict(self.coeffs)

    @property
    def variables(self) -> Tuple[Key, ...]:
        return tuple(k for k, _ in self.nums)

    def coefficient(self, key: Key) -> Fraction:
        for k, n in self.nums:
            if k == key:
                return Fraction(n, self.den)
        return Fraction(0)

    def is_constant(self) -> bool:
        return not self.nums

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "LinExpr | int | Fraction") -> "LinExpr":
        other = _coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            den = d1
            a, b = self.nums, other.nums
            constant = self.const_num + other.const_num
        else:
            g = math.gcd(d1, d2)
            den = d1 // g * d2
            m1, m2 = den // d1, den // d2
            a = tuple((k, n * m1) for k, n in self.nums)
            b = tuple((k, n * m2) for k, n in other.nums)
            constant = self.const_num * m1 + other.const_num * m2
        if not a:
            return _reduced(b, constant, den)
        if not b:
            return _reduced(a, constant, den)
        # Both operands are canonically sorted: merge-join over the int
        # numerators instead of rebuilding a dict and re-sorting (this is the
        # hottest allocation in the encoder's comparison normalization).
        out: list = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            ka, va = a[i]
            kb, vb = b[j]
            if ka == kb:
                total = va + vb
                if total:
                    out.append((ka, total))
                i += 1
                j += 1
                continue
            order_a, order_b = repr(ka), repr(kb)
            if order_a == order_b:
                # Distinct keys with colliding reprs: canonical order is
                # ambiguous, fall back to the dict-based slow path.
                merged = self.as_dict()
                for k, v in other.coeffs:
                    merged[k] = merged.get(k, Fraction(0)) + v
                return LinExpr.from_dict(merged, self.constant + other.constant)
            if order_a < order_b:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _reduced(tuple(out), constant, den)

    def __sub__(self, other: "LinExpr | int | Fraction") -> "LinExpr":
        return self + (_coerce(other) * -1)

    def __mul__(self, scalar: int | Fraction) -> "LinExpr":
        if not scalar:
            return LinExpr()
        scalar = _as_rational(scalar)
        if type(scalar) is Fraction:
            p, q = scalar.numerator, scalar.denominator
        else:
            p, q = scalar, 1
        nums = tuple((k, n * p) for k, n in self.nums)
        return _reduced(nums, self.const_num * p, self.den * q)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        # Negation never disturbs the joint-GCD/sign invariants: skip _reduced.
        return LinExpr(tuple((k, -n) for k, n in self.nums), -self.const_num, self.den)

    def substitute(self, assignment: Mapping[Key, Fraction | int]) -> "LinExpr":
        """Replace some variables by concrete values."""
        remaining: Dict[Key, Fraction] = {}
        constant = self.constant
        for k, v in self.coeffs:
            if k in assignment:
                constant += v * Fraction(assignment[k])
            else:
                remaining[k] = remaining.get(k, Fraction(0)) + v
        return LinExpr.from_dict(remaining, constant)

    def evaluate(self, assignment: Mapping[Key, Fraction | int]) -> Fraction:
        """Evaluate under a total assignment (missing variables default to 0)."""
        total = Fraction(self.const_num, self.den)
        for k, v in self.coeffs:
            total += v * Fraction(assignment.get(k, 0))
        return total

    def rename(self, mapping: Mapping[Key, Key]) -> "LinExpr":
        """Rename variable keys."""
        merged: Dict[Key, Fraction] = {}
        for k, v in self.coeffs:
            new_key = mapping.get(k, k)
            merged[new_key] = merged.get(new_key, Fraction(0)) + v
        return LinExpr.from_dict(merged, self.constant)

    def __str__(self) -> str:
        parts = []
        for k, v in self.coeffs:
            if v == 1:
                parts.append(f"{k}")
            elif v == -1:
                parts.append(f"-{k}")
            else:
                parts.append(f"{v}*{k}")
        if self.const_num != 0 or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")


def _reduced(nums: Tuple[Tuple[Key, int], ...], const_num: int, den: int) -> LinExpr:
    """Normalize an int triple: divide out the joint GCD (including ``den``).

    ``den == 1`` (the overwhelmingly common case) is already canonical —
    nothing divides 1 — so the fast path allocates nothing beyond the result.
    """
    if den == 1:
        return LinExpr(nums, const_num, 1)
    g = math.gcd(den, const_num)
    if g > 1:
        for _, n in nums:
            g = math.gcd(g, n)
            if g == 1:
                break
    if g > 1:
        nums = tuple((k, n // g) for k, n in nums)
        const_num //= g
        den //= g
    return LinExpr(nums, const_num, den)


def _as_rational(value: "Fraction | int") -> "Fraction | int":
    """Coerce a numeric scalar to an exact int or Fraction.

    ``int`` (including bool) and ``Fraction`` pass through; anything else
    (e.g. a float slipping past the annotations) is converted *exactly* via
    ``Fraction`` instead of being truncated by ``int()`` — the behaviour the
    Fraction-backed representation used to provide for free.
    """
    if type(value) is Fraction or isinstance(value, int):
        return value
    return Fraction(value)


def _coerce(value: "LinExpr | int | Fraction") -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr.const(value)


# ---------------------------------------------------------------------------
# Integer scaling (the entry point of the integer-scaled LIA core)
# ---------------------------------------------------------------------------


#: With the int-backed representation, scaling is a trivial accessor: the
#: numerators *are* the integer form up to one GCD pass.  The result is
#: memoized on the expression instance.
IntForm = Tuple[Tuple[Tuple[Key, int], ...], int]


def int_form(expr: "LinExpr") -> IntForm:
    """Scale ``expr`` to integer coefficients, preserving ``expr <= 0``.

    Returns ``(coeff_items, constant)`` where ``coeff_items`` is the tuple of
    ``(key, int_coefficient)`` pairs (in the expression's canonical order) and
    ``constant`` is an int: the expression multiplied by its common
    denominator (dropping ``den`` multiplies by a *positive* scalar, so
    ``expr <= 0`` holds exactly iff the scaled form is ``<= 0``) and divided
    by the GCD of the numerators including the constant.

    Results are memoized per expression instance; callers must treat the
    returned tuples as read-only.
    """
    cached = expr.__dict__.get("_int_form")
    if cached is not None:
        return cached
    nums = expr.nums
    const_num = expr.const_num
    g = abs(const_num)
    for _, n in nums:
        g = math.gcd(g, n)
        if g == 1:
            break
    if g > 1:
        result: IntForm = (tuple((k, n // g) for k, n in nums), const_num // g)
    else:
        result = (nums, const_num)
    object.__setattr__(expr, "_int_form", result)
    return result


@dataclass(frozen=True)
class Constraint:
    """The constraint ``expr <= 0`` (the only relation the LIA core needs).

    Equalities are represented as two opposite constraints and strict
    inequalities over the integers are converted to non-strict ones by the
    encoder (``a < b`` becomes ``a - b + 1 <= 0``).
    """

    expr: LinExpr

    def holds(self, assignment: Mapping[Key, Fraction | int]) -> bool:
        return self.expr.evaluate(assignment) <= 0

    def __str__(self) -> str:
        return f"{self.expr} <= 0"
