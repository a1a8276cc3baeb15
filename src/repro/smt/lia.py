"""Integer-scaled decision procedure for conjunctions of linear constraints.

The Re2 validity checking of Appendix B reduces to Presburger arithmetic; the
queries the synthesizer actually emits are conjunctions of *linear*
inequalities over integers (possibly after the SAT core has fixed the Boolean
structure).  This module decides feasibility of such conjunctions, produces
integer models, and — the part the DPLL(T) loop cares most about — returns a
**minimal unsat core** when the conjunction is infeasible.

Engine layout (all hot-path arithmetic is over Python ints, which are
arbitrary precision, so coefficient growth during elimination is
overflow-safe by construction):

1. every input expression ``expr <= 0`` is scaled to integer coefficients by
   :func:`repro.smt.linexpr.int_form` — with the int-backed
   :class:`~repro.smt.linexpr.LinExpr` representation this is a trivial
   accessor (one GCD pass over the stored numerators, memoized per
   instance);
2. Fourier–Motzkin elimination over integer rows.  Each derived row is
   *tightened*: after dividing the variable coefficients by their GCD ``g``,
   the constant is rounded to ``ceil(c0 / g)`` — sound for integer
   solutions (it never removes an integer point) and strictly stronger than
   the rational projection, so branch-and-bound sees fewer fractional
   vertices;
3. a rational sample point by back-substitution through the recorded
   intermediate systems (off the hot path; this is the only place the module
   still touches :class:`fractions.Fraction`);
4. integer feasibility by branch-and-bound on fractional variables.

Unsat cores
-----------

Every row carries a *provenance bitmask*: bit ``i`` is set iff original
constraint ``i`` contributed to the row with a positive Farkas multiplier.
When elimination derives a contradictory constant row, its provenance is an
unsat subset of the input — no re-solving needed.  Branch-and-bound conflicts
union the provenances of both branches (the branch cuts
``x <= floor(v)`` / ``x >= floor(v) + 1`` carry empty provenance because the
disjunction holds for *every* integer ``x``).  The provenance subset is then
made **minimal** (irredundant: dropping any single member makes it
satisfiable) by a deletion pass over the already-small candidate — each probe
is a feasibility query on a subset of the core, answered from the same
memo table, which replaces the solver-level greedy minimization that used to
re-probe subsets of the *entire* atom assignment.

The procedure is complete for the bounded-size systems generated by the type
checker and the CEGIS loop (a handful of variables, tens of constraints); a
``budget`` guard turns pathological blow-ups into an explicit exception rather
than a hang.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.obs import trace
from repro.smt.linexpr import Constraint, Key, LinExpr, int_form


class BudgetExceeded(Exception):
    """Raised when Fourier-Motzkin elimination exceeds its constraint budget."""


@dataclass
class LIAResult:
    """Result of a feasibility query.

    ``model`` maps every variable occurring in the constraints to an integer
    when satisfiable.  ``core`` is populated on *unsatisfiable* results: a
    frozenset of expressions (each standing for ``expr <= 0``) forming a
    minimal unsat subset of the input — unsatisfiable as given, and
    satisfiable as soon as any single member is removed.  (Sole exception:
    on a branching-depth exhaustion there is no Farkas certificate and the
    core falls back to the full constraint set, unminimized past
    :data:`_MINIMIZE_CAP`.)  Results may be shared through the feasibility
    cache and must be treated as read-only.
    """

    satisfiable: bool
    model: Optional[Dict[Key, int]] = None
    core: Optional[FrozenSet[LinExpr]] = None


@dataclass
class LiaStats:
    """Counters for the integer LIA core (read by the evaluation harness)."""

    queries: int = 0
    cache_hits: int = 0
    #: variable-elimination passes performed by Fourier-Motzkin.
    eliminations: int = 0
    #: derived rows whose constant was strengthened by integer rounding.
    tightenings: int = 0
    #: unsat cores extracted (provenance + deletion pass).
    cores: int = 0
    #: sum of final core sizes (``lia_avg_core_size`` in the harness report).
    core_size_total: int = 0
    #: subset feasibility probes spent making cores minimal.
    core_probes: int = 0


stats = LiaStats()

#: Shared feasibility cache.  A query is a *conjunction* of ``expr <= 0``
#: constraints, so its result is fully determined by the set of expressions;
#: the core-minimization probes and the CEGIS loop re-check many subsets and
#: supersets of the same system, which makes this cache extremely hot.
_CACHE: Dict[object, "_Entry"] = {}
_CACHE_MAX = 1 << 16


@dataclass
class _Entry:
    """A memoized feasibility verdict.

    ``budget_exceeded`` entries re-raise; otherwise ``model`` is the sat
    witness (``None`` = unsat), ``raw_core`` the provenance-derived unsat
    subset, and ``min_core`` the minimal core (computed lazily on the first
    query that reaches this entry, then memoized).
    """

    model: Optional[Dict[Key, int]] = None
    raw_core: Optional[FrozenSet[LinExpr]] = None
    min_core: Optional[FrozenSet[LinExpr]] = None
    budget_exceeded: bool = False


def clear_cache() -> None:
    _CACHE.clear()


def check_integer_feasible(
    constraints: Sequence[Constraint],
    budget: int = 4000,
    depth: int = 40,
) -> LIAResult:
    """Decide whether ``constraints`` have a common integer solution.

    Returns a model assigning an integer to every variable that occurs in the
    constraints when satisfiable, and a minimal unsat core (see
    :class:`LIAResult`) when not.  Results (including budget blow-ups) are
    memoized on the set of constraint expressions; callers must treat the
    returned model and core as read-only.

    Raises :class:`BudgetExceeded` when Fourier-Motzkin elimination produces
    more than ``budget`` rows — treating "unknown" as satisfiable would be
    unsound for validity checking, so the blow-up is cached and re-raised.
    """
    stats.queries += 1
    exprs = tuple(dict.fromkeys(c.expr for c in constraints))
    key = (frozenset(exprs), budget, depth)
    entry = _CACHE.get(key)
    if entry is not None:
        stats.cache_hits += 1
    else:
        try:
            with trace.span("lia.feasible") as sp:
                entry = _solve_entry(exprs, budget, depth)
                if sp:
                    sp.count("constraints", len(exprs))
        except BudgetExceeded:
            _store(key, _Entry(budget_exceeded=True))
            raise
        _store(key, entry)
    if entry.budget_exceeded:
        raise BudgetExceeded("Fourier-Motzkin budget exceeded (cached)")
    if entry.model is not None:
        return LIAResult(True, entry.model)
    if entry.min_core is None:
        entry.min_core = _minimize_core(entry.raw_core or frozenset(exprs), budget, depth)
        stats.cores += 1
        stats.core_size_total += len(entry.min_core)
    return LIAResult(False, None, entry.min_core)


def _store(key: object, entry: "_Entry") -> None:
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.clear()
    _CACHE[key] = entry


# ---------------------------------------------------------------------------
# Core engine: integer rows with provenance bitmasks
# ---------------------------------------------------------------------------
#
# A row is ``(coeffs, const, prov)`` standing for ``sum(coeffs[v] * x_v) +
# const <= 0``: ``coeffs`` maps variable *indices* to non-zero int
# coefficients, ``const`` is an int, and ``prov`` is the provenance bitmask
# (bit i set iff input expression i contributed to the row).

_Row = Tuple[Dict[int, int], int, int]


def _solve_entry(exprs: Tuple[LinExpr, ...], budget: int, depth: int) -> _Entry:
    """Run branch-and-bound over the integer FM relaxation; no minimization."""
    system = _System(exprs)
    model, conflict_mask = system.integer_model(budget, depth)
    if model is not None:
        return _Entry(model=model)
    if conflict_mask is None:
        # Depth exhaustion: no Farkas certificate; fall back to the full set
        # (the deletion pass still shrinks it as far as the probes allow).
        raw = frozenset(exprs)
    else:
        raw = frozenset(exprs[i] for i in _mask_bits(conflict_mask))
    return _Entry(model=None, raw_core=raw)


def _mask_bits(mask: int) -> Iterable[int]:
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


class _System:
    """An indexed view of a conjunction of ``expr <= 0`` constraints."""

    def __init__(self, exprs: Tuple[LinExpr, ...]) -> None:
        self.exprs = exprs
        self.variables: List[Key] = sorted({v for e in exprs for v in e.variables}, key=repr)
        index = {v: i for i, v in enumerate(self.variables)}
        self.rows: List[_Row] = []
        for position, expr in enumerate(exprs):
            items, const = int_form(expr)
            coeffs = {index[k]: c for k, c in items}
            self.rows.append((coeffs, const, 1 << position))

    # -- integer feasibility: branch and bound ---------------------------
    def integer_model(
        self, budget: int, depth: int, extra: Optional[List[_Row]] = None
    ) -> Tuple[Optional[Dict[Key, int]], Optional[int]]:
        """``(model, None)`` when satisfiable, else ``(None, core_mask)``.

        ``core_mask`` is ``None`` only when the branching depth was exhausted
        (no certificate).  Branch cuts carry empty provenance: for any
        integer ``x`` and any integer ``f``, ``x <= f`` or ``x >= f + 1``
        holds, so a conflict in both branches is already a conflict of the
        original rows alone.
        """
        if depth <= 0:
            return None, None
        rows = self.rows if extra is None else self.rows + extra
        sample, conflict_mask = self._rational_sample_rows(rows, budget)
        if sample is None:
            return None, conflict_mask
        branch_var = -1
        for vi, value in enumerate(sample):
            if value.denominator != 1:
                branch_var = vi
                break
        if branch_var < 0:
            return {self.variables[i]: int(v) for i, v in enumerate(sample)}, None
        floor_value = math.floor(sample[branch_var])
        cuts = [] if extra is None else list(extra)
        below = cuts + [({branch_var: 1}, -floor_value, 0)]
        model, below_mask = self.integer_model(budget, depth - 1, below)
        if model is not None:
            return model, None
        above = cuts + [({branch_var: -1}, floor_value + 1, 0)]
        model, above_mask = self.integer_model(budget, depth - 1, above)
        if model is not None:
            return model, None
        if below_mask is None or above_mask is None:
            return None, None
        return None, below_mask | above_mask

    # -- rational relaxation: Fourier-Motzkin over integer rows ----------
    def _rational_sample_rows(
        self, rows: List[_Row], budget: int
    ) -> Tuple[Optional[List[Fraction]], Optional[int]]:
        """A per-variable-index sample point, or ``(None, conflict_mask)``."""
        pruned = _prune(rows)
        if isinstance(pruned, int):
            return None, pruned
        systems: List[List[_Row]] = [pruned]
        nvars = len(self.variables)
        for vi in range(nvars):
            eliminated = _eliminate(systems[-1], vi, budget)
            if isinstance(eliminated, int):
                return None, eliminated
            systems.append(eliminated)
        # The final system is variable-free and conflict-free (checked by
        # ``_prune``); back-substitute a sample in reverse elimination order.
        values: List[Optional[Fraction]] = [None] * nvars
        for vi in range(nvars - 1, -1, -1):
            value = _choose_value(systems[vi], vi, values)
            if value is None:
                return None, 0  # defensive; FM guarantees an extension exists
            values[vi] = value
        return values, None  # type: ignore[return-value]


def _eliminate(rows: List[_Row], vi: int, budget: int) -> "List[_Row] | int":
    """Fourier-Motzkin elimination of variable index ``vi``.

    Pure integer arithmetic: each lower/upper pair is combined with the
    positive multipliers that cancel ``vi`` exactly, provenance masks are
    OR-ed, and the derived row is normalized and tightened.  Returns the new
    row list, or a conflict provenance mask.
    """
    lower: List[_Row] = []  # coefficient of vi negative: lower bounds
    upper: List[_Row] = []  # coefficient of vi positive: upper bounds
    rest: List[_Row] = []
    for row in rows:
        coeff = row[0].get(vi, 0)
        if coeff == 0:
            rest.append(row)
        elif coeff > 0:
            upper.append(row)
        else:
            lower.append(row)
    stats.eliminations += 1
    for lcoeffs, lconst, lprov in lower:
        a = -lcoeffs[vi]
        for ucoeffs, uconst, uprov in upper:
            b = ucoeffs[vi]
            combined: Dict[int, int] = {}
            for k, c in lcoeffs.items():
                if k != vi:
                    combined[k] = c * b
            for k, c in ucoeffs.items():
                if k != vi:
                    value = combined.get(k, 0) + c * a
                    if value:
                        combined[k] = value
                    elif k in combined:
                        del combined[k]
            rest.append(_normalize(combined, lconst * b + uconst * a, lprov | uprov))
    pruned = _prune(rest)
    if isinstance(pruned, int):
        return pruned
    if len(pruned) > budget:
        raise BudgetExceeded(f"Fourier-Motzkin produced {len(pruned)} constraints")
    return pruned


def _normalize(coeffs: Dict[int, int], const: int, prov: int) -> _Row:
    """Divide a row by the GCD of its variable coefficients, rounding the constant up.

    ``sum(c_i x_i) <= -c0`` with every ``c_i`` divisible by ``g`` implies
    ``sum((c_i/g) x_i) <= floor(-c0/g)`` for integer ``x``, which can
    strengthen the row past its rational shadow.
    """
    if not coeffs:
        return coeffs, const, prov
    g = 0
    for c in coeffs.values():
        g = math.gcd(g, c)
    if g > 1:
        coeffs = {k: c // g for k, c in coeffs.items()}
        rounded = -((-const) // g)  # ceil(const / g)
        if rounded * g != const:
            stats.tightenings += 1
        const = rounded
    return coeffs, const, prov


def _prune(rows: List[_Row]) -> "List[_Row] | int":
    """Drop trivially-true and dominated rows; detect constant conflicts.

    Returns the pruned row list, or — when some variable-free row has a
    positive constant — the smallest-population provenance mask among the
    conflicting rows (an unsat subset of the original constraints).
    """
    conflict: Optional[int] = None
    best_rows: Dict[Tuple[Tuple[int, int], ...], int] = {}
    order: List[Tuple[Tuple[Tuple[int, int], ...], _Row]] = []
    for row in rows:
        coeffs, const, prov = row
        if not coeffs:
            if const > 0 and (conflict is None or prov.bit_count() < conflict.bit_count()):
                conflict = prov
            continue
        key = tuple(sorted(coeffs.items()))
        existing = best_rows.get(key)
        if existing is None:
            best_rows[key] = len(order)
            order.append((key, row))
        elif const > order[existing][1][1]:
            # Same left-hand side, tighter constant: keep the stronger row.
            order[existing] = (key, row)
    if conflict is not None:
        return conflict
    return [row for _, row in order]


def _choose_value(
    system: List[_Row], vi: int, values: List[Optional[Fraction]]
) -> Optional[Fraction]:
    """Pick a value for variable index ``vi`` respecting ``system``.

    All variables eliminated *after* ``vi`` already have values; rows
    mentioning a not-yet-assigned variable are skipped (they are handled when
    that variable is assigned).  This is the one Fraction-arithmetic step of
    the pipeline: it runs once per variable per branch node, off the
    elimination hot path.
    """
    lower_bound: Optional[Fraction] = None
    upper_bound: Optional[Fraction] = None
    for coeffs, const, _ in system:
        coeff = coeffs.get(vi, 0)
        if coeff == 0:
            continue
        total = Fraction(const)
        skip = False
        for k, c in coeffs.items():
            if k == vi:
                continue
            assigned = values[k]
            if assigned is None:
                skip = True
                break
            total += c * assigned
        if skip:
            continue
        # coeff * vi + total <= 0
        bound = -total / coeff
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
        # Prefer an integral, small-magnitude value.
        return min(Fraction(0), Fraction(math.floor(upper_bound)))
    if upper_bound is None:
        return max(Fraction(0), Fraction(math.ceil(lower_bound)))
    # Prefer an integer point inside the interval when one exists.
    low_int = Fraction(math.ceil(lower_bound))
    if low_int <= upper_bound:
        return max(low_int, min(Fraction(0), Fraction(math.floor(upper_bound))))
    return lower_bound


# ---------------------------------------------------------------------------
# Core minimization: deletion pass over the provenance candidate
# ---------------------------------------------------------------------------


#: Deletion-pass size cap.  Certificate-backed candidates are tiny (only
#: constraints with positive Farkas multipliers), so the cap never binds on
#: the normal path; it only guards the depth-exhaustion fallback, where the
#: candidate is the whole input and each probe re-runs a near-worst-case
#: branch-and-bound.  Mirrors the 24-literal guard of the solver-level
#: minimizer this module replaced.
_MINIMIZE_CAP = 24


def _minimize_core(
    candidate: FrozenSet[LinExpr], budget: int, depth: int
) -> FrozenSet[LinExpr]:
    """Shrink a provenance unsat subset to an irredundant (minimal) core.

    Standard deletion filter: try removing each member; keep the removal when
    the remainder is still unsatisfiable.  The candidate is already small
    (provenance masks only count constraints with positive Farkas
    multipliers), so each probe is a tiny subset query answered through the
    shared memo table.  The result is minimal in the set-inclusion sense:
    every proper subset is satisfiable.

    Candidates above :data:`_MINIMIZE_CAP` members (possible only via the
    depth-exhaustion fallback, which has no certificate) are returned as-is.
    """
    if len(candidate) > _MINIMIZE_CAP:
        return candidate
    core = sorted(candidate, key=str)
    index = 0
    while index < len(core):
        trial = core[:index] + core[index + 1 :]
        if _probe_unsat(tuple(trial), budget, depth):
            core = trial
        else:
            index += 1
    return frozenset(core)


def _probe_unsat(exprs: Tuple[LinExpr, ...], budget: int, depth: int) -> bool:
    """Whether ``exprs`` (as ``expr <= 0`` each) are jointly integer-infeasible.

    Internal helper for the deletion pass: shares the feasibility cache but
    never triggers recursive core minimization, and treats a budget blow-up
    as "cannot tell" (the member under test is then kept in the core).
    """
    stats.core_probes += 1
    key = (frozenset(exprs), budget, depth)
    entry = _CACHE.get(key)
    if entry is None:
        try:
            entry = _solve_entry(exprs, budget, depth)
        except BudgetExceeded:
            entry = _Entry(budget_exceeded=True)
        _store(key, entry)
    return not entry.budget_exceeded and entry.model is None
