"""Reference CEGIS grounding by term substitution.

This module preserves the grounding that :mod:`repro.constraints.cegis`
replaced with per-coefficient linear forms: substitute an example's values
into a constraint's guard and expression, ask the solver whether the grounded
guard is satisfiable, and linearize the simplified grounded expression
(simplifying folds the ``Ite``s whose conditions the example decides).  The
synthesis query asks LIA under coefficient bounds 1, 2, 4, 8 and then none,
in that order.  ``tests/test_grounding.py`` uses it as the oracle for rows,
vacuous ``[]`` results and undecided counts.

Everything here is deliberately uncached; it lives with the tests because
only the tests use it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.constraints.store import ResourceConstraint, is_coefficient
from repro.logic import terms as t
from repro.logic.simplify import simplify
from repro.logic.terms import Term
from repro.smt.encoder import EncodingError, linearize
from repro.smt.lia import check_integer_feasible
from repro.smt.linexpr import Constraint, LinExpr
from repro.smt.solver import Solver, SolverError


def substitute_values(term: Term, values: Dict[object, int]) -> Term:
    """Replace numeric program variables and measure applications by their values."""
    if isinstance(term, t.Var):
        if is_coefficient(term.name):
            return term
        if not term.sort.is_numeric:
            return term  # Boolean/set-sorted variables stay symbolic
        if term.name in values:
            return t.IntConst(int(values[term.name]))
        return t.IntConst(0)
    if isinstance(term, t.App):
        if not term.sort.is_numeric:
            return term  # set-valued measures and membership atoms stay symbolic
        if term in values:
            return t.IntConst(int(values[term]))
        return t.IntConst(0)
    if isinstance(term, (t.EmptySet, t.SetSingleton, t.SetUnion, t.SetIntersect, t.SetDiff)):
        return term
    children = term.children()
    if not children:
        return term
    new_children = tuple(substitute_values(c, values) for c in children)
    if isinstance(term, t.SetAll):
        return t.SetAll(term.var, new_children[0], new_children[1])
    return t._rebuild(term, new_children)


def ground_reference(
    solver: Solver, rc: ResourceConstraint, values: Dict[object, int]
) -> Tuple[List[Constraint], bool]:
    """``(rows, undecided)``: ``rc`` grounded on ``values`` by substitution."""
    guard = substitute_values(rc.guard, values)
    try:
        if solver.check_sat(guard) is None:
            return [], False  # the example does not satisfy the guard: vacuous
        linexpr = linearize(simplify(substitute_values(rc.expr, values)))
    except (SolverError, EncodingError):
        return [], True
    rows = [Constraint(-linexpr)]
    if rc.equality:
        rows.append(Constraint(linexpr))
    return rows, False


def small_coefficient_model_reference(linear: List[Constraint]):
    """The first LIA model under coefficient bounds 1, 2, 4, 8, then none."""
    mentioned = sorted({k for c in linear for k in c.expr.variables if isinstance(k, str)})
    for bound in (1, 2, 4, 8, None):
        constraints = list(linear)
        if bound is not None:
            for name in mentioned:
                constraints.append(Constraint(LinExpr.var(name) - LinExpr.const(bound)))
                constraints.append(Constraint(-LinExpr.var(name) - LinExpr.const(bound)))
        result = check_integer_feasible(constraints)
        if result.satisfiable and result.model is not None:
            return result.model
    return None
