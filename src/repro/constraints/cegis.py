"""Incremental CEGIS solver for resource constraints (Algorithm 1).

Resource constraints have the form ``psi(x) ==> phi(C, x) >= 0`` where ``x``
are program variables (and flattened measure applications) and ``C`` are
unknown integer coefficients of linear potential templates.  The paper solves
these with counter-example guided inductive synthesis:

* *verification*: given a candidate coefficient assignment ``C``, search for a
  counterexample ``x`` such that ``psi(x)`` holds but ``phi(C, x) < 0``;
* *synthesis*: given the accumulated examples, find new coefficients that
  satisfy every recorded example.

The *incremental* variant (the paper's contribution, evaluated in the T-NInc
column of Table 2) keeps the current solution and example set across calls.

Each synthesis query grounds every live constraint on every example.  The
rows a constraint has produced are kept until the examples are rebuilt
(:meth:`CegisSolver.reset`, a T-NInc restart, :meth:`CegisSolver.seed`), so
a query grounds only the examples a constraint has not seen yet.  This
departs from Algorithm 1, which grounds only the violated clauses on the
new example: the query here is a superset of those rows.  Every row is a
ground instance of a universally quantified constraint, so the extra rows
never reject a valid solution.

Grounding a constraint on an example is integer evaluation of the
expression's per-coefficient linear form (:func:`linear_form`); the solver
decides each (guard, example) pair once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic import terms as t
from repro.logic.simplify import simplify
from repro.logic.terms import Term
from repro.constraints.store import ResourceConstraint, coefficients_in, is_coefficient
from repro.obs import trace
from repro.smt.linexpr import Constraint as LinConstraint
from repro.smt.linexpr import LinExpr
from repro.smt.encoder import EncodingError, linearize
from repro.smt.lia import BudgetExceeded, check_integer_feasible
from repro.smt.solver import Solver, SolverError


@dataclass
class CegisStats:
    """Counters for the evaluation harness."""

    verification_queries: int = 0
    synthesis_queries: int = 0
    counterexamples: int = 0
    restarts: int = 0
    #: solver queries that raised SolverError/EncodingError (fail closed),
    #: and (constraint, example) pairs that grounded to no row because the
    #: guard was undecided or the grounded expression did not linearize.
    undecided: int = 0


@dataclass
class Example:
    """A counterexample: concrete values for program variables and measures."""

    ints: Dict[object, int]
    #: The example's values; equal counterexamples share guard decisions
    #: across :meth:`CegisSolver.solve` calls.
    key: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = frozenset(self.ints.items())

    def substitute_into(self, term: Term) -> Term:
        """Replace numeric program variables and measure applications by their values.

        Guards, and expressions without a linear form, are grounded this
        way; Booleans, sets and unknown coefficients stay symbolic.
        """
        return _substitute_values(term, self.ints)


def _substitute_values(term: Term, values: Dict[object, int]) -> Term:
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
    new_children = tuple(_substitute_values(c, values) for c in children)
    if isinstance(term, t.SetAll):
        return t.SetAll(term.var, new_children[0], new_children[1])
    return t._rebuild(term, new_children)


#: A linear form: ``(coefficient, variable, n)`` triples standing for the sum
#: of ``n * coefficient * variable``, where a ``None`` coefficient or
#: variable stands for 1.  Variables are program variable names and numeric
#: measure applications.
LinearForm = Tuple[Tuple[Optional[str], object, int], ...]


def linear_form(expr: Term) -> Optional[LinearForm]:
    """``expr`` as a per-coefficient linear form, or ``None`` when it has none.

    Grounding ``expr`` on an example is then integer evaluation of the form
    (:func:`_ground_form`), and gives the row that substituting the
    example's values into ``expr`` and linearizing would give.  There is no
    form for an ``Ite``, a set or Boolean leaf, a product of two program
    variables, or a product whose factors both mention coefficients (for
    such terms the substituted term may or may not be linear, depending on
    the example).  The result is cached on the interned node.
    """
    cached = expr.__dict__.get("_linear_form", False)
    if cached is False:
        parts = _form_parts(expr)
        cached = None if parts is None else tuple((c, v, n) for (c, v), n in parts.items() if n)
        object.__setattr__(expr, "_linear_form", cached)
    return cached


def _form_parts(term: Term) -> Optional[Dict[Tuple[Optional[str], object], int]]:
    if isinstance(term, t.IntConst):
        return {(None, None): term.value}
    if isinstance(term, t.Var):
        if is_coefficient(term.name):
            return {(term.name, None): 1}
        return {(None, term.name): 1} if term.sort.is_numeric else None
    if isinstance(term, t.App):
        return {(None, term): 1} if term.sort.is_numeric else None
    if isinstance(term, (t.Add, t.Sub)):
        left, right = _form_parts(term.left), _form_parts(term.right)
        if left is None or right is None:
            return None
        sign = 1 if isinstance(term, t.Add) else -1
        for part, n in right.items():
            left[part] = left.get(part, 0) + sign * n
        return left
    if isinstance(term, t.Mul):
        left, right = _form_parts(term.left), _form_parts(term.right)
        if left is None or right is None:
            return None
        product: Dict[Tuple[Optional[str], object], int] = {}
        for (c1, v1), n1 in left.items():
            for (c2, v2), n2 in right.items():
                if (c1 is not None and c2 is not None) or (v1 is not None and v2 is not None):
                    if n1 and n2:
                        return None
                    continue
                part = (c1 if c2 is None else c2, v1 if v2 is None else v2)
                product[part] = product.get(part, 0) + n1 * n2
        return product
    return None


def _ground_form(form: LinearForm, values: Dict[object, int]) -> LinExpr:
    """The form on an example: a linear expression over the coefficients."""
    coeffs: Dict[str, int] = {}
    constant = 0
    for coefficient, variable, n in form:
        if variable is not None:
            n *= values.get(variable, 0)
        if coefficient is None:
            constant += n
        else:
            coeffs[coefficient] = coeffs.get(coefficient, 0) + n
    return LinExpr.from_dict(coeffs, constant)


#: Result of :meth:`CegisSolver._find_counterexample` when the solver could
#: not decide a verification query.
_UNDECIDED = object()


class CegisSolver:
    """Incremental CEGIS for systems of resource constraints.

    The solver object is long-lived: the synthesizer calls :meth:`solve`
    every time it extends the constraint store, and the current coefficient
    solution plus examples survive across calls (and across the constraint
    store's push/pop, since removing constraints never invalidates a
    solution).
    """

    def __init__(
        self, solver: Optional[Solver] = None, incremental: bool = True, max_rounds: int = 40
    ) -> None:
        self.solver = solver or Solver()
        self.incremental = incremental
        self.max_rounds = max_rounds
        self.solution: Dict[str, int] = {}
        self.examples: List[Example] = []
        #: Ground examples installed by :meth:`seed` (the PBE front-end feeds
        #: goal inputs here); they survive :meth:`reset` and non-incremental
        #: restarts, unlike discovered counterexamples.
        self._seed_examples: List[Example] = []
        self.stats = CegisStats()
        #: constraint -> (how many of :attr:`examples` it is grounded on, its
        #: distinct rows in first-occurrence order).  Grounding leaves the
        #: coefficients symbolic, so rows stay valid until :attr:`examples`
        #: is rebuilt; ``examples`` only grows in between.  A popped
        #: constraint's rows never enter a query.
        self._rows: Dict[ResourceConstraint, Tuple[int, Dict[LinConstraint, None]]] = {}
        #: (guard, example values) -> whether the grounded guard is
        #: satisfiable (``None``: undecided).  It outlives :meth:`reset`.
        self._guard_cache: Dict[Tuple[Term, frozenset], Optional[bool]] = {}

    # -- public API -------------------------------------------------------
    def cache_report(self) -> Dict[str, float]:
        """CEGIS cache counters for the harness (`SynthesisResult.stats`).

        The verification and grounding queries ride on the shared
        :class:`~repro.smt.solver.Solver` (and therefore on its incremental
        encoder's shared Tseitin gate cache): the synthesizer hands the same
        solver instance to the type checker and to this CEGIS loop, so
        subformulas encoded while type checking replay for free inside
        verification queries and vice versa.  The gate-cache hit counters
        themselves are reported once, by ``Solver.cache_report``.
        """
        return {
            "cegis_verification_queries": self.stats.verification_queries,
            "cegis_synthesis_queries": self.stats.synthesis_queries,
            "cegis_counterexamples": self.stats.counterexamples,
            "cegis_undecided": self.stats.undecided,
        }

    def seed(self, examples: Sequence[Example]) -> None:
        """Install persistent ground examples (PBE inputs, Sec. "seeding").

        Seeded examples are ground instances of constraints that must hold
        for *all* inputs, so adding them is always sound; they front-load the
        inputs the caller cares about into every synthesis query.  Unlike
        discovered counterexamples they are re-installed by :meth:`reset`, so
        they constrain every candidate the synthesizer checks, not just the
        one being checked when they were added.
        """
        self._seed_examples = list(examples)
        existing = {e.key for e in self.examples}
        self.examples = [e for e in self._seed_examples if e.key not in existing] + self.examples
        self._rows.clear()

    def reset(self) -> None:
        """Forget the accumulated solution and examples (seeds are kept)."""
        self.solution = {}
        self.examples = list(self._seed_examples)
        self._rows.clear()
        if len(self._guard_cache) > (1 << 16):
            self._guard_cache.clear()

    def solve(self, constraints: Sequence[ResourceConstraint]) -> Optional[Dict[str, int]]:
        """Find coefficients satisfying all ``constraints`` (or ``None``).

        Constraints without unknown coefficients are assumed to have been
        discharged by plain validity checking already; they are nevertheless
        accepted here and simply verified.  A verification query the solver
        cannot decide rejects the system (``None``), as the type checker
        rejects an undecided subtyping query.
        """
        if not self.incremental:
            # The ablation mode of Table 2 (T-NInc): start from scratch.
            self.stats.restarts += 1
            self.solution = {}
            self.examples = list(self._seed_examples)
            self._rows.clear()
        coeffs = sorted({c for rc in constraints for c in coefficients_in(rc.expr)})
        for name in coeffs:
            self.solution.setdefault(name, 0)
        for _ in range(self.max_rounds):
            example = self._find_counterexample(constraints)
            if example is _UNDECIDED:
                return None
            if example is None:
                return dict(self.solution)
            self.stats.counterexamples += 1
            self.examples.append(example)
            new_solution = self._synthesize(constraints, coeffs)
            if new_solution is None:
                return None
            self.solution.update(new_solution)
        return None

    # -- verification -------------------------------------------------------
    def _find_counterexample(
        self, constraints: Sequence[ResourceConstraint]
    ) -> Optional[Example] | object:
        """Search for an example violating the current solution.

        Returns :data:`_UNDECIDED` when a verification query cannot be
        decided: the current solution is then not known to be correct.
        """
        for rc in constraints:
            self.stats.verification_queries += 1
            query = self._violation_query(rc, self.solution)
            try:
                with trace.span("cegis.verify"):
                    model = self.solver.check_sat(query)
            except (SolverError, EncodingError):
                self.stats.undecided += 1
                return _UNDECIDED
            if model is not None:
                return Example(dict(model.ints))
        return None

    def _violation_query(self, rc: ResourceConstraint, solution: Dict[str, int]) -> Term:
        # ``t.substitute`` memoizes on (expr, relevant coefficient values).
        instantiated = t.substitute(
            rc.expr, {name: t.IntConst(solution.get(name, 0)) for name in coefficients_in(rc.expr)}
        )
        if rc.equality:
            violation = t.disj(instantiated < 0, instantiated > 0)
        else:
            violation = instantiated < 0
        return t.conj(rc.guard, violation)

    def _guard_holds(self, guard: Term, example: Example) -> Optional[bool]:
        """Whether ``guard`` is satisfiable on ``example`` (``None``: undecided)."""
        key = (guard, example.key)
        if key in self._guard_cache:
            return self._guard_cache[key]
        try:
            holds: Optional[bool] = (
                self.solver.check_sat(example.substitute_into(guard)) is not None
            )
        except (SolverError, EncodingError):
            holds = None
        self._guard_cache[key] = holds
        return holds

    # -- synthesis ----------------------------------------------------------
    def _synthesize(
        self, constraints: Sequence[ResourceConstraint], coeffs: Sequence[str]
    ) -> Optional[Dict[str, int]]:
        """Find coefficients satisfying every constraint on every example.

        The query is each live constraint's rows, in constraint order.  A
        constraint is grounded only on the examples it has not seen yet and
        keeps each distinct row once (examples often ground a constraint to
        the same row); LIA drops the rows two constraints share.
        """
        self.stats.synthesis_queries += 1
        with trace.span("cegis.synth") as sp:
            linear: List[LinConstraint] = []
            with trace.span("cegis.ground"):
                for rc in constraints:
                    grounded, rows = self._rows.get(rc, (0, {}))
                    for example in self.examples[grounded:]:
                        for row in self._ground(rc, example):
                            rows[row] = None
                    self._rows[rc] = (len(self.examples), rows)
                    linear.extend(rows)
            if not linear:
                return {name: self.solution.get(name, 0) for name in coeffs}
            if sp:
                sp.count("ground_constraints", len(linear))
            with trace.span("cegis.lia"):
                result = self._solve_with_small_coefficients(linear, coeffs)
        if result is None:
            return None
        # Coefficients no row mentions keep their current values
        # (Algorithm 1 updates C with C', it does not rebuild it).
        solution = {name: self.solution.get(name, 0) for name in coeffs}
        for key, value in result.items():
            if isinstance(key, str) and is_coefficient(key):
                solution[key] = value
        return solution

    def _solve_with_small_coefficients(
        self, linear: List[LinConstraint], coeffs: Sequence[str]
    ) -> Optional[Dict[object, int]]:
        """Solve the synthesis constraint, preferring small coefficient values.

        Unbounded LIA models tend to pick example-specific constants (e.g. a
        large additive constant that covers the examples seen so far), which
        makes CEGIS oscillate.  Searching with an increasing magnitude bound on
        the coefficients (1, 2, 4, 8, then none) biases the solver towards
        generalisable solutions like ``nu - a`` and matches the
        small-coefficient prior of the paper's implementation.

        Every bounded system extends the unbounded one, so once bound 1
        fails, one unbounded query decides whether any bound can succeed;
        the first feasible bound's model is returned, as before.
        """
        mentioned = sorted({k for c in linear for k in c.expr.variables if isinstance(k, str)})

        def feasible(bound: Optional[int]):
            constraints = list(linear)
            if bound is not None:
                for name in mentioned:
                    constraints.append(LinConstraint(LinExpr.var(name) - LinExpr.const(bound)))
                    constraints.append(LinConstraint(-LinExpr.var(name) - LinExpr.const(bound)))
            result = check_integer_feasible(constraints)
            return result.model if result.satisfiable else None

        model = feasible(1)
        if model is not None:
            return model
        try:
            unbounded, decided = feasible(None), True
        except BudgetExceeded:
            unbounded, decided = None, False  # the bounded queries go first, as before
        if decided and unbounded is None:
            return None
        for bound in (2, 4, 8):
            model = feasible(bound)
            if model is not None:
                return model
        return unbounded if decided else feasible(None)

    def _ground(self, rc: ResourceConstraint, example: Example) -> List[LinConstraint]:
        """Instantiate a constraint on an example, producing constraints over C.

        An expression without a linear form is grounded by substitution and
        simplified first, which folds the ``Ite``s whose conditions the
        example decides.
        """
        holds = self._guard_holds(rc.guard, example)
        if holds is False:
            return []  # the example does not satisfy the guard: vacuous
        linexpr: Optional[LinExpr] = None
        if holds:
            form = linear_form(rc.expr)
            try:
                linexpr = (
                    _ground_form(form, example.ints)
                    if form is not None
                    else linearize(simplify(example.substitute_into(rc.expr)))
                )
            except EncodingError:
                pass
        if linexpr is None:
            # Undecided guard or no linear term: skipping an example only
            # weakens the synthesis query; the verification step still has
            # to accept the coefficients.
            self.stats.undecided += 1
            return []
        # expr >= 0  <=>  -expr <= 0
        constraints = [LinConstraint(-linexpr)]
        if rc.equality:
            constraints.append(LinConstraint(linexpr))
        return constraints
