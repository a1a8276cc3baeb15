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
column of Table 2) keeps the current solution and example set across calls and
only re-synthesizes coefficients for the clauses actually violated by a new
counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic import terms as t
from repro.logic.terms import Term
from repro.constraints.store import ResourceConstraint, coefficients_in, is_coefficient
from repro.obs import trace
from repro.smt.linexpr import Constraint as LinConstraint
from repro.smt.linexpr import LinExpr
from repro.smt.encoder import EncodingError, linearize
from repro.smt.lia import check_integer_feasible
from repro.smt.solver import Solver, SolverError


@dataclass
class CegisStats:
    """Counters for the evaluation harness."""

    verification_queries: int = 0
    synthesis_queries: int = 0
    counterexamples: int = 0
    restarts: int = 0
    grounding_cache_hits: int = 0
    grounding_cache_misses: int = 0
    #: solver queries that raised SolverError/EncodingError (fail closed).
    undecided: int = 0

    def grounding_hit_rate(self) -> float:
        total = self.grounding_cache_hits + self.grounding_cache_misses
        return self.grounding_cache_hits / total if total else 0.0


_example_counter = itertools.count()


@dataclass
class Example:
    """A counterexample: concrete values for program variables and measures."""

    ints: Dict[object, int]
    #: Stable identity used to key grounding caches across solve() calls.
    key: int = field(default_factory=lambda: next(_example_counter))

    def substitute_into(self, term: Term) -> Term:
        """Replace program variables and measure applications by their values."""
        key = (term, self.key)
        cached = _GROUND_TERM_CACHE.get(key)
        if cached is None:
            cached = _substitute_values(term, self.ints)
            if len(_GROUND_TERM_CACHE) >= _GROUND_TERM_CACHE_MAX:
                _GROUND_TERM_CACHE.clear()
            _GROUND_TERM_CACHE[key] = cached
        return cached


#: (term, example key) -> grounded term; examples are immutable once created.
_GROUND_TERM_CACHE: Dict[Tuple[Term, int], Term] = {}
_GROUND_TERM_CACHE_MAX = 1 << 16


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
        #: (constraint, example.key) -> grounded linear constraints; grounding
        #: does not depend on the current solution (coefficients stay
        #: symbolic), so entries stay valid for the lifetime of the example.
        self._ground_cache: Dict[Tuple[ResourceConstraint, int], List[LinConstraint]] = {}
        #: (expr, relevant coefficient values) -> instantiated expr.
        self._inst_cache: Dict[Tuple[Term, Tuple[Tuple[str, int], ...]], Term] = {}

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
            "cegis_grounding_hit_rate": round(self.stats.grounding_hit_rate(), 4),
            "cegis_ground_cache_size": len(self._ground_cache),
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

    def reset(self) -> None:
        """Forget the accumulated solution and examples (seeds are kept)."""
        self.solution = {}
        self.examples = list(self._seed_examples)
        self._ground_cache.clear()
        if len(self._inst_cache) > (1 << 14):
            self._inst_cache.clear()

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
        coeffs = sorted({c for rc in constraints for c in coefficients_in(rc.expr)})
        for name in coeffs:
            self.solution.setdefault(name, 0)
        for _ in range(self.max_rounds):
            violated = self._find_counterexample(constraints)
            if violated is _UNDECIDED:
                return None
            if violated is None:
                return dict(self.solution)
            example, violated_constraints = violated
            self.stats.counterexamples += 1
            self.examples.append(example)
            relevant = violated_constraints if self.incremental else list(constraints)
            new_solution = self._synthesize(constraints, relevant, coeffs)
            if new_solution is None:
                return None
            self.solution.update(new_solution)
        return None

    def check(self, constraints: Sequence[ResourceConstraint]) -> bool:
        """Whether the system is solvable (convenience wrapper)."""
        return self.solve(constraints) is not None

    # -- verification -------------------------------------------------------
    def _find_counterexample(
        self, constraints: Sequence[ResourceConstraint]
    ) -> Optional[Tuple[Example, List[ResourceConstraint]]] | object:
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
            if model is None:
                continue
            example = Example(dict(model.ints))
            violated = [other for other in constraints if self._is_violated(other, example)]
            if not violated:
                violated = [rc]
            return example, violated
        return None

    def _instantiated_expr(self, rc: ResourceConstraint, solution: Dict[str, int]) -> Term:
        """``rc.expr`` with the current coefficient values plugged in.

        Keyed on the values of the coefficients that actually occur in the
        constraint, so unrelated solution updates do not invalidate entries.
        """
        names = coefficients_in(rc.expr)
        items = tuple(sorted((name, int(solution.get(name, 0))) for name in names))
        key = (rc.expr, items)
        cached = self._inst_cache.get(key)
        if cached is None:
            cached = t.substitute(rc.expr, {name: t.IntConst(v) for name, v in items})
            self._inst_cache[key] = cached
        return cached

    def _violation_query(self, rc: ResourceConstraint, solution: Dict[str, int]) -> Term:
        instantiated = self._instantiated_expr(rc, solution)
        if rc.equality:
            violation = t.disj(instantiated < 0, instantiated > 0)
        else:
            violation = instantiated < 0
        return t.conj(rc.guard, violation)

    def _is_violated(self, rc: ResourceConstraint, example: Example) -> bool:
        """Whether ``rc`` (under the current solution) is violated by ``example``.

        An undecided check counts as violated, so the constraint is re-solved
        on the example rather than assumed to hold.
        """
        instantiated = self._instantiated_expr(rc, self.solution)
        violation = (
            (instantiated < 0)
            if not rc.equality
            else t.disj(instantiated < 0, instantiated > 0)
        )
        query = t.conj(rc.guard, violation)
        grounded = example.substitute_into(query)
        try:
            return self.solver.check_sat(grounded) is not None
        except (SolverError, EncodingError):
            self.stats.undecided += 1
            return True

    # -- synthesis ----------------------------------------------------------
    def _synthesize(
        self,
        all_constraints: Sequence[ResourceConstraint],
        violated: Sequence[ResourceConstraint],
        coeffs: Sequence[str],
    ) -> Optional[Dict[str, int]]:
        """Find coefficients satisfying the recorded examples.

        Following Algorithm 1, the incremental variant only instantiates the
        clauses that were actually violated (``violated``) on the new example,
        together with all previously recorded example instantiations, which
        keeps the synthesis constraint small.
        """
        self.stats.synthesis_queries += 1
        with trace.span("cegis.synth") as sp:
            linear: List[LinConstraint] = []
            targets = violated if self.incremental else all_constraints
            for example in self.examples:
                for rc in targets:
                    linear.extend(self._ground_constraint(rc, example))
            # Keep previously satisfied clauses satisfied on the accumulated
            # examples as well (cheap, and prevents oscillation).
            for example in self.examples[:-1]:
                for rc in all_constraints:
                    linear.extend(self._ground_constraint(rc, example))
            if not linear:
                return {name: self.solution.get(name, 0) for name in coeffs}
            if sp:
                sp.count("ground_constraints", len(linear))
            result = self._solve_with_small_coefficients(linear, coeffs)
        if result is None:
            return None
        # Coefficients not mentioned in the violated clauses keep their current
        # values (Algorithm 1 updates C with C', it does not rebuild it).
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
        the coefficients biases the solver towards generalisable solutions like
        ``nu - a`` and matches the small-coefficient prior of the paper's
        implementation.
        """
        mentioned = sorted({k for c in linear for k in c.expr.variables if isinstance(k, str)})
        for bound in (1, 2, 4, 8, None):
            constraints = list(linear)
            if bound is not None:
                for name in mentioned:
                    constraints.append(LinConstraint(LinExpr.var(name) - LinExpr.const(bound)))
                    constraints.append(LinConstraint(-LinExpr.var(name) - LinExpr.const(bound)))
            result = check_integer_feasible(constraints)
            if result.satisfiable and result.model is not None:
                return result.model
        return None

    def _ground_constraint(self, rc: ResourceConstraint, example: Example) -> List[LinConstraint]:
        """Instantiate a constraint on an example, producing constraints over C.

        Grounding leaves the unknown coefficients symbolic, so the result
        depends only on (constraint, example) and is kept across
        :meth:`solve` calls — the incremental loop re-grounds nothing.
        """
        key = (rc, example.key)
        cached = self._ground_cache.get(key)
        if cached is not None:
            self.stats.grounding_cache_hits += 1
            return cached
        self.stats.grounding_cache_misses += 1
        constraints = self._ground_constraint_uncached(rc, example)
        self._ground_cache[key] = constraints
        return constraints

    def _ground_constraint_uncached(
        self, rc: ResourceConstraint, example: Example
    ) -> List[LinConstraint]:
        guard = example.substitute_into(rc.guard)
        try:
            if self.solver.check_sat(guard) is None:
                return []  # the example does not satisfy the guard: vacuous
            expr = example.substitute_into(rc.expr)
            linexpr = linearize(expr)
        except (SolverError, EncodingError):
            # Skipping an example only weakens the synthesis query; the
            # verification step still has to accept the coefficients.
            self.stats.undecided += 1
            return []
        # expr >= 0  <=>  -expr <= 0
        constraints = [LinConstraint(-linexpr)]
        if rc.equality:
            constraints.append(LinConstraint(linexpr))
        return constraints
