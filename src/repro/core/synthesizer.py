"""The ReSyn synthesis engine (Sec. 4).

The engine performs goal-directed backtracking search over the synthesis rules
of Fig. 8: at every hole it tries, in order,

1. *E-terms* — variables, constructors and applications of components or the
   recursive function, enumerated in order of size (the Synquid search order,
   so the resource-agnostic baseline returns the first, i.e. smallest,
   functionally-correct program);
2. *conditionals* — Boolean guards built from components over scalar variables
   in scope, with branches synthesized under the corresponding path
   conditions; and
3. *pattern matches* on list/tree variables in scope.

Branches are checked as they are built: a conditional's guard and a match's
branch contexts are typed before any branch is searched, so a violation
prunes the whole subtree.  E-terms are enumerated whole and each is then
checked against the Re2 goal type: functional subtyping queries go straight
to the SMT layer and resource demands become resource constraints handled by
the incremental CEGIS solver.  Before that, the *head check*
(:meth:`TypeChecker.can_afford`) asks once per hole and callee whether the
hole's context can pay the callee's cost plus its parameters' constant
self-potentials; candidates that apply an unaffordable callee anywhere in
their tree are skipped without checking any argument combination.  It is
exact (it rejects only what the full check would reject) when free potential
can only decrease along an E-term check, so it blocks nothing when a result
type carries self-potential, the free potential mentions an unknown
coefficient, the search is not resource-aware, or the query is undecided.
The *prefix rule* does the same for argument prefixes: once the check of
``f a1 ... an`` fails at argument ``ai`` (``TypeChecker.rejected_prefix``),
every later candidate of the hole that applies ``f`` to ``a1 ... ai`` is
skipped too.  This round-trip, resource-guided pruning is what distinguishes
ReSyn from the naive enumerate-and-check combination (Sec. 2.4, Table 2
column T-EAC), which eagerly rejects nothing.

Two invariants the engine relies on:

* the search is *verdict-driven*: candidates are enumerated in a fixed,
  deterministic order and accepted or rejected purely on boolean answers
  from the checker/solver stack, never on which model a solver happens to
  return first — so solver-internal changes (SAT branching order, LIA
  sample choice) cannot change the synthesized program, and the benchmark
  harness asserts programs byte-for-byte across PRs;
* formulas handed to the solver are *interned terms*
  (:mod:`repro.logic.terms`), which is what makes the solver's per-formula
  caches and the shared theory-atom table of the incremental encoder sound
  and cheap (structural equality is pointer equality).
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.constraints.cegis import CegisSolver
from repro.constraints.store import ConstraintStore
from repro.core.config import SynthesisConfig
from repro.core.goals import SynthesisGoal, SynthesisResult
from repro.lang import syntax as s
from repro.logic import terms as t
from repro.obs import trace
from repro.smt.solver import Solver, delta, theory_counters
from repro.typing.checker import CheckerConfig, TypeChecker
from repro.typing.context import Context
from repro.typing.types import (
    ANY_SCALAR,
    ArrowType,
    BaseType,
    BoolBase,
    IntBase,
    ListBase,
    RType,
    TreeBase,
    TypeSchema,
    base_compatible,
    instantiate_schema,
    is_flexible,
)


class SynthesisTimeout(Exception):
    """Raised internally when the configured timeout is exceeded."""


def with_default_cost(schema: TypeSchema, cost: int = 1) -> TypeSchema:
    """Ensure the goal arrow charges ``cost`` per (recursive) application.

    The default cost metric of the paper counts recursive calls: every
    application of the function being synthesized is wrapped in ``tick(1)``
    (Sec. 4.1).  Goals that already carry a cost annotation are left alone.
    """
    body = schema.body
    assert isinstance(body, ArrowType)
    if body.total_cost() > 0:
        return schema
    params = body.params()
    result = body.final_result()
    rebuilt: ArrowType | RType = result
    first = True
    for name, ptype in reversed(params):
        rebuilt = ArrowType(name, ptype, rebuilt, cost=cost if first else 0)
        first = False
    assert isinstance(rebuilt, ArrowType)
    return TypeSchema(schema.tvars, rebuilt)


class Synthesizer:
    """Resource-guided program synthesis for a single goal."""

    def __init__(
        self,
        goal: SynthesisGoal,
        config: Optional[SynthesisConfig] = None,
        solver: Optional[Solver] = None,
    ) -> None:
        self.goal = goal
        self.config = config or SynthesisConfig.resyn()
        self.schema = with_default_cost(goal.schema)
        # An injected solver is how warm workers reuse the shared atom table,
        # Tseitin gate cache and learned theory lemmas across jobs (see
        # repro.service.warm).  Sharing is sound because the search is
        # verdict-driven: solver answers are semantically determined booleans,
        # so warm caches change cost, never the synthesized program.
        self.solver = solver if solver is not None else Solver()
        self.store = ConstraintStore()
        self.cegis = CegisSolver(self.solver, incremental=self.config.checker.incremental_cegis)
        self.checker = TypeChecker(
            goal.component_schemas(),
            self.config.checker,
            solver=self.solver,
            store=self.store,
            cegis=self.cegis,
        )
        self.candidates_checked = 0
        # Candidates skipped by the head check (TypeChecker.can_afford) or the
        # prefix rule.  They count in candidates_checked, so max_candidates
        # caps the same search.
        self.eager_rejections = 0
        # The head check and the prefix rule (see _solutions) run only in the
        # resource-aware modes that check candidates as they are enumerated.
        self._eager = self.config.checker.resource_aware and not self.config.enumerate_and_check
        self._deadline: Optional[float] = None
        self._fresh = itertools.count()
        # Components as the enumerator sees them: the checker instantiates a
        # component's own type variables per call, so they are flexible here,
        # while the goal's variables (in the recursive call) stay rigid.
        self._component_arrows: List[Tuple[str, ArrowType]] = []
        for component in goal.components:
            flexible = {name: RType(ANY_SCALAR) for name in component.schema.tvars}
            body = instantiate_schema(component.schema, flexible)
            if isinstance(body, ArrowType):
                self._component_arrows.append((component.name, body))
        # PBE front-end state (both None/empty for plain goals, so the paper's
        # workload pays nothing for the example machinery).
        self._examples = tuple(getattr(goal, "examples", ()) or ())
        self._grammar = getattr(goal, "grammar", None)
        self._example_checks = 0
        self._example_rejections = 0
        if self._examples:
            from repro.pbe.seeding import cegis_seed_examples

            self._builtins = goal.component_builtins()
            # Ground the example inputs into the CEGIS solver before its
            # first verification query; reset() re-installs them between
            # candidates (see CegisSolver.seed).
            self.cegis.seed(cegis_seed_examples(self.schema, self._examples))

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def synthesize(self) -> SynthesisResult:
        """Run synthesis and return the first program that checks."""
        if self.config.trace:
            trace.enable()
        start = time.perf_counter()
        if self.config.timeout is not None:
            self._deadline = start + self.config.timeout
        counters_before = theory_counters()
        # Scope the per-instance solver counters to this run: on a fresh
        # solver the delta equals the totals (cold reports are unchanged);
        # on a warm shared solver it keeps per-job stats per-job.
        solver_before = self.solver.counters_snapshot()
        program: Optional[s.Fix] = None
        with trace.span("synth.goal", goal=self.goal.name) as root:
            try:
                if self.config.enumerate_and_check:
                    program = self._enumerate_and_check()
                else:
                    program = next(self._programs(), None)
            except SynthesisTimeout:
                program = None
            if root:
                root.count("candidates", self.candidates_checked)
                root.set(solved=program is not None)
        seconds = time.perf_counter() - start
        return SynthesisResult(
            goal=self.goal,
            program=program,
            seconds=seconds,
            candidates_checked=self.candidates_checked,
            resource_rejections=self.checker.stats.resource_rejections,
            functional_rejections=self.checker.stats.functional_rejections,
            cegis_counterexamples=self.cegis.stats.counterexamples,
            stats=self._collect_stats(counters_before, solver_before),
        )

    def _collect_stats(
        self,
        counters_before: Dict[str, float],
        solver_before: Optional[Dict[str, int]] = None,
    ) -> Dict[str, float]:
        """Aggregate query counts and cache hit rates from every layer.

        The solver/encoder/CEGIS stats are per-instance and therefore per-run
        (including the shared Tseitin gate-cache traffic of the incremental
        encoder: ``gate_cache_queries``/``gate_cache_hits``/
        ``gate_cache_hit_rate``/``gate_clauses_reused``); the LIA/SAT
        counters are process-wide (:func:`repro.smt.solver.theory_counters`),
        so they are reported as the :func:`repro.smt.solver.delta` over this
        run: feasibility-cache traffic, Fourier-Motzkin eliminations/
        tightenings, unsat-core counts and average size, and the SAT engine's
        decisions/conflicts/VSIDS bumps/learned-clause churn.
        """
        report = self.solver.cache_report(since=solver_before)
        report.update(self.cegis.cache_report())
        deltas = delta(counters_before, theory_counters())
        report.update(deltas)
        lia_queries = deltas["lia_queries"]
        lia_hits = deltas["lia_cache_hits"]
        cores = deltas["lia_cores"]
        report.update(
            {
                "eterm_checks": self.checker.stats.eterm_checks,
                "eager_rejections": self.eager_rejections,
                "subtype_queries": self.checker.stats.subtype_queries,
                "resource_constraints": self.checker.stats.resource_constraints,
                "lia_cache_hit_rate": round(lia_hits / lia_queries, 4) if lia_queries else 0.0,
                "lia_avg_core_size": round(
                    deltas["lia_core_size_total"] / cores, 4
                ) if cores else 0.0,
            }
        )
        if self._examples:
            # PBE-only counters; plain goals keep their stats dict unchanged.
            report.update(
                {
                    "example_checks": self._example_checks,
                    "example_rejections": self._example_rejections,
                    "examples": len(self._examples),
                }
            )
        return report

    def _programs(self) -> Iterator[s.Fix]:
        """Generator of complete programs satisfying the goal (lazily).

        For PBE goals every complete program is additionally run on the
        goal's input-output examples through the interpreter; programs that
        get any example wrong are rejected and the search resumes.  This is
        the functional half of the PBE loop (the resource half rides on the
        CEGIS seeds installed in ``__init__``).
        """
        ctx, result_type = self.checker.initial_context(self.goal.name, self.schema)
        params = self.goal.param_names()
        depths = (self.config.max_match_depth, self.config.max_cond_depth)
        for body in self._solutions(ctx, result_type, *depths):
            program = s.Fix(self.goal.name, params, body)
            if self._examples and not self._satisfies_examples(program):
                continue
            yield program

    def _satisfies_examples(self, program: s.Fix) -> bool:
        from repro.pbe.check import check_program_on_examples

        self._example_checks += 1
        with trace.span("synth.examples") as sp:
            accepted = check_program_on_examples(program, self._examples, self._builtins)
            if sp:
                sp.set(program=str(program), accepted=accepted)
        if not accepted:
            self._example_rejections += 1
        return accepted

    def _enumerate_and_check(self) -> Optional[s.Fix]:
        """The naive combination (T-EAC): functional synthesis, then analysis."""
        verifier_config = CheckerConfig(
            resource_aware=True,
            constant_resource=self.config.checker.constant_resource,
            check_termination=False,
            incremental_cegis=True,
        )
        for program in self._programs():
            verifier = TypeChecker(
                self.goal.component_schemas(), verifier_config, solver=self.solver
            )
            if verifier.check_program(program, self.schema):
                return program
        return None

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------
    def _pop(self, marker: int) -> None:
        """Roll back the constraint store; reset CEGIS state between candidates.

        The incremental CEGIS solver keeps its solution and examples while a
        *single* candidate is being checked incrementally (that is what the
        T-NInc ablation switches off); once the store is rolled back to empty,
        the next candidate starts from a clean slate so stale examples from
        unrelated, already-rejected candidates cannot poison its constraints.
        """
        self.store.pop(marker)
        if len(self.store) == 0:
            self.cegis.reset()

    def _check_time(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise SynthesisTimeout()
        if self.candidates_checked > self.config.max_candidates:
            raise SynthesisTimeout()

    def _solutions(
        self, ctx: Context, goal: RType, match_depth: int, cond_depth: int
    ) -> Iterator[s.Expr]:
        """Yield expressions that fill the current hole, smallest shapes first."""
        self._check_time()
        # Dead branches are filled with `impossible` (Syn-Imp).
        if self.checker.is_inconsistent(ctx):
            yield s.Impossible()
            return

        # 1. E-terms (Syn-Atom / atomic synthesis).  Head check verdicts and
        # failed argument prefixes are per hole: both hold for every
        # candidate of the hole.
        verdicts: Dict[str, bool] = {}
        failed: Set[Tuple[str, Tuple[s.Expr, ...]]] = set()
        for candidate in self._eterm_candidates(ctx, goal.base):
            self._check_time()
            self.candidates_checked += 1
            if self._eager and (
                not self._affordable(ctx, candidate, verdicts)
                or _has_failed_prefix(candidate, failed)
            ):
                self.eager_rejections += 1
                continue
            marker = self.store.push()
            # The span closes before the yield: leaving it open across the
            # generator suspension would corrupt the tracer's span stack.
            with trace.span("synth.eterm") as sp:
                accepted = self.checker.check_eterm(ctx, candidate, goal) is not None
                if sp:
                    sp.set(term=str(candidate), accepted=accepted)
            if accepted:
                yield candidate
            elif self._eager:
                self._remember_failed_prefix(candidate, failed)
            self._pop(marker)

        # 2. Conditionals (Syn-Cond).
        if cond_depth > 0:
            yield from self._conditional_solutions(ctx, goal, match_depth, cond_depth)

        # 3. Pattern matches (Syn-MatL).
        if match_depth > 0:
            yield from self._match_solutions(ctx, goal, match_depth, cond_depth)

    def _remember_failed_prefix(
        self, candidate: s.Expr, failed: Set[Tuple[str, Tuple[s.Expr, ...]]]
    ) -> None:
        """Record the argument prefix that made the checker reject ``candidate``."""
        length = self.checker.rejected_prefix
        if length and isinstance(candidate, s.App):
            failed.add((candidate.func, candidate.args[:length]))

    def _affordable(self, ctx: Context, expr: s.Expr, verdicts: Dict[str, bool]) -> bool:
        """Whether ``ctx`` can pay for every application in ``expr``'s tree."""
        if isinstance(expr, s.App):
            affordable = verdicts.get(expr.func)
            if affordable is None:
                affordable = verdicts[expr.func] = self.checker.can_afford(ctx, expr.func)
            return affordable and all(self._affordable(ctx, arg, verdicts) for arg in expr.args)
        if isinstance(expr, s.Cons):
            return self._affordable(ctx, expr.head, verdicts) and self._affordable(
                ctx, expr.tail, verdicts
            )
        return True

    def _conditional_solutions(
        self, ctx: Context, goal: RType, match_depth: int, cond_depth: int
    ) -> Iterator[s.Expr]:
        for guard in self._guard_candidates(ctx):
            self._check_time()
            marker = self.store.push()
            prepared = self.checker.prepare_guard(ctx, guard)
            if prepared is None:
                self.store.pop(marker)
                continue
            guard_term, guarded_ctx = prepared
            # Skip guards already decided by the path condition.
            if self.checker.entails(guarded_ctx, guard_term) or self.checker.entails(
                guarded_ctx, t.neg(guard_term)
            ):
                self.store.pop(marker)
                continue
            then_ctx = guarded_ctx.with_path(guard_term)
            else_ctx = guarded_ctx.with_path(t.neg(guard_term))
            found = False
            for then_branch in self._solutions(then_ctx, goal, match_depth, cond_depth - 1):
                for else_branch in self._solutions(else_ctx, goal, match_depth, cond_depth - 1):
                    found = True
                    yield s.If(guard, then_branch, else_branch)
                if found:
                    break  # one else-branch per then-branch is enough in practice
            self._pop(marker)

    def _match_solutions(
        self, ctx: Context, goal: RType, match_depth: int, cond_depth: int
    ) -> Iterator[s.Expr]:
        for name, rtype in ctx.container_vars():
            if name in ctx.matched or name.startswith("g#"):
                continue
            self._check_time()
            if isinstance(rtype.base, ListBase):
                index = next(self._fresh)
                head, tail = f"x{index}", f"xs{index}"
                contexts = self.checker.match_list_contexts(ctx, name, head, tail)
                if contexts is None:
                    continue
                nil_ctx, cons_ctx = contexts
                marker = self.store.push()
                for nil_branch in self._solutions(nil_ctx, goal, match_depth - 1, cond_depth):
                    for cons_branch in self._solutions(cons_ctx, goal, match_depth - 1, cond_depth):
                        yield s.MatchList(s.Var(name), nil_branch, head, tail, cons_branch)
                    break  # keep the first nil branch; alternatives rarely matter
                self._pop(marker)
            elif isinstance(rtype.base, TreeBase):
                index = next(self._fresh)
                left, value, right = f"l{index}", f"v{index}", f"r{index}"
                contexts = self.checker.match_tree_contexts(ctx, name, left, value, right)
                if contexts is None:
                    continue
                leaf_ctx, node_ctx = contexts
                marker = self.store.push()
                for leaf_branch in self._solutions(leaf_ctx, goal, match_depth - 1, cond_depth):
                    for node_branch in self._solutions(node_ctx, goal, match_depth - 1, cond_depth):
                        yield s.MatchTree(s.Var(name), leaf_branch, left, value, right, node_branch)
                    break
                self._pop(marker)

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def _eterm_candidates(self, ctx: Context, goal_base: BaseType) -> List[s.Expr]:
        """E-terms whose shape matches the goal base type, ordered by size."""
        depth = self.config.max_arg_depth + 1
        candidates = self._terms_of_base(ctx, goal_base, depth, allow_recursion=True)
        unique = list(dict.fromkeys(candidates))
        unique.sort(key=lambda e: e.size())
        return unique

    def _guard_candidates(self, ctx: Context) -> List[s.Expr]:
        """Boolean guards: applications of Boolean components to scalars in scope."""
        guards = self._terms_of_base(ctx, BoolBase(), depth=2, allow_recursion=False)
        filtered = [g for g in guards if isinstance(g, s.App)]
        filtered.sort(key=lambda e: e.size())
        return filtered

    def _terms_of_base(
        self, ctx: Context, base: BaseType, depth: int, allow_recursion: bool
    ) -> List[s.Expr]:
        # SyGuS-style grammar restriction: the rule for this hole's base kind
        # gates whole production families *before* candidates are built, so a
        # restriction shrinks the enumeration itself (strictly fewer
        # eterm_checks), not just the accepted set.  Plain goals have no
        # grammar and take the unrestricted defaults.
        rule = self._grammar.rule_for_base(base) if self._grammar is not None else None
        results: List[s.Expr] = []
        # Variables in scope.
        if rule is None or rule.variables:
            for name, rtype in ctx.bindings:
                if name.startswith(("g#", "b#")):
                    continue
                if self._base_shapes_match(rtype.base, base):
                    results.append(s.Var(name))
        # Literals and constructors.
        allow_literals = rule is None or rule.literals
        allow_constructors = rule is None or rule.constructors
        if isinstance(base, BoolBase) and allow_literals:
            results.extend([s.BoolLit(True), s.BoolLit(False)])
        if (isinstance(base, IntBase) or is_flexible(base)) and allow_literals:
            results.append(s.IntLit(0))
        if isinstance(base, ListBase) and allow_constructors:
            results.append(s.Nil())
            if depth > 1:
                heads = self._terms_of_base(ctx, base.elem.base, depth - 1, allow_recursion)
                tails = self._terms_of_base(ctx, base, depth - 1, allow_recursion)
                for head in heads:
                    for tail in tails:
                        results.append(s.Cons(head, tail))
        if isinstance(base, TreeBase) and allow_constructors:
            results.append(s.Leaf())
        # Applications.
        if depth > 1:
            results.extend(self._application_candidates(ctx, base, depth, allow_recursion))
        return results

    def _application_candidates(
        self, ctx: Context, base: BaseType, depth: int, allow_recursion: bool
    ) -> List[s.Expr]:
        rule = self._grammar.rule_for_base(base) if self._grammar is not None else None
        results: List[s.Expr] = []
        callees: List[Tuple[str, ArrowType]] = []
        for name, body in self._component_arrows:
            if rule is None or rule.allows_component(name):
                callees.append((name, body))
        if allow_recursion and ctx.fix is not None and (rule is None or rule.recursion):
            callees.append((ctx.fix.name, ctx.fix.arrow))
        for name, arrow_type in callees:
            result = arrow_type.final_result()
            if not isinstance(result, RType) or not self._base_shapes_match(result.base, base):
                continue
            param_types = [ptype for _, ptype in arrow_type.params()]
            if any(isinstance(p, ArrowType) for p in param_types):
                continue  # higher-order components are used only via explicit goals
            arg_choices: List[List[s.Expr]] = []
            for ptype in param_types:
                assert isinstance(ptype, RType)
                choices = self._terms_of_base(
                    ctx, ptype.base, depth - 1, allow_recursion=allow_recursion
                )
                arg_choices.append(choices)
            if any(not choices for choices in arg_choices):
                continue
            for combo in itertools.product(*arg_choices):
                results.append(s.App(name, tuple(combo)))
        return results

    def _base_shapes_match(self, result: BaseType, goal: BaseType) -> bool:
        """Loose shape compatibility used for enumeration (subtyping filters later)."""
        result_is_container = isinstance(result, (ListBase, TreeBase))
        goal_is_container = isinstance(goal, (ListBase, TreeBase))
        if result_is_container != goal_is_container:
            return False
        if result_is_container:
            return type(result) is type(goal)
        return base_compatible(result, goal)


def _has_failed_prefix(candidate: s.Expr, failed: Set[Tuple[str, Tuple[s.Expr, ...]]]) -> bool:
    """Whether ``candidate`` applies a callee to an argument prefix that failed."""
    if not failed or not isinstance(candidate, s.App):
        return False
    args = candidate.args
    return any((candidate.func, args[:length]) in failed for length in range(1, len(args) + 1))


# ---------------------------------------------------------------------------
# Convenience functions
# ---------------------------------------------------------------------------


def synthesize(
    goal: SynthesisGoal,
    config: Optional[SynthesisConfig] = None,
    solver: Optional[Solver] = None,
) -> SynthesisResult:
    """Synthesize a program for ``goal`` under ``config`` (default: ReSyn).

    ``solver`` injects a long-lived solver whose warm state (shared atom
    table, gate cache, clause database) is reused across calls; omitted, every
    call gets a fresh one.
    """
    return Synthesizer(goal, config, solver=solver).synthesize()


def verify(
    program: s.Fix,
    goal: SynthesisGoal,
    resource_aware: bool = True,
    constant_resource: bool = False,
) -> bool:
    """Check a complete program against a goal (used by tests and the EAC mode)."""
    config = CheckerConfig(
        resource_aware=resource_aware,
        constant_resource=constant_resource,
        check_termination=False,
    )
    checker = TypeChecker(goal.component_schemas(), config)
    return checker.check_program(program, with_default_cost(goal.schema))
