"""The Re2 type checker (Fig. 6), organised for round-trip synthesis.

The checker exposes two levels of API:

* a *whole-expression* checker (:meth:`TypeChecker.check_expr`,
  :meth:`TypeChecker.check_program`) used to verify complete programs — this
  is what the naive enumerate-and-check baseline (T-EAC in Table 2) and the
  test suite use; and
* fine-grained judgments (:meth:`infer_eterm`, :meth:`check_eterm`,
  :meth:`match_list_contexts`, :meth:`branch_contexts`, ...) that the
  synthesizer calls while a candidate program is still partial, so that
  logical and resource violations are detected as early as possible
  (the round-trip checking of Sec. 2.4/4.2).

Resource accounting follows the eager-sharing strategy documented in
DESIGN.md: scalar potential is released into the context's free-potential pool
when a variable is bound, per-element potential stays attached to container
bindings and is deducted when a use demands it, and every demand emits a
resource constraint ``assumptions ==> available - required >= 0``.
Constraints without unknown coefficients are discharged immediately by the SMT
layer; constraints with unknowns go to the incremental CEGIS solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.constraints.cegis import CegisSolver
from repro.constraints.store import ConstraintStore, ResourceConstraint, coefficients_in
from repro.lang import syntax as s
from repro.logic import terms as t
from repro.logic.simplify import is_trivially_true, simplify
from repro.logic.sorts import BOOL, DATA, INT
from repro.logic.terms import Term
from repro.obs import trace
from repro.smt.encoder import EncodingError
from repro.smt.solver import Solver, SolverError
from repro.typing.context import Context, FixInfo, var_term
from repro.typing.types import (
    ANY_SCALAR,
    ArrowType,
    BaseType,
    BoolBase,
    IntBase,
    ListBase,
    NU_NAME,
    RType,
    TreeBase,
    Type,
    TypeSchema,
    TypeVarBase,
    base_compatible,
    instantiate_schema,
    int_type,
    is_flexible,
    list_type,
    substitute_in_type,
)


@dataclass
class CheckerConfig:
    """Knobs that distinguish ReSyn, the Synquid baseline and the ablations."""

    #: Track potential annotations and emit resource constraints (ReSyn mode).
    resource_aware: bool = True
    #: Constant-resource checking (Sec. 3 "Constant Resource", benchmarks 14-16).
    constant_resource: bool = False
    #: Structural termination checking (used by the resource-agnostic baseline;
    #: ReSyn gets termination from potentials, Sec. 2.4).
    check_termination: bool = True
    #: Use dependent (variable-carrying) linear templates when instantiating
    #: polymorphic potentials; constants-only templates otherwise.
    dependent_templates: bool = False
    #: Incremental CEGIS (Algorithm 1) vs. restart-from-scratch (T-NInc ablation).
    incremental_cegis: bool = True


@dataclass
class CheckerStats:
    """Counters surfaced in the evaluation harness."""

    eterm_checks: int = 0
    subtype_queries: int = 0
    resource_constraints: int = 0
    resource_rejections: int = 0
    functional_rejections: int = 0


class TypeChecker:
    """Constraint-generating type checker for Re2."""

    def __init__(
        self,
        schemas: Dict[str, TypeSchema],
        config: Optional[CheckerConfig] = None,
        solver: Optional[Solver] = None,
        store: Optional[ConstraintStore] = None,
        cegis: Optional[CegisSolver] = None,
    ) -> None:
        self.schemas = schemas
        self.config = config or CheckerConfig()
        self.solver = solver if solver is not None else Solver()
        # Note: an empty ConstraintStore is falsy, so this must be an explicit
        # ``is not None`` check to actually share the synthesizer's store.
        self.store = store if store is not None else ConstraintStore()
        self.cegis = (
            cegis
            if cegis is not None
            else CegisSolver(self.solver, incremental=self.config.incremental_cegis)
        )
        self.stats = CheckerStats()
        #: After :meth:`check_eterm` rejects an application ``f a1 ... an``
        #: while checking argument ``ai``: ``i`` (see :meth:`_infer_app`).
        #: ``None`` when it rejected elsewhere, or accepted.
        self.rejected_prefix: Optional[int] = None
        self._components_release = any(
            _releases_potential(schema.body, schema.tvars) for schema in schemas.values()
        )

    # ------------------------------------------------------------------
    # Whole programs
    # ------------------------------------------------------------------
    def initial_context(self, name: str, goal: TypeSchema) -> Tuple[Context, RType]:
        """The context for synthesizing/checking the body of ``name : goal``."""
        body = goal.body
        assert isinstance(body, ArrowType), "synthesis goals must be function types"
        ctx = Context().with_tvars(goal.tvars)
        params = body.params()
        for pname, ptype in params:
            assert isinstance(ptype, RType), "higher-order goals are not supported"
            ctx = ctx.bind(pname, ptype)
        ctx = ctx.with_fix(FixInfo(name, tuple(p for p, _ in params), body))
        result = body.final_result()
        return ctx, result

    def check_program(self, program: s.Fix, goal: TypeSchema) -> bool:
        """Check a complete recursive program against a goal schema."""
        ctx, result = self.initial_context(program.name, goal)
        body = goal.body
        assert isinstance(body, ArrowType)
        expected = tuple(p for p, _ in body.params())
        if program.params != expected:
            renaming = dict(zip(program.params, expected))
            body_expr = _rename_expr(program.body, renaming)
        else:
            body_expr = program.body
        marker = self.store.push()
        ok = self.check_expr(ctx, body_expr, result) is not None
        if not ok:
            self.store.pop(marker)
        return ok

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def check_expr(self, ctx: Context, expr: s.Expr, goal: RType) -> Optional[Context]:
        """Check an arbitrary expression against a scalar goal type."""
        if isinstance(expr, s.Impossible):
            return ctx if self.is_inconsistent(ctx) else None
        if isinstance(expr, s.If):
            prepared = self.prepare_guard(ctx, expr.cond)
            if prepared is None:
                return None
            guard_term, guarded_ctx = prepared
            then_ctx = self.check_expr(guarded_ctx.with_path(guard_term), expr.then_branch, goal)
            if then_ctx is None:
                return None
            else_ctx = self.check_expr(
                guarded_ctx.with_path(t.neg(guard_term)), expr.else_branch, goal
            )
            if else_ctx is None:
                return None
            return guarded_ctx
        if isinstance(expr, s.MatchList):
            if not isinstance(expr.scrutinee, s.Var):
                return None
            contexts = self.match_list_contexts(
                ctx, expr.scrutinee.name, expr.head_name, expr.tail_name
            )
            if contexts is None:
                return None
            nil_ctx, cons_ctx = contexts
            if self.check_expr(nil_ctx, expr.nil_branch, goal) is None:
                return None
            if self.check_expr(cons_ctx, expr.cons_branch, goal) is None:
                return None
            return ctx
        if isinstance(expr, s.MatchTree):
            if not isinstance(expr.scrutinee, s.Var):
                return None
            contexts = self.match_tree_contexts(
                ctx, expr.scrutinee.name, expr.left_name, expr.value_name, expr.right_name
            )
            if contexts is None:
                return None
            leaf_ctx, node_ctx = contexts
            if self.check_expr(leaf_ctx, expr.leaf_branch, goal) is None:
                return None
            if self.check_expr(node_ctx, expr.node_branch, goal) is None:
                return None
            return ctx
        if isinstance(expr, s.Let):
            inferred = self.infer(ctx, expr.rhs)
            if inferred is None:
                return None
            rtype, new_ctx = inferred
            new_ctx = new_ctx.bind(expr.name, rtype)
            return self.check_expr(new_ctx, expr.body, goal)
        # E-terms.
        return self.check_eterm(ctx, expr, goal)

    # ------------------------------------------------------------------
    # E-terms
    # ------------------------------------------------------------------
    def check_eterm(self, ctx: Context, expr: s.Expr, goal: RType) -> Optional[Context]:
        """Check an E-term (atom or application) against the goal type."""
        self.stats.eterm_checks += 1
        self.rejected_prefix = None
        if isinstance(expr, s.App):
            inferred = self._infer_app(ctx, expr, outermost=True)
        else:
            inferred = self.infer(ctx, expr)
        if inferred is None:
            return None
        rtype, new_ctx = inferred
        if not self.check_result_subtype(new_ctx, rtype, goal):
            return None
        if self.config.resource_aware and self.config.constant_resource:
            if not self._finalize_constant_resource(new_ctx):
                return None
        return new_ctx

    def infer_eterm(self, ctx: Context, expr: s.Expr) -> Optional[Tuple[RType, Context]]:
        """Public alias of :meth:`infer` used by the synthesizer."""
        return self.infer(ctx, expr)

    def infer(self, ctx: Context, expr: s.Expr) -> Optional[Tuple[RType, Context]]:
        """Infer a precise type for an E-term, paying its resource demands."""
        if isinstance(expr, s.Var):
            binding = ctx.lookup(expr.name)
            if binding is None:
                return None
            nu = t.Var(NU_NAME, binding.base.nu_sort())
            exact = t.conj(binding.refinement, t.Eq(nu, var_term(expr.name, binding)))
            return binding.with_refinement(exact).with_potential(t.ZERO), ctx
        if isinstance(expr, s.IntLit):
            nu = t.Var(NU_NAME, INT)
            return int_type(t.Eq(nu, t.IntConst(expr.value))), ctx
        if isinstance(expr, s.BoolLit):
            nu = t.Var(NU_NAME, BOOL)
            refinement = nu if expr.value else t.neg(nu)
            return RType(BoolBase(), refinement), ctx
        if isinstance(expr, s.Nil):
            nu = t.Var(NU_NAME, DATA)
            refinement = t.conj(t.len_(nu).eq(0), t.Eq(t.elems(nu), t.EmptySet()))
            return list_type(RType(ANY_SCALAR), refinement, sorted=True), ctx
        if isinstance(expr, s.Cons):
            return self._infer_cons(ctx, expr)
        if isinstance(expr, s.App):
            return self._infer_app(ctx, expr)
        return None

    def interp(self, ctx: Context, expr: s.Expr) -> Optional[Term]:
        """The logic-level interpretation ``I(a)`` of an interpretable atom."""
        if isinstance(expr, s.Var):
            binding = ctx.lookup(expr.name)
            if binding is None:
                return None
            return var_term(expr.name, binding)
        if isinstance(expr, s.IntLit):
            return t.IntConst(expr.value)
        if isinstance(expr, s.BoolLit):
            return t.BoolConst(expr.value)
        return None

    # -- constructors ------------------------------------------------------
    def _infer_cons(self, ctx: Context, expr: s.Cons) -> Optional[Tuple[RType, Context]]:
        head = self.infer(ctx, expr.head)
        if head is None:
            return None
        head_type, ctx = head
        head_interp, ctx = self._interp_or_ghost(ctx, expr.head, head_type)
        tail = self.infer(ctx, expr.tail)
        if tail is None:
            return None
        tail_type, ctx = tail
        if not isinstance(tail_type.base, ListBase):
            return None
        if not base_compatible(head_type.base, tail_type.base.elem.base):
            self.stats.functional_rejections += 1
            return None
        tail_interp, ctx = self._interp_or_ghost(ctx, expr.tail, tail_type)
        nu = t.Var(NU_NAME, DATA)
        refinement = t.conj(
            t.len_(nu).eq(t.len_(tail_interp) + 1),
            t.Eq(t.elems(nu), t.SetUnion(t.SetSingleton(head_interp), t.elems(tail_interp))),
        )
        # The Cons is a *sorted* list when the tail is sorted and the head is
        # provably a strict lower bound of the tail's elements.
        sorted_flag = False
        if tail_type.base.sorted:
            elem_var = t.Var("_e", INT)
            lower_bound = t.SetAll("_e", t.elems(tail_interp), head_interp < elem_var)
            sorted_flag = self.entails(ctx, lower_bound)
        elem = replace(tail_type.base.elem, potential=t.ZERO)
        if is_flexible(elem.base):
            # The tail is built from ``Nil``: the head fixes the element type.
            elem = RType(head_type.base)
        result = RType(ListBase(elem, sorted_flag), refinement)
        return result, ctx

    # -- applications --------------------------------------------------------
    def _resolve_callee(
        self, ctx: Context, name: str
    ) -> Optional[Tuple[ArrowType, Tuple[str, ...]]]:
        if ctx.fix is not None and name == ctx.fix.name:
            return ctx.fix.arrow, ()
        schema = self.schemas.get(name)
        if schema is None:
            return None
        body = schema.body
        if not isinstance(body, ArrowType):
            return None
        return body, schema.tvars

    def _infer_app(
        self, ctx: Context, expr: s.App, outermost: bool = False
    ) -> Optional[Tuple[RType, Context]]:
        """Infer an application; ``outermost`` marks the E-term under check.

        If the outermost application fails while checking argument ``ai``,
        :attr:`rejected_prefix` becomes ``i``: any application of the same
        callee to ``a1 ... ai`` fails there too in the same context, because
        those checks see the same context and parameter types (a type
        variable's base comes from the first argument whose parameter
        mentions it, and instantiation issues only the callee's
        well-formedness constraints).  Nothing is recorded when peeking at
        the arguments issued a resource constraint, nor for failures of the
        cost payment, the termination check or the result subtyping.  Like
        the head check, this assumes CEGIS reaches the same verdict on the
        same constraints whatever examples it has gathered.
        """
        resolved = self._resolve_callee(ctx, expr.func)
        if resolved is None:
            return None
        arrow, tvars = resolved
        params = arrow.params()
        if len(params) != len(expr.args):
            return None
        if tvars:
            issued = self.stats.resource_constraints
            instantiation = self._instantiate_tvars(ctx, tvars, params, expr.args)
            wellformedness = sum(1 for rtype in instantiation.values() if rtype.potential != t.ZERO)
            outermost = outermost and self.stats.resource_constraints - issued == wellformedness
            schema = TypeSchema(tvars, arrow)
            arrow = instantiate_schema(schema, instantiation)  # type: ignore[arg-type]
            assert isinstance(arrow, ArrowType)
            params = arrow.params()

        subst: Dict[str, Term] = {}
        current = ctx
        for position, ((pname, ptype), arg) in enumerate(zip(params, expr.args), 1):
            expected = substitute_in_type(ptype, subst)
            if isinstance(expected, ArrowType):
                if self._check_function_arg(current, arg, expected):
                    continue
                checked = None
            else:
                checked = self._check_scalar_arg(current, arg, expected)
            if checked is None:
                if outermost:
                    self.rejected_prefix = position
                return None
            subst[pname], current = checked

        cost = arrow.total_cost()
        if cost and self.config.resource_aware:
            current = self._pay_free(current, t.IntConst(cost), origin=f"cost of {expr.func}")
            if current is None:
                return None
        if (
            ctx.fix is not None
            and expr.func == ctx.fix.name
            and self.config.check_termination
            and not self.config.resource_aware
        ):
            if not self._check_termination(current, params, subst):
                return None
        result = substitute_in_type(arrow.final_result(), subst)
        assert isinstance(result, RType)
        return result, current

    def _instantiate_tvars(
        self,
        ctx: Context,
        tvars: Tuple[str, ...],
        params: Tuple[Tuple[str, Type], ...],
        args: Tuple[s.Expr, ...],
    ) -> Dict[str, RType]:
        """Choose instantiations for quantified type variables.

        Bases are deduced from the actual arguments; refinements are left
        trivial; potentials become fresh unknowns (constant, or a full linear
        template over the numeric scope when ``dependent_templates`` is set),
        which is exactly how resource polymorphism feeds the CEGIS solver.

        A variable takes the base of the first argument whose parameter
        mentions it: the argument's own base, or its element base when the
        parameter is a container of the variable.  An argument built from
        ``Nil`` gives :data:`ANY_SCALAR`, so it fits whatever the other
        arguments are.  Where no argument fixes a base, the variable falls
        back to ``Int``:

        * the argument's type is unknown (an unbound name, or a ``Nil``/
          ``Cons`` that does not type), so the argument's own check fails;
        * the parameter is a scalar ``a`` and the argument a container, or
          the parameter a container of ``a`` and the argument a scalar, so
          the argument's own check fails too;
        * the argument is a container of containers: type variables range
          over scalars only, so its check fails as well;
        * no parameter mentions the variable, so only the result does, and
          the application then has an ``Int`` there.  A rigid goal variable
          never matches that ``Int``.
        """
        instantiation: Dict[str, RType] = {}
        for (pname, ptype), arg in zip(params, args):
            candidates = _tvar_occurrences(ptype)
            if not candidates:
                continue
            arg_type = self._peek_type(ctx, arg)
            for tvar_name, at_elem in candidates:
                if tvar_name in instantiation or tvar_name not in tvars:
                    continue
                base = _tvar_base(arg_type, at_elem)
                potential: Term = t.ZERO
                if self.config.resource_aware:
                    if self.config.dependent_templates:
                        potential, _ = self.store.linear_template(tuple(ctx.int_scope_terms()))
                    else:
                        potential = self.store.fresh_coefficient()
                    # Well-formedness: potential annotations are non-negative
                    # (Sec. 4.3, item (1) of the implementation notes).
                    self._require(
                        ctx.assumptions(), potential, origin=f"wellformedness of {tvar_name}"
                    )
                instantiation[tvar_name] = RType(base, t.TRUE, potential)
        for name in tvars:
            instantiation.setdefault(name, RType(IntBase(), t.TRUE, t.ZERO))
        return instantiation

    def _peek_type(self, ctx: Context, arg: s.Expr) -> Optional[RType]:
        """A cheap look at an argument's type, to pick type-variable bases.

        An application of a polymorphic component gets the component's
        result type, with the component's own variables instantiated from a
        look at its arguments.  The look has side effects for ``Nil``/``Cons``
        arguments, also nested in such an application: their type comes
        from :meth:`infer`, which may pay costs, issue resource constraints
        and run CEGIS (for instance for a ``Cons`` whose head applies a
        costly component).
        """
        if isinstance(arg, s.Var):
            return ctx.lookup(arg.name)
        if isinstance(arg, s.IntLit):
            return int_type()
        if isinstance(arg, s.BoolLit):
            return RType(BoolBase())
        if isinstance(arg, (s.Nil, s.Cons)):
            inferred = self.infer(ctx, arg)
            return inferred[0] if inferred else None
        if isinstance(arg, s.App):
            resolved = self._resolve_callee(ctx, arg.func)
            if resolved is None:
                return None
            arrow, tvars = resolved
            result = arrow.final_result()
            if tvars:
                # Instantiate the callee's own variables from a look at its
                # arguments, as _instantiate_tvars would.
                bases: Dict[str, BaseType] = {}
                for (_, ptype), inner in zip(arrow.params(), arg.args):
                    for name, at_elem in _tvar_occurrences(ptype):
                        if name in tvars and name not in bases:
                            bases[name] = _tvar_base(self._peek_type(ctx, inner), at_elem)
                instantiation = {name: RType(bases.get(name, IntBase())) for name in tvars}
                result = instantiate_schema(TypeSchema(tvars, result), instantiation)
            return result if isinstance(result, RType) else None
        return None

    def _check_function_arg(self, ctx: Context, arg: s.Expr, expected: ArrowType) -> bool:
        """Minimal higher-order support: pass named functions of matching arity."""
        if not isinstance(arg, (s.Var, s.App)) or (isinstance(arg, s.App) and arg.args):
            return False
        name = arg.name if isinstance(arg, s.Var) else arg.func
        resolved = self._resolve_callee(ctx, name)
        if resolved is None:
            return False
        actual_arrow, _ = resolved
        return len(actual_arrow.params()) == len(expected.params())

    def _check_scalar_arg(
        self, ctx: Context, arg: s.Expr, expected: RType
    ) -> Optional[Tuple[Term, Context]]:
        inferred = self.infer(ctx, arg)
        if inferred is None:
            return None
        actual, ctx = inferred
        if not base_compatible(actual.base, expected.base):
            self.stats.functional_rejections += 1
            return None
        interp, ctx = self._interp_or_ghost(ctx, arg, actual)
        # Functional subtyping: assumptions |= expected refinement at the argument.
        expected_refinement = t.substitute(expected.refinement, {NU_NAME: interp})
        if not is_trivially_true(simplify(expected_refinement)):
            self.stats.subtype_queries += 1
            if not self.entails(ctx, expected_refinement):
                self.stats.functional_rejections += 1
                return None
        if self.config.resource_aware:
            required_self = simplify(t.substitute(expected.potential, {NU_NAME: interp}))
            if not _is_zero(required_self):
                ctx = self._pay_free(ctx, required_self, origin=f"argument {arg}")
                if ctx is None:
                    return None
            if isinstance(expected.base, ListBase):
                required_elem = simplify(expected.base.elem.potential)
                if not _is_zero(required_elem):
                    paid = self._pay_elements(ctx, arg, required_elem)
                    if paid is None:
                        return None
                    ctx = paid
        return interp, ctx

    def _interp_or_ghost(self, ctx: Context, expr: s.Expr, rtype: RType) -> Tuple[Term, Context]:
        """Interpret an atom, or bind a ghost variable for a compound argument."""
        interp = self.interp(ctx, expr)
        if interp is not None:
            return interp, ctx
        ghost, ctx = ctx.fresh_name("g")
        ghost_type = rtype
        if isinstance(ghost_type.base, ListBase):
            # Element potential of ghosts is consumed through _pay_elements on
            # the original expression, never through the ghost binding.
            ghost_type = ghost_type.with_elem_potential(t.ZERO)
        ctx = ctx.bind(ghost, ghost_type)
        return var_term(ghost, rtype), ctx

    # -- resource payments ----------------------------------------------------
    def _pay_free(self, ctx: Context, amount: Term, origin: str) -> Optional[Context]:
        """Pay ``amount`` from the free-potential pool."""
        remaining = simplify(t.Sub(ctx.free_potential, amount))
        ok = self._require(ctx.assumptions(), remaining, origin=origin)
        if not ok:
            return None
        return ctx.spend_free(amount)

    def can_afford(self, ctx: Context, callee: str) -> bool:
        """The head check: whether ``ctx`` can pay for an application of ``callee``.

        ``False`` means every E-term that applies ``callee`` anywhere in its
        tree (as the head, inside an argument or inside a ``Cons`` cell) fails
        :meth:`check_eterm` in ``ctx``, so the synthesizer may skip all of
        them without type-checking a single argument combination.  The demand
        is the callee's ``total_cost()`` plus the non-negative ``IntConst``
        self-potentials of its parameters, and the check is one validity
        query ``assumptions(ctx) ==> free - demand >= 0``.

        The check blocks only what the late check would also reject.  Take a
        model of ``assumptions(ctx)`` in which ``free - demand < 0``.  Along
        one E-term check that starts in ``ctx``:

        * free potential only decreases.  Every payment (application costs,
          parameter self-potentials, the element potential of ``Cons`` heads)
          is non-negative wherever the argument's refinement holds, and no
          ghost binding adds to the pool, because no result type carries
          self-potential (otherwise this check blocks nothing);
        * ghost bindings only add assumptions, and these are conservative
          extensions: the model extends to every ghost.  That holds when each
          component's result refinement is satisfiable whenever its argument
          refinements hold, which is an assumption about the library;
          byte-identical programs on every committed suite are its check.

        So when the late check reaches ``callee``'s cost payment, the extended
        model refutes it, whatever the arguments were.

        The check blocks nothing (returns ``True``) when the checker is not
        resource-aware, the demand is zero, the free pool mentions an unknown
        coefficient (that verdict belongs to CEGIS, and this check never goes
        through :meth:`_require`, so the store and the CEGIS state are left
        alone), a result type could release potential into the pool, or the
        query is undecided.
        """
        if not self.config.resource_aware:
            return True
        resolved = self._resolve_callee(ctx, callee)
        if resolved is None:
            return True
        arrow = resolved[0]
        demand = arrow.total_cost()
        for _, ptype in arrow.params():
            potential = ptype.potential if isinstance(ptype, RType) else None
            if isinstance(potential, t.IntConst) and potential.value > 0:
                demand += potential.value
        if demand == 0 or coefficients_in(ctx.free_potential) or self._components_release:
            return True
        if ctx.fix is not None and _releases_potential(ctx.fix.arrow, ()):
            return True
        remaining = simplify(t.Sub(ctx.free_potential, t.IntConst(demand)))
        try:
            with trace.span("check.afford"):
                return self.solver.check_valid(t.implies(ctx.assumptions(), remaining >= 0))
        except (SolverError, EncodingError):
            return True

    def _pay_elements(self, ctx: Context, arg: s.Expr, required: Term) -> Optional[Context]:
        """Pay a per-element potential requirement for a list argument."""
        if isinstance(arg, s.Nil):
            return ctx
        if isinstance(arg, s.Cons):
            head_interp = self.interp(ctx, arg.head) or t.Var("_anyhead", INT)
            head_required = simplify(t.substitute(required, {NU_NAME: head_interp}))
            paid = self._pay_free(ctx, head_required, origin=f"head of {arg}")
            if paid is None:
                return None
            return self._pay_elements(paid, arg.tail, required)
        if isinstance(arg, s.Var):
            binding = ctx.lookup(arg.name)
            if binding is None or not isinstance(binding.base, ListBase):
                return None
            available = binding.base.elem.potential
            elem_var = t.Var("_el", INT)
            guard = t.conj(
                ctx.assumptions(),
                t.SetMember(elem_var, t.elems(var_term(arg.name, binding))),
                t.substitute(binding.base.elem.refinement, {NU_NAME: elem_var}),
            )
            margin = simplify(
                t.Sub(
                    t.substitute(available, {NU_NAME: elem_var}),
                    t.substitute(required, {NU_NAME: elem_var}),
                )
            )
            if not self._require(guard, margin, origin=f"elements of {arg.name}"):
                return None
            new_binding = binding.with_elem_potential(simplify(t.Sub(available, required)))
            return ctx.update_binding(arg.name, new_binding)
        if isinstance(arg, s.App):
            resolved = self._resolve_callee(ctx, arg.func)
            if resolved is None:
                return None
            result = resolved[0].final_result()
            if not isinstance(result, RType) or not isinstance(result.base, ListBase):
                return None
            offered = result.base.elem.potential
            elem_var = t.Var("_el", INT)
            margin = simplify(
                t.Sub(
                    t.substitute(offered, {NU_NAME: elem_var}),
                    t.substitute(required, {NU_NAME: elem_var}),
                )
            )
            if not self._require(
                ctx.assumptions(), margin, origin=f"result elements of {arg.func}"
            ):
                return None
            return ctx
        return None

    def _require(self, guard: Term, expr: Term, origin: str, equality: bool = False) -> bool:
        """Record/discharge the resource constraint ``guard ==> expr >= 0``."""
        if not self.config.resource_aware:
            return True
        self.stats.resource_constraints += 1
        expr = simplify(expr)
        constraint = ResourceConstraint(simplify(guard), expr, equality=equality, origin=origin)
        if not constraint.has_unknowns():
            try:
                with trace.span("check.resource"):
                    ok = self.solver.check_valid(constraint.formula())
            except (SolverError, EncodingError):
                ok = False
            if not ok:
                self.stats.resource_rejections += 1
            return ok
        self.store.add(constraint)
        try:
            with trace.span("check.resource"):
                solution = self.cegis.solve(self.store.with_unknowns())
        except (SolverError, EncodingError):
            solution = None
        if solution is None:
            self.stats.resource_rejections += 1
            return False
        return True

    def _finalize_constant_resource(self, ctx: Context) -> bool:
        """At a program leaf, require that no potential is left over.

        This implements the constant-resource modification of Sec. 3: replacing
        the ``>=`` of subtyping with ``=`` amounts to forbidding any path from
        discarding potential, so executions on same-size inputs consume the
        same amount of resources.
        """
        assumptions = ctx.assumptions()
        if not self._require(
            assumptions, ctx.free_potential, "leftover free potential", equality=True
        ):
            return False
        for name, rtype in ctx.container_vars():
            if not isinstance(rtype.base, ListBase):
                continue
            leftover = rtype.base.elem.potential
            if _is_zero(simplify(leftover)):
                continue
            elem_var = t.Var("_el", INT)
            guard = t.conj(
                assumptions,
                t.SetMember(elem_var, t.elems(var_term(name, rtype))),
                t.substitute(rtype.base.elem.refinement, {NU_NAME: elem_var}),
            )
            if not self._require(
                guard,
                t.substitute(leftover, {NU_NAME: elem_var}),
                f"leftover elements of {name}",
                equality=True,
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Subtyping, entailment, consistency
    # ------------------------------------------------------------------
    def entails(self, ctx: Context, fact: Term) -> bool:
        """Whether the context assumptions entail ``fact`` (validity checking)."""
        try:
            return self.solver.check_valid(t.implies(ctx.assumptions(), fact))
        except (SolverError, EncodingError):
            return False

    def is_inconsistent(self, ctx: Context) -> bool:
        """Whether the context assumptions are unsatisfiable (dead branch)."""
        try:
            return self.solver.check_sat(ctx.assumptions()) is None
        except (SolverError, EncodingError):
            return False

    def check_result_subtype(self, ctx: Context, actual: RType, goal: RType) -> bool:
        """Subtyping of an inferred result type against the goal type."""
        if not base_compatible(actual.base, goal.base):
            self.stats.functional_rejections += 1
            return False
        value = t.Var("_res", goal.base.nu_sort())
        hypothesis = t.conj(ctx.assumptions(), t.substitute(actual.refinement, {NU_NAME: value}))
        conclusion = t.substitute(goal.refinement, {NU_NAME: value})
        self.stats.subtype_queries += 1
        try:
            with trace.span("check.subtype"):
                ok = self.solver.check_valid(t.implies(hypothesis, conclusion))
        except (SolverError, EncodingError):
            ok = False
        if not ok:
            self.stats.functional_rejections += 1
        return ok

    # ------------------------------------------------------------------
    # Branch context construction (used by the synthesizer's rules)
    # ------------------------------------------------------------------
    def prepare_guard(self, ctx: Context, guard: s.Expr) -> Optional[Tuple[Term, Context]]:
        """Type a Boolean guard and return its logical interpretation."""
        inferred = self.infer(ctx, guard)
        if inferred is None:
            return None
        rtype, new_ctx = inferred
        if not isinstance(rtype.base, BoolBase):
            return None
        interp = self.interp(new_ctx, guard)
        if interp is None:
            ghost, new_ctx = new_ctx.fresh_name("b")
            new_ctx = new_ctx.bind(ghost, rtype)
            interp = t.Var(ghost, BOOL)
        return interp, new_ctx

    def match_list_contexts(
        self, ctx: Context, scrutinee: str, head: str, tail: str
    ) -> Optional[Tuple[Context, Context]]:
        """Branch contexts for ``match scrutinee with Nil | Cons head tail``.

        The scrutinee's element potential is transferred to the binders (head
        potential goes into the free pool, the tail keeps per-element
        potential), and the scrutinee itself retains no potential afterwards —
        the eager instantiation of the sharing judgment (see DESIGN.md).
        """
        binding = ctx.lookup(scrutinee)
        if binding is None or not isinstance(binding.base, ListBase):
            return None
        scrutinee_term = var_term(scrutinee, binding)
        elem = binding.base.elem

        nil_ctx = ctx.with_path(
            t.len_(scrutinee_term).eq(0), t.Eq(t.elems(scrutinee_term), t.EmptySet())
        ).with_matched(scrutinee)

        stripped = binding.with_elem_potential(t.ZERO)
        cons_ctx = ctx.update_binding(scrutinee, stripped)
        head_type = RType(elem.base, elem.refinement, elem.potential)
        cons_ctx = cons_ctx.bind(head, head_type)
        tail_type = RType(ListBase(elem, binding.base.sorted), t.TRUE, t.ZERO)
        cons_ctx = cons_ctx.bind(tail, tail_type)
        head_term = var_term(head, head_type)
        tail_term = var_term(tail, tail_type)
        facts = [
            t.len_(scrutinee_term).eq(t.len_(tail_term) + 1),
            t.Eq(
                t.elems(scrutinee_term),
                t.SetUnion(t.SetSingleton(head_term), t.elems(tail_term)),
            ),
        ]
        if binding.base.sorted:
            elem_var = t.Var("_e", INT)
            facts.append(t.SetAll("_e", t.elems(tail_term), head_term < elem_var))
        cons_ctx = cons_ctx.with_path(*facts).with_matched(scrutinee)
        return nil_ctx, cons_ctx

    def match_tree_contexts(
        self, ctx: Context, scrutinee: str, left: str, value: str, right: str
    ) -> Optional[Tuple[Context, Context]]:
        """Branch contexts for matching a binary tree."""
        binding = ctx.lookup(scrutinee)
        if binding is None or not isinstance(binding.base, TreeBase):
            return None
        scrutinee_term = var_term(scrutinee, binding)
        size = t.App("size", (scrutinee_term,))
        telems = t.App("telems", (scrutinee_term,), t.SET)

        leaf_ctx = ctx.with_path(size.eq(0), t.Eq(telems, t.EmptySet())).with_matched(scrutinee)

        elem = binding.base.elem
        stripped = RType(TreeBase(replace(elem, potential=t.ZERO)), binding.refinement, t.ZERO)
        node_ctx = ctx.update_binding(scrutinee, stripped)
        value_type = RType(elem.base, elem.refinement, elem.potential)
        subtree_type = RType(TreeBase(elem))
        node_ctx = node_ctx.bind(left, subtree_type)
        node_ctx = node_ctx.bind(value, value_type)
        node_ctx = node_ctx.bind(right, subtree_type)
        left_term = var_term(left, subtree_type)
        right_term = var_term(right, subtree_type)
        value_term_ = var_term(value, value_type)
        facts = [
            size.eq(t.App("size", (left_term,)) + t.App("size", (right_term,)) + 1),
            t.Eq(
                telems,
                t.SetUnion(
                    t.SetSingleton(value_term_),
                    t.SetUnion(
                        t.App("telems", (left_term,), t.SET),
                        t.App("telems", (right_term,), t.SET),
                    ),
                ),
            ),
        ]
        node_ctx = node_ctx.with_path(*facts).with_matched(scrutinee)
        return leaf_ctx, node_ctx

    # ------------------------------------------------------------------
    # Termination (resource-agnostic baseline only)
    # ------------------------------------------------------------------
    def _check_termination(
        self, ctx: Context, params: Tuple[Tuple[str, Type], ...], subst: Dict[str, Term]
    ) -> bool:
        """Synquid's termination metric: the tuple of argument sizes decreases."""
        assert ctx.fix is not None
        measures: List[Tuple[Term, Term]] = []
        for pname, ptype in params:
            if pname not in subst or not isinstance(ptype, RType):
                continue
            param_binding = ctx.lookup(pname)
            if param_binding is None:
                continue
            param_term = var_term(pname, param_binding)
            arg_term = subst[pname]
            if isinstance(ptype.base, ListBase):
                measures.append((t.len_(arg_term), t.len_(param_term)))
            elif isinstance(ptype.base, TreeBase):
                measures.append((t.App("size", (arg_term,)), t.App("size", (param_term,))))
            elif isinstance(ptype.base, IntBase):
                measures.append((arg_term, param_term))
        if not measures:
            return False
        disjuncts: List[Term] = []
        for index, (arg_m, param_m) in enumerate(measures):
            earlier_eq = [t.Le(a, p) for a, p in measures[:index]]
            disjuncts.append(t.conj(*earlier_eq, arg_m < param_m, arg_m >= 0))
        return self.entails(ctx, t.disj(*disjuncts))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _is_zero(term: Term) -> bool:
    return isinstance(term, t.IntConst) and term.value == 0


def _releases_potential(body: Type, tvars: Tuple[str, ...]) -> bool:
    """Whether binding a ghost for this callee's result could add free potential.

    It could when the result type carries self-potential, or when it is a
    quantified type variable, whose instantiation carries a fresh unknown
    potential (see :meth:`TypeChecker._instantiate_tvars`).
    """
    if not isinstance(body, ArrowType):
        return False
    result = body.final_result()
    if not _is_zero(simplify(result.potential)):
        return True
    return isinstance(result.base, TypeVarBase) and result.base.name in tvars


def _tvar_base(arg_type: Optional[RType], at_elem: bool) -> BaseType:
    """The base a type variable takes from an argument (see ``_instantiate_tvars``)."""
    base: BaseType = IntBase()
    if arg_type is not None:
        if at_elem and isinstance(arg_type.base, (ListBase, TreeBase)):
            base = arg_type.base.elem.base
        elif not at_elem:
            base = arg_type.base
    if isinstance(base, (ListBase, TreeBase)):
        return IntBase()
    return base


def _tvar_occurrences(ptype: Type) -> List[Tuple[str, bool]]:
    """Type variables occurring in a parameter type; the flag marks element position."""
    result: List[Tuple[str, bool]] = []
    if isinstance(ptype, RType):
        if isinstance(ptype.base, TypeVarBase):
            result.append((ptype.base.name, False))
        elif isinstance(ptype.base, (ListBase, TreeBase)):
            inner = ptype.base.elem
            if isinstance(inner.base, TypeVarBase):
                result.append((inner.base.name, True))
    return result


def _rename_expr(expr: s.Expr, renaming: Dict[str, str]) -> s.Expr:
    """Rename free variables of an expression (used to align parameter names)."""
    if isinstance(expr, s.Var):
        return s.Var(renaming.get(expr.name, expr.name))
    if isinstance(expr, s.App):
        return s.App(
            renaming.get(expr.func, expr.func), tuple(_rename_expr(a, renaming) for a in expr.args)
        )
    if isinstance(expr, s.Cons):
        return s.Cons(_rename_expr(expr.head, renaming), _rename_expr(expr.tail, renaming))
    if isinstance(expr, s.Node):
        return s.Node(
            _rename_expr(expr.left, renaming),
            _rename_expr(expr.value, renaming),
            _rename_expr(expr.right, renaming),
        )
    if isinstance(expr, s.If):
        return s.If(
            _rename_expr(expr.cond, renaming),
            _rename_expr(expr.then_branch, renaming),
            _rename_expr(expr.else_branch, renaming),
        )
    if isinstance(expr, s.MatchList):
        inner = {k: v for k, v in renaming.items() if k not in (expr.head_name, expr.tail_name)}
        return s.MatchList(
            _rename_expr(expr.scrutinee, renaming),
            _rename_expr(expr.nil_branch, renaming),
            expr.head_name,
            expr.tail_name,
            _rename_expr(expr.cons_branch, inner),
        )
    if isinstance(expr, s.MatchTree):
        inner = {
            k: v
            for k, v in renaming.items()
            if k not in (expr.left_name, expr.value_name, expr.right_name)
        }
        return s.MatchTree(
            _rename_expr(expr.scrutinee, renaming),
            _rename_expr(expr.leaf_branch, renaming),
            expr.left_name,
            expr.value_name,
            expr.right_name,
            _rename_expr(expr.node_branch, inner),
        )
    if isinstance(expr, s.Let):
        inner = {k: v for k, v in renaming.items() if k != expr.name}
        return s.Let(expr.name, _rename_expr(expr.rhs, renaming), _rename_expr(expr.body, inner))
    if isinstance(expr, s.Tick):
        return s.Tick(expr.cost, _rename_expr(expr.expr, renaming))
    return expr
