"""Tests for the Re2 type system: types, contexts, checker judgments."""

import pytest

from repro.core.components import library, schemas_of
from repro.lang import syntax as s
from repro.logic import terms as t
from repro.typing.checker import CheckerConfig, TypeChecker
from repro.typing.context import Context
from repro.typing.types import (
    ANY_SCALAR,
    ArrowType,
    BoolBase,
    IntBase,
    ListBase,
    NU_NAME,
    RType,
    TypeSchema,
    TypeVarBase,
    arrow,
    base_compatible,
    bool_type,
    instantiate_schema,
    int_type,
    list_type,
    nat_type,
    slist_type,
    substitute_in_type,
    tvar_type,
)


NU_INT = t.Var(NU_NAME, t.INT)
NU_DATA = t.Var(NU_NAME, t.DATA)
NU_BOOL = t.Var(NU_NAME, t.BOOL)


def make_checker(components=(), **config):
    schemas = schemas_of(library(*components))
    return TypeChecker(schemas, CheckerConfig(check_termination=False, **config))


class TestTypes:
    def test_arrow_params_and_result(self):
        a = arrow(("x", int_type()), ("y", int_type()), bool_type(), cost=1)
        assert [p for p, _ in a.params()] == ["x", "y"]
        assert isinstance(a.final_result().base, BoolBase)
        assert a.total_cost() == 1

    def test_nu_sorts(self):
        assert int_type().nu().sort == t.INT
        assert bool_type().nu().sort == t.BOOL
        assert list_type(int_type()).nu().sort == t.DATA

    def test_with_elem_potential(self):
        lt = list_type(tvar_type("a"))
        upgraded = lt.with_elem_potential(t.IntConst(2))
        assert upgraded.base.elem.potential == t.IntConst(2)
        with pytest.raises(TypeError):
            int_type().with_elem_potential(t.ONE)

    def test_base_compatibility(self):
        # A goal's type variable is rigid: it matches only itself.
        assert base_compatible(TypeVarBase("a"), TypeVarBase("a"))
        assert not base_compatible(IntBase(), TypeVarBase("a"))
        assert not base_compatible(TypeVarBase("a"), IntBase())
        assert not base_compatible(TypeVarBase("a"), TypeVarBase("b"))
        assert not base_compatible(BoolBase(), TypeVarBase("a"))
        assert base_compatible(ListBase(tvar_type("a"), sorted=True).elem.base, TypeVarBase("a"))
        assert not base_compatible(ListBase(int_type()), ListBase(tvar_type("a")))
        # The flexible wildcard matches every ordered scalar, both ways.
        for scalar in (IntBase(), TypeVarBase("a"), ANY_SCALAR):
            assert base_compatible(ANY_SCALAR, scalar)
            assert base_compatible(scalar, ANY_SCALAR)
        assert not base_compatible(BoolBase(), ANY_SCALAR)
        assert not base_compatible(ListBase(tvar_type("a")), ANY_SCALAR)
        assert base_compatible(ListBase(RType(ANY_SCALAR)), ListBase(tvar_type("a")))
        # sorted list usable as unsorted, not vice versa
        sorted_list = ListBase(tvar_type("a"), sorted=True)
        unsorted_list = ListBase(tvar_type("a"), sorted=False)
        assert base_compatible(sorted_list, unsorted_list)
        assert not base_compatible(unsorted_list, sorted_list)

    def test_substitute_in_type(self):
        x = t.int_var("x")
        rtype = int_type(NU_INT >= x, potential=x + 1)
        result = substitute_in_type(rtype, {"x": t.IntConst(3)})
        assert result.refinement == (NU_INT >= t.IntConst(3))
        assert result.potential == (t.IntConst(3) + 1)

    def test_substitution_does_not_capture_nu(self):
        rtype = int_type(NU_INT >= 0)
        assert substitute_in_type(rtype, {NU_NAME: t.IntConst(1)}) == rtype

    def test_instantiate_schema_adds_potential(self):
        schema = TypeSchema(
            ("a",),
            arrow(("xs", list_type(tvar_type("a", potential=t.ONE))), list_type(tvar_type("a"))),
        )
        instantiated = instantiate_schema(schema, {"a": RType(IntBase(), t.TRUE, t.IntConst(2))})
        assert isinstance(instantiated, ArrowType)
        param = instantiated.params()[0][1]
        # 1 (from the schema) + 2 (from the instantiation) units per element.
        assert t.free_vars(param.base.elem.potential) == frozenset()
        from repro.logic.simplify import simplify
        assert simplify(param.base.elem.potential) == t.IntConst(3)


class TestContext:
    def test_bind_releases_scalar_potential(self):
        ctx = Context().bind("n", nat_type(potential=NU_INT))
        assert t.free_vars(ctx.free_potential) == {"n"}
        assert ctx.lookup("n").potential == t.ZERO

    def test_bind_keeps_element_potential(self):
        ctx = Context().bind("xs", list_type(tvar_type("a", potential=t.ONE)))
        assert ctx.lookup("xs").base.elem.potential == t.ONE
        assert ctx.free_potential == t.ZERO

    def test_assumptions_include_refinements_and_lengths(self):
        ctx = Context().bind("x", int_type(NU_INT >= 0)).bind("xs", list_type(tvar_type("a")))
        assumptions = ctx.assumptions()
        text = str(assumptions)
        assert "x >= 0" in text.replace("(", "").replace(")", "")
        assert "len(xs)" in text

    def test_assumptions_include_elementwise_facts(self):
        x = t.int_var("x")
        elem = tvar_type("a", refinement=x < NU_INT)
        ctx = Context().bind("xs", list_type(elem))
        assert any(isinstance(sub, t.SetAll) for sub in ctx.assumptions().walk())

    def test_path_conditions(self):
        ctx = Context().with_path(t.int_var("x") > 0)
        assert (t.int_var("x") > 0) in ctx.path

    def test_update_binding(self):
        ctx = Context().bind("xs", list_type(tvar_type("a", potential=t.ONE)))
        updated = ctx.update_binding("xs", ctx.lookup("xs").with_elem_potential(t.ZERO))
        assert updated.lookup("xs").base.elem.potential == t.ZERO
        # the original context is unchanged (immutability)
        assert ctx.lookup("xs").base.elem.potential == t.ONE

    def test_fresh_names_are_distinct(self):
        ctx = Context()
        a, ctx = ctx.fresh_name("g")
        b, ctx = ctx.fresh_name("g")
        assert a != b

    def test_int_scope_terms(self):
        ctx = Context().bind("x", int_type()).bind("xs", list_type(tvar_type("a")))
        terms = ctx.int_scope_terms()
        assert t.int_var("x") in terms
        assert t.len_(t.data_var("xs")) in terms


class TestCheckerJudgments:
    def test_entails_and_inconsistency(self):
        checker = make_checker()
        ctx = Context().bind("x", int_type(NU_INT >= 3))
        assert checker.entails(ctx, t.int_var("x") >= 0)
        assert not checker.entails(ctx, t.int_var("x") >= 5)
        contradictory = ctx.with_path(t.int_var("x") < 0)
        assert checker.is_inconsistent(contradictory)

    def test_infer_literals(self):
        checker = make_checker()
        ctx = Context()
        rtype, _ = checker.infer(ctx, s.IntLit(4))
        assert checker.check_result_subtype(ctx, rtype, int_type(NU_INT.eq(4)))
        assert not checker.check_result_subtype(ctx, rtype, int_type(NU_INT.eq(5)))

    def test_infer_var_has_exact_refinement(self):
        checker = make_checker()
        ctx = Context().bind("x", int_type(NU_INT >= 0))
        rtype, _ = checker.infer(ctx, s.Var("x"))
        assert checker.check_result_subtype(ctx, rtype, int_type(NU_INT.eq(t.int_var("x"))))

    def test_infer_nil_and_cons(self):
        checker = make_checker()
        ctx = Context().bind("xs", list_type(tvar_type("a"))).bind("x", tvar_type("a"))
        nil_type, _ = checker.infer(ctx, s.Nil())
        assert checker.check_result_subtype(
            ctx, nil_type, list_type(tvar_type("a"), t.len_(NU_DATA).eq(0))
        )
        cons_type, _ = checker.infer(ctx, s.Cons(s.Var("x"), s.Var("xs")))
        goal = list_type(tvar_type("a"), t.len_(NU_DATA).eq(t.len_(t.data_var("xs")) + 1))
        assert checker.check_result_subtype(ctx, cons_type, goal)

    def test_rigid_type_variables_in_terms(self):
        checker = make_checker(["append", "eq"], resource_aware=False)
        ctx = (
            Context()
            .bind("x", tvar_type("a"))
            .bind("xs", list_type(tvar_type("a")))
            .bind("zs", list_type(int_type()))
        )

        def base_of(expr):
            inferred = checker.infer(ctx, expr)
            return None if inferred is None else inferred[0].base

        # Nil's element is flexible; a Cons onto Nil takes its head's type.
        assert base_of(s.Cons(s.IntLit(0), s.Nil())) == ListBase(int_type(), sorted=True)
        assert base_of(s.Cons(s.IntLit(0), s.Var("xs"))) is None
        # A component's own variable is instantiated per call, the goal's is not.
        assert base_of(s.App("eq", (s.Var("x"), s.Var("x")))) == BoolBase()
        assert base_of(s.App("eq", (s.Var("x"), s.IntLit(0)))) is None
        inner = s.App("append", (s.Var("xs"), s.Var("xs")))
        assert base_of(s.App("append", (inner, s.Var("xs")))) == ListBase(tvar_type("a"))
        assert base_of(s.App("append", (inner, s.Var("zs")))) is None

    def test_cons_sortedness_detection(self):
        checker = make_checker()
        ctx = Context().bind("x", tvar_type("a")).bind("ys", slist_type(tvar_type("a")))
        nil_cons, _ = checker.infer(ctx, s.Cons(s.Var("x"), s.Nil()))
        assert nil_cons.base.sorted
        # Without knowing x < elements of ys, Cons x ys is not sorted.
        unsorted_cons, _ = checker.infer(ctx, s.Cons(s.Var("x"), s.Var("ys")))
        assert not unsorted_cons.base.sorted

    def test_match_list_contexts_transfer_potential(self):
        checker = make_checker()
        ctx = Context().bind("xs", list_type(tvar_type("a", potential=t.ONE)))
        nil_ctx, cons_ctx = checker.match_list_contexts(ctx, "xs", "h", "tl")
        # Nil branch learns that the list is empty.
        assert checker.entails(nil_ctx, t.len_(t.data_var("xs")).eq(0))
        # Cons branch: head potential went to the free pool, scrutinee is spent.
        assert (
            t.free_vars(cons_ctx.free_potential) != frozenset() or cons_ctx.free_potential == t.ONE
        )
        assert cons_ctx.lookup("xs").base.elem.potential == t.ZERO
        assert cons_ctx.lookup("tl").base.elem.potential == t.ONE
        assert checker.entails(cons_ctx, t.len_(t.data_var("xs")).eq(t.len_(t.data_var("tl")) + 1))

    def test_sorted_match_adds_lower_bound_fact(self):
        checker = make_checker()
        ctx = Context().bind("xs", slist_type(tvar_type("a")))
        _, cons_ctx = checker.match_list_contexts(ctx, "xs", "h", "tl")
        # every element of the tail is greater than the head
        e = t.int_var("e")
        assert checker.entails(
            cons_ctx,
            t.SetAll("e", t.elems(t.data_var("tl")), t.int_var("h") < e),
        )

    def test_prepare_guard_ties_ghost_to_meaning(self):
        checker = make_checker(("lt",))
        ctx = Context().bind("x", int_type()).bind("y", int_type())
        guard_term, guarded = checker.prepare_guard(ctx, s.App("lt", (s.Var("x"), s.Var("y"))))
        then_ctx = guarded.with_path(guard_term)
        assert checker.entails(then_ctx, t.int_var("x") < t.int_var("y"))
        else_ctx = guarded.with_path(t.neg(guard_term))
        assert checker.entails(else_ctx, t.int_var("x") >= t.int_var("y"))


class TestResourceChecking:
    def goal_member(self):
        x = t.int_var("x")
        xs = t.data_var("l")
        return TypeSchema(
            ("a",),
            arrow(
                ("x", tvar_type("a")),
                ("l", list_type(tvar_type("a", potential=t.ONE))),
                bool_type(t.Iff(NU_BOOL, t.SetMember(x, t.elems(xs)))),
                cost=1,
            ),
        )

    def member_program(self):
        return s.Fix(
            "member",
            ("x", "l"),
            s.MatchList(
                s.Var("l"),
                s.BoolLit(False),
                "h",
                "tl",
                s.If(
                    s.App("eq", (s.Var("x"), s.Var("h"))),
                    s.BoolLit(True),
                    s.App("member", (s.Var("x"), s.Var("tl"))),
                ),
            ),
        )

    def test_member_checks_with_linear_potential(self):
        checker = make_checker(("eq",))
        assert checker.check_program(self.member_program(), self.goal_member())

    def test_member_rejected_without_potential(self):
        """Dropping the per-element potential makes the recursive call unpayable."""
        schema = self.goal_member()
        body = schema.body
        params = body.params()
        stripped = arrow(
            (params[0][0], params[0][1]),
            (params[1][0], params[1][1].with_elem_potential(t.ZERO)),
            body.final_result(),
            cost=1,
        )
        checker = make_checker(("eq",))
        assert not checker.check_program(self.member_program(), TypeSchema(("a",), stripped))

    def test_functionally_wrong_program_rejected(self):
        checker = make_checker(("eq",))
        wrong = s.Fix("member", ("x", "l"), s.BoolLit(True))
        assert not checker.check_program(wrong, self.goal_member())

    def test_resource_agnostic_mode_ignores_potential(self):
        schema = self.goal_member()
        body = schema.body
        params = body.params()
        stripped = arrow(
            (params[0][0], params[0][1]),
            (params[1][0], params[1][1].with_elem_potential(t.ZERO)),
            body.final_result(),
            cost=1,
        )
        checker = make_checker(("eq",), resource_aware=False)
        assert checker.check_program(self.member_program(), TypeSchema(("a",), stripped))

    def test_termination_check_rejects_nondecreasing_call(self):
        goal = TypeSchema(
            ("a",),
            arrow(("x", tvar_type("a")), ("l", list_type(tvar_type("a"))), bool_type(), cost=1),
        )
        looping = s.Fix("f", ("x", "l"), s.App("f", (s.Var("x"), s.Var("l"))))
        checker = TypeChecker(
            schemas_of(library()), CheckerConfig(resource_aware=False, check_termination=True)
        )
        assert not checker.check_program(looping, goal)
        structural = s.Fix(
            "f",
            ("x", "l"),
            s.MatchList(
                s.Var("l"), s.BoolLit(True), "h", "tl", s.App("f", (s.Var("x"), s.Var("tl")))
            ),
        )
        assert checker.check_program(structural, goal)
