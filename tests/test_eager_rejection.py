"""Eager rejection: the head check and the prefix rule.

``TypeChecker.can_afford`` lets the synthesizer skip every candidate that
applies a callee the hole's context cannot pay for, before any argument
combination is type-checked.  The prefix rule skips every candidate of a
hole that applies a callee to an argument prefix whose check already failed
in that hole (``TypeChecker.rejected_prefix``).  These tests hold both to
their contract:

* they are exact: with both patched to block nothing, every rung of the
  ladders they prune hardest yields the same program and the same
  ``candidates_checked`` (skipped candidates still count, so the
  ``max_candidates`` cap caps the same search);
* they are what make the failing O(1) rungs of ``asym_compare`` and
  ``asym_triple`` cheap;
* it never touches the constraint store, CEGIS or ``resource_constraints``;
* it blocks nothing wherever its exactness argument does not hold.
"""

from dataclasses import replace

import pytest

from repro.benchsuite.definitions import benchmark_by_key as table_benchmark
from repro.constraints.store import fresh_coefficient_var
from repro.core import SynthesisConfig, Synthesizer
from repro.core.components import Component, library
from repro.core.goals import SynthesisGoal
from repro.lang import syntax as s
from repro.logic import terms as t
from repro.portfolio import compile_ladder
from repro.portfolio.suite import benchmark_by_key
from repro.smt.solver import SolverError
from repro.typing.checker import CheckerConfig, TypeChecker
from repro.typing.types import NU_NAME, TypeSchema, arrow, int_type, list_type, monotype, tvar_type

ORACLE_KEYS = ("asym_compare", "asym_append", "asym_triple", "asym_subset")


def _rungs(key):
    bench = benchmark_by_key(key)
    config = replace(SynthesisConfig.resyn(), **bench.config_overrides)
    return [(f"{key}/{rung.label}", rung.goal, config) for rung in compile_ladder(bench.goal)]


def _oracle_jobs():
    jobs = [job for key in ORACLE_KEYS for job in _rungs(key)]
    ct = table_benchmark("ct_compare")
    ct_config = SynthesisConfig.constant_resource(**ct.config_overrides)
    jobs.append(("ct_compare/constant_resource", ct.goal, ct_config))
    return [pytest.param(goal, config, id=tag) for tag, goal, config in jobs]


def _run(goal, config):
    return Synthesizer(goal, config).synthesize()


def _block_nothing(patch):
    """Patch the head check and the prefix rule to block nothing: the search without them."""
    patch.setattr(TypeChecker, "can_afford", lambda self, ctx, callee: True)
    patch.setattr(Synthesizer, "_remember_failed_prefix", lambda self, candidate, failed: None)


class TestExactness:
    @pytest.mark.parametrize("goal,config", _oracle_jobs())
    def test_same_program_as_late_check(self, goal, config, monkeypatch):
        checked = _run(goal, config)
        _block_nothing(monkeypatch)
        late = _run(goal, config)
        assert str(checked.program) == str(late.program)
        assert checked.candidates_checked == late.candidates_checked
        assert late.stats["eager_rejections"] == 0
        assert (
            checked.stats["eterm_checks"] + checked.stats["eager_rejections"]
            == late.stats["eterm_checks"]
        )


class TestCounters:
    def _compare_o1(self):
        ((_, goal, config),) = [job for job in _rungs("asym_compare") if "O(1)" in job[0]]
        return goal, config

    def test_failing_compare_rung_checks_few_eterms(self):
        result = _run(*self._compare_o1())
        assert result.program is None
        assert result.stats["eterm_checks"] <= 40  # 761 without the head check
        # The head check skips almost every candidate: 733 of 761.
        assert result.stats["eager_rejections"] >= 0.95 * result.candidates_checked
        assert result.candidates_checked == (
            result.stats["eterm_checks"] + result.stats["eager_rejections"]
        )

    def test_failing_triple_rung_skips_failed_prefixes(self, monkeypatch):
        ((_, goal, config),) = [job for job in _rungs("asym_triple") if "O(1)" in job[0]]
        result = _run(goal, config)
        _block_nothing(monkeypatch)
        late = _run(goal, config)
        assert result.program is None
        assert result.stats["eterm_checks"] < late.stats["eterm_checks"]  # 32 vs 74 now
        # 9 in a fresh process; 58 there without the prefix rule.  Counts
        # depend on LIA models, hence on the process's earlier queries.
        assert result.cegis_counterexamples < 108

    def test_max_candidates_cap_unchanged(self, monkeypatch):
        goal, config = self._compare_o1()
        capped = replace(config, max_candidates=200)
        checked = _run(goal, capped)
        _block_nothing(monkeypatch)
        late = _run(goal, capped)
        assert checked.candidates_checked == late.candidates_checked

    def test_not_resource_aware_blocks_nothing(self):
        bench = benchmark_by_key("asym_compare")
        goal, _ = self._compare_o1()
        for config in (
            SynthesisConfig.synquid(**bench.config_overrides),
            SynthesisConfig.enumerate_and_check_config(**bench.config_overrides),
        ):
            assert _run(goal, config).stats["eager_rejections"] == 0


# ---------------------------------------------------------------------------
# Direct calls on hand-built contexts
# ---------------------------------------------------------------------------


def _costly(name="costly", result=None):
    """A one-argument component of cost 1."""
    body = arrow(("x", int_type()), result or int_type(), cost=1)
    return Component(name, monotype(body), lambda x: x)


def _checker(*components, **config):
    base = dict(resource_aware=True, check_termination=False)
    base.update(config)
    schemas = {c.name: c.schema for c in components}
    return TypeChecker(schemas, CheckerConfig(**base))


def _ctx(checker, free=0):
    goal = TypeSchema(("a",), arrow(("xs", list_type(tvar_type("a"))), int_type()))
    ctx, _ = checker.initial_context("f", goal)
    return ctx.add_free(t.IntConst(free)) if free else ctx


class TestHeadCheck:
    def test_rejects_unaffordable_callee(self):
        checker = _checker(_costly())
        ctx = _ctx(checker)
        assert not checker.can_afford(ctx, "costly")
        assert checker.can_afford(_ctx(checker, free=1), "costly")

    def test_agrees_with_late_check(self):
        checker = _checker(_costly())
        ctx = _ctx(checker)
        goal = int_type()
        assert checker.check_eterm(ctx, s.App("costly", (s.IntLit(0),)), goal) is None
        rich = _ctx(checker, free=1)
        assert checker.check_eterm(rich, s.App("costly", (s.IntLit(0),)), goal) is not None

    def test_counts_constant_parameter_potential(self):
        body = arrow(("x", int_type(potential=t.IntConst(2))), int_type(), cost=1)
        checker = _checker(Component("pricey", monotype(body), lambda x: x))
        assert not checker.can_afford(_ctx(checker, free=2), "pricey")
        assert checker.can_afford(_ctx(checker, free=3), "pricey")

    def test_zero_demand_needs_no_query(self):
        checker = _checker(*library("inc"))
        before = checker.solver.counters_snapshot()
        assert checker.can_afford(_ctx(checker), "inc")
        assert checker.solver.counters_snapshot() == before

    def test_no_cegis_side_effects_during_search(self, monkeypatch):
        """Every head check of a search with live CEGIS state leaves that state alone."""
        original = TypeChecker.can_afford
        calls = []

        def observed(self, ctx, callee):
            before = (len(self.store), self.cegis.cache_report(), replace(self.stats))
            verdict = original(self, ctx, callee)
            after = (len(self.store), self.cegis.cache_report(), replace(self.stats))
            calls.append((verdict, before == after, len(self.store)))
            return verdict

        monkeypatch.setattr(TypeChecker, "can_afford", observed)
        ((_, goal, config),) = [job for job in _rungs("asym_subset") if "O(n^2)[c=1]" in job[0]]
        result = _run(goal, config)
        assert result.program is not None
        assert result.stats["resource_constraints"] > 0
        assert all(unchanged for _, unchanged, _ in calls)
        assert any(not verdict for verdict, _, _ in calls)
        assert any(store_len > 0 for _, _, store_len in calls)


class TestBlocksNothing:
    def test_unknown_coefficient_in_free_potential(self):
        checker = _checker(_costly())
        ctx = _ctx(checker).add_free(fresh_coefficient_var())
        before = checker.solver.counters_snapshot()
        assert checker.can_afford(ctx, "costly")
        assert checker.solver.counters_snapshot() == before
        assert len(checker.store) == 0

    def test_component_result_releases_potential(self):
        nu = t.Var(NU_NAME, t.INT)
        releasing = _costly("release", result=int_type(nu >= 0, potential=t.IntConst(1)))
        plain = _checker(_costly())
        assert not plain.can_afford(_ctx(plain), "costly")
        checker = _checker(_costly(), releasing)
        assert checker.can_afford(_ctx(checker), "costly")

    def test_type_variable_result_releases_potential(self):
        body = arrow(("x", tvar_type("a")), tvar_type("a"), cost=1)
        poly = Component("poly", TypeSchema(("a",), body), lambda x: x)
        checker = _checker(_costly(), poly)
        assert checker.can_afford(_ctx(checker), "costly")

    def test_goal_result_releases_potential(self):
        checker = _checker(_costly())
        goal = TypeSchema((), arrow(("n", int_type()), int_type(potential=t.IntConst(1)), cost=1))
        ctx, _ = checker.initial_context("f", goal)
        assert checker.can_afford(ctx, "f")
        assert checker.can_afford(ctx, "costly")

    def test_undecided_query(self, monkeypatch):
        checker = _checker(_costly())

        def undecided(formula):
            raise SolverError("undecided")

        monkeypatch.setattr(checker.solver, "check_valid", undecided)
        assert checker.can_afford(_ctx(checker), "costly")

    def test_not_resource_aware(self):
        checker = _checker(_costly(), resource_aware=False)
        assert checker.can_afford(_ctx(checker), "costly")

    def test_synthesizer_skips_nothing_when_components_release(self):
        nu = t.Var(NU_NAME, t.INT)
        releasing = _costly("release", result=int_type(nu >= 0, potential=t.IntConst(1)))
        goal = SynthesisGoal.create(
            "f", TypeSchema((), arrow(("n", int_type()), int_type())), [_costly(), releasing]
        )
        config = SynthesisConfig.resyn(max_match_depth=0, max_cond_depth=0)
        result = _run(goal, config)
        assert result.stats["eager_rejections"] == 0
