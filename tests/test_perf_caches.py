"""Tests for the hash-consed term layer and the incremental SMT pipeline.

Covers the invariants the caching subsystem relies on:

* interning: structural equality implies object identity, hashes are stable
  and cached, operator-overload construction routes through the tables, and
  every argument spelling maps to one node; a table hit builds no node, and
  a bad spelling raises ``TypeError`` without touching the table;
* substitution: memoization does not break capture avoidance under the
  ``SetAll`` binder, and no-op substitutions return the original object;
* the solver's bounded LRU validity cache and its hit/miss counters;
* end-to-end transparency of the process-wide tables (intern tables,
  preprocessing memos, LIA results): a fresh interpreter synthesizes the
  *identical* fast Table 1 programs as the already-warm test process.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.logic import terms as t
from repro.logic.simplify import simplify
from repro.smt import lia
from repro.smt import solver as solver_module
from repro.smt.solver import Solver

x = t.int_var("x")
y = t.int_var("y")
xs = t.data_var("xs")


class TestInterning:
    def test_equality_implies_identity(self):
        a = (x + y) * 2
        b = (x + y) * 2
        assert a == b
        assert a is b

    def test_identity_across_construction_paths(self):
        direct = t.Add(x, t.IntConst(3))
        overloaded = x + 3
        assert direct is overloaded

    def test_distinct_terms_stay_distinct(self):
        assert (x + y) is not (y + x)
        assert t.Var("x", t.INT) is not t.Var("x", t.BOOL)

    def test_hash_stability_and_caching(self):
        term = t.conj(x < y, t.SetMember(x, t.elems(xs)))
        first = hash(term)
        assert hash(term) == first
        assert term.__dict__.get("_hash") == first
        # A structurally equal term is the same object, hence the same hash.
        again = t.conj(x < y, t.SetMember(x, t.elems(xs)))
        assert again is term

    def test_nested_sharing(self):
        shared = x + y
        left = shared < 3
        right = (x + y) < 3
        assert left is right
        assert left.left is shared

    def test_free_vars_cached_on_node(self):
        term = t.conj(x < y, t.SetMember(x, t.elems(xs)))
        assert t.free_vars(term) == {"x", "y", "xs"}
        assert term.__dict__.get("_free_vars") == frozenset({"x", "y", "xs"})

    def test_node_size(self):
        assert t.node_size(x) == 1
        assert t.node_size(x + y) == 3
        # Cached on the node after the first call.
        term = (x + y) * 2
        assert t.node_size(term) == 5
        assert term.__dict__.get("_node_size") == 5

    def test_simplify_memoized_and_idempotent(self):
        term = (x + 0) + (t.IntConst(2) + t.IntConst(3))
        once = simplify(term)
        assert simplify(term) is once
        assert simplify(once) is once

    def test_every_argument_spelling_returns_one_node(self):
        assert t.Var("x") is t.Var("x", t.INT) is t.Var(name="x") is t.Var("x", sort=t.INT)
        assert t.Var("x") is x
        args = (x, xs)
        app = t.App("f", args)
        assert app is t.App("f", args, t.INT) is t.App("f", args, sort=t.INT)
        assert app is t.App(func="f", args=args)
        assert t.App("f", args, t.SET) is not app
        ite = t.Ite(x < y, x, y)
        assert ite is t.Ite(x < y, x, y, t.INT) is t.Ite(x < y, x, y, sort=t.INT)
        assert ite is t.Ite(cond=x < y, then_branch=x, else_branch=y)
        assert t.EmptySet() is t.EmptySet()

    def test_a_hit_constructs_nothing(self, monkeypatch):
        formula = t.And((x < y, t.Not(x.eq(y))))
        calls = []
        original = t.And.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(t.And, "__init__", counting_init)
        assert t._rebuild(formula, formula.children()) is formula
        assert calls == []
        # The counter does see construction: a new formula is built once.
        probe = t.int_var("and_init_probe")
        fresh = t._rebuild(formula, (probe < x, x.eq(probe)))
        assert len(calls) == 1
        assert t._rebuild(fresh, fresh.children()) is fresh
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "cls, spell",
        [
            (t.Var, lambda: t.Var("x", colour=1)),
            (t.Var, lambda: t.Var()),
            (t.Var, lambda: t.Var("x", t.INT, name="x")),
            (t.And, lambda: t.And([x < y, y < x])),
        ],
        ids=["unknown-keyword", "missing-argument", "duplicate-argument", "list-args"],
    )
    def test_bad_spellings_raise_and_intern_nothing(self, cls, spell):
        before = len(cls._intern_table)
        with pytest.raises(TypeError):
            spell()
        assert len(cls._intern_table) == before


class TestSubstitutionCaching:
    def test_noop_substitution_returns_same_object(self):
        term = t.conj(x < y, x.eq(0))
        assert t.substitute(term, {}) is term
        assert t.substitute(term, {"z": t.IntConst(1)}) is term

    def test_memoized_substitution_is_consistent(self):
        term = (x + y) < (x * 2)
        mapping = {"x": t.IntConst(5)}
        first = t.substitute(term, mapping)
        second = t.substitute(term, mapping)
        assert first is second
        assert first == ((t.IntConst(5) + y) < (t.IntConst(5) * 2))

    def test_setall_binder_shadows_mapping(self):
        e = t.int_var("e")
        body = e > x
        term = t.SetAll("e", t.elems(xs), body)
        result = t.substitute(term, {"e": t.IntConst(9), "x": t.IntConst(1)})
        assert isinstance(result, t.SetAll)
        # The bound occurrence of e is untouched; x is replaced in the body.
        assert result.body == (e > t.IntConst(1))
        assert t.free_vars(result.body) == {"e"}

    def test_setall_set_term_is_substituted(self):
        e = t.int_var("e")
        term = t.SetAll("e", t.elems(t.data_var("ys")), e > x)
        result = t.substitute(term, {"ys": t.data_var("zs")})
        assert result.set_term == t.elems(t.data_var("zs"))

    def test_substitution_of_untouched_subtree_preserves_identity(self):
        untouched = y + 1
        term = t.conj(x.eq(0), untouched > 0)
        result = t.substitute(term, {"x": t.IntConst(7)})
        # The y-subtree mentions no substituted variable: reused as-is.
        assert result.args[1] is (untouched > 0)


class TestValidCacheLRU:
    def test_hit_and_miss_counters(self):
        solver = Solver()
        formula = t.implies(x >= 0, x + 1 >= 1)
        assert solver.check_valid(formula)
        assert solver.stats.valid_cache_misses == 1
        assert solver.check_valid(formula)
        assert solver.stats.valid_cache_hits == 1
        assert solver.stats.valid_cache_hit_rate() == pytest.approx(0.5)

    def test_lru_bound_is_enforced(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_VALID_CACHE_MAX", 4)
        solver = Solver()
        formulas = [t.implies(x >= i, x >= i - 1) for i in range(10)]
        for formula in formulas:
            solver.check_valid(formula)
        assert len(solver._valid_cache) <= 4
        # The oldest entries were evicted; re-checking is a miss again.
        misses = solver.stats.valid_cache_misses
        solver.check_valid(formulas[0])
        assert solver.stats.valid_cache_misses == misses + 1

    def test_cache_report_shape(self):
        solver = Solver()
        solver.check_valid(t.implies(x >= 0, x >= 0))
        report = solver.cache_report()
        for key in (
            "sat_queries",
            "valid_cache_hit_rate",
            "lemmas_learned",
        ):
            assert key in report


def resyn_programs():
    """The fast Table 1 ``resyn`` programs, keyed by benchmark."""
    from repro.benchsuite.runner import selected_benchmarks
    from repro.core import synthesize

    programs = {}
    for bench in selected_benchmarks("table1"):
        result = synthesize(bench.goal, bench.configs()["resyn"])
        assert result.succeeded, f"{bench.key} failed to synthesize"
        programs[bench.key] = str(result.program)
    return programs


class TestPipelineRegression:
    """The process-wide memo tables never change what is synthesized."""

    def test_cold_process_synthesizes_the_warm_programs(self):
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(tests_dir), "src"), tests_dir]
        )
        code = "import json, test_perf_caches as m; print(json.dumps(m.resyn_programs()))"
        cold = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        cold_programs = json.loads(cold.stdout)
        resyn_programs()  # warm this process's tables, whatever ran before
        assert cold_programs and resyn_programs() == cold_programs

    def test_stats_threaded_through_result(self):
        from repro.benchsuite.runner import selected_benchmarks
        from repro.core import synthesize

        bench = selected_benchmarks("table1")[0]
        result = synthesize(bench.goal, bench.configs()["resyn"])
        assert result.succeeded
        assert "valid_cache_hit_rate" in result.stats
        assert "lia_queries" in result.stats
        assert result.stats["sat_queries"] >= 1


class TestLiaCache:
    def test_feasibility_cache_counts(self):
        from repro.smt.linexpr import Constraint, LinExpr

        lia.clear_cache()
        queries_before = lia.stats.queries
        hits_before = lia.stats.cache_hits
        constraints = [Constraint(LinExpr.var("q") - LinExpr.const(3))]
        first = lia.check_integer_feasible(constraints)
        second = lia.check_integer_feasible(constraints)
        assert first.satisfiable and second.satisfiable
        assert second.model == first.model
        assert lia.stats.queries == queries_before + 2
        assert lia.stats.cache_hits == hits_before + 1
