"""Tests for the observability layer (``repro.obs``).

Four contracts, mirroring the design constraints of the tracing PR:

* **span mechanics** — nesting builds correct parent/depth chains, reentrancy
  (same-name nesting) is handled, the decorator traces, and exceptions are
  recorded without breaking the stack;
* **no-op mode** — with tracing disabled a full synthesis run records zero
  spans and zero events;
* **determinism** — the SMT counters, interned-node growth, per-run stats
  and deterministic span counts are identical across two steady-state runs
  of the same goal (and the stats outside the process-wide LIA cache's
  ``lia_*`` keys across the first run as well), each synthesis numbers its
  coefficients from ``C!0``, and ``SynthesisResult.stats`` keeps key/value parity
  with the committed seed report;
* **observation-only** — a traced run synthesizes byte-identical programs to
  an untraced one, and the scheduler/cache telemetry (queue-wait/run-time
  split, worker utilization, ``telemetry.json``, the ``stats`` subcommand)
  reports without perturbing results.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.benchsuite.definitions import benchmark_by_key, is_empty_benchmark
from repro.constraints.store import ConstraintStore
from repro.core import SynthesisConfig, synthesize
from repro.logic.terms import intern_nodes
from repro.obs import export, trace
from repro.service.cache import ResultCache
from repro.service.scheduler import BatchScheduler, job_for_goal
from repro.smt.solver import delta, theory_counters

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def traced():
    """Enable tracing for one test, restoring the disabled default after."""
    was = trace.is_enabled()
    trace.enable()
    trace.reset()
    yield
    trace.enable(was)
    trace.reset()


def _subprocess_stats(extra: str = "") -> dict:
    """Run t1_is_empty (resyn) in a fresh interpreter; return its stats.

    A subprocess is required for parity checks: the LIA/encoder caches are
    process-wide, so an in-process run inherits warm caches from earlier
    tests and reports different hit counts than the committed seed row.
    """
    code = textwrap.dedent(
        f"""
        import json
        {extra}
        from repro.benchsuite.definitions import is_empty_benchmark
        from repro.core import synthesize
        bench = is_empty_benchmark()
        result = synthesize(bench.goal, bench.configs()["resyn"])
        print(json.dumps({{"program": str(result.program), "stats": result.stats}}))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.pop("REPRO_TRACE", None)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(out.stdout)


class TestSpans:
    def test_nesting_parent_depth(self, traced):
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                with trace.span("leaf", kind="x") as leaf:
                    pass
        records = {r["name"]: r for r in trace.span_records()}
        assert records["outer"]["parent"] == 0 and records["outer"]["depth"] == 0
        assert records["inner"]["parent"] == outer.span_id
        assert records["inner"]["depth"] == 1
        assert records["leaf"]["parent"] == inner.span_id
        assert records["leaf"]["depth"] == 2
        assert records["leaf"]["attrs"] == {"kind": "x"}
        assert leaf.duration_ns >= 0

    def test_reentrant_same_name(self, traced):
        def recurse(n):
            with trace.span("rec"):
                if n:
                    recurse(n - 1)

        recurse(2)
        rows = export.phase_table(trace.span_records())
        assert len(rows) == 1
        assert rows[0]["spans"] == 3
        # Only the outermost span's duration counts toward `seconds`: nested
        # same-name spans (recursion) must not double-bill the phase.
        assert rows[0]["seconds"] <= rows[0]["self_seconds"] * 3 + 1e-9

    def test_counters_and_attrs_are_separate_bags(self, traced):
        with trace.span("work") as sp:
            sp.set(label="a").count("items", 3).count("items", 2)
        (record,) = trace.span_records()
        assert record["counters"] == {"items": 5}
        assert record["attrs"] == {"label": "a"}

    def test_exception_recorded_and_stack_intact(self, traced):
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("x")
        (record,) = trace.span_records()
        assert record["attrs"]["error"] == "ValueError"
        assert trace.current_span() is None

    def test_traced_decorator(self, traced):
        @trace.traced("decorated")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
        assert [r["name"] for r in trace.span_records()] == ["decorated"]

    def test_events_are_zero_duration_children(self, traced):
        with trace.span("parent") as parent:
            trace.event("ping", kind="cache")
        records = {r["name"]: r for r in trace.span_records()}
        assert records["ping"]["parent"] == parent.span_id
        assert records["ping"]["dur_us"] == 0


class TestNoopMode:
    def test_disabled_records_nothing(self):
        assert not trace.is_enabled()
        trace.reset()
        sp = trace.span("anything", expensive="attr")
        assert sp is trace.NOOP_SPAN
        assert not sp  # falsy: call sites use `if sp:` to skip attr building
        with sp:
            sp.set(x=1).count("y")
        trace.event("nothing")
        assert trace.span_records() == []
        assert trace.current_span() is None

    def test_disabled_synthesis_records_zero_spans(self):
        assert not trace.is_enabled()
        trace.reset()
        result = synthesize(is_empty_benchmark().goal, SynthesisConfig.resyn())
        assert result.succeeded
        assert trace.span_records() == []


class TestSteadyStateCounters:
    def test_repeated_runs_report_identical_stats(self):
        """Repeated runs of one goal move every counter by the same amount.

        The 1st run is compared on every stats key except the ``lia_*``
        ones: the LIA feasibility cache is process-wide (it is kept because
        scoping it to one synthesis measured +28% on the synth mix), so the
        1st run in a process still fills it and reports different LIA hits,
        eliminations and cores than the later runs.  The 2nd and 3rd runs
        match on everything, including the theory counters and intern-node
        growth.
        """
        goal = is_empty_benchmark().goal
        first = synthesize(goal, SynthesisConfig.resyn()).stats
        runs = []
        for _ in range(2):
            theory_before, nodes_before = theory_counters(), intern_nodes()
            result = synthesize(goal, SynthesisConfig.resyn())
            runs.append(
                (
                    delta(theory_before, theory_counters()),
                    intern_nodes() - nodes_before,
                    result.stats,
                )
            )
        assert runs[0] == runs[1]
        steady = runs[0][2]
        assert set(first) == set(steady)
        assert {k: v for k, v in first.items() if not k.startswith("lia_")} == {
            k: v for k, v in steady.items() if not k.startswith("lia_")
        }


class TestPerSynthesisCoefficients:
    """Each synthesis names its unknown coefficients from ``C!0``."""

    def test_each_synthesis_names_its_first_coefficient_c0(self, monkeypatch):
        names = []
        fresh = ConstraintStore.fresh_coefficient

        def recording(store):
            coefficient = fresh(store)
            names.append(coefficient.name)
            return coefficient

        monkeypatch.setattr(ConstraintStore, "fresh_coefficient", recording)
        bench = benchmark_by_key("triple")
        firsts = []
        for _ in range(2):
            names.clear()
            synthesize(bench.goal, bench.configs()["resyn"])
            firsts.append(names[0])
        assert firsts == ["C!0", "C!0"]

    def test_repeated_synthesis_adds_no_intern_nodes(self):
        """A goal with template coefficients builds the same terms every run."""
        bench = benchmark_by_key("triple")
        counts = []
        for _ in range(3):
            result = synthesize(bench.goal, bench.configs()["resyn"])
            assert result.succeeded
            counts.append(intern_nodes())
        assert counts[1] == counts[0] and counts[2] == counts[0]


class TestSeedParity:
    def test_stats_match_committed_seed_row(self):
        """`SynthesisResult.stats` keys and values match the pre-refactor seed.

        The committed BENCH_synthesis.json row for t1_is_empty/resyn was
        produced by the pre-registry code; the registry refactor must report
        the same keys with the same values (byte-compatibility contract).
        """
        with open(os.path.join(REPO_ROOT, "BENCH_synthesis.json")) as handle:
            report = json.load(handle)
        (seed_row,) = [
            r for r in report["rows"] if r["benchmark"] == "t1_is_empty" and r["mode"] == "resyn"
        ]
        fresh = _subprocess_stats()
        assert fresh["program"] == seed_row["program"]
        assert set(fresh["stats"]) == set(seed_row["stats"])
        for key, value in seed_row["stats"].items():
            assert fresh["stats"][key] == pytest.approx(value), key


class TestObservationOnly:
    def test_traced_run_is_byte_identical(self):
        untraced = _subprocess_stats()
        traced_run = _subprocess_stats(extra="import repro.obs.trace as _t; _t.enable()")
        assert traced_run["program"] == untraced["program"]
        assert traced_run["stats"] == untraced["stats"]

    def test_traced_synthesis_span_counts_deterministic(self, traced):
        goal = is_empty_benchmark().goal
        synthesize(goal, SynthesisConfig.resyn())  # steady-state warmup
        trace.reset()
        synthesize(goal, SynthesisConfig.resyn())
        counts_2 = {row["phase"]: row["spans"] for row in export.phase_table()}
        trace.reset()
        synthesize(goal, SynthesisConfig.resyn())
        counts_3 = {row["phase"]: row["spans"] for row in export.phase_table()}
        assert counts_2 == counts_3
        assert counts_2.get("synth.goal") == 1
        assert counts_2.get("synth.eterm", 0) > 0

    def test_config_trace_flag_enables(self):
        was = trace.is_enabled()
        trace.reset()
        try:
            result = synthesize(is_empty_benchmark().goal, SynthesisConfig.resyn(trace=True))
            assert result.succeeded
            names = {r["name"] for r in trace.span_records()}
            assert "synth.goal" in names
        finally:
            trace.enable(was)
            trace.reset()


class TestExporters:
    def test_jsonl_round_trip(self, traced, tmp_path):
        with trace.span("a"):
            with trace.span("b"):
                pass
        path = str(tmp_path / "trace.jsonl")
        assert export.write_trace_jsonl(path) == 2
        rows = [json.loads(line) for line in open(path)]
        assert {row["name"] for row in rows} == {"a", "b"}

    def test_collapsed_stack_format(self, traced, tmp_path):
        with trace.span("root"):
            with trace.span("child"):
                sum(range(50_000))  # burn >1µs so the stack line gets a weight
        lines = export.collapsed_stacks()
        for line in lines:
            path_part, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert ";" in path_part or path_part == "root"
        assert any(line.startswith("root;child ") for line in lines)
        path = str(tmp_path / "profile.folded")
        assert export.write_collapsed(path) == len(lines)

    def test_self_time_sums_to_root_time(self, traced):
        with trace.span("root"):
            with trace.span("x"):
                pass
            with trace.span("y"):
                with trace.span("z"):
                    pass
        table = export.phase_table()
        total_self = sum(row["self_seconds"] for row in table)
        assert total_self == pytest.approx(export.root_seconds(), abs=1e-4)

    def test_phase_block_and_rendering(self, traced):
        with trace.span("p"):
            pass
        block = export.phase_block()
        assert block["total_spans"] == 1
        rendered = export.render_phase_table(block["rows"])
        assert "| `p` | 1 |" in rendered


class TestCegisSpans:
    def test_cegis_phases_appear_when_constraints_have_unknowns(self, traced):
        """The fast suite never triggers CEGIS; exercise those spans directly."""
        from repro.constraints.cegis import CegisSolver
        from repro.constraints.store import ConstraintStore, ResourceConstraint
        from repro.logic import terms as t
        from repro.smt.solver import Solver

        # alpha * n - n >= 0 for all n in [0, 3]: forces at least one
        # counterexample round before alpha >= 1 is found.
        n = t.int_var("n")
        alpha = ConstraintStore().fresh_coefficient()
        guard = t.conj(n >= t.IntConst(0), t.IntConst(3) >= n)
        rc = ResourceConstraint(guard, alpha * n - n)
        solver = CegisSolver(Solver())
        solution = solver.solve([rc])
        assert solution is not None and solution[alpha.name] >= 1
        names = {r["name"] for r in trace.span_records()}
        assert "cegis.verify" in names
        assert "cegis.synth" in names


class TestServiceTelemetry:
    def test_scheduler_records_queue_and_run_split(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        scheduler = BatchScheduler(workers=2, cache=cache)
        bench = is_empty_benchmark()
        jobs = [job_for_goal(bench.goal, SynthesisConfig.resyn(), tag="t")]
        (result,) = scheduler.run(jobs)
        assert result.succeeded
        assert result.run_seconds > 0
        assert result.worker_pid > 0
        stats = scheduler.stats.as_dict()
        assert stats["run_seconds"] > 0
        assert stats["queue_seconds"] >= 0
        assert set(stats["worker_utilization"]) == {"w0"}  # one job, one busy worker
        assert 0 < stats["worker_utilization"]["w0"] <= 1.0
        # Cached entries must not leak run-scoped timing fields.
        entry = cache.lookup(jobs[0].fingerprint)
        assert "queue_seconds" not in entry and "run_seconds" not in entry

    def test_telemetry_json_accumulates_across_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        scheduler = BatchScheduler(workers=1, cache=cache)
        bench = is_empty_benchmark()
        jobs = [job_for_goal(bench.goal, SynthesisConfig.resyn(), tag="t")]
        scheduler.run(jobs)  # miss + store
        scheduler.run(jobs)  # hit
        data = cache.telemetry()
        assert data["runs"] == 2
        assert data["totals"]["cache_hits"] == 1
        assert data["totals"]["cache_misses"] == 1
        assert data["totals"]["cache_stores"] == 1
        assert data["totals"]["cache_hit_rate"] == 0.5
        assert data["last_run"]["scheduler"]["cache_hits"] == 1

    def test_stats_subcommand(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        scheduler = BatchScheduler(workers=1, cache=cache)
        bench = is_empty_benchmark()
        scheduler.run([job_for_goal(bench.goal, SynthesisConfig.resyn(), tag="t")])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        out = subprocess.run(
            [sys.executable, "-m", "repro.service", "stats", cache_dir],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0, out.stderr
        assert "1 entries" in out.stdout
        assert "worker utilization" in out.stdout
        as_json = subprocess.run(
            [sys.executable, "-m", "repro.service", "stats", cache_dir, "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert as_json.returncode == 0
        payload = json.loads(as_json.stdout)
        assert payload["entries"] == 1
        assert payload["telemetry"]["runs"] == 1

    def test_cache_events_stream_into_trace(self, traced, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), max_entries=1)
        cache.lookup("aa" * 20)  # miss
        cache.store("aa" * 20, {"program": None})
        cache.lookup("aa" * 20)  # hit
        cache.store("bb" * 20, {"program": None})  # overflow -> eviction
        names = [r["name"] for r in trace.span_records()]
        assert "cache.miss" in names
        assert "cache.hit" in names
        assert "cache.store" in names
        assert "cache.evict" in names
