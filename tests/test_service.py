"""Tests for the batch synthesis service.

Covers the three pillars of the subsystem:

* **codecs + specs** — every Table 1/Table 2 goal round-trips through the
  declarative JSON spec format, programs round-trip through the wire codec;
* **fingerprints + cache** — fingerprints are stable across recomputation and
  encodings, sensitive to every input, and the persistent cache hits, evicts
  (LRU) and survives process re-instantiation;
* **scheduler determinism** — the fast Table 1 subset synthesized serially
  and through the pool (2 and 4 workers) is byte-identical, with stable stats
  aggregation, working per-job timeouts and a fully warm second run.
"""

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro import api
from repro.benchsuite.definitions import table1_benchmarks, table2_benchmarks
from repro.benchsuite.runner import benchmark_config, selected_benchmarks
from repro.core import SynthesisConfig, SynthesisGoal, library, synthesize
from repro.logic import terms as t
from repro.service import faults
from repro.service import scheduler as scheduler_module
from repro.service.cache import ResultCache
from repro.service.codec import (
    CodecError,
    config_from_json,
    config_from_mode,
    config_to_json,
    goal_from_json,
    goal_to_json,
    program_from_json,
    program_to_json,
    term_from_json,
    term_to_json,
)
from repro.service.fingerprint import canonical_json, job_fingerprint
from repro.service.scheduler import BatchScheduler, job_for_goal, stop_resident_pool
from repro.service.specs import (
    export_table_spec,
    jobs_from_spec,
    load_spec,
    validate_spec,
    write_spec,
)
from repro.typing.types import TypeSchema, arrow, bool_type

from conftest import tiny_config, tiny_goal, tiny_jobs

ALL_BENCHMARKS = table1_benchmarks() + table2_benchmarks()


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.key)
    def test_goal_roundtrip(self, bench):
        encoded = goal_to_json(bench.goal)
        decoded = goal_from_json(json.loads(json.dumps(encoded)))
        assert decoded == bench.goal
        assert decoded.schema == bench.goal.schema
        assert [c.name for c in decoded.components] == [c.name for c in bench.goal.components]

    def test_term_roundtrip_covers_exotic_nodes(self):
        x = t.int_var("x")
        term = t.conj(
            t.Ite(x > 0, t.ONE, t.ZERO).eq(t.ONE),
            t.SetAll("e", t.elems(t.data_var("xs")), t.Var("e", t.INT) >= x),
            t.SetSubset(t.EmptySet(), t.SetSingleton(x)),
        )
        assert term_from_json(term_to_json(term)) == term

    def test_program_roundtrip(self):
        result = synthesize(tiny_goal(), tiny_config())
        assert result.succeeded
        rebuilt = program_from_json(program_to_json(result.program))
        assert rebuilt == result.program
        assert str(rebuilt) == str(result.program)

    def test_config_roundtrip_all_modes(self):
        for mode in ("resyn", "synquid", "eac", "noninc", "constant_resource"):
            config = config_from_mode(mode, {"max_arg_depth": 3})
            assert config_from_json(config_to_json(config)) == config

    def test_config_rejects_unknown_fields(self):
        with pytest.raises(CodecError):
            config_from_json({"no_such_field": 1})

    def test_goal_rejects_foreign_components(self):
        from repro.core.components import Component

        foreign = Component("mystery", tiny_goal().schema, lambda xs: None)
        goal = SynthesisGoal.create("g", tiny_goal().schema, [foreign])
        with pytest.raises(CodecError):
            goal_to_json(goal)

    def test_result_record_roundtrip(self):
        goal = tiny_goal()
        result = synthesize(goal, tiny_config())
        record = json.loads(json.dumps(result.to_record()))
        rebuilt = result.from_record(record, goal)
        assert str(rebuilt.program) == str(result.program)
        assert rebuilt.candidates_checked == result.candidates_checked
        assert rebuilt.stats == result.stats


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------


class TestSpecs:
    def test_exported_specs_cover_all_benchmarks(self):
        spec1 = export_table_spec("table1")
        spec2 = export_table_spec("table2")
        assert {e["key"] for e in spec1["goals"]} == {b.key for b in table1_benchmarks()}
        assert {e["key"] for e in spec2["goals"]} == {b.key for b in table2_benchmarks()}

    @pytest.mark.parametrize("table", ["table1", "table2"])
    def test_spec_goals_roundtrip_to_benchmark_goals(self, table):
        selected = table1_benchmarks() if table == "table1" else table2_benchmarks()
        benchmarks = {b.key: b for b in selected}
        spec = export_table_spec(table)
        for entry in spec["goals"]:
            assert goal_from_json(entry["goal"]) == benchmarks[entry["key"]].goal

    def test_committed_specs_in_sync_with_definitions(self):
        """specs/*.json must match a fresh export (CI re-checks this too)."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for table in ("table1", "table2"):
            path = os.path.join(root, "specs", f"{table}.json")
            with open(path) as handle:
                committed = json.load(handle)
            assert committed == export_table_spec(table), (
                f"{path} is stale; regenerate with `python -m repro.service export`"
            )

    def test_jobs_from_spec_match_runner_configs(self):
        spec = export_table_spec("table1")
        jobs = jobs_from_spec(spec)
        expected = []
        for bench in selected_benchmarks("table1"):
            for mode in ("resyn", "synquid"):
                expected.append((f"{bench.key}/{mode}", benchmark_config(bench, mode)))
        assert [(j.tag, j.config()) for j in jobs] == expected

    def test_constant_resource_flag_selects_ct_config(self):
        spec = export_table_spec("table2")
        jobs = {j.tag: j for j in jobs_from_spec(spec)}
        assert jobs["ct_compare/resyn"].config().checker.constant_resource
        assert not jobs["compare/resyn"].config().checker.constant_resource

    def test_include_slow_and_mode_filters(self):
        spec = export_table_spec("table1")
        fast = jobs_from_spec(spec, modes=["resyn"])
        full = jobs_from_spec(spec, modes=["resyn"], include_slow=True)
        assert len(full) == len(table1_benchmarks())
        assert len(fast) == len(selected_benchmarks("table1"))

    def test_load_spec_json_and_validation(self, tmp_path):
        spec = export_table_spec("table1")
        path = str(tmp_path / "suite.json")
        write_spec(spec, path)
        assert load_spec(path) == spec
        with pytest.raises(CodecError):
            validate_spec({"format": "something-else"})
        broken = dict(spec, goals=spec["goals"] + [spec["goals"][0]])  # duplicate key
        with pytest.raises(CodecError):
            validate_spec(broken)

    def test_load_spec_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = str(tmp_path / "suite.toml")
        with open(path, "w") as handle:
            handle.write(
                'format = "resyn-goals/1"\n'
                'suite = "toml-demo"\n'
                "\n"
                "[[goals]]\n"
                'key = "probe"\n'
                'modes = ["resyn"]\n'
                "\n"
                "[goals.goal]\n"
                'name = "probe"\n'
                "components = []\n"
                "\n"
                "[goals.goal.schema]\n"
                "tvars = []\n"
                "\n"
                "[goals.goal.schema.body]\n"
                't = "arrow"\n'
                'param = "b"\n'
                'param_type = { t = "rtype", base = { t = "bool" } }\n'
                'result = { t = "rtype", base = { t = "bool" } }\n'
            )
        spec = load_spec(path)
        (job,) = jobs_from_spec(spec)
        assert job.tag == "probe/resyn"
        assert job.goal().name == "probe"


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_recomputation_and_processes(self):
        goal, config = tiny_goal(), tiny_config()
        first = job_fingerprint(goal, config)
        second = job_fingerprint(goal_from_json(goal_to_json(goal)), tiny_config())
        assert first == second
        assert first == goal.fingerprint(config)

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_sensitive_to_every_input(self):
        goal, config = tiny_goal(), tiny_config()
        base = job_fingerprint(goal, config)
        assert job_fingerprint(tiny_goal("other"), config) != base
        assert job_fingerprint(goal, SynthesisConfig.synquid()) != base
        deeper = SynthesisConfig.resyn(max_arg_depth=1, max_match_depth=2, max_cond_depth=0)
        assert job_fingerprint(goal, deeper) != base
        with_lib = SynthesisGoal.create(goal.name, goal.schema, library("lt"))
        assert job_fingerprint(with_lib, config) != base

    def test_golden_fingerprint(self):
        """Pinned digest of a minimal payload; catches silent codec drift.

        Any change to the codec encoding, canonicalization or the
        fingerprinted config fields orphans every persistent cache — if this
        assertion fails intentionally, bump FINGERPRINT_VERSION and update
        the digest.
        """
        goal = SynthesisGoal.create(
            "probe",
            TypeSchema((), arrow(("b", bool_type()), bool_type())),
            library(),
        )
        config = SynthesisConfig.resyn()
        assert (
            job_fingerprint(goal, config)
            == "942b57ab3f051ede726850fb47570c40e9a88db89a7bb4d644c922c22b10ad11"
        )


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------


class TestCache:
    def test_store_lookup_persistence(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.lookup("ab" * 32) is None
        cache.store("ab" * 32, {"goal_name": "g", "program": None, "seconds": 0.1})
        entry = cache.lookup("ab" * 32)
        assert entry["goal_name"] == "g"
        assert entry["fingerprint"] == "ab" * 32
        # A fresh instance over the same directory sees the entry (persistence).
        reopened = ResultCache(str(tmp_path / "cache"))
        assert reopened.lookup("ab" * 32)["goal_name"] == "g"
        assert reopened.stats.hits == 1
        assert cache.stats.misses == 1 and cache.stats.stores == 1

    def test_lru_eviction(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), max_entries=2)
        fingerprints = [format(i, "02d") * 32 for i in range(3)]
        cache.store(fingerprints[0], {"n": 0})
        time.sleep(0.02)
        cache.store(fingerprints[1], {"n": 1})
        time.sleep(0.02)
        # Touch entry 0 so entry 1 becomes the LRU victim.
        assert cache.lookup(fingerprints[0]) is not None
        time.sleep(0.02)
        cache.store(fingerprints[2], {"n": 2})
        assert cache.stats.evictions == 1
        assert cache.lookup(fingerprints[1]) is None  # evicted
        assert cache.lookup(fingerprints[0]) is not None
        assert cache.lookup(fingerprints[2]) is not None
        assert len(cache) == 2

    def test_update_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert not cache.update("cd" * 32, extra=1)
        cache.store("cd" * 32, {"goal_name": "g"})
        assert cache.update("cd" * 32, measured_bounds={"resyn": "|xs|"})
        assert cache.lookup("cd" * 32)["measured_bounds"] == {"resyn": "|xs|"}
        assert cache.clear() == 1
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


def _table1_jobs():
    jobs = []
    for bench in selected_benchmarks("table1"):
        for mode in ("resyn", "synquid"):
            jobs.append(
                job_for_goal(bench.goal, benchmark_config(bench, mode), tag=f"{bench.key}/{mode}")
            )
    return jobs


class TestScheduler:
    def test_parallel_output_byte_identical_to_serial(self):
        """The acceptance property: serial == 2 workers == 4 workers, byte-wise."""
        jobs = _table1_jobs()
        serial = BatchScheduler(workers=1)
        serial_results = serial.run(jobs)
        serial_programs = [r.program_text for r in serial_results]
        assert all(r.succeeded for r in serial_results)

        # Reference: direct in-process synthesize() calls.
        direct = []
        for bench in selected_benchmarks("table1"):
            for mode in ("resyn", "synquid"):
                direct.append(str(synthesize(bench.goal, benchmark_config(bench, mode)).program))
        assert serial_programs == direct

        aggregates = {1: serial.stats.counters}
        for workers in (2, 4):
            scheduler = BatchScheduler(workers=workers)
            results = scheduler.run(jobs)
            assert [r.tag for r in results] == [j.tag for j in jobs]  # submission order
            assert [r.program_text for r in results] == serial_programs
            aggregates[workers] = scheduler.stats.counters

        # Stable stats aggregation: the search-level counters are process- and
        # placement-independent, so every run must aggregate identical sums.
        for key in ("candidates_checked", "cegis_counterexamples", "eterm_checks"):
            values = {workers: agg.get(key, 0) for workers, agg in aggregates.items()}
            assert len(set(values.values())) == 1, (key, values)

    def test_scheduler_matches_runner_rows(self):
        from repro.benchsuite.runner import run_table

        rows = run_table("table1", ("resyn",), workers=2)
        for row in rows:
            direct = synthesize(row.benchmark.goal, benchmark_config(row.benchmark, "resyn"))
            assert str(row.results["resyn"].program) == str(direct.program)

    def test_cache_hits_and_warm_run(self, tmp_path):
        goal, config = tiny_goal(), tiny_config()
        job = job_for_goal(goal, config, tag="tiny")
        cache = ResultCache(str(tmp_path / "cache"))

        cold = BatchScheduler(workers=1, cache=cache)
        (cold_result,) = cold.run([job])
        assert cold.stats.synth_runs == 1 and cold.stats.cache_hits == 0
        assert not cold_result.cache_hit

        warm = BatchScheduler(workers=1, cache=ResultCache(str(tmp_path / "cache")))
        (warm_result,) = warm.run([job])
        assert warm.stats.synth_runs == 0 and warm.stats.cache_hits == 1
        assert warm_result.cache_hit
        assert warm_result.program_text == cold_result.program_text
        result = warm_result.to_synthesis_result(goal)
        assert str(result.program) == cold_result.program_text

    def test_in_batch_deduplication(self):
        job = job_for_goal(tiny_goal(), tiny_config(), tag="a")
        twin = job_for_goal(tiny_goal(), tiny_config(), tag="b")
        assert job.fingerprint == twin.fingerprint
        scheduler = BatchScheduler(workers=1)
        first, second = scheduler.run([job, twin])
        assert scheduler.stats.synth_runs == 1
        assert scheduler.stats.deduplicated == 1
        assert second.deduplicated and not first.deduplicated
        assert first.program_text == second.program_text

    def test_per_job_timeout(self):
        bench = next(b for b in selected_benchmarks("table1") if b.key == "t1_append")
        job = job_for_goal(
            bench.goal, benchmark_config(bench, "resyn"), tag="doomed", timeout=1e-4
        )
        scheduler = BatchScheduler(workers=1)
        (result,) = scheduler.run([job])
        assert not result.succeeded
        assert result.timed_out
        assert scheduler.stats.timeouts == 1

    def test_timed_out_results_never_poison_the_cache(self, tmp_path):
        """A timeout is clock-dependent, not a property of the fingerprint:
        it must not be persisted, and a later generous-budget run must
        re-invoke the synthesizer and succeed."""
        bench = next(b for b in selected_benchmarks("table1") if b.key == "t1_append")
        config = benchmark_config(bench, "resyn")
        cache = ResultCache(str(tmp_path / "cache"))

        doomed = job_for_goal(bench.goal, config, tag="doomed", timeout=1e-4)
        scheduler = BatchScheduler(workers=1, cache=cache)
        (first,) = scheduler.run([doomed])
        assert first.timed_out and not first.succeeded
        assert len(cache) == 0  # failure not persisted

        patient = job_for_goal(bench.goal, config, tag="patient")
        retry = BatchScheduler(workers=1, cache=cache)
        (second,) = retry.run([patient])
        assert retry.stats.synth_runs == 1 and retry.stats.cache_hits == 0
        assert second.succeeded
        assert len(cache) == 1  # the success is persisted

    def test_dedup_respects_differing_timeouts(self):
        """Same fingerprint, different budgets: the generous job must not
        inherit the stingy job's timeout failure."""
        bench = next(b for b in selected_benchmarks("table1") if b.key == "t1_append")
        config = benchmark_config(bench, "resyn")
        doomed = job_for_goal(bench.goal, config, tag="doomed", timeout=1e-4)
        patient = job_for_goal(bench.goal, config, tag="patient")
        assert doomed.fingerprint == patient.fingerprint
        scheduler = BatchScheduler(workers=1)
        first, second = scheduler.run([doomed, patient])
        assert scheduler.stats.synth_runs == 2  # no dedup across budgets
        assert first.timed_out and not first.succeeded
        assert second.succeeded and not second.deduplicated

    def test_cache_hit_restores_timed_out_flag(self, tmp_path):
        """Entries written by other tooling may carry timed_out; a hit must
        surface it instead of defaulting to False."""
        cache = ResultCache(str(tmp_path / "cache"))
        job = job_for_goal(tiny_goal(), tiny_config(), tag="stale")
        cache.store(job.fingerprint, {"goal_name": "isEmpty", "program": None, "timed_out": True})
        scheduler = BatchScheduler(workers=1, cache=ResultCache(str(tmp_path / "cache")))
        (result,) = scheduler.run([job])
        assert result.cache_hit and result.timed_out
        assert scheduler.stats.timeouts == 1

    def test_eviction_is_batched_for_large_caps(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), max_entries=20)
        for i in range(21):
            cache.store(format(i, "02d") * 32, {"n": i})
            time.sleep(0.002)
        # Overflowing a cap of 20 evicts down to 18 (10% headroom), so the
        # next stores are scan-free.
        assert len(cache) == 18
        assert cache.stats.evictions == 3

    def test_cancel_marks_unstarted_jobs(self):
        scheduler = BatchScheduler(workers=1)
        scheduler.cancel()
        jobs = [job_for_goal(tiny_goal(), tiny_config(), tag="x")]
        # run() resets cancellation; cancel mid-run is exercised via the pool's
        # KeyboardInterrupt path, so here we only check the reset contract.
        (result,) = scheduler.run(jobs)
        assert result.succeeded

    def test_run_goals_roundtrip(self):
        scheduler = BatchScheduler(workers=1)
        (result,) = scheduler.run_goals([tiny_goal()], tiny_config())
        assert result.succeeded
        assert result.goal.name == "isEmpty"


# ---------------------------------------------------------------------------
# The resident batch pool
# ---------------------------------------------------------------------------


def _children():
    return {child.pid for child in multiprocessing.active_children()}


class TestResidentPool:
    def test_consecutive_run_goals_share_the_workers(self):
        stop_resident_pool()
        goals = [tiny_goal("reuse0"), tiny_goal("reuse1")]
        first = api.run_goals(goals, tiny_config(), workers=2)
        pids = _children()
        second = api.run_goals(goals, tiny_config(), workers=2)
        assert len(pids) == 2 and _children() == pids
        assert [str(r.program) for r in second] == [str(r.program) for r in first]
        results = BatchScheduler(workers=2).run(tiny_jobs(2))
        assert {result.worker_pid for result in results} <= pids == _children()

    @pytest.mark.parametrize("change", ["workers", "fault_plan", "start_method"])
    def test_a_different_key_replaces_the_resident_pool(self, change):
        if change == "start_method" and "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        jobs = tiny_jobs(2)
        BatchScheduler(workers=2).run(jobs)
        before = _children()
        options = {"workers": 2}
        if change == "workers":
            options["workers"] = 3
        elif change == "start_method":
            options["start_method"] = "spawn"
        else:
            faults.configure("cache.read_corrupt=1.0")  # inert here: the run has no cache
        results = BatchScheduler(**options).run(jobs)
        assert all(result.succeeded for result in results)
        after = _children()
        assert len(before) == 2 and len(after) == options["workers"]
        assert not before & after
        assert {result.worker_pid for result in results} <= after
        stop_resident_pool()

    def test_a_different_grace_keeps_the_resident_pool(self):
        """``grace`` only sets each dispatch's parent-side deadline, so a run
        with another grace reuses the warm workers and applies its own."""
        jobs = tiny_jobs(2)
        BatchScheduler(workers=2).run(jobs)
        before = _children()
        results = BatchScheduler(workers=2, grace=7.5).run(jobs)
        assert all(result.succeeded for result in results)
        assert len(before) == 2 and _children() == before
        assert scheduler_module._resident[1].grace == 7.5
        stop_resident_pool()

    def test_interrupt_while_starting_stops_the_pool(self, monkeypatch):
        """A ``KeyboardInterrupt`` during the forks reaches the run's clean-up:
        the results come back cancelled and no worker is left behind."""
        stop_resident_pool()
        real_start = scheduler_module.WorkerPool.start

        def interrupted_start(pool):
            real_start(pool)
            raise KeyboardInterrupt

        monkeypatch.setattr(scheduler_module.WorkerPool, "start", interrupted_start)
        scheduler = BatchScheduler(workers=2)
        results = scheduler.run(tiny_jobs(2))
        assert all(result.cancelled for result in results)
        assert scheduler.stats.cancelled == 2
        assert scheduler_module._resident is None and not _children()

    def test_concurrent_runs_never_share_a_pool(self, monkeypatch):
        """More concurrent runs than cores: every run gets the serial programs
        and no pool ever serves two runs at once."""
        threads_n, rounds = 3, 3
        goals = [tiny_goal("thread0"), tiny_goal("thread1")]
        serial = [str(r.program) for r in api.run_goals(goals, tiny_config(), workers=1)]
        real_take, real_give = scheduler_module._take_pool, scheduler_module._give_back
        lock = threading.Lock()
        in_use, taken, shared = set(), [], []
        # The first round's runs all hold a pool at once, so all but one of
        # them find the slot empty and build a private pool.
        first_round = threading.Barrier(threads_n, timeout=30)

        def take(*args):
            pool = real_take(*args)
            with lock:
                if pool in in_use:
                    shared.append(pool)
                in_use.add(pool)
                taken.append(pool)
                first = len(taken) <= threads_n
            if first:
                first_round.wait()
            return pool

        def give_back(key, pool):
            with lock:
                in_use.discard(pool)
            real_give(key, pool)

        monkeypatch.setattr(scheduler_module, "_take_pool", take)
        monkeypatch.setattr(scheduler_module, "_give_back", give_back)
        programs = []

        def run():
            for _ in range(rounds):
                results = api.run_goals(goals, tiny_config(), workers=2)
                with lock:
                    programs.append([str(r.program) for r in results])

        threads = [threading.Thread(target=run) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert programs == [serial] * (threads_n * rounds)
        assert len(set(taken[:threads_n])) == threads_n and not shared
        # At most one pool stays parked; every other one was stopped.
        assert len(_children()) <= 2
