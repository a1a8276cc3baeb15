"""Tests for the fault-injection harness and the fault-tolerance machinery.

The contract under test: with faults injected (worker crashes, hangs, cache
corruption, spawn failures) a batch run still *completes*, within bounded
wall-clock, and — whenever recovery is possible — produces records
byte-identical to a fault-free run.  Chaos is deterministic: the same plan
over the same job stream injects exactly the same faults.
"""

import json
import os
import time

import pytest

from repro.service import faults
from repro.service.cache import ResultCache, record_checksum
from repro.service.scheduler import (
    POISON_KILLS,
    BatchScheduler,
    JobResult,
)

from conftest import baseline_records, canon, records_of, tiny_config, tiny_goal, tiny_jobs


# ---------------------------------------------------------------------------
# The plan itself: parsing, determinism, activation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = faults.FaultPlan.parse("worker.crash=0.4:once,cache.read_corrupt=1.0", seed=7)
        assert plan.rules[faults.WORKER_CRASH] == faults.FaultRule(rate=0.4, once=True)
        assert plan.rules[faults.CACHE_READ_CORRUPT] == faults.FaultRule(rate=1.0)
        reparsed = faults.FaultPlan.parse(plan.to_spec(), seed=7)
        assert reparsed.rules == plan.rules

    def test_bare_point_means_rate_one(self):
        plan = faults.FaultPlan.parse("worker.hang")
        assert plan.rate(faults.WORKER_HANG) == 1.0

    def test_unknown_point_rejected(self):
        with pytest.raises(faults.FaultSpecError):
            faults.FaultPlan.parse("worker.explode=1.0")

    @pytest.mark.parametrize("bad", ["worker.crash=1.5", "worker.crash=-0.1", "worker.crash=x"])
    def test_bad_rate_rejected(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.FaultPlan.parse(bad)

    def test_empty_spec_is_inert(self):
        assert not faults.FaultPlan.parse(None).active
        assert not faults.FaultPlan.parse("").active
        assert not faults.FaultPlan.parse("worker.crash=0.0").active

    def test_decisions_are_deterministic(self):
        plan_a = faults.FaultPlan.parse("worker.crash=0.5", seed=3)
        plan_b = faults.FaultPlan.parse("worker.crash=0.5", seed=3)
        decisions_a = [plan_a.fires(faults.WORKER_CRASH, f"fp{i}", 0) for i in range(64)]
        decisions_b = [plan_b.fires(faults.WORKER_CRASH, f"fp{i}", 0) for i in range(64)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)  # rate 0.5 actually splits

    def test_seed_changes_decisions(self):
        keys = [f"fp{i}" for i in range(64)]
        with_seed = [
            faults.FaultPlan.parse("worker.crash=0.5", seed=s).fires(faults.WORKER_CRASH, k)
            for s in (0, 1)
            for k in keys
        ]
        assert with_seed[:64] != with_seed[64:]

    def test_once_limits_to_first_attempt(self):
        plan = faults.FaultPlan.parse("worker.crash=1.0:once")
        assert plan.fires(faults.WORKER_CRASH, "fp", 0)
        assert not plan.fires(faults.WORKER_CRASH, "fp", 1)
        always = faults.FaultPlan.parse("worker.crash=1.0")
        assert always.fires(faults.WORKER_CRASH, "fp", 0)
        assert always.fires(faults.WORKER_CRASH, "fp", 1)

    def test_env_activation(self, monkeypatch):
        assert not faults.plan().active
        monkeypatch.setenv(faults.ENV_SPEC, "pool.spawn=1.0")
        monkeypatch.setenv(faults.ENV_SEED, "5")
        plan = faults.plan()
        assert plan.active and plan.seed == 5 and plan.rate(faults.POOL_SPAWN) == 1.0
        monkeypatch.delenv(faults.ENV_SPEC)
        assert not faults.plan().active

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "pool.spawn=1.0")
        faults.configure("worker.hang=1.0")
        assert faults.plan().rate(faults.POOL_SPAWN) == 0.0
        assert faults.plan().rate(faults.WORKER_HANG) == 1.0
        faults.configure(None)
        assert faults.plan().rate(faults.POOL_SPAWN) == 1.0


# ---------------------------------------------------------------------------
# Worker crash -> retry -> identical record
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_crash_once_retries_to_identical_records(self):
        jobs = tiny_jobs(2)
        reference = baseline_records(jobs)

        faults.configure("worker.crash=1.0:once")
        scheduler = BatchScheduler(workers=2)
        results = scheduler.run(jobs)

        assert records_of(results) == reference
        assert all(result.succeeded for result in results)
        assert all(result.attempts == 2 for result in results)  # crash + retry
        assert scheduler.stats.worker_kills == 2
        assert scheduler.stats.retries == 2
        assert scheduler.stats.pool_rebuilds >= 1
        assert scheduler.stats.poisoned == 0

    def test_chaos_is_reproducible(self):
        jobs = tiny_jobs(2)
        faults.configure("worker.crash=1.0:once", seed=11)
        first = records_of(BatchScheduler(workers=2).run(jobs))
        faults.configure("worker.crash=1.0:once", seed=11)
        second = records_of(BatchScheduler(workers=2).run(jobs))
        assert first == second

    def test_crash_with_no_retries_is_an_error(self):
        jobs = tiny_jobs(1, retries=0)
        faults.configure("worker.crash=1.0")
        scheduler = BatchScheduler(workers=2)
        (result,) = scheduler.run(jobs)
        assert result.record is None
        assert result.error is not None and "crash" in result.error
        assert scheduler.stats.errors == 1
        assert scheduler.stats.retries == 0

    def test_serial_backend_never_injects_worker_faults(self):
        jobs = tiny_jobs(1)
        reference = baseline_records(jobs)
        faults.configure("worker.crash=1.0,worker.hang=1.0")
        # workers=1 runs in-process: a crash fault here would kill pytest.
        results = BatchScheduler(workers=1).run(jobs)
        assert records_of(results) == reference


# ---------------------------------------------------------------------------
# Worker hang -> hard deadline
# ---------------------------------------------------------------------------


class TestHardDeadline:
    SOFT = 0.3
    GRACE = 0.4

    def test_hang_is_killed_within_soft_plus_grace(self):
        jobs = tiny_jobs(1, timeout=self.SOFT, retries=0)
        faults.configure("worker.hang=1.0")
        scheduler = BatchScheduler(workers=2, grace=self.GRACE)
        start = time.monotonic()
        (result,) = scheduler.run(jobs)
        elapsed = time.monotonic() - start
        assert result.hard_timed_out and result.timed_out
        assert result.record is None
        assert scheduler.stats.hard_timeouts == 1
        assert scheduler.stats.worker_kills == 1
        # Bounded: the deadline is soft+grace; the rest is kill/join overhead.
        assert elapsed < self.SOFT + self.GRACE + 10.0

    def test_hang_once_recovers_to_identical_record(self):
        # Soft budget generous enough for the real run (<50ms), small enough
        # that the injected hang is killed quickly; the retry then succeeds
        # and the final record matches the fault-free reference.
        jobs = tiny_jobs(1, timeout=0.5)
        reference = baseline_records(jobs)
        faults.configure("worker.hang=1.0:once")
        scheduler = BatchScheduler(workers=2, grace=self.GRACE)
        results = scheduler.run(jobs)
        assert records_of(results) == reference
        assert results[0].succeeded
        assert scheduler.stats.hard_timeouts == 1
        assert scheduler.stats.retries == 1

    def test_hard_timeout_result_is_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = tiny_jobs(1, timeout=self.SOFT, retries=0)
        faults.configure("worker.hang=1.0")
        BatchScheduler(workers=2, cache=cache, grace=self.GRACE).run(jobs)
        faults.configure(None)
        scheduler = BatchScheduler(workers=1, cache=cache)
        (result,) = scheduler.run(jobs)
        assert result.succeeded and not result.cache_hit


# ---------------------------------------------------------------------------
# Poison jobs
# ---------------------------------------------------------------------------


class TestPoisonJobs:
    def test_persistent_crasher_terminates_as_poison(self):
        # A generous retry budget must NOT win over poison detection: the job
        # kills POISON_KILLS workers and becomes an error, never a spin.
        jobs = tiny_jobs(1, retries=10)
        faults.configure("worker.crash=1.0")
        scheduler = BatchScheduler(workers=2)
        (result,) = scheduler.run(jobs)
        assert result.record is None
        assert result.error is not None and "poison" in result.error
        assert result.attempts == POISON_KILLS
        assert scheduler.stats.poisoned == 1
        assert scheduler.stats.worker_kills == POISON_KILLS

    def test_poison_batch_still_terminates_every_job(self):
        # Every job is a persistent crasher: the run must still terminate,
        # with every job resolved to an error result (no hang, no spin).
        jobs = tiny_jobs(3, retries=10)
        scheduler = BatchScheduler(workers=2)
        faults.configure("worker.crash=1.0")
        results = scheduler.run(jobs)
        assert len(results) == 3
        assert all(result.record is None and result.error for result in results)
        assert scheduler.stats.poisoned == 3


# ---------------------------------------------------------------------------
# Cache integrity: corruption -> quarantine -> recompute
# ---------------------------------------------------------------------------


class TestCacheQuarantine:
    def seed_cache(self, tmp_path, jobs):
        cache = ResultCache(str(tmp_path / "cache"))
        BatchScheduler(workers=1, cache=cache).run(jobs)
        return cache

    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        jobs = tiny_jobs(1)
        reference = baseline_records(jobs)
        cache = self.seed_cache(tmp_path, jobs)
        path = cache._entry_path(jobs[0].fingerprint)
        with open(path, "r+b") as handle:  # bit rot
            handle.seek(10)
            handle.write(b"\xff\xff\xff")

        scheduler = BatchScheduler(workers=1, cache=cache)
        results = scheduler.run(jobs)
        assert records_of(results) == reference  # recomputed, not served rotten
        assert not results[0].cache_hit
        assert cache.stats.quarantined == 1
        assert cache.quarantined_entries() == [os.path.basename(path)]
        # The recompute stored a fresh entry; the next run is a clean hit.
        (warm,) = BatchScheduler(workers=1, cache=cache).run(jobs)
        assert warm.cache_hit and canon(warm.record) == reference[0]

    def test_injected_read_corruption_roundtrip(self, tmp_path):
        jobs = tiny_jobs(1)
        reference = baseline_records(jobs)
        cache = self.seed_cache(tmp_path, jobs)
        faults.configure("cache.read_corrupt=1.0:once")
        scheduler = BatchScheduler(workers=1, cache=cache)
        results = scheduler.run(jobs)
        assert records_of(results) == reference
        assert cache.stats.quarantined == 1
        assert len(cache.quarantined_entries()) == 1

    def test_torn_write_is_caught_on_next_read(self, tmp_path):
        jobs = tiny_jobs(1)
        reference = baseline_records(jobs)
        cache = ResultCache(str(tmp_path / "cache"))
        faults.configure("cache.write_torn=1.0:once")
        BatchScheduler(workers=1, cache=cache).run(jobs)  # store is torn
        faults.configure(None)
        scheduler = BatchScheduler(workers=1, cache=cache)
        results = scheduler.run(jobs)  # torn entry quarantined, recomputed
        assert records_of(results) == reference
        assert not results[0].cache_hit
        assert cache.stats.quarantined == 1

    def test_checksum_stripped_from_loaded_records(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.store("ab" * 32, {"program_text": "x", "seconds": 0.1})
        entry = cache.lookup("ab" * 32)
        assert entry is not None and "checksum" not in entry

    def test_missing_checksum_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        fingerprint = "cd" * 32
        path = cache._entry_path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:  # a pre-checksum (v1) era entry
            json.dump({"program_text": "x"}, handle)
        assert cache.lookup(fingerprint) is None
        assert cache.stats.quarantined == 1

    def test_record_checksum_ignores_embedded_checksum(self):
        entry = {"a": 1, "b": [1, 2]}
        digest = record_checksum(entry)
        assert record_checksum({**entry, "checksum": digest}) == digest

    def test_io_errors_are_counted_not_swallowed(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.store("ef" * 32, {"program_text": "x"})

        def broken_utime(*args, **kwargs):
            raise OSError("disk says no")

        monkeypatch.setattr(os, "utime", broken_utime)
        assert cache.lookup("ef" * 32) is not None  # hit still served
        assert cache.stats.io_errors == 1
        assert cache.stats.as_dict()["cache_io_errors"] == 1


# ---------------------------------------------------------------------------
# Pool breakage -> serial degradation
# ---------------------------------------------------------------------------


class TestPoolDegradation:
    def test_spawn_failure_degrades_to_serial(self):
        jobs = tiny_jobs(2)
        reference = baseline_records(jobs)
        faults.configure("pool.spawn=1.0")  # no worker can ever spawn
        scheduler = BatchScheduler(workers=2)
        results = scheduler.run(jobs)
        assert records_of(results) == reference
        assert scheduler.stats.degraded_serial == 1

    def test_partial_spawn_failure_runs_on_surviving_workers(self):
        jobs = tiny_jobs(2)
        reference = baseline_records(jobs)
        faults.configure("pool.spawn=1.0:once")  # first spawn fails, rest live
        scheduler = BatchScheduler(workers=2)
        results = scheduler.run(jobs)
        assert records_of(results) == reference
        assert scheduler.stats.degraded_serial == 0


# ---------------------------------------------------------------------------
# Satellites: non-strict results, spawn-safe queue accounting
# ---------------------------------------------------------------------------


class TestFailureResults:
    def test_strict_to_synthesis_result_raises(self):
        goal = tiny_goal()
        cancelled = JobResult(tag="t", fingerprint="f", cancelled=True)
        with pytest.raises(ValueError, match="cancelled"):
            cancelled.to_synthesis_result(goal)

    def test_non_strict_returns_explicit_failure(self):
        goal = tiny_goal()
        for job_result, expected in [
            (JobResult(tag="t", fingerprint="f", cancelled=True), "cancelled"),
            (JobResult(tag="t", fingerprint="f", error="boom"), "boom"),
            (
                JobResult(tag="t", fingerprint="f", timed_out=True, hard_timed_out=True),
                "hard timeout",
            ),
        ]:
            result = job_result.to_synthesis_result(goal, strict=False)
            assert result.program is None
            assert expected in result.stats["service_failure"]

    def test_run_goals_non_strict_survives_poison(self):
        faults.configure("worker.crash=1.0")
        scheduler = BatchScheduler(workers=2)
        goals = [tiny_goal("g0"), tiny_goal("g1")]
        results = scheduler.run_goals(goals, tiny_config(), strict=False)
        assert [r.goal.name for r in results] == ["g0", "g1"]
        assert all(r.program is None and "service_failure" in r.stats for r in results)

    def test_queue_seconds_zero_under_spawn_clock_domain(self):
        scheduler = BatchScheduler(workers=0)
        payload = scheduler._payload(tiny_jobs(1)[0], clock_shared=False)
        assert "submitted" not in payload
        shared = scheduler._payload(tiny_jobs(1)[0], clock_shared=True)
        assert "submitted" in shared

    @pytest.mark.skipif(
        "spawn" not in __import__("multiprocessing").get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_reports_zero_queue_wait(self):
        jobs = tiny_jobs(1)
        scheduler = BatchScheduler(workers=2, start_method="spawn")
        (result,) = scheduler.run(jobs)
        assert result.succeeded
        assert result.queue_seconds == 0.0
        assert scheduler.stats.queue_seconds == 0.0


# ---------------------------------------------------------------------------
# Telemetry: failure traffic reaches stats and the metrics registry
# ---------------------------------------------------------------------------


class TestFailureTelemetry:
    def test_failure_counters_flow_into_cache_telemetry(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = tiny_jobs(2)
        faults.configure("worker.crash=1.0:once")
        BatchScheduler(workers=2, cache=cache).run(jobs)
        telemetry = cache.telemetry()
        totals = telemetry["totals"]
        assert totals["retries"] == 2
        assert totals["worker_kills"] == 2
        last = telemetry["last_run"]["scheduler"]
        assert last["retries"] == 2 and last["pool_rebuilds"] >= 1

    def test_stats_as_dict_has_failure_keys(self):
        scheduler = BatchScheduler(workers=1)
        scheduler.run(tiny_jobs(1))
        data = scheduler.stats.as_dict()
        for key in (
            "retries",
            "worker_kills",
            "hard_timeouts",
            "poisoned",
            "pool_rebuilds",
            "degraded_serial",
        ):
            assert data[key] == 0  # present, and zero on a fault-free run
