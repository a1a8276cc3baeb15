"""Batch synthesis service.

This package turns the single-goal synthesizer into a batch service, the
layer every scaling PR (sharding, async APIs, multi-backend) builds on:

* :mod:`repro.service.codec` — JSON codecs for sorts, terms, types, programs
  and configurations, so goals and results cross process and machine
  boundaries without pickling closures;
* :mod:`repro.service.fingerprint` — canonical content fingerprints of
  (goal, component library, configuration) triples;
* :mod:`repro.service.cache` — a persistent content-addressed result cache
  keyed by those fingerprints;
* :mod:`repro.service.scheduler` — jobs, results and the supervised worker
  pool, plus :class:`BatchScheduler`, which fans goals out over it and
  collects results deterministically;
* :mod:`repro.service.supervisor` — the one scheduling loop behind batch
  runs, portfolio races and the server: per-job soft timeouts *and*
  parent-enforced hard deadlines, crash retry with backoff, poison-job
  detection, cache, dedup and cancellation;
* :mod:`repro.service.faults` — deterministic fault injection (worker
  crash/hang, cache corruption, spawn failure) for chaos-testing the above;
* :mod:`repro.service.specs` — declarative goal specifications (JSON/TOML)
  so new scenarios can be defined without writing Python;
* ``python -m repro.service`` — the CLI entry point (see
  :mod:`repro.service.__main__`).
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.faults import FaultPlan, FaultRule, FaultSpecError
from repro.service.faults import configure as configure_faults
from repro.service.faults import plan as fault_plan
from repro.service.fingerprint import canonical_json, job_fingerprint
from repro.service.scheduler import BatchScheduler, Job, JobResult, SchedulerStats, job_for_goal
from repro.service.specs import (
    SPEC_FORMAT,
    export_table_spec,
    jobs_from_spec,
    load_spec,
    spec_from_benchmarks,
    write_spec,
)

__all__ = [
    "BatchScheduler",
    "CacheStats",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "Job",
    "JobResult",
    "ResultCache",
    "SPEC_FORMAT",
    "SchedulerStats",
    "canonical_json",
    "configure_faults",
    "export_table_spec",
    "fault_plan",
    "job_fingerprint",
    "job_for_goal",
    "jobs_from_spec",
    "load_spec",
    "spec_from_benchmarks",
    "write_spec",
]
