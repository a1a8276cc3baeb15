"""Warm solver state for long-lived synthesis workers.

A batch-mode worker builds the hash-consed term intern table, the shared
Tseitin gate cache and its clause database (gate clauses plus learned theory
lemmas) from scratch for every job.
PR 7's workers are already long-lived processes, so the intern table persists
for free — but the :class:`~repro.smt.solver.Solver` (atom table, gate cache,
clause database, validity/model LRUs) was still created per job.  This module
keeps **one solver per worker process** and hands it to every job the worker
executes, which is the single biggest cross-job win available (ROADMAP item
1): the second job onward replays gates, propagates earlier theory lemmas and
hits the validity cache instead of re-deriving everything.

Sharing is sound for the byte-identity contract because the search is
verdict-driven (``repro.core.synthesizer``): the solver only ever contributes
semantically determined boolean answers, theory lemmas are valid facts about
the theory, and interned terms already persist process-wide.  Warm state can
change *how fast* a verdict arrives, never the verdict — so programs are
byte-identical warm or cold, which ``REPRO_WARM=off`` lets CI prove by A/B.

Lifecycle: the per-process :class:`WarmState` singleton is created on first
use and serves jobs for the life of the process.  The solver bounds its own
state: the encoder starts a new clause database (and gate cache) when the old
one reaches its bound, and the validity/model caches are LRUs, so the verdict
caches outlive a database rebuild.  Only the atom table grows with the
distinct theory atoms the worker has seen.  Every job gets a ``warm``
counter block (cache sizes found at job start, reuse hits during the job,
database rebuilds so far) that the scheduler strips from cached records and
aggregates into the ``warm_state`` block of scheduler/server stats.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.smt.solver import Solver, delta

#: Environment escape hatch: ``off``/``0``/``false``/``no`` vetoes warm
#: execution even when the scheduler requested it (the byte-identity A/B
#: guard in CI runs the same jobs with REPRO_WARM=off and diffs programs).
ENV_WARM = "REPRO_WARM"


def env_allows() -> bool:
    """Whether the environment permits warm execution (default: yes)."""
    return os.environ.get(ENV_WARM, "").strip().lower() not in ("off", "0", "false", "no")


def enabled(requested: object) -> bool:
    """Warm execution happens iff the payload asked for it AND env allows."""
    return bool(requested) and env_allows()


class WarmState:
    """One worker process's resident solver plus its reuse accounting."""

    def __init__(self) -> None:
        self.solver = Solver()
        #: Jobs served by this process's warm solver, monotonically.
        self.jobs_served = 0

    def begin_job(self) -> Tuple[Solver, Dict[str, int]]:
        """Hand out the warm solver plus the sizes found at job start."""
        self.jobs_served += 1
        sizes = self.solver.warm_sizes()
        snapshot = self.solver.counters_snapshot()
        return self.solver, {"sizes": sizes, "snapshot": snapshot}

    def finish_job(self, ctx: Dict[str, int]) -> Dict[str, object]:
        """The per-job ``warm`` counter block (shipped in the result record).

        ``reused`` is the proof obligation of the tentpole: true exactly when
        the job *started* with nonempty warm caches, i.e. on job N>1 of a
        worker.  The hit counters below are this job's traffic against those
        caches; ``resets`` counts the worker's database rebuilds so far.
        """
        after = self.solver.counters_snapshot()
        sizes = ctx["sizes"]
        job = delta(ctx["snapshot"], after)
        return {
            "enabled": True,
            "worker_job": self.jobs_served,
            "reused": any(sizes.values()),
            "gate_entries_at_start": sizes["gate_entries"],
            "atom_entries_at_start": sizes["atom_entries"],
            "sat_clauses_at_start": sizes["sat_clauses"],
            "valid_entries_at_start": sizes["valid_entries"],
            "gate_hits": job["gate_hits"],
            "gate_clauses_reused": job["gate_clauses_reused"],
            "valid_hits": job["valid_cache_hits"],
            "model_hits": job["model_cache_hits"],
            "resets": after["database_resets"],
        }


#: The per-process singleton (one warm solver per worker process).
_STATE: Optional[WarmState] = None


def state() -> WarmState:
    global _STATE
    if _STATE is None:
        _STATE = WarmState()
    return _STATE


def reset() -> None:
    """Drop the process's warm state entirely (tests, forked pools)."""
    global _STATE
    _STATE = None


def aggregate(block: Dict[str, object], job_warm: Dict[str, object]) -> None:
    """Fold one job's ``warm`` block into a run-level ``warm_state`` block.

    Totals sum the *reuse* traffic — hits scored by jobs that began with
    nonempty warm caches (job N>1 of a worker); ``peak_*`` record the largest
    pre-existing cache state any job observed at start.
    """
    block["jobs"] = int(block.get("jobs", 0)) + 1
    if job_warm.get("reused"):
        block["reused_jobs"] = int(block.get("reused_jobs", 0)) + 1
        for key in ("gate_hits", "gate_clauses_reused", "valid_hits", "model_hits"):
            block[key] = int(block.get(key, 0)) + int(job_warm.get(key, 0))
    for key in ("gate_entries_at_start", "atom_entries_at_start", "sat_clauses_at_start"):
        peak = "peak_" + key.replace("_at_start", "")
        block[peak] = max(int(block.get(peak, 0)), int(job_warm.get(key, 0)))
    block["resets"] = max(int(block.get("resets", 0)), int(job_warm.get("resets", 0)))
