"""The one supervisor: every scheduling decision over a :class:`WorkerPool`.

Batch runs (:class:`~repro.service.scheduler.BatchScheduler`), portfolio
races and the long-running server (:mod:`repro.service.serve`) all drive the
same :class:`Supervisor`.  It is the only owner of the dispatch queue, the
retry heap and its backoff, the poison memory, cache lookup/store, in-flight
deduplication, record stripping, stats tallies and the in-process fallback;
callers only submit jobs and step it.

Work arrives as *job groups*, each with a completion policy:

* a plain job is a group of one *unit* (one dispatchable job) and finishes
  with that unit's result;
* an asymptotic job is a group whose units are the rungs of its bound
  ladder, finished by the :class:`~repro.portfolio.runner.Ladder` policy —
  the lowest-index success wins, rungs above it are cancelled, and the win
  is final once every rung below it has resolved.

Units of every group share one FIFO queue and one pool, so a batch of
portfolio goals interleaves all their rungs.  Failure semantics are decided
here once for every caller:

* **hard deadline** — the pool kills a worker at soft timeout + grace;
* **crash / hang** — :func:`~repro.service.scheduler.classify_failure`
  picks retry (deterministic capped exponential backoff), poison or a final
  failure.  Worker kills are remembered per fingerprint (per unit when a job
  has none) for the supervisor's lifetime, so a job that already killed
  ``POISON_KILLS`` workers is refused on resubmission;
* **degradation** — with no pool, or no live worker left in it, queued
  units run in-process one at a time (worker fault injection never fires
  there: it is decided inside pool workers);
* **cancellation** — :meth:`Supervisor.cancel_all` finishes every open group
  as cancelled.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.portfolio.runner import Ladder, is_portfolio_job
from repro.service import faults
from repro.service.scheduler import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    DEFAULT_RETRIES,
    POISON_KILLS,
    Job,
    JobResult,
    SchedulerStats,
    WorkerPool,
    _execute_payload,
    classify_failure,
    job_payload,
    tally_result,
)

Emit = Callable[[dict], None]


@dataclass(eq=False)
class Group:
    """One submitted job and its completion policy."""

    seq: int
    job: Job
    #: Progress-event sink (the server streams these); None for batch runs.
    emit: Optional[Emit]
    submitted: float
    #: None for a plain job (a group of one unit), else the ladder policy.
    ladder: Optional[Ladder] = None
    units: List["Unit"] = field(default_factory=list)
    #: Same (fingerprint, timeout) submitted while this group was open; each
    #: receives a copy of its result.
    followers: List["Group"] = field(default_factory=list)
    #: Key of this group in the supervisor's open-group table.
    key: tuple = ()
    result: Optional[JobResult] = None


@dataclass(eq=False)
class Unit:
    """One dispatchable job: a plain job, or one rung of a ladder."""

    group: Group
    job: Job
    index: int = 0
    #: new | queued | retry | active | done
    state: str = "new"
    attempts: int = 0
    #: Worker kills charged here when the job has no fingerprint.
    kills: int = 0


def _soft_timeout(job: Job) -> Optional[float]:
    """The effective soft budget anchoring the parent's hard deadline."""
    config_timeout = job.config_json.get("timeout")
    soft = job.timeout
    if config_timeout is not None:
        soft = config_timeout if soft is None else min(soft, config_timeout)
    return soft


class Supervisor:
    """Queue, retries, dedup, poison memory and cache over one pool."""

    def __init__(
        self,
        stats: SchedulerStats,
        workers: int = 1,
        cache=None,
        retries: int = DEFAULT_RETRIES,
        warm: bool = False,
        on_finish: Optional[Callable[[Group], None]] = None,
    ) -> None:
        self.stats = stats
        self.cache = cache
        self.retries = retries
        #: Ask workers to reuse a resident solver (REPRO_WARM=off vetoes it).
        self.warm = warm
        #: Ladders race when there is more than one worker; otherwise they
        #: walk in order.
        self.racing = workers > 1
        #: Set by the caller once it starts one; None runs everything
        #: in-process (``workers <= 1``).
        self.pool: Optional[WorkerPool] = None
        #: Called once per finished group (leaders and dedup followers).
        self.on_finish = on_finish
        #: Guards the stats dicts and the poison memory against readers on
        #: other threads.
        self.lock = threading.Lock()
        #: Busy seconds per worker PID, from finished results.
        self.busy_seconds: Dict[int, float] = {}
        self._queue: Deque[Unit] = deque()
        self._retry: List[Tuple[float, int, Unit]] = []
        self._tickets = itertools.count()
        self._open: Dict[tuple, Group] = {}
        self._kills: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        job: Job,
        seq: int = 0,
        emit: Optional[Emit] = None,
        submitted: Optional[float] = None,
    ) -> Group:
        """Admit one job; it finishes now (cache hit, poison, dedup) or later."""
        group = Group(seq, job, emit, time.monotonic() if submitted is None else submitted)
        self.stats.jobs += 1
        self._emit(
            group, {"event": "queued", "id": seq, "tag": job.tag, "fingerprint": job.fingerprint}
        )
        early = self._lookup(job)
        if early is not None:
            if early.cache_hit:
                self.stats.cache_hits += 1
            else:
                self.stats.poisoned += 1
            self._finish(group, early)
            return group
        # Dedup on (fingerprint, timeout): the timeout is not part of the
        # fingerprint but decides whether a job times out, so jobs with
        # different budgets must not share one execution.
        group.key = (job.fingerprint, job.timeout) if job.fingerprint else (id(group),)
        leader = self._open.get(group.key)
        if leader is not None:
            self.stats.deduplicated += 1
            leader.followers.append(group)
            return group
        self._open[group.key] = group
        self.stats.synth_runs += 1
        if not is_portfolio_job(job):
            group.units = [Unit(group, job)]
            self._enqueue(group.units[0])
            return group
        ladder = group.ladder = Ladder(job, self.racing)
        group.units = [Unit(group, rung, index) for index, rung in enumerate(ladder.jobs)]
        for unit in group.units:
            early = self._lookup(unit.job)
            if early is not None:
                ladder.settle(unit.index, early)
        self._advance(group)
        return group

    def _lookup(self, job: Job) -> Optional[JobResult]:
        """A result that needs no execution: a poison refusal or a cache hit."""
        kills = self._kills.get(job.fingerprint, 0) if job.fingerprint else 0
        if kills >= POISON_KILLS:
            return JobResult(
                tag=job.tag,
                fingerprint=job.fingerprint,
                error=f"poison job: killed {kills} workers already; refusing to re-execute",
            )
        if self.cache is None or not job.fingerprint:
            return None
        entry = self.cache.lookup(job.fingerprint)
        if entry is None:
            return None
        return JobResult(
            tag=job.tag,
            fingerprint=job.fingerprint,
            record=entry,
            cache_hit=True,
            timed_out=bool(entry.get("timed_out")),
        )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """Whether any unit is queued, awaiting a retry, or running."""
        return bool(
            self._queue or self._retry or (self.pool is not None and self.pool.active_count)
        )

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + len(self._retry)

    def poisoned_fingerprints(self) -> int:
        with self.lock:
            return sum(1 for kills in self._kills.values() if kills >= POISON_KILLS)

    def step(self, extra=()) -> List[object]:
        """One round: promote due retries, dispatch, then wait for traffic.

        Waits on the pool's workers plus the ``extra`` waitables (a server's
        wake pipe) until the next event, hard deadline or due retry; returns
        the ``extra`` objects that became readable.
        """
        now = time.monotonic()
        while self._retry and self._retry[0][0] <= now:
            unit = heapq.heappop(self._retry)[2]
            unit.state = "queued"
            self._queue.appendleft(unit)
        pool = self.pool
        if self._queue and (pool is None or pool.live_count == 0):
            if pool is not None and not self.stats.degraded_serial:
                # Every worker is gone and none could be respawned.
                self.stats.degraded_serial = 1
            self._run_inline(self._queue.popleft())
            return []
        if pool is not None:
            while pool.idle_count and self._queue:
                unit = self._queue.popleft()
                if pool.dispatch(unit, self._pool_payload(unit), _soft_timeout(unit.job)):
                    self._started(unit)
                else:
                    # The idle worker was dead (not the job's fault); the
                    # pool replaced it, so the unit goes back to the head.
                    self._queue.appendleft(unit)
        bounds = [self._retry[0][0]] if self._retry else []
        deadline = pool.next_deadline() if pool is not None else None
        if deadline is not None:
            bounds.append(deadline)
        timeout = max(min(bounds) - time.monotonic(), 0.0) if bounds else None
        if pool is None or not (pool.active_count or extra):
            if timeout:
                time.sleep(timeout)  # nothing running: wait for the next retry
            return []
        events, ready = pool.poll(timeout, extra)
        for event in events:
            self._outcome(event.token, event.kind, event.body)
        return ready

    def _pool_payload(self, unit: Unit) -> dict:
        # The submission stamp is only comparable when parent and workers
        # share one monotonic clock domain (fork on Linux).
        submitted = unit.group.submitted if self.pool.clock_shared else None
        payload = job_payload(unit.job, self.warm, submitted)
        plan = faults.plan()
        if plan.active and (
            plan.rate(faults.WORKER_CRASH) > 0 or plan.rate(faults.WORKER_HANG) > 0
        ):
            # Worker faults are decided in the child, from the shipped plan.
            payload["faults"] = plan.to_spec()
            payload["faults_seed"] = plan.seed
            payload["fault_key"] = unit.job.fingerprint or unit.job.tag
            payload["attempt"] = unit.attempts
        return payload

    def _run_inline(self, unit: Unit) -> None:
        """The in-process backend: ``workers <= 1`` or a pool with no workers."""
        self._started(unit)
        try:
            record = _execute_payload(job_payload(unit.job, self.warm, unit.group.submitted))
        except Exception as exc:  # noqa: BLE001 - worker parity
            self._outcome(unit, "error", repr(exc))
        else:
            self._outcome(unit, "ok", record)

    def _started(self, unit: Unit) -> None:
        unit.state = "active"
        group = unit.group
        attempt = unit.attempts + 1
        if group.ladder is None:
            self._emit(group, {"event": "started", "id": group.seq, "attempt": attempt})
            return
        if group.ladder.start(unit.index):
            self.stats.variants_raced += 1
        self._emit(
            group,
            {
                "event": "variant_started",
                "id": group.seq,
                "variant": unit.index,
                "label": group.ladder.rungs[unit.index].label,
                "attempt": attempt,
            },
        )

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _outcome(self, unit: Unit, kind: str, body: object) -> None:
        """Handle one pool event: ``ok`` | ``error`` | ``crash`` | ``hang``."""
        if unit.state == "done":
            return  # reclaimed, or its group already finished
        if kind in ("crash", "hang"):
            self._worker_lost(unit, kind, str(body))
            return
        unit.attempts += 1
        job = unit.job
        if kind == "ok":
            result = self._complete(job, body, unit.attempts)
        else:
            result = JobResult(
                tag=job.tag, fingerprint=job.fingerprint, error=body, attempts=unit.attempts
            )
        self._settle(unit, result)

    def _complete(self, job: Job, record: dict, attempts: int) -> JobResult:
        # Scheduling timings and the warm counter block belong to *this run*,
        # not to the fingerprinted job: strip them so cache entries stay
        # byte-identical across runs and across warm/cold execution.
        queue_seconds = float(record.pop("queue_seconds", 0.0))
        run_seconds = float(record.pop("run_seconds", 0.0))
        warm_block = record.pop("warm", None)
        result = JobResult(
            tag=job.tag,
            fingerprint=job.fingerprint,
            record=record,
            timed_out=bool(record.get("timed_out")),
            attempts=attempts,
            queue_seconds=queue_seconds,
            run_seconds=run_seconds,
            worker_pid=int(record.get("worker_pid", 0)),
            warm=warm_block,
        )
        # Timed-out results depend on the clock and machine, not on the
        # fingerprint: persisting one would replay a stale failure forever.
        if self.cache is not None and job.fingerprint and not result.timed_out:
            self.cache.store(job.fingerprint, record)
        return result

    def _worker_lost(self, unit: Unit, cause: str, detail: str) -> None:
        """A worker died under ``unit``: retry, poison, or final failure."""
        job = unit.job
        unit.attempts += 1
        if job.fingerprint:
            with self.lock:  # poisoned_fingerprints() reads it from other threads
                kills = self._kills[job.fingerprint] = self._kills.get(job.fingerprint, 0) + 1
        else:
            unit.kills += 1
            kills = unit.kills
        if cause == "hang":
            self.stats.hard_timeouts += 1
        budget = job.retries if job.retries is not None else self.retries
        verdict = classify_failure(kills, unit.attempts, budget)
        if verdict == "retry":
            self.stats.retries += 1
            self._emit(
                unit.group,
                {
                    "event": "retry",
                    "id": unit.group.seq,
                    "attempt": unit.attempts,
                    "cause": cause,
                    "detail": detail,
                },
            )
            delay = min(BACKOFF_BASE * 2 ** (unit.attempts - 1), BACKOFF_CAP)
            unit.state = "retry"
            heapq.heappush(self._retry, (time.monotonic() + delay, next(self._tickets), unit))
            return
        failed = JobResult(tag=job.tag, fingerprint=job.fingerprint, attempts=unit.attempts)
        if verdict == "poison":
            self.stats.poisoned += 1
            failed.error = f"poison job: killed {kills} workers (last: {detail})"
        elif cause == "hang":
            failed.timed_out = failed.hard_timed_out = True
        else:
            failed.error = detail
        self._settle(unit, failed)

    def _settle(self, unit: Unit, result: JobResult) -> None:
        unit.state = "done"
        group = unit.group
        if group.ladder is None:
            self._finish(group, result)
        else:
            group.ladder.settle(unit.index, result)
            self._advance(group)

    def _advance(self, group: Group) -> None:
        """Apply the ladder policy: reclaim losers, conclude, or admit rungs."""
        ladder = group.ladder
        doomed, decided = ladder.step()
        for index in doomed:
            self._reclaim(group.units[index])
            self.stats.variants_cancelled += 1
            self._emit(
                group,
                {
                    "event": "variant_cancelled",
                    "id": group.seq,
                    "variant": index,
                    "label": ladder.rungs[index].label,
                },
            )
        if decided:
            self._finish(group, ladder.conclude(group.job))
            return
        for index in ladder.admit():
            self._enqueue(group.units[index])

    def _enqueue(self, unit: Unit) -> None:
        unit.state = "queued"
        self._queue.append(unit)

    def _reclaim(self, unit: Unit) -> None:
        """Withdraw a unit that can no longer matter, wherever it is."""
        if unit.state == "queued":
            self._queue.remove(unit)
        elif unit.state == "retry":
            self._retry = [entry for entry in self._retry if entry[2] is not unit]
            heapq.heapify(self._retry)
        elif unit.state == "active" and self.pool is not None:
            self.pool.cancel_token(unit)
        unit.state = "done"

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    def _finish(self, group: Group, result: JobResult) -> None:
        group.result = result
        for unit in group.units:
            unit.state = "done"
        if self._open.get(group.key) is group:
            del self._open[group.key]
        job = group.job
        if (
            group.ladder is not None
            and result.record is not None
            and self.cache is not None
            and job.fingerprint
            and not result.timed_out
        ):
            # The winner record, cached under the logical fingerprint.
            self.cache.store(job.fingerprint, result.record)
        self._done(group)
        for follower in group.followers:
            follower.result = JobResult(
                tag=follower.job.tag,
                fingerprint=follower.job.fingerprint,
                record=result.record,
                cache_hit=result.cache_hit,
                deduplicated=True,
                timed_out=result.timed_out,
                hard_timed_out=result.hard_timed_out,
                cancelled=result.cancelled,
                error=result.error,
                portfolio=result.portfolio,
            )
            self._done(follower)
        group.followers = []

    def _done(self, group: Group) -> None:
        with self.lock:
            tally_result(self.stats, group.result, self.busy_seconds)
        if self.on_finish is not None:
            self.on_finish(group)

    def cancel_all(self) -> None:
        """Finish every open group as cancelled (their units are dropped)."""
        for group in list(self._open.values()):
            self._finish(
                group,
                JobResult(
                    tag=group.job.tag,
                    fingerprint=group.job.fingerprint,
                    cancelled=True,
                    attempts=sum(unit.attempts for unit in group.units),
                ),
            )
        self._queue.clear()
        self._retry.clear()

    def _emit(self, group: Group, event: dict) -> None:
        if group.emit is None:
            return
        try:
            group.emit(event)
        except Exception:  # noqa: BLE001 - a dead client must not kill serving
            pass
