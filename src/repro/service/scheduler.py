"""Parallel job scheduler for batch synthesis, with fault tolerance.

Fans a set of synthesis jobs out over a pool of worker processes and collects
results *deterministically*: results come back in submission order regardless
of which worker finished first, and the synthesized programs are byte-identical
to a serial run because the search itself is deterministic and verdict-driven
(:mod:`repro.core.synthesizer`) — parallelism only changes who executes a job,
never what the job computes.

Jobs cross the process boundary as plain JSON-able payloads (goals and
configurations via :mod:`repro.service.codec` — component closures never get
pickled) and results come back as the records of
:meth:`repro.core.goals.SynthesisResult.to_record`.

The pool is supervised directly by the parent (one long-lived worker process
per slot, a duplex pipe each) rather than through ``multiprocessing.Pool``,
because fault tolerance needs powers ``Pool`` does not grant: killing exactly
one hung worker, noticing exactly which job died with a crashed one, and
respawning either without losing the rest of the batch.

Batch runs do not fork a pool per call: each process keeps at most one
*resident* pool, which :meth:`BatchScheduler.run` takes for a run and gives
back when the run ends normally, so its workers keep their process-wide
memos warm across calls (lifecycle and key under :meth:`BatchScheduler.run`).

This module holds the primitives: the job/result types, the worker entry
point and the :class:`WorkerPool`.  Every scheduling decision on top of them
— retries with backoff, poison verdicts, cache, dedup, portfolio ladders,
serial fallback, cancellation — is made by the one
:class:`~repro.service.supervisor.Supervisor`; :class:`BatchScheduler` is
its submit-all-and-drain front end (failure semantics in
``docs/ARCHITECTURE.md``).  Worker-level fault injection
(``worker.crash``/``worker.hang`` from :mod:`repro.service.faults`) only
applies to pool workers: in-process execution has no process boundary to
kill.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.core.goals import SynthesisGoal, SynthesisResult
from repro.service import faults, warm
from repro.service.cache import ResultCache
from repro.service.codec import config_from_json, config_to_json, goal_from_json, goal_to_json
from repro.service.fingerprint import job_fingerprint

#: Default number of times a crash-classified failure is re-executed.
DEFAULT_RETRIES = 2
#: Default seconds past the soft timeout before the parent kills a worker.
DEFAULT_GRACE = 5.0
#: A job that costs this many worker processes is poison: error, never retry.
POISON_KILLS = 2
#: Deterministic capped exponential backoff: base * 2**(attempt-1), <= cap.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0
#: Exit code of an injected worker crash (visible in error results).
_CRASH_EXIT = 73
#: How long an injected hang sleeps per nap; the parent's hard deadline is
#: what ends it, the chunking only keeps the child responsive to signals.
_HANG_NAP = 3600.0


#: Counter keys that are plain sums and therefore meaningful to aggregate
#: across workers (rates and averages are recomputed, never summed).
def _summable(key: str, value: object) -> bool:
    return isinstance(value, (int, float)) and not key.endswith(("_rate", "_avg_core_size"))


def classify_failure(kills: int, attempts: int, retry_budget: int) -> str:
    """Shared worker-loss verdict: ``poison`` | ``retry`` | ``final``.

    Decided in one place (the supervisor) for batch runs, portfolio rungs
    and the long-running server alike.
    """
    if kills >= POISON_KILLS:
        return "poison"
    if attempts <= retry_budget:
        return "retry"
    return "final"


@dataclass(frozen=True)
class Job:
    """One schedulable synthesis problem, fully serializable."""

    goal_json: dict
    config_json: dict
    #: Caller-chosen label used to correlate results (e.g. ``t1_append/resyn``).
    tag: str
    #: Per-job wall-clock budget; overrides the config timeout when tighter.
    timeout: Optional[float] = None
    #: Per-job retry budget for crash-classified failures; ``None`` uses the
    #: scheduler's.  Like ``timeout``, retry policy is *scheduling*, not part
    #: of the synthesis problem, so it is excluded from the fingerprint.
    retries: Optional[int] = None
    fingerprint: str = ""

    def goal(self) -> SynthesisGoal:
        return goal_from_json(self.goal_json)

    def config(self) -> SynthesisConfig:
        return config_from_json(self.config_json)


def job_for_goal(
    goal: SynthesisGoal,
    config: Optional[SynthesisConfig] = None,
    tag: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> Job:
    """Package a goal + configuration as a schedulable, cache-addressable job.

    Raises :class:`ValueError` when ``timeout`` (here or on ``config``) is not
    a finite non-negative number or ``retries`` not a non-negative integer:
    the supervisor computes deadlines and retry budgets from them.
    """
    config = config or SynthesisConfig.resyn()
    for value in (timeout, config.timeout):
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if value is not None and not (numeric and 0 <= value < math.inf):
            raise ValueError(f"'timeout' must be a non-negative number of seconds, got {value!r}")
    if retries is not None and (type(retries) is not int or retries < 0):
        raise ValueError(f"'retries' must be a non-negative integer, got {retries!r}")
    return Job(
        goal_json=goal_to_json(goal),
        config_json=config_to_json(config),
        tag=tag if tag is not None else goal.name,
        timeout=timeout,
        retries=retries,
        fingerprint=job_fingerprint(goal, config),
    )


@dataclass
class JobResult:
    """Outcome of one job: a result record plus scheduling metadata."""

    tag: str
    fingerprint: str
    record: Optional[Dict[str, object]] = None
    cache_hit: bool = False
    #: Another job in the same batch had the same fingerprint and ran for us.
    deduplicated: bool = False
    timed_out: bool = False
    #: The parent killed the worker at the hard deadline (soft + grace).
    hard_timed_out: bool = False
    cancelled: bool = False
    error: Optional[str] = None
    #: Execution attempts consumed (0 = served without executing: cache/dedup).
    attempts: int = 0
    #: Time the job sat in the queue before a worker picked it up (seconds).
    queue_seconds: float = 0.0
    #: Wall-clock the worker spent executing the job (seconds).
    run_seconds: float = 0.0
    #: PID of the worker process that executed the job (0 = not executed).
    worker_pid: int = 0
    #: Warm-solver counter block from the executing worker (None when the job
    #: ran cold).  Stripped from the record before caching, like the timings.
    warm: Optional[Dict[str, object]] = None
    #: Run-level portfolio attribution (None for non-portfolio jobs): how the
    #: race actually unfolded — per-variant outcomes, cancellations, timings.
    #: Timing-dependent, so carried here rather than in the cached record;
    #: the deterministic part of the attribution (winner, ladder) lives in
    #: ``record["stats"]["portfolio"]``.
    portfolio: Optional[Dict[str, object]] = None

    @property
    def succeeded(self) -> bool:
        return self.record is not None and self.record.get("program") is not None

    @property
    def program_text(self) -> Optional[str]:
        return self.record.get("program_text") if self.record else None

    @property
    def seconds(self) -> float:
        return float(self.record.get("seconds", 0.0)) if self.record else 0.0

    @property
    def stats(self) -> Dict[str, object]:
        return dict(self.record.get("stats") or {}) if self.record else {}

    def failure_reason(self) -> Optional[str]:
        """Human-readable reason when no record was produced (else ``None``)."""
        if self.record is not None:
            return None
        if self.error is not None:
            return self.error
        if self.hard_timed_out:
            return "hard timeout (worker killed at soft timeout + grace)"
        if self.cancelled:
            return "cancelled"
        return "no record"

    def to_synthesis_result(self, goal: SynthesisGoal, strict: bool = True) -> SynthesisResult:
        """Rebuild the full :class:`SynthesisResult` for ``goal``.

        Jobs that produced no record (cancelled, crashed, hard-timed-out)
        raise in strict mode; with ``strict=False`` they come back as an
        explicit failure result (no program, the reason under
        ``stats["service_failure"]``) so one bad job does not abort
        consumption of a whole batch.
        """
        if self.record is not None:
            return SynthesisResult.from_record(self.record, goal)
        reason = self.failure_reason() or "no record"
        if strict:
            raise ValueError(f"job {self.tag!r} produced no record ({reason})")
        return SynthesisResult(
            goal=goal, program=None, seconds=0.0, stats={"service_failure": reason}
        )


@dataclass
class SchedulerStats:
    """Aggregated statistics of one :meth:`BatchScheduler.run` call."""

    jobs: int = 0
    workers: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    #: Jobs that actually invoked the synthesizer (misses minus dedups).
    synth_runs: int = 0
    timeouts: int = 0
    cancelled: int = 0
    errors: int = 0
    #: Crash-classified re-executions performed this run.
    retries: int = 0
    #: Worker processes lost mid-job (crashed on their own or parent-killed).
    worker_kills: int = 0
    #: Jobs whose worker was killed at the hard deadline (soft + grace).
    hard_timeouts: int = 0
    #: Jobs declared poison after killing POISON_KILLS workers.
    poisoned: int = 0
    #: Replacement workers spawned after a loss (pool rebuilds).
    pool_rebuilds: int = 0
    #: Portfolio variants dispatched across all portfolio races this run.
    variants_raced: int = 0
    #: Portfolio variants cancelled because a higher-priority variant won.
    variants_cancelled: int = 0
    #: 1 when pool creation failed entirely and jobs ran on the serial backend.
    degraded_serial: int = 0
    wall_seconds: float = 0.0
    #: Sum of per-job synthesis seconds actually spent this run
    #: (serial-equivalent work performed).
    cpu_seconds: float = 0.0
    #: Synthesis seconds avoided by cache hits and in-batch deduplication
    #: (from the stored records of the original runs).
    saved_seconds: float = 0.0
    #: Total seconds jobs spent waiting in the queue before a worker picked
    #: them up (submission to execution start, summed over executed jobs).
    queue_seconds: float = 0.0
    #: Total seconds workers spent executing jobs (the busy time that
    #: ``worker_utilization`` divides by the wall clock).
    run_seconds: float = 0.0
    #: Busy fraction per worker, keyed ``w0..wN`` (workers sorted by PID).
    worker_utilization: Dict[str, float] = field(default_factory=dict)
    #: Solver/search counters summed across all completed jobs.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Warm-solver reuse across jobs (empty when the run executed cold).
    #: ``reused_jobs`` counts jobs that started with nonempty warm caches —
    #: the proof that worker state survived between jobs.
    warm_state: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "synth_runs": self.synth_runs,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "retries": self.retries,
            "worker_kills": self.worker_kills,
            "hard_timeouts": self.hard_timeouts,
            "poisoned": self.poisoned,
            "pool_rebuilds": self.pool_rebuilds,
            "variants_raced": self.variants_raced,
            "variants_cancelled": self.variants_cancelled,
            "degraded_serial": self.degraded_serial,
            "wall_seconds": round(self.wall_seconds, 4),
            "cpu_seconds": round(self.cpu_seconds, 4),
            "saved_seconds": round(self.saved_seconds, 4),
            "queue_seconds": round(self.queue_seconds, 4),
            "run_seconds": round(self.run_seconds, 4),
            "worker_utilization": dict(self.worker_utilization),
            "counters": dict(self.counters),
            "warm_state": dict(self.warm_state),
        }


def job_payload(job: Job, warm: bool = False, submitted: Optional[float] = None) -> dict:
    """The payload :func:`_execute_payload` decodes (the one payload builder).

    ``submitted`` is the monotonic submission stamp.  Pass it only when both
    ends share one clock domain (in-process, or fork on Linux); under spawn
    it is omitted so queue wait reports 0.0 instead of garbage.
    """
    payload = {"goal": job.goal_json, "config": job.config_json, "timeout": job.timeout}
    if warm:
        payload["warm"] = True
    if submitted is not None:
        payload["submitted"] = submitted
    return payload


def _execute_payload(payload: dict) -> dict:
    """Worker entry point: decode, synthesize, return a plain record.

    Must stay importable at module level (pickled by reference under the
    ``spawn`` start method).  Never raises for synthesis-level failures — a
    timeout or search exhaustion is a *result* (no program), not an error.
    """
    from repro.core.synthesizer import synthesize

    started = time.monotonic()
    goal = goal_from_json(payload["goal"])
    config = config_from_json(payload["config"])
    job_timeout = payload.get("timeout")
    if job_timeout is not None and (config.timeout is None or job_timeout < config.timeout):
        config.timeout = job_timeout
    # Warm execution: reuse this process's resident solver (gate cache, atom
    # table, clause database, validity/model LRUs) across jobs.  Requested by the
    # scheduler per payload, vetoed by REPRO_WARM=off in the *worker's*
    # environment — sound either way because the search is verdict-driven,
    # so warm caches change cost, never the synthesized program.
    warm_ctx = None
    if warm.enabled(payload.get("warm")):
        warm_state = warm.state()
        solver, warm_ctx = warm_state.begin_job()
        result = synthesize(goal, config, solver=solver)
    else:
        result = synthesize(goal, config)
    record = result.to_record()
    if warm_ctx is not None:
        record["warm"] = warm_state.finish_job(warm_ctx)
    record["worker_pid"] = os.getpid()
    # Queue wait = submission to execution start.  The parent only includes
    # the "submitted" stamp when both stamps live in one monotonic clock
    # domain: in-process (serial backend) or across fork on Linux, where
    # CLOCK_MONOTONIC is system-wide.  Under spawn the stamp is omitted and
    # queue wait reports 0.0 instead of cross-domain garbage.
    submitted = payload.get("submitted")
    record["queue_seconds"] = max(started - submitted, 0.0) if submitted is not None else 0.0
    record["run_seconds"] = time.monotonic() - started
    soft_timeout = config.timeout
    record["timed_out"] = bool(
        record["program"] is None and soft_timeout is not None and result.seconds >= soft_timeout
    )
    return record


def _worker_loop(conn) -> None:
    """Long-lived pool worker: receive payloads, synthesize, send records.

    Injected faults are decided here — in the child, from the plan shipped
    inside each payload — so the serial backend (which calls
    :func:`_execute_payload` directly) can never crash or hang the parent.
    """
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if payload is None:
            break
        spec = payload.get("faults")
        if spec:
            plan = faults.FaultPlan.parse(spec, seed=payload.get("faults_seed", 0))
            key = payload.get("fault_key", "")
            attempt = payload.get("attempt", 0)
            if plan.fires(faults.WORKER_CRASH, key, attempt):
                os._exit(_CRASH_EXIT)
            if plan.fires(faults.WORKER_HANG, key, attempt):
                while True:  # the parent's hard deadline ends this
                    time.sleep(_HANG_NAP)
        try:
            record = _execute_payload(payload)
        except KeyboardInterrupt:
            break
        except Exception as exc:  # noqa: BLE001 - shipped to the parent as data
            try:
                conn.send(("error", repr(exc)))
            except (OSError, ValueError):
                break
        else:
            try:
                conn.send(("ok", record))
            except (OSError, ValueError):
                break


class _Worker:
    """One supervised pool worker: a process plus its duplex pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_loop, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def pid(self) -> int:
        return self.proc.pid or 0

    @property
    def exitcode(self) -> Optional[int]:
        return self.proc.exitcode

    def kill(self) -> None:
        """Forcibly terminate (hung or crashed worker)."""
        try:
            self.proc.kill()
        except (OSError, AttributeError):
            self.proc.terminate()
        self.proc.join(timeout=5.0)
        self.conn.close()

    def request_stop(self) -> None:
        """Send the shutdown sentinel (first half of an orderly stop)."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass

    def finish_stop(self, deadline: float) -> None:
        """Wait for the exit until ``deadline``, then escalate to terminate."""
        self.proc.join(timeout=max(deadline - time.monotonic(), 0.0))
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        self.conn.close()


def _pool_context(start_method: Optional[str] = None):
    """The multiprocessing context pools use: ``start_method``, else fork.

    fork is dramatically cheaper (no re-import per worker) and the synthesis
    pipeline is single-threaded, so it is the default wherever it exists.
    """
    if start_method is None and "fork" in multiprocessing.get_all_start_methods():
        start_method = "fork"
    return multiprocessing.get_context(start_method)


@dataclass
class _Active:
    """Bookkeeping for a job currently executing on a worker."""

    #: Caller-supplied dispatch token (the supervisor's unit handle).
    token: object
    started: float
    #: Parent-enforced kill time (monotonic), None when the job has no soft
    #: timeout to anchor it.
    deadline: Optional[float]


@dataclass
class PoolEvent:
    """One worker-pool outcome delivered by :meth:`WorkerPool.poll`."""

    #: ``ok`` (record in ``body``) | ``error`` (message) | ``crash`` | ``hang``.
    kind: str
    token: object
    body: object
    worker_pid: int = 0


class WorkerPool:
    """A supervised pool of long-lived synthesis workers.

    A long-running server (:mod:`repro.service.serve`) keeps its own pool
    resident across requests — preserving each worker's warm solver state —
    and batch runs share the process's one resident batch pool
    (:meth:`BatchScheduler.run`).  The pool owns process
    lifecycle only: spawn (the ``pool.spawn`` fault point), dispatch, crash
    detection, parent-enforced hard deadlines, kill + respawn.  Retry
    budgets, poison verdicts and result bookkeeping belong to the
    :class:`~repro.service.supervisor.Supervisor`.
    """

    def __init__(self, size: int, ctx=None, grace: float = DEFAULT_GRACE) -> None:
        if size < 1:
            raise ValueError("pool size must be positive")
        self.size = size
        self.grace = grace
        self._ctx = ctx if ctx is not None else _pool_context()
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._active: Dict[_Worker, _Active] = {}
        self._spawn_seq = 0
        #: Workers lost (crashed on their own or parent-killed), cumulative.
        self.kills = 0
        #: Replacement workers spawned after a loss, cumulative.
        self.rebuilds = 0
        #: Workers deliberately killed to cancel their job (portfolio losers),
        #: cumulative; each is replaced, but neither the kill nor the
        #: replacement is failure traffic (``kills``/``rebuilds``), so a
        #: cancel never feeds poison verdicts or fault counters.
        self.cancels = 0
        #: Partial busy seconds charged to workers retired mid-job, by PID.
        self.busy_charges: Dict[int, float] = {}

    @property
    def clock_shared(self) -> bool:
        """Whether parent and workers share one monotonic clock domain."""
        return self._ctx.get_start_method() == "fork"

    @property
    def live_count(self) -> int:
        return len(self._workers)

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def _try_spawn(self) -> Optional[_Worker]:
        """One spawn attempt (the ``pool.spawn`` fault point); None on failure."""
        seq = self._spawn_seq
        self._spawn_seq += 1
        if faults.plan().fires(faults.POOL_SPAWN, "spawn", seq):
            return None
        try:
            return _Worker(self._ctx)
        except OSError:
            return None

    def start(self) -> int:
        """Spawn up to ``size`` workers; returns the live count."""
        for _ in range(self.size - len(self._workers)):
            worker = self._try_spawn()
            if worker is not None:
                self._workers.append(worker)
                self._idle.append(worker)
        return len(self._workers)

    def _retire(self, worker: _Worker, charge_started: Optional[float]) -> None:
        """Replace a lost worker, charging its partial busy time."""
        if charge_started is not None:
            self.busy_charges[worker.pid] = self.busy_charges.get(worker.pid, 0.0) + max(
                time.monotonic() - charge_started, 0.0
            )
        if worker in self._workers:
            self._workers.remove(worker)
        worker.kill()
        self.kills += 1
        if self._respawn():
            self.rebuilds += 1

    def _respawn(self) -> bool:
        worker = self._try_spawn()
        if worker is None:
            return False
        self._workers.append(worker)
        self._idle.append(worker)
        return True

    def dispatch(self, token: object, payload: dict, soft_timeout: Optional[float]) -> bool:
        """Send ``payload`` to an idle worker.

        Returns ``False`` when the chosen idle worker turned out to be dead
        (it is retired and a replacement spawned); the caller should requeue
        the token.  Raises :class:`IndexError` if no worker is idle.
        """
        worker = self._idle.pop()
        try:
            worker.conn.send(payload)
        except (OSError, ValueError):
            self._retire(worker, charge_started=None)
            return False
        now = time.monotonic()
        deadline = now + soft_timeout + self.grace if soft_timeout is not None else None
        self._active[worker] = _Active(token, now, deadline)
        return True

    def cancel_token(self, token: object) -> bool:
        """Kill the worker executing ``token`` and spawn a replacement.

        Used by the supervisor to reclaim a worker from a losing portfolio
        variant the moment a higher-priority variant succeeds.  The kill and
        its replacement are counted under :attr:`cancels` (not :attr:`kills`
        or :attr:`rebuilds`) and no event is emitted for the token — the
        caller already decided the job's fate.
        Returns ``False`` if ``token`` is not currently active.
        """
        for worker, entry in list(self._active.items()):
            if entry.token is token:
                del self._active[worker]
                if worker in self._workers:
                    self._workers.remove(worker)
                worker.kill()
                self.cancels += 1
                self._respawn()
                return True
        return False

    def next_deadline(self) -> Optional[float]:
        """Earliest parent-enforced kill time among active jobs (monotonic)."""
        deadlines = [e.deadline for e in self._active.values() if e.deadline is not None]
        return min(deadlines) if deadlines else None

    def poll(self, timeout: Optional[float], extra=()) -> Tuple[List[PoolEvent], List[object]]:
        """Wait for worker traffic, collect outcomes, enforce hard deadlines.

        ``extra`` file-like objects (e.g. a server's wake pipe) join the
        ``connection.wait`` call; the readable ones come back as the second
        element so a caller can multiplex its own wakeups with pool events.
        """
        conns = [worker.conn for worker in self._active]
        waitables = conns + list(extra)
        ready = (
            multiprocessing.connection.wait(waitables, timeout=timeout) if waitables else []
        )
        by_conn = {worker.conn: worker for worker in self._active}
        events: List[PoolEvent] = []
        ready_extra: List[object] = []
        for conn in ready:
            worker = by_conn.get(conn)
            if worker is None:
                ready_extra.append(conn)
                continue
            entry = self._active.pop(worker)
            try:
                status, body = conn.recv()
            except (EOFError, OSError):
                # The worker died mid-job (crash).
                exitcode = worker.exitcode
                pid = worker.pid
                self._retire(worker, charge_started=entry.started)
                events.append(
                    PoolEvent("crash", entry.token, f"worker crashed (exit {exitcode})", pid)
                )
                continue
            self._idle.append(worker)
            events.append(
                PoolEvent("ok" if status == "ok" else "error", entry.token, body, worker.pid)
            )
        # Parent-enforced hard deadlines: a worker that blew through
        # soft + grace is killed and its job classified a hang.
        now = time.monotonic()
        for worker, entry in list(self._active.items()):
            if entry.deadline is not None and now >= entry.deadline:
                del self._active[worker]
                pid = worker.pid
                self._retire(worker, charge_started=entry.started)
                events.append(
                    PoolEvent(
                        "hang",
                        entry.token,
                        "hard timeout (worker killed at soft + grace)",
                        pid,
                    )
                )
        return events, ready_extra

    def stop(self) -> None:
        """Orderly shutdown of every worker, in parallel.

        The sentinel goes to every worker before any is joined, so shutdown
        waits for the slowest worker rather than for the sum of them.  A
        worker still running a job (a cancelled run) is terminated at once:
        its result would be discarded anyway.  Stragglers past the shared
        deadline are escalated to terminate.
        """
        workers = list(self._workers)
        for worker in workers:
            worker.request_stop()
        for worker in self._active:
            worker.proc.terminate()
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.finish_stop(deadline)
        self._workers.clear()
        self._idle.clear()
        self._active.clear()


# ---------------------------------------------------------------------------
# The resident batch pool: one slot per process
# ---------------------------------------------------------------------------

#: The idle resident pool and its key, or None.  A run *takes* the pool out
#: of the slot, so a run on another thread finds the slot empty and builds a
#: private pool: no pool ever serves two runs at once.
_resident: Optional[Tuple[tuple, WorkerPool]] = None
_resident_lock = threading.Lock()


def _take_pool(key: tuple, size: int, ctx) -> WorkerPool:
    """The resident pool when its key matches, else a new one.

    Either may lack workers (a new pool has none yet, a resident one may
    have lost some to a failed respawn): the caller starts the pool once it
    holds it, so an interrupt during the forks still reaches its clean-up.
    """
    global _resident
    with _resident_lock:
        resident, _resident = _resident, None
    if resident is not None:
        resident_key, pool = resident
        if resident_key == key:
            return pool
        pool.stop()
    return WorkerPool(size=size, ctx=ctx)


def _give_back(key: tuple, pool: WorkerPool) -> None:
    """Park ``pool`` in the slot; a pool that finds the slot full is stopped."""
    global _resident
    with _resident_lock:
        if _resident is None:
            _resident = (key, pool)
            return
    pool.stop()


def stop_resident_pool() -> None:
    """Stop this process's resident batch pool, if it has one.

    Registered with :mod:`atexit`, so an interpreter that ran batches exits
    with every worker joined.
    """
    global _resident
    with _resident_lock:
        resident, _resident = _resident, None
    if resident is not None:
        resident[1].stop()


def _forget_resident() -> None:
    """In a forked child: the parent's pool is not this process's to use."""
    global _resident, _resident_lock
    _resident = None
    _resident_lock = threading.Lock()


atexit.register(stop_resident_pool)
os.register_at_fork(after_in_child=_forget_resident)


class BatchScheduler:
    """Schedules synthesis jobs over a worker pool, with optional caching.

    Plain and asymptotic jobs alike: :meth:`run` submits every job to one
    :class:`~repro.service.supervisor.Supervisor` and drains it on the
    caller's thread, so portfolio rungs and plain jobs share one pool.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        start_method: Optional[str] = None,
        retries: int = DEFAULT_RETRIES,
        grace: float = DEFAULT_GRACE,
        warm: bool = False,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if grace < 0:
            raise ValueError("grace must be non-negative")
        self.workers = workers
        self.cache = cache
        self.retries = retries
        self.grace = grace
        #: Ask workers to reuse a resident solver across jobs (REPRO_WARM=off
        #: in the worker environment vetoes it).  Off by default so batch runs
        #: keep their historical cold-start counters byte-identical.
        self.warm = warm
        self._ctx = _pool_context(start_method)
        self.stats = SchedulerStats()
        self._cancelled = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation; unfinished jobs are marked ``cancelled``."""
        self._cancelled = True

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute ``jobs`` and return their results in submission order.

        ``KeyboardInterrupt`` or :meth:`cancel` stops the run: the results
        collected so far come back, the unfinished jobs marked cancelled.

        With ``workers > 1`` the run takes the process's resident pool of
        ``workers`` workers, keyed by the worker count, the start method and
        the active fault plan's spec; a pool with another key is stopped and
        replaced.  (``grace`` only sets the parent-side deadline of each
        dispatch, so it is not part of the key.)  A run that ends normally
        gives the pool back, so the next run's workers keep their
        process-wide memos warm; a cancelled, interrupted or raising run
        stops it.  The kills, rebuilds and utilization in :attr:`stats` are
        this run's share.  With ``warm=True`` a resident worker's warm
        solver also outlives the run: a later run's first job on it counts
        as reused, and the ``warm_state`` resets and peaks span runs.
        """
        # Imported here: the supervisor builds on this module's primitives.
        from repro.service.supervisor import Supervisor

        start = time.perf_counter()
        self._cancelled = False
        self.stats = SchedulerStats(workers=max(1, self.workers))
        supervisor = Supervisor(
            self.stats,
            workers=self.workers,
            cache=self.cache,
            retries=self.retries,
            warm=self.warm,
        )
        groups = [supervisor.submit(job, seq=index) for index, job in enumerate(jobs)]
        busy = supervisor.busy_seconds
        pool = None
        kills = rebuilds = 0
        charges: Dict[int, float] = {}
        completed = False
        try:
            if self.workers > 1 and supervisor.queue_depth:
                key = (self.workers, self._ctx.get_start_method(), faults.plan().to_spec())
                pool = supervisor.pool = _take_pool(key, self.workers, self._ctx)
                kills, rebuilds, charges = pool.kills, pool.rebuilds, dict(pool.busy_charges)
                pool.grace = self.grace
                pool.start()
            while supervisor.busy() and not self._cancelled:
                supervisor.step()
            completed = not self._cancelled
        except KeyboardInterrupt:
            self._cancelled = True
        finally:
            supervisor.cancel_all()  # whatever is still open was cancelled
            if pool is not None:
                self.stats.worker_kills += pool.kills - kills
                self.stats.pool_rebuilds += pool.rebuilds - rebuilds
                for pid, seconds in pool.busy_charges.items():
                    spent = seconds - charges.get(pid, 0.0)
                    if spent > 0:
                        busy[pid] = busy.get(pid, 0.0) + spent
                if completed:
                    _give_back(key, pool)
                else:
                    pool.stop()
        self.stats.wall_seconds = time.perf_counter() - start
        if busy and self.stats.wall_seconds > 0:
            # Label workers w0..wN by sorted PID so the mapping is stable
            # within a run (PIDs themselves are not comparable across runs).
            self.stats.worker_utilization = {
                f"w{slot}": round(min(busy[pid] / self.stats.wall_seconds, 1.0), 4)
                for slot, pid in enumerate(sorted(busy))
            }
        if self.cache is not None:
            self.cache.record_run_telemetry(self.stats.as_dict())
        return [group.result for group in groups]

    def run_goals(
        self,
        goals: Sequence[SynthesisGoal],
        config: Optional[SynthesisConfig] = None,
        timeout: Optional[float] = None,
        strict: bool = True,
    ) -> List[SynthesisResult]:
        """Convenience wrapper: schedule goals, return full results in order.

        With ``strict=False``, jobs that produced no record (cancelled,
        crashed, hard-timed-out) come back as explicit failure results
        instead of raising, so one bad job cannot abort the whole batch.
        """
        jobs = [job_for_goal(goal, config, timeout=timeout) for goal in goals]
        return [
            job_result.to_synthesis_result(goal, strict=strict)
            for goal, job_result in zip(goals, self.run(jobs))
        ]


def tally_result(
    stats: SchedulerStats, result: JobResult, busy: Optional[Dict[int, float]] = None
) -> None:
    """Fold one job outcome into ``stats`` (shared with the server).

    Counters and cpu_seconds measure work *performed*; cache hits and dedup
    copies only contribute to saved_seconds.
    """
    if result.timed_out:
        stats.timeouts += 1
    if result.cancelled:
        stats.cancelled += 1
    if result.error is not None:
        stats.errors += 1
    if result.record is None or result.deduplicated or result.cache_hit:
        if result.record is not None and (result.deduplicated or result.cache_hit):
            stats.saved_seconds += result.seconds
        return
    stats.cpu_seconds += result.seconds
    stats.queue_seconds += result.queue_seconds
    stats.run_seconds += result.run_seconds
    if result.warm:
        warm.aggregate(stats.warm_state, result.warm)
    if busy is not None and result.worker_pid:
        busy[result.worker_pid] = busy.get(result.worker_pid, 0.0) + result.run_seconds
    for key, value in result.stats.items():
        if _summable(key, value):
            stats.counters[key] = stats.counters.get(key, 0) + value
    for key in ("candidates_checked", "cegis_counterexamples"):
        value = result.record.get(key)
        if isinstance(value, (int, float)):
            stats.counters[key] = stats.counters.get(key, 0) + value
