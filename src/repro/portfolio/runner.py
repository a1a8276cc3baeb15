"""The portfolio ladder policy: race a goal's bound ladder, report one winner.

A job whose goal carries an asymptotic bound (a ``"bound"`` block in the wire
encoding) runs as a *job group* of the supervisor
(:mod:`repro.service.supervisor`): its bound ladder
(:func:`repro.portfolio.bounds.compile_ladder`) becomes indexed rung jobs
that share one worker pool with every other job, and :class:`Ladder` is the
group's completion policy.  The supervisor executes; the ladder only decides.

**The winner rule is deterministic regardless of race timing.**  Among
successful rungs the one with the lowest index wins; a rung's win is
*final* only once every lower-indexed rung has resolved as a failure.  The
moment any rung succeeds, every higher-indexed rung is cancelled —
queued ones are dequeued, active ones have their worker killed and replaced
(:meth:`~repro.service.scheduler.WorkerPool.cancel_token`) — while
lower-indexed rungs run to completion.  The parallel race therefore
reports exactly the winner a sequential ladder walk would, because rung
failures are decided by bounded-search exhaustion (deterministic), not by
timeouts (timing-dependent).

With a single worker there is nothing to race: rungs are admitted one at a
time in ladder order — a sequential walk with identical winners and zero
cancellations.  Non-asymptotic workloads are untouched either way.

Attribution is split by determinism.  The cached winner record carries a
deterministic ``stats["portfolio"]`` block (bound class, ladder labels,
winner index) under the *logical* goal's fingerprint; how the race actually
unfolded — per-rung outcomes, cancellations, wall-clock — is
timing-dependent and rides on :attr:`JobResult.portfolio`, which is never
cached (like the queue/run timings and the warm block).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.portfolio.bounds import compile_ladder
from repro.service.scheduler import Job, JobResult, job_for_goal


def is_portfolio_job(job: Job) -> bool:
    """Whether ``job``'s goal carries an asymptotic bound block."""
    return "bound" in job.goal_json


def portfolio_stats(
    bound: str, labels: Sequence[str], winner: Optional[int]
) -> Dict[str, object]:
    """The deterministic ``stats["portfolio"]`` block of a ladder's result.

    A pure function of the goal's ladder and the winning rung index, so it
    is safe to cache under the logical fingerprint.
    """
    return {
        "bound": bound,
        "ladder": list(labels),
        "variants_total": len(labels),
        "winner": labels[winner] if winner is not None else None,
        "winner_index": winner,
    }


class Ladder:
    """Completion policy of one portfolio group: the tightest success wins.

    Rung statuses move ``pending`` → ``queued`` → ``racing`` → ``won`` |
    ``failed``, or end ``cancelled`` (admitted, then reclaimed) or
    ``skipped`` (never admitted); a success above the winner ends ``lost``.
    """

    def __init__(self, job: Job, racing: bool) -> None:
        goal = job.goal()
        self.bound = goal.bound
        self.rungs = compile_ladder(goal)
        config = job.config()
        # Each rung job gets its own content fingerprint (the concrete rung
        # goal and config), so rung results are individually cacheable
        # alongside the logical goal's winner record.
        self.jobs = [
            job_for_goal(
                rung.goal,
                config,
                tag=f"{job.tag}@{rung.label}",
                timeout=job.timeout,
                retries=job.retries,
            )
            for rung in self.rungs
        ]
        #: False walks the ladder: rung ``i+1`` is admitted once ``i`` failed.
        self.racing = racing
        self.statuses = ["pending"] * len(self.jobs)
        self.resolved: Dict[int, JobResult] = {}
        self.raced = 0
        self.cancelled = 0

    def settle(self, index: int, result: JobResult, status: Optional[str] = None) -> None:
        self.resolved[index] = result
        self.statuses[index] = status or ("won" if result.succeeded else "failed")

    def start(self, index: int) -> bool:
        """Mark rung ``index`` running; True the first time (it counts as raced)."""
        if self.statuses[index] == "racing":
            return False
        self.statuses[index] = "racing"
        self.raced += 1
        return True

    def winner(self) -> Optional[int]:
        wins = [index for index, result in self.resolved.items() if result.succeeded]
        return min(wins) if wins else None

    def step(self) -> Tuple[List[int], bool]:
        """Apply the winner rule: (admitted rungs to reclaim, race decided?)."""
        winner = self.winner()
        if winner is None:
            return [], len(self.resolved) == len(self.jobs)
        doomed = []
        for index in range(winner + 1, len(self.jobs)):
            if index in self.resolved:
                continue
            job = self.jobs[index]
            verdict = JobResult(tag=job.tag, fingerprint=job.fingerprint, cancelled=True)
            if self.statuses[index] == "pending":
                # Never admitted: nothing ran, so nothing is reclaimed — the
                # ladder simply stopped short.
                self.settle(index, verdict, "skipped")
            else:
                self.settle(index, verdict, "cancelled")
                self.cancelled += 1
                doomed.append(index)
        return doomed, all(index in self.resolved for index in range(winner))

    def admit(self) -> List[int]:
        """Rungs to queue now: every pending one when racing, else the
        tightest unresolved rung (if it is not queued already)."""
        if self.racing:
            ready = [index for index, status in enumerate(self.statuses) if status == "pending"]
        else:
            ready = [index for index in range(len(self.jobs)) if index not in self.resolved][:1]
            ready = [index for index in ready if self.statuses[index] == "pending"]
        for index in ready:
            self.statuses[index] = "queued"
        return ready

    def conclude(self, job: Job) -> JobResult:
        """The logical job's result: the winner's record plus attribution."""
        winner = self.winner()
        rows = []
        for index, rung in enumerate(self.rungs):
            status = self.statuses[index]
            if status == "won" and index != winner:
                status = "lost"
            row: Dict[str, object] = {"index": index, "label": rung.label, "status": status}
            result = self.resolved.get(index)
            if result is not None and result.record is not None:
                row["seconds"] = round(result.seconds, 4)
                if result.cache_hit:
                    row["cache_hit"] = True
            rows.append(row)
        # The timing-dependent attribution block (never cached).
        run_info: Dict[str, object] = {
            "mode": "race" if self.racing else "serial",
            "variants": rows,
            "variants_raced": self.raced,
            "variants_cancelled": self.cancelled,
        }
        attempts = sum(result.attempts for result in self.resolved.values())
        if winner is None:
            reasons = "; ".join(
                f"{self.rungs[i].label}: {self.resolved[i].failure_reason() or 'no program'}"
                for i in sorted(self.resolved)
            )
            return JobResult(
                tag=job.tag,
                fingerprint=job.fingerprint,
                error=f"portfolio: no variant satisfied the bound ({reasons})",
                attempts=attempts,
                portfolio=run_info,
            )
        winner_result = self.resolved[winner]
        run_info["winner"] = self.rungs[winner].label
        # Sequential-ladder estimate: a ladder walk would have run exactly
        # rungs 0..winner, so their recorded seconds sum to its wall-clock.
        run_info["sequential_seconds"] = round(
            sum(self.resolved[i].seconds for i in range(winner + 1)), 4
        )
        record = dict(winner_result.record or {})
        stats_block = dict(record.get("stats") or {})
        stats_block["portfolio"] = portfolio_stats(
            self.bound, [rung.label for rung in self.rungs], winner
        )
        record["stats"] = stats_block
        return JobResult(
            tag=job.tag,
            fingerprint=job.fingerprint,
            record=record,
            timed_out=winner_result.timed_out,
            attempts=attempts,
            queue_seconds=winner_result.queue_seconds,
            run_seconds=winner_result.run_seconds,
            worker_pid=winner_result.worker_pid,
            warm=winner_result.warm,
            portfolio=run_info,
        )
