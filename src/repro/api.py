"""The stable public API of the reproduction.

Everything a user of this package needs lives here under one import::

    from repro.api import AsymptoticGoal, SynthesisConfig, synthesize

    goal = AsymptoticGoal.create("length", schema, library("inc"), bound="O(n)")
    result = synthesize(goal)
    print(result.program, result.stats["portfolio"]["winner"])

The three goal kinds share one keyword-consistent construction surface
(``create(name=..., schema=..., components=..., ...)``):

* :class:`SynthesisGoal` — a Re2 goal type (refinements + concrete resource
  bound) with a component library, exactly what ReSyn takes;
* :class:`ExampleGoal` — the PBE/SyGuS kind: the same plus input-output
  examples and an optional grammar restriction;
* :class:`AsymptoticGoal` — an asymptotic bound class (``O(1)``, ``O(n)``,
  ``O(n^2)``) over a potential-free template; the portfolio layer compiles
  it into a coefficient ladder and races the rungs.

Entry points, smallest to largest:

* :func:`synthesize` — one goal, in this process;
* :func:`run_goals` — a batch over a supervised worker pool, with optional
  result caching and portfolio racing;
* :func:`open_cache` — a persistent result cache for :func:`run_goals` and
  :func:`serve`;
* :func:`serve` — the long-lived synthesis server (HTTP + optional stdio).

This module is the compatibility surface: names exported here do not change
meaning between versions, while ``repro.*`` submodules are internal and may.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.core.goals import AsymptoticGoal, ExampleGoal, SynthesisGoal, SynthesisResult
from repro.service.cache import open_cache
from repro.service.serve import serve_forever as serve

__all__ = [
    "AsymptoticGoal",
    "ExampleGoal",
    "SynthesisConfig",
    "SynthesisGoal",
    "open_cache",
    "run_goals",
    "serve",
    "synthesize",
]


def synthesize(
    goal: SynthesisGoal,
    config: Optional[SynthesisConfig] = None,
    solver=None,
) -> SynthesisResult:
    """Synthesize a program for ``goal`` in this process (default: ReSyn).

    An :class:`AsymptoticGoal` is solved by walking its compiled bound
    ladder tightest-rung-first and returning the first rung that admits a
    program; the result's ``stats["portfolio"]`` block records the ladder
    and the winning rung.  Use :func:`run_goals` to race the rungs across
    worker processes instead.

    ``solver`` injects a long-lived solver whose warm state is reused
    across calls; omitted, every call gets a fresh one.
    """
    from repro.core.synthesizer import synthesize as _synthesize

    if not isinstance(goal, AsymptoticGoal):
        return _synthesize(goal, config, solver=solver)

    from repro.portfolio.bounds import compile_ladder
    from repro.portfolio.runner import portfolio_stats

    ladder = compile_ladder(goal)
    total_seconds = 0.0
    result: Optional[SynthesisResult] = None
    winner: Optional[int] = None
    for index, rung in enumerate(ladder):
        result = _synthesize(rung.goal, config, solver=solver)
        total_seconds += result.seconds
        if result.succeeded:
            winner = index
            break
    assert result is not None  # compile_ladder never returns an empty ladder
    final = SynthesisResult(
        goal=goal,
        program=result.program,
        seconds=total_seconds,
        candidates_checked=result.candidates_checked,
        resource_rejections=result.resource_rejections,
        functional_rejections=result.functional_rejections,
        cegis_counterexamples=result.cegis_counterexamples,
        stats=dict(result.stats),
    )
    final.stats["portfolio"] = portfolio_stats(goal.bound, [r.label for r in ladder], winner)
    return final


def run_goals(
    goals: Sequence[SynthesisGoal],
    config: Optional[SynthesisConfig] = None,
    workers: int = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    strict: bool = True,
) -> List[SynthesisResult]:
    """Run a batch of goals over a supervised worker pool, results in order.

    Plain goals are scheduled as-is; asymptotic goals expand into their
    bound ladder and race it (first success on the tightest rung wins —
    deterministically, regardless of which variant finishes first).  Pass
    ``cache=open_cache(path)`` to reuse results across runs.  With
    ``strict=False``, jobs that produced no record (cancelled, crashed,
    hard-timed-out) come back as failure results instead of raising.

    With ``workers > 1`` the pool stays resident between calls: the first
    call forks ``workers`` workers, later calls with the same worker count,
    start method and fault plan reuse them, and a different key replaces
    them.  Each worker keeps its process-wide memos and interned
    terms (about 23 MB), and every descriptor open in this process when it
    forked, until the pool is replaced, a run is cancelled or interrupted
    (which stops the pool), or the interpreter exits.  Every job still gets
    a fresh solver, so programs do not depend on what a worker ran before,
    but a record's ``lia_*`` counters do, as they do in the server.
    """
    from repro.service.scheduler import DEFAULT_RETRIES, BatchScheduler

    runner = BatchScheduler(
        workers=workers,
        cache=cache,
        retries=DEFAULT_RETRIES if retries is None else retries,
    )
    return runner.run_goals(goals, config=config, timeout=timeout, strict=strict)
