"""Deterministic fault injection for the synthesis service.

The fault-tolerance machinery of the scheduler and the result cache (parent
-enforced deadlines, crash retries, corruption quarantine) is only testable if
failures can be *provoked on demand and reproduced byte-for-byte*.  This
module provides named fault points and a :class:`FaultPlan` that decides —
deterministically — whether a given fault fires at a given site:

* ``worker.crash`` — the worker process dies mid-job (``os._exit``), as if
  OOM-killed or segfaulted;
* ``worker.hang`` — the worker stops responding (sleeps past any deadline),
  as if stuck in a non-polling loop;
* ``cache.read_corrupt`` — the on-disk cache entry is garbled just before it
  is read (bit rot, partial page writes);
* ``cache.write_torn`` — a cache store writes a truncated entry straight to
  the final path (a writer that crashed halfway, bypassing the atomic
  rename);
* ``pool.spawn`` — spawning a worker process fails (fork/exec resource
  exhaustion).

Whether a fault fires is a pure function of ``(seed, point, key, attempt)``
where ``key`` is the job fingerprint (or entry fingerprint for cache faults):
the SHA-256 of that tuple, mapped to ``[0, 1)``, is compared against the
point's configured rate.  Two runs with the same plan and the same job stream
therefore inject *exactly* the same faults — a chaos run is as reproducible
as a clean one.

Plans come from the ``REPRO_FAULTS`` environment variable (read per call, so
tests can monkeypatch it) or programmatically via :func:`configure`.  The
spec grammar is ``point=rate[:once]`` entries separated by commas::

    REPRO_FAULTS="worker.crash=0.4:once,cache.read_corrupt=1.0"
    REPRO_FAULTS_SEED=7    # optional; folded into every decision hash

``:once`` restricts a point to the *first* attempt/occurrence for each key —
the shape used to prove recovery (a job crashes once, the retry succeeds, the
final record is identical).  Without it the decision re-rolls per attempt, so
``rate=1.0`` reproduces a persistent failure (the poison-job path).

Every fault that fires is emitted as a ``fault`` trace event.  Worker-side
fires (crash/hang) happen in the child process, so what is counted is their
parent-observable consequence: the kills, retries and hard timeouts in
``SchedulerStats``, which reach ``telemetry.json`` and ``/stats``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs import trace

#: The worker process dies mid-job.
WORKER_CRASH = "worker.crash"
#: The worker stops responding to its soft deadline.
WORKER_HANG = "worker.hang"
#: The cache entry is garbled on disk just before a read.
CACHE_READ_CORRUPT = "cache.read_corrupt"
#: A cache store writes a truncated entry, bypassing the atomic rename.
CACHE_WRITE_TORN = "cache.write_torn"
#: Spawning a worker process fails.
POOL_SPAWN = "pool.spawn"

FAULT_POINTS = (WORKER_CRASH, WORKER_HANG, CACHE_READ_CORRUPT, CACHE_WRITE_TORN, POOL_SPAWN)

#: Environment variables the default plan is read from.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"


@dataclass(frozen=True)
class FaultRule:
    """Firing policy of one fault point."""

    rate: float
    #: Fire at most on the first attempt/occurrence per key (recovery shape).
    once: bool = False


class FaultSpecError(ValueError):
    """Raised when a ``REPRO_FAULTS`` spec string cannot be parsed."""


class FaultPlan:
    """A deterministic mapping from fault sites to fire/don't-fire decisions."""

    def __init__(self, rules: Optional[Dict[str, FaultRule]] = None, seed: int = 0) -> None:
        self.rules: Dict[str, FaultRule] = dict(rules or {})
        self.seed = seed

    @property
    def active(self) -> bool:
        return any(rule.rate > 0 for rule in self.rules.values())

    # ------------------------------------------------------------------
    # Parsing / serialization (plans travel to worker processes as specs)
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: Optional[str], seed: int = 0) -> "FaultPlan":
        """Parse a ``point=rate[:once],...`` spec string into a plan."""
        rules: Dict[str, FaultRule] = {}
        for chunk in (spec or "").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            point, _, value = chunk.partition("=")
            point = point.strip()
            if point not in FAULT_POINTS:
                raise FaultSpecError(
                    f"unknown fault point {point!r} (valid: {', '.join(FAULT_POINTS)})"
                )
            value = value.strip() or "1.0"
            once = False
            if value.endswith(":once"):
                once = True
                value = value[: -len(":once")]
            try:
                rate = float(value)
            except ValueError:
                raise FaultSpecError(f"bad rate {value!r} for fault point {point!r}") from None
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(f"rate for {point!r} must be in [0, 1], got {rate}")
            rules[point] = FaultRule(rate=rate, once=once)
        return cls(rules, seed=seed)

    def to_spec(self) -> str:
        """The spec string this plan round-trips through (worker payloads)."""
        return ",".join(
            f"{point}={rule.rate}" + (":once" if rule.once else "")
            for point, rule in sorted(self.rules.items())
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def rate(self, point: str) -> float:
        rule = self.rules.get(point)
        return rule.rate if rule else 0.0

    def fires(self, point: str, key: str, attempt: int = 0) -> bool:
        """Decide (deterministically) whether ``point`` fires at this site.

        ``key`` identifies the site content-wise (job/entry fingerprint) and
        ``attempt`` its repetition (retry attempt, lookup occurrence).  For
        ``:once`` rules the attempt is excluded from the hash and attempts
        past the first never fire.
        """
        rule = self.rules.get(point)
        if rule is None or rule.rate <= 0.0:
            return False
        if rule.once:
            if attempt > 0:
                return False
            material = f"{self.seed}|{point}|{key}"
        else:
            material = f"{self.seed}|{point}|{key}|{attempt}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        fired = draw < rule.rate
        if fired:
            trace.event("fault", point=point, key=key, attempt=attempt)
        return fired


#: Programmatic override installed by :func:`configure` (tests, embedders).
_OVERRIDE: Optional[FaultPlan] = None
#: Parse cache for the environment plan, keyed on the raw env strings.
_ENV_CACHE: Tuple[Optional[str], Optional[str], Optional[FaultPlan]] = (None, None, None)


def plan() -> FaultPlan:
    """The active fault plan: the :func:`configure` override, else the env.

    The environment is re-read on every call (parse results are cached on the
    raw strings), so tests can set/unset ``REPRO_FAULTS`` without an explicit
    reload step.  With neither source set, the returned plan is inert.
    """
    global _ENV_CACHE
    if _OVERRIDE is not None:
        return _OVERRIDE
    spec = os.environ.get(ENV_SPEC)
    seed_text = os.environ.get(ENV_SEED)
    cached_spec, cached_seed, cached_plan = _ENV_CACHE
    if cached_plan is not None and spec == cached_spec and seed_text == cached_seed:
        return cached_plan
    parsed = FaultPlan.parse(spec, seed=int(seed_text or 0))
    _ENV_CACHE = (spec, seed_text, parsed)
    return parsed


def configure(spec: Optional[str], seed: int = 0) -> FaultPlan:
    """Install (or with ``None``, clear) a programmatic fault plan override."""
    global _OVERRIDE
    _OVERRIDE = FaultPlan.parse(spec, seed=seed) if spec is not None else None
    return _OVERRIDE if _OVERRIDE is not None else plan()
