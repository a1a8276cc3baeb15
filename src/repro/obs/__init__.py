"""Unified observability layer: hierarchical spans and their exporters.

Two small modules, imported by every layer of the synthesis stack:

* :mod:`repro.obs.trace` — a hierarchical span tracer with a near-zero-cost
  disabled mode (the default).  Spans time regions of the pipeline (per goal,
  per candidate, per SMT query, per solver phase), nest via a thread-local
  stack, and carry *deterministic counters* separately from wall-clock so
  the byte-identity regression guard can compare traced and untraced runs.
* :mod:`repro.obs.export` — exporters over finished spans: JSONL trace
  dumps, collapsed-stack files for flamegraphs (``make profile``), and the
  aggregated phase-time table rendered into benchmark reports and
  ``$GITHUB_STEP_SUMMARY``.

Tracing is disabled by default and enabled with ``REPRO_TRACE=1`` (read at
import time), :func:`repro.obs.trace.enable`, or
``SynthesisConfig(trace=True)``.

Counters do not live here: each layer keeps its own stats dataclass, and
they reach artifacts through ``SynthesisResult.stats``, ``SchedulerStats``
and ``CacheStats``.
"""

from repro.obs import export, trace
from repro.obs.trace import span, traced

__all__ = ["export", "trace", "span", "traced"]
