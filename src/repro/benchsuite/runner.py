"""Harness that regenerates the rows of Table 1 and Table 2.

Usage::

    python -m repro.benchsuite.run_table1          # fast subset
    REPRO_FULL=1 python -m repro.benchsuite.run_table1   # all benchmarks
    REPRO_WORKERS=4 python -m repro.benchsuite.run_table1  # parallel scheduler
    REPRO_CACHE=~/.resyn-cache python -m repro.benchsuite.run_table1

Each row reports the synthesized code size, per-configuration synthesis times
(T, T-NR, T-EAC, T-NInc), and the measured asymptotic bound of the ReSyn and
baseline programs (columns B / B-NR of Table 2), obtained by running the
synthesized code under the cost semantics on growing inputs.

Since the batch-service PR the tables are scheduled through
:mod:`repro.service`: every (benchmark, mode) pair becomes a job, the
:class:`repro.service.scheduler.BatchScheduler` fans the jobs over
``REPRO_WORKERS`` processes (default 1 — in-process, the exact previous
behavior), and ``REPRO_CACHE`` attaches the persistent result cache so
repeated table runs skip synthesis entirely.  Results are collected in
submission order, so the parallel output is byte-identical to the serial run.
Bound measurement (interpreting the synthesized program on growing inputs)
stays in the parent process — input generators are closures and cheap to run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.empirical import fit_bound, measure_cost
from repro.benchsuite.definitions import Benchmark, table1_benchmarks, table2_benchmarks
from repro.core import SynthesisConfig, synthesize
from repro.core.goals import SynthesisResult
from repro.lang import syntax as s
from repro.semantics.values import Value


@dataclass
class BenchmarkRow:
    """One table row: per-configuration results for a benchmark."""

    benchmark: Benchmark
    results: Dict[str, SynthesisResult] = field(default_factory=dict)
    measured_bounds: Dict[str, str] = field(default_factory=dict)

    def time(self, mode: str) -> Optional[float]:
        result = self.results.get(mode)
        return result.seconds if result else None

    def code_size(self, mode: str = "resyn") -> int:
        result = self.results.get(mode)
        return result.code_size if result else 0


def benchmark_config(benchmark: Benchmark, mode: str) -> SynthesisConfig:
    """The effective configuration for a (benchmark, mode) pair.

    Constant-resource benchmarks (Table 2 rows 14-16, keys ``ct_*``) run the
    CT variant of ReSyn in place of the plain ``resyn`` configuration.
    """
    if mode == "resyn" and benchmark.constant_resource_row:
        return SynthesisConfig.constant_resource(**benchmark.config_overrides)
    return benchmark.configs()[mode]


def run_benchmark(
    benchmark: Benchmark,
    modes: Sequence[str] = ("resyn", "synquid"),
    sizes: Sequence[int] = (2, 4, 8, 12),
) -> BenchmarkRow:
    """Run a single benchmark in-process under the selected configurations."""
    row = BenchmarkRow(benchmark)
    for mode in modes:
        result = synthesize(benchmark.goal, benchmark_config(benchmark, mode))
        row.results[mode] = result
        if result.program is not None and benchmark.input_maker is not None:
            row.measured_bounds[mode] = measured_bound(benchmark, result.program, sizes)
    return row


def measured_bound(benchmark: Benchmark, program: s.Fix, sizes: Sequence[int]) -> str:
    """Fit the empirical cost of a synthesized program to a bound shape."""
    assert benchmark.input_maker is not None
    env: Dict[str, Value] = {c.name: c.builtin() for c in benchmark.goal.components}
    inputs = [benchmark.input_maker(size) for size in sizes]
    samples = measure_cost(program, env, inputs)
    return fit_bound(samples)


def format_rows(rows: Sequence[BenchmarkRow], modes: Sequence[str]) -> str:
    """Render rows as an aligned text table (the shape of Tables 1/2)."""
    headers = ["benchmark", "code"] + [f"T({m})" for m in modes] + [f"B({m})" for m in modes]
    lines = ["  ".join(f"{h:>14s}" for h in headers)]
    for row in rows:
        cells = [row.benchmark.key, str(row.code_size("resyn") or row.code_size(modes[0]))]
        for mode in modes:
            time = row.time(mode)
            cells.append(f"{time:.2f}s" if time is not None else "-")
        for mode in modes:
            cells.append(row.measured_bounds.get(mode, "-"))
        lines.append("  ".join(f"{c:>14s}" for c in cells))
    return "\n".join(lines)


def selected_benchmarks(table: str) -> List[Benchmark]:
    """The benchmark list for a table, honouring the ``REPRO_FULL`` switch."""
    full = os.environ.get("REPRO_FULL", "") not in ("", "0")
    benchmarks = table1_benchmarks() if table == "table1" else table2_benchmarks()
    if full:
        return benchmarks
    return [b for b in benchmarks if not b.slow]


def run_table(
    table: str,
    modes: Sequence[str],
    workers: Optional[int] = None,
    cache=None,
    sizes: Sequence[int] = (2, 4, 8, 12),
) -> List[BenchmarkRow]:
    """Regenerate a table by scheduling every (benchmark, mode) job.

    ``workers`` defaults to the ``REPRO_WORKERS`` environment variable (1 if
    unset); ``cache`` defaults to the result cache at ``REPRO_CACHE`` (opened
    with its pinned shard count) when that variable is set.  The returned
    rows are in benchmark-definition order regardless of parallel completion
    order.
    """
    from repro.service.cache import open_cache
    from repro.service.scheduler import BatchScheduler, job_for_goal

    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
    if cache is None and os.environ.get("REPRO_CACHE"):
        cache = open_cache(os.path.expanduser(os.environ["REPRO_CACHE"]))

    benchmarks = selected_benchmarks(table)
    jobs, keys = [], []
    for benchmark in benchmarks:
        for mode in modes:
            config = benchmark_config(benchmark, mode)
            jobs.append(job_for_goal(benchmark.goal, config, tag=f"{benchmark.key}/{mode}"))
            keys.append((benchmark, mode))

    scheduler = BatchScheduler(workers=workers, cache=cache)
    job_results = scheduler.run(jobs)

    rows: Dict[str, BenchmarkRow] = {}
    for (benchmark, mode), job_result in zip(keys, job_results):
        row = rows.setdefault(benchmark.key, BenchmarkRow(benchmark))
        result = job_result.to_synthesis_result(benchmark.goal)
        row.results[mode] = result
        if result.program is not None and benchmark.input_maker is not None:
            # Cached bounds are keyed by the input sizes they were fitted on;
            # a hit with different sizes re-measures instead of returning a
            # fit that does not correspond to the caller's parameters.
            bound_key = f"{mode}@{','.join(map(str, sizes))}"
            cached_bound = (job_result.record or {}).get("measured_bounds", {}).get(bound_key)
            if job_result.cache_hit and cached_bound is not None:
                row.measured_bounds[mode] = cached_bound
            else:
                bound = measured_bound(benchmark, result.program, sizes)
                row.measured_bounds[mode] = bound
                if cache is not None and job_result.fingerprint:
                    bounds = dict((job_result.record or {}).get("measured_bounds") or {})
                    bounds[bound_key] = bound
                    cache.update(job_result.fingerprint, measured_bounds=bounds)
    return [rows[b.key] for b in benchmarks]


def main_table1() -> None:
    rows = run_table("table1", ("resyn", "synquid"))
    print(format_rows(rows, ("resyn", "synquid")))


def main_table2() -> None:
    modes = ("resyn", "synquid", "eac", "noninc")
    rows = run_table("table2", modes)
    print(format_rows(rows, modes))
