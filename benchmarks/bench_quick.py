"""Quick synthesis benchmark: fast Table 1 subset with solver metrics.

Runs the fast (CI-sized) Table 1 subset under the ReSyn and Synquid
configurations, and writes a machine-readable ``BENCH_synthesis.json`` at the
repository root so the performance trajectory can be tracked across PRs.

For every (benchmark, mode) pair the report records

* wall-clock synthesis time,
* the synthesized program (stringified, for byte-identical regression checks),
* candidate/SMT-query counters, and
* cache hit rates of the term/encoding/SAT/LIA caches (when the running
  version of the code exposes them via ``SynthesisResult.stats``).

The report also carries a top-level ``counters`` block aggregating the
integer-LIA-core and VSIDS metrics across all rows (LIA cache traffic,
Fourier-Motzkin eliminations and tightenings, unsat-core counts/sizes/probes,
SAT decisions/conflicts/bumps and learned-clause deletions) so the perf
trajectory of the solver internals is tracked alongside wall-clock, and a
``service`` block timing the same suite through the batch scheduler
(:mod:`repro.service`): worker count, parallel wall-clock and the parallel
speedup over the serial loop, asserting on the way that the scheduler's
programs are byte-identical to the serial ones.  Every RNG the suite touches
is seeded explicitly up front, so reports are bit-reproducible on one machine.

A ``pbe`` block runs the committed example-driven suite
(:mod:`repro.pbe.suite`): per-goal wall-clock, program and ``eterm_checks``,
interpreter re-verification of every program against its examples, the
restricted-vs-unrestricted ``eterm_checks`` A/B for the grammar-demo rows,
and cold/warm cache counters for the suite through the batch scheduler.

A ``portfolio`` block races the committed asymptotic suite
(``specs/asymptotic_suite.json``) on two workers through the batch scheduler,
whose supervisor runs each goal's bound ladder (:mod:`repro.portfolio`) as
one job group: per-goal winner rung, variants raced and losers
cancelled, race wall-clock vs the sequential bound-ladder walk — asserting
that winner rungs match the spec's expectations and programs are
byte-identical between the race and the serial walk.

``src_lines`` is the total line count of ``src/repro/**/*.py``, tracked next
to wall-clock as the code-size trajectory (reported, never guarded).
``intern_nodes`` is the number of hash-consed term nodes alive after the
serial loop (``repro.logic.terms.intern_nodes``), tracked as the term layer's
memory trajectory; ``check_regression.py`` guards it as a ceiling.

``benchmarks/check_regression.py`` compares a fresh report against the
committed one (CI fails on >25% wall-clock regression or any program drift).
``total_seconds`` remains the *serial* wall-clock, so timing comparisons stay
meaningful across reports with different worker counts.

Usage::

    PYTHONPATH=src python benchmarks/bench_quick.py [output.json]
    REPRO_BENCH_WORKERS=4 PYTHONPATH=src python benchmarks/bench_quick.py
"""

from __future__ import annotations

import glob
import json
import os
import platform
import random
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Explicit seed for every RNG the benchmark may touch.  Benchmark input
#: generators construct their own ``random.Random(seed + size)`` instances,
#: but the global RNG is seeded too so that any future library code drawing
#: from it cannot make reports machine- or run-dependent.
BENCH_SEED = 20190622
random.seed(BENCH_SEED)

from repro.benchsuite.runner import benchmark_config, selected_benchmarks  # noqa: E402
from repro.core import synthesize  # noqa: E402
from repro.logic.terms import intern_nodes  # noqa: E402
from repro.obs import export, trace  # noqa: E402
from repro.service.scheduler import BatchScheduler, job_for_goal  # noqa: E402


MODES = ("resyn", "synquid")

#: Counters aggregated into the report's ``counters`` block.  Most are
#: process-wide theory counters reported as per-run deltas; the gate-cache
#: counters are per-solver-instance (one solver per row) and sum the same way.
AGGREGATED_COUNTERS = (
    "gate_cache_queries",
    "gate_cache_hits",
    "gate_clauses_reused",
    "lia_queries",
    "lia_cache_hits",
    "lia_eliminations",
    "lia_tightenings",
    "lia_cores",
    "lia_core_size_total",
    "lia_core_probes",
    "sat_decisions",
    "sat_propagations",
    "sat_conflicts",
    "sat_var_bumps",
    "sat_learned_clauses",
    "sat_deleted_clauses",
    "sat_ingested_clauses",
)


def run_quick() -> dict:
    rows = []
    total = 0.0
    counters = {key: 0 for key in AGGREGATED_COUNTERS}
    trace.reset()
    for bench in selected_benchmarks("table1"):
        configs = bench.configs()
        for mode in MODES:
            start = time.perf_counter()
            result = synthesize(bench.goal, configs[mode])
            seconds = time.perf_counter() - start
            total += seconds
            rows.append(
                {
                    "benchmark": bench.key,
                    "mode": mode,
                    "seconds": round(seconds, 4),
                    "succeeded": result.succeeded,
                    "program": str(result.program) if result.program else None,
                    "code_size": result.code_size,
                    "candidates_checked": result.candidates_checked,
                    "cegis_counterexamples": result.cegis_counterexamples,
                    # Populated by the caching pipeline; empty on older versions.
                    "stats": dict(getattr(result, "stats", {}) or {}),
                }
            )
            stats = rows[-1]["stats"]
            for key in AGGREGATED_COUNTERS:
                counters[key] += int(stats.get(key, 0))
    report = {
        "suite": "table1-fast",
        "modes": list(MODES),
        "python": platform.python_version(),
        "seed": BENCH_SEED,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "total_seconds": round(total, 4),
        "src_lines": src_line_count(),
        "intern_nodes": intern_nodes(),
        "counters": counters,
        "rows": rows,
    }
    if trace.is_enabled():
        # Aggregate the serial loop's spans before the scheduler run adds its
        # own (child workers trace independently; their spans stay in-process).
        report["phases"] = export.phase_block()
        dump_trace_artifacts()
    report["service"] = run_service(rows)
    report["pbe"] = run_pbe()
    report["portfolio"] = run_portfolio()
    return report


def src_line_count() -> int:
    """Total lines of ``src/repro/**/*.py``."""
    total = 0
    for path in glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def dump_trace_artifacts() -> None:
    """Write trace.jsonl + profile.folded to ``REPRO_TRACE_DIR`` (if set)."""
    out_dir = os.environ.get("REPRO_TRACE_DIR")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    spans = export.write_trace_jsonl(os.path.join(out_dir, "trace.jsonl"))
    stacks = export.write_collapsed(os.path.join(out_dir, "profile.folded"))
    print(f"wrote {out_dir}/trace.jsonl ({spans} spans), profile.folded ({stacks} stacks)")


def run_service(serial_rows: list) -> dict:
    """Time the same suite through the batch scheduler and record the speedup.

    Uses ``REPRO_BENCH_WORKERS`` workers (default: up to 4, but never fewer
    than 2 — the service ships multi-worker, so the committed artifact must
    measure multi-worker dispatch even on a single-core runner), runs the
    pool warm (resident solver state shared across each worker's jobs, the
    server's default), and asserts that the scheduler's programs are
    byte-identical to the serial loop's — the determinism contract of the
    service, checked in the perf artifact itself.
    """
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", min(4, max(2, os.cpu_count() or 1))))
    jobs = []
    for bench in selected_benchmarks("table1"):
        for mode in MODES:
            config = benchmark_config(bench, mode)
            jobs.append(job_for_goal(bench.goal, config, tag=f"{bench.key}/{mode}"))
    scheduler = BatchScheduler(workers=workers, warm=True)
    start = time.perf_counter()
    results = scheduler.run(jobs)
    wall = time.perf_counter() - start

    serial_programs = {(r["benchmark"], r["mode"]): r["program"] for r in serial_rows}
    for job_result in results:
        key = tuple(job_result.tag.split("/", 1))
        if serial_programs[key] != job_result.program_text:
            raise AssertionError(
                f"scheduler program drift for {job_result.tag}: "
                f"{serial_programs[key]!r} != {job_result.program_text!r}"
            )
    # Speedup is measured *within* the scheduler run (sum of per-job synthesis
    # seconds over scheduler wall-clock) so it is not polluted by process-wide
    # caches warmed up by the serial loop above.
    cpu = scheduler.stats.cpu_seconds
    return {
        "workers": workers,
        "jobs": len(jobs),
        "parallel_seconds": round(wall, 4),
        "serial_equivalent_seconds": round(cpu, 4),
        "speedup": round(cpu / wall, 3) if wall else 0.0,
        "queue_seconds": round(scheduler.stats.queue_seconds, 4),
        "run_seconds": round(scheduler.stats.run_seconds, 4),
        "worker_utilization": dict(scheduler.stats.worker_utilization),
        "programs_identical": True,
        # Warm-state reuse across each worker's job stream (jobs after the
        # first start with the solver caches their predecessors built; the
        # byte-identity assertion above is the proof this changes cost, not
        # results).
        "warm_state": dict(scheduler.stats.warm_state),
        # Failure traffic (all zero on a healthy fault-free run; the CI
        # chaos-smoke job is where these go nonzero — see smoke.py).
        "retries": scheduler.stats.retries,
        "worker_kills": scheduler.stats.worker_kills,
        "hard_timeouts": scheduler.stats.hard_timeouts,
        "poisoned": scheduler.stats.poisoned,
        "pool_rebuilds": scheduler.stats.pool_rebuilds,
        "degraded_serial": scheduler.stats.degraded_serial,
    }


def run_pbe() -> dict:
    """PBE workload block: solve the committed example-driven suite.

    Every solved program is re-verified against its examples by direct
    interpretation (``examples_ok``), the grammar-restricted rows are A/B'd
    against unrestricted twins (``unrestricted_eterm_checks`` must be
    strictly larger — the pruning happens before candidates are built), and
    the whole suite is driven through the batch scheduler cold and warm to
    record the cache counters of the PBE workload class.
    """
    from repro.pbe.check import check_program_on_examples
    from repro.pbe.suite import pbe_benchmarks, pbe_spec, unrestricted
    from repro.service.cache import open_cache
    from repro.service.specs import jobs_from_spec

    rows = []
    total = 0.0
    for bench in pbe_benchmarks():
        goal = bench.goal
        start = time.perf_counter()
        result = synthesize(goal, bench.config())
        seconds = time.perf_counter() - start
        total += seconds
        examples_ok = result.program is not None and check_program_on_examples(
            result.program, goal.examples, goal.component_builtins()
        )
        row = {
            "benchmark": bench.key,
            "seconds": round(seconds, 4),
            "succeeded": result.succeeded,
            "examples_ok": bool(examples_ok),
            "program": str(result.program) if result.program else None,
            "eterm_checks": int(result.stats.get("eterm_checks", 0)),
            "example_checks": int(result.stats.get("example_checks", 0)),
            "example_rejections": int(result.stats.get("example_rejections", 0)),
        }
        if bench.grammar_demo:
            free = synthesize(unrestricted(goal), bench.config())
            row["unrestricted_eterm_checks"] = int(free.stats.get("eterm_checks", 0))
        rows.append(row)

    # Cold + warm scheduler pass over the suite: the cold run populates a
    # fresh cache, the warm rerun must be served entirely from it.
    import shutil
    import tempfile

    cache_dir = tempfile.mkdtemp(prefix="bench-pbe-cache-")
    try:
        cold_cache = open_cache(cache_dir)
        cold_scheduler = BatchScheduler(workers=2, cache=cold_cache)
        start = time.perf_counter()
        cold_scheduler.run(jobs_from_spec(pbe_spec()))
        cold_wall = time.perf_counter() - start

        warm_cache = open_cache(cache_dir)
        warm_scheduler = BatchScheduler(workers=2, cache=warm_cache)
        start = time.perf_counter()
        warm_scheduler.run(jobs_from_spec(pbe_spec()))
        warm_wall = time.perf_counter() - start
        if warm_scheduler.stats.synth_runs:
            raise AssertionError(
                f"warm PBE rerun invoked the synthesizer "
                f"{warm_scheduler.stats.synth_runs} times "
                "(example goals must be fully fingerprinted)"
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "goals": len(rows),
        "solved": sum(1 for row in rows if row["succeeded"]),
        "examples_ok": sum(1 for row in rows if row["examples_ok"]),
        "total_seconds": round(total, 4),
        "eterm_checks": sum(row["eterm_checks"] for row in rows),
        "rows": rows,
        "cache": {
            "workers": 2,
            "cold": {
                "wall_seconds": round(cold_wall, 4),
                "synth_runs": cold_scheduler.stats.synth_runs,
                "hits": cold_cache.stats.hits,
                "misses": cold_cache.stats.misses,
                "stores": cold_cache.stats.stores,
            },
            "warm": {
                "wall_seconds": round(warm_wall, 4),
                "synth_runs": warm_scheduler.stats.synth_runs,
                "hits": warm_cache.stats.hits,
                "misses": warm_cache.stats.misses,
            },
        },
    }


def run_portfolio() -> dict:
    """Portfolio workload block: race the committed asymptotic suite.

    Every goal of ``specs/asymptotic_suite.json`` (fast rows) is raced on two
    workers — the bound ladder compiled from its asymptotic class runs
    concurrently, the first (tightest) success wins and the slack rungs are
    cancelled.  The same suite is then walked serially (one rung at a time,
    the portfolio gate's off-path) and the block asserts the race changed
    *nothing* but wall-clock: winner rungs and program bytes are identical.
    ``sequential_ladder_seconds`` is the serial walk's wall-clock, the number
    the race's ``parallel_seconds`` is bought against.
    """
    from repro.service.specs import jobs_from_spec, load_spec

    spec = load_spec(os.path.join(REPO_ROOT, "specs", "asymptotic_suite.json"))
    expected = {
        f"{entry['key']}/resyn": entry.get("expected_winner")
        for entry in spec["goals"]
        if not entry.get("slow")
    }

    racer = BatchScheduler(workers=2)
    start = time.perf_counter()
    raced = racer.run(jobs_from_spec(spec))
    race_wall = time.perf_counter() - start

    serial = BatchScheduler(workers=1)
    start = time.perf_counter()
    walked = serial.run(jobs_from_spec(spec))
    serial_wall = time.perf_counter() - start

    rows = []
    for race_result, serial_result in zip(raced, walked):
        if race_result.program_text != serial_result.program_text:
            raise AssertionError(
                f"portfolio race drift for {race_result.tag}: "
                f"{race_result.program_text!r} != {serial_result.program_text!r}"
            )
        info = race_result.portfolio or {}
        stats_block = (race_result.record or {}).get("stats", {}).get("portfolio", {})
        winner = stats_block.get("winner")
        if winner != expected[race_result.tag]:
            raise AssertionError(
                f"portfolio winner drift for {race_result.tag}: "
                f"{winner!r} != {expected[race_result.tag]!r}"
            )
        rows.append(
            {
                "benchmark": race_result.tag,
                "succeeded": race_result.succeeded,
                "winner": winner,
                "ladder": list(stats_block.get("ladder", [])),
                "seconds": round(race_result.seconds, 4),
                "variants_raced": int(info.get("variants_raced", 0)),
                "variants_cancelled": int(info.get("variants_cancelled", 0)),
                "program": race_result.program_text,
            }
        )
    return {
        "workers": 2,
        "goals": len(rows),
        "solved": sum(1 for row in rows if row["succeeded"]),
        "variants_raced": racer.stats.variants_raced,
        "variants_cancelled": racer.stats.variants_cancelled,
        "parallel_seconds": round(race_wall, 4),
        "sequential_ladder_seconds": round(serial_wall, 4),
        "speedup": round(serial_wall / race_wall, 3) if race_wall else 0.0,
        "winners_identical": True,
        "rows": rows,
    }


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(REPO_ROOT, "BENCH_synthesis.json")
    report = run_quick()
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {out_path} (total {report['total_seconds']:.2f}s, "
        f"src {report['src_lines']} lines, {report['intern_nodes']} intern nodes)"
    )
    for row in report["rows"]:
        print(f"  {row['benchmark']:>16s} {row['mode']:>8s} {row['seconds']:7.3f}s")
    service = report["service"]
    print(
        f"  service: {service['jobs']} jobs on {service['workers']} workers "
        f"in {service['parallel_seconds']:.2f}s (speedup {service['speedup']:.2f}x)"
    )
    pbe = report["pbe"]
    print(
        f"  pbe: {pbe['solved']}/{pbe['goals']} solved "
        f"({pbe['examples_ok']} example-verified) in {pbe['total_seconds']:.2f}s, "
        f"warm rerun {pbe['cache']['warm']['hits']} cache hits"
    )
    portfolio = report["portfolio"]
    print(
        f"  portfolio: {portfolio['solved']}/{portfolio['goals']} asymptotic goals, "
        f"{portfolio['variants_raced']} variants raced / "
        f"{portfolio['variants_cancelled']} cancelled, "
        f"race {portfolio['parallel_seconds']:.2f}s vs ladder "
        f"{portfolio['sequential_ladder_seconds']:.2f}s"
    )


if __name__ == "__main__":
    main()
