"""Per-solve cost of one warm solver as its clause database grows.

One :class:`~repro.smt.solver.Solver` is grown step by step with distinct
real goals: the Table 2 spec, the asymptotic-suite goals, ``t1_member`` in
three modes, then ``t1_insert_sorted`` (synquid) in growing time slices.
After each step the *probe* runs: the server mix (the ``table1`` and
``pbe_suite`` specs without ``pbe_sum3``, as in perfbench's ``server``
workload) with the solver's validity and model caches cleared, so that every
probe query is solved again against the grown database.  Per step it prints
the database size, the gate count, the database rebuilds so far, the median
goals/s of the untraced probe passes and the SAT time per solve of one
traced pass (``sat.solve`` spans).

``--database-max`` replaces the encoder's database bound for the run, which
is how the cost beyond the bound is measured.  Programs must not depend on
it: the script fails if any probe pass synthesizes a different program.

Usage::

    PYTHONPATH=src python benchmarks/warm_growth.py [--database-max N] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.api import synthesize  # noqa: E402
from repro.benchsuite.definitions import benchmark_by_key  # noqa: E402
from repro.benchsuite.runner import benchmark_config  # noqa: E402
from repro.obs import export, trace  # noqa: E402
from repro.service.specs import jobs_from_spec, load_spec  # noqa: E402
from repro.smt import encoder  # noqa: E402
from repro.smt.solver import Solver  # noqa: E402

#: ``t1_insert_sorted`` synquid time slices (seconds), one growth step each.
INSERT_SLICES = (1, 2, 3, 4, 6, 8, 12)
#: Untraced probe passes per step (the median is reported).
PASSES = 5


def spec_jobs(name: str):
    return [
        (job.tag, job.goal(), job.config())
        for job in jobs_from_spec(load_spec(os.path.join(REPO_ROOT, "specs", f"{name}.json")))
    ]


def bench_job(key: str, mode: str, timeout: float):
    benchmark = benchmark_by_key(key)
    config = benchmark_config(benchmark, mode)
    config.timeout = timeout
    return (f"{key}/{mode}", benchmark.goal, config)


def growth_steps():
    asym = spec_jobs("asymptotic_suite")
    steps = [spec_jobs("table2")]
    steps += [[job] for job in asym]
    steps.append([bench_job("t1_member", mode, 60.0) for mode in ("resyn", "synquid", "noninc")])
    steps += [[bench_job("t1_insert_sorted", "synquid", s)] for s in INSERT_SLICES]
    return steps


def probe_pass(solver: Solver, probe) -> tuple:
    solver._valid_cache.clear()
    solver._model_cache.clear()
    start = time.perf_counter()
    programs = tuple(
        str(synthesize(goal, config, solver=solver).program) for _, goal, config in probe
    )
    return time.perf_counter() - start, programs


def sat_us_per_solve(solver: Solver, probe) -> float:
    trace.reset()
    trace.enable()
    try:
        probe_pass(solver, probe)
        rows = {row["phase"]: row for row in export.phase_table()}
    finally:
        trace.disable()
        trace.reset()
    row = rows.get("sat.solve")
    return 1e6 * row["seconds"] / row["spans"] if row else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--database-max", type=int, default=None)
    parser.add_argument("--json", default=None, help="also write the rows to this file")
    args = parser.parse_args(argv)
    if args.database_max is not None:
        encoder._DATABASE_MAX = args.database_max

    probe = [
        job
        for name in ("table1", "pbe_suite")
        for job in spec_jobs(name)
        if job[0].split("/", 1)[0] != "pbe_sum3"
    ]
    solver = Solver()
    expected = probe_pass(solver, probe)[1]
    rows = []
    print(f"{'step':<36} {'clauses':>8} {'gates':>6} {'resets':>6} {'goals/s':>8} {'us/solve':>8}")
    for step in [[]] + growth_steps():
        for _, goal, config in step:
            synthesize(goal, config, solver=solver)
        walls = []
        for _ in range(PASSES):
            wall, programs = probe_pass(solver, probe)
            if programs != expected:
                raise SystemExit("a probe pass synthesized a different program")
            walls.append(wall)
        sizes = solver.warm_sizes()
        row = {
            "step": ",".join(tag for tag, _, _ in step) or "(probe only)",
            "clauses": sizes["sat_clauses"],
            "gates": sizes["gate_entries"],
            "resets": solver.counters_snapshot()["database_resets"],
            "goals_per_s": round(len(probe) / statistics.median(walls), 1),
            "sat_us_per_solve": round(sat_us_per_solve(solver, probe), 1),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024,
        }
        rows.append(row)
        print(
            f"{row['step'][:36]:<36} {row['clauses']:>8} {row['gates']:>6} {row['resets']:>6} "
            f"{row['goals_per_s']:>8} {row['sat_us_per_solve']:>8}",
            flush=True,
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"database_max": encoder._DATABASE_MAX, "rows": rows}, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
