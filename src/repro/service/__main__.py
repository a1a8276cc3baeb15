"""CLI for the batch synthesis service.

Usage::

    python -m repro.service run specs/table1.json -j 4 --cache ~/.resyn-cache
    python -m repro.service run specs/table1.json -j 2 --modes resyn
    python -m repro.service serve --port 8765 -j 4 --cache ~/.resyn-cache --shards 4
    python -m repro.service export --dir specs
    python -m repro.service cache ~/.resyn-cache [--clear]
    python -m repro.service stats ~/.resyn-cache [--json]

``run`` schedules every goal × mode of a spec file over the worker pool,
prints one line per job plus scheduler/cache statistics, and optionally dumps
a machine-readable report.  A warm rerun against the same cache performs zero
synthesizer invocations (``--expect-all-hits`` turns that into an assertion,
which is what the CI smoke job uses).

``stats`` reports the telemetry a cache directory has accumulated across
runs (``telemetry.json``, written by every scheduler run that uses the
cache): entry count, cumulative hit rate and evictions, and the last run's
queue-wait/run-time split and per-worker utilization.

``serve`` runs the long-lived synthesis server (:mod:`repro.service.serve`):
an HTTP front-end (``POST /jobs`` streaming NDJSON progress, ``GET /stats``,
``POST /shutdown``) — plus newline-delimited JSON over stdin with ``--stdio``
— dispatching onto a resident worker pool whose workers keep warm solver
state between jobs (disable with ``REPRO_WARM=off``).
``--shards N`` creates the result cache with N shards by fingerprint prefix
(default 1); an existing cache keeps the count pinned at its creation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.service.cache import open_cache
from repro.service.scheduler import DEFAULT_GRACE, DEFAULT_RETRIES, BatchScheduler, JobResult
from repro.service.specs import export_table_spec, jobs_from_spec, load_spec, write_spec


def _status(result: JobResult) -> str:
    if result.cancelled:
        return "cancelled"
    if result.error:
        return "error"
    if result.hard_timed_out:
        return "hard-timeout"
    if result.timed_out:
        return "timeout"
    if not result.succeeded:
        return "no-solution"
    if result.cache_hit:
        return "hit"
    if result.deduplicated:
        return "dedup"
    return "ok"


def _json_row(result: JobResult) -> dict:
    """One ``run --json`` result row; asymptotic jobs also name the winning rung."""
    row = {
        "tag": result.tag,
        "fingerprint": result.fingerprint,
        "status": _status(result),
        "seconds": result.seconds,
        "program": result.program_text,
    }
    portfolio = (result.record or {}).get("stats", {}).get("portfolio")
    if portfolio is not None:
        row["winner"] = portfolio.get("winner")
    return row


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    modes = args.modes.split(",") if args.modes else None
    jobs = jobs_from_spec(
        spec, modes=modes, include_slow=args.include_slow, timeout=args.timeout
    )
    if not jobs:
        print("spec selected no jobs (all goals slow? try --include-slow)", file=sys.stderr)
        return 2

    cache = (
        open_cache(args.cache, max_entries=args.cache_max, shards=args.shards)
        if args.cache
        else None
    )
    # Asymptotic goals race their bound ladders on the same pool.
    scheduler = BatchScheduler(
        workers=args.jobs,
        cache=cache,
        retries=args.retries,
        grace=args.hard_timeout,
        warm=args.warm,
    )
    # Ctrl-C is handled inside run(): unfinished jobs come back marked
    # cancelled and the partial results are still printed below.
    results = scheduler.run(jobs)

    width = max(len(job.tag) for job in jobs)
    for result in results:
        line = f"  {result.tag:>{width}s}  {_status(result):>11s}  {result.seconds:7.3f}s"
        if result.succeeded:
            line += f"  {result.program_text}"
        elif result.error:
            line += f"  {result.error}"
        print(line)
        info = result.portfolio
        if info:
            print(
                f"  {'':>{width}s}  portfolio[{info.get('mode', '?')}]: "
                f"winner {info.get('winner', '-')}, "
                f"{info.get('variants_raced', 0)} raced, "
                f"{info.get('variants_cancelled', 0)} cancelled"
            )

    stats = scheduler.stats
    print(
        f"\n{stats.jobs} jobs on {stats.workers} workers: "
        f"{stats.synth_runs} synthesized, {stats.cache_hits} cache hits, "
        f"{stats.deduplicated} deduplicated, {stats.timeouts} timeouts, "
        f"{stats.errors} errors"
    )
    line = f"wall {stats.wall_seconds:.2f}s, synthesis work {stats.cpu_seconds:.2f}s"
    if stats.cpu_seconds and stats.wall_seconds:
        line += f" (speedup {stats.cpu_seconds / stats.wall_seconds:.2f}x)"
    if stats.saved_seconds:
        line += f", {stats.saved_seconds:.2f}s of synthesis avoided by the cache"
    print(line)
    failure_traffic = (
        stats.retries
        or stats.worker_kills
        or stats.hard_timeouts
        or stats.poisoned
        or stats.pool_rebuilds
        or stats.degraded_serial
    )
    if failure_traffic:
        line = (
            f"faults survived: {stats.retries} retries, {stats.worker_kills} worker kills, "
            f"{stats.hard_timeouts} hard timeouts, {stats.poisoned} poisoned, "
            f"{stats.pool_rebuilds} pool rebuilds"
        )
        if stats.degraded_serial:
            line += ", degraded to serial backend"
        print(line)
    if cache is not None:
        c = cache.stats
        line = (
            f"cache: {c.hits} hits / {c.misses} misses "
            f"({100 * c.hit_rate():.0f}%), {c.stores} stores, {c.evictions} evictions"
        )
        if c.quarantined or c.io_errors:
            line += f", {c.quarantined} quarantined, {c.io_errors} I/O errors"
        print(line)

    if args.json:
        report = {
            "spec": args.spec,
            "scheduler": stats.as_dict(),
            "cache": cache.stats.as_dict() if cache else None,
            "results": [_json_row(r) for r in results],
        }
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.expect_all_hits and scheduler.stats.synth_runs > 0:
        print(
            f"FAIL: expected a fully warm cache but {scheduler.stats.synth_runs} "
            "jobs invoked the synthesizer",
            file=sys.stderr,
        )
        return 1
    if stats.errors or stats.cancelled:
        return 1  # an aborted or failing batch must not look like success
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    tables = (
        ["table1", "table2", "pbe", "asymptotic"] if args.table == "all" else [args.table]
    )
    for table in tables:
        if table == "asymptotic":
            from repro.portfolio.suite import asymptotic_spec

            path = f"{args.dir}/asymptotic_suite.json"
            write_spec(asymptotic_spec(), path)
        else:
            name = "pbe_suite" if table == "pbe" else table
            path = f"{args.dir}/{name}.json"
            write_spec(export_table_spec(table), path)
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.serve import serve_forever

    cache = (
        open_cache(args.cache, max_entries=args.cache_max, shards=args.shards)
        if args.cache
        else None
    )
    extra = {}
    if args.max_pending is not None:
        extra["max_pending"] = args.max_pending
    serve_forever(
        workers=args.jobs,
        cache=cache,
        host=args.host,
        port=args.port,
        stdio=args.stdio,
        retries=args.retries,
        grace=args.hard_timeout,
        **extra,
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = open_cache(args.dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0
    fingerprints = list(cache.fingerprints())
    print(f"{cache.root}: {len(fingerprints)} entries")
    for fingerprint in fingerprints:
        entry = cache.lookup(fingerprint) or {}
        print(
            f"  {fingerprint[:16]}  {entry.get('goal_name', '?'):>16s}  "
            f"{entry.get('seconds', 0.0):7.3f}s  {entry.get('program_text') or '<no solution>'}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    cache = open_cache(args.dir)
    entries = len(cache)
    quarantined = cache.quarantined_entries()
    data = cache.telemetry()
    if args.json:
        print(
            json.dumps(
                {
                    "entries": entries,
                    "quarantined_entries": len(quarantined),
                    "shards": cache.shards,
                    "telemetry": data,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"{cache.root}: {entries} entries in {cache.shards} shard(s)")
    if quarantined:
        where = ", ".join(cache.quarantine_dirs())
        print(f"{len(quarantined)} quarantined entries under {where}")
    if data is None:
        print("no telemetry recorded yet (run a batch against this cache first)")
        return 0
    totals = data.get("totals", {})
    print(
        f"{data.get('runs', 0)} runs: {totals.get('jobs', 0):.0f} jobs, "
        f"{totals.get('cache_hits', 0):.0f} hits / {totals.get('cache_misses', 0):.0f} misses "
        f"({100 * float(totals.get('cache_hit_rate', 0.0)):.0f}%), "
        f"{totals.get('cache_stores', 0):.0f} stores, "
        f"{totals.get('cache_evictions', 0):.0f} evictions"
    )
    if totals.get("saved_seconds"):
        print(f"{float(totals['saved_seconds']):.2f}s of synthesis avoided by the cache")
    failure_totals = {
        key: totals.get(key, 0)
        for key in (
            "retries",
            "worker_kills",
            "hard_timeouts",
            "poisoned",
            "pool_rebuilds",
            "cache_quarantined",
            "cache_io_errors",
        )
        if totals.get(key)
    }
    if failure_totals:
        rendered = ", ".join(f"{value:.0f} {key}" for key, value in failure_totals.items())
        print(f"failure traffic: {rendered}")
    last = data.get("last_run", {}).get("scheduler", {})
    if last:
        print(
            f"last run: {last.get('jobs', 0)} jobs on {last.get('workers', 0)} workers, "
            f"wall {float(last.get('wall_seconds', 0.0)):.2f}s, "
            f"queue wait {float(last.get('queue_seconds', 0.0)):.2f}s, "
            f"run time {float(last.get('run_seconds', 0.0)):.2f}s"
        )
        utilization = last.get("worker_utilization") or {}
        if utilization:
            rendered = ", ".join(
                f"{worker} {100 * float(busy):.0f}%" for worker, busy in sorted(utilization.items())
            )
            print(f"worker utilization: {rendered}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.service", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="schedule every goal of a spec file")
    run.add_argument("spec", help="path to a goal-spec file (.json or .toml)")
    run.add_argument("-j", "--jobs", type=int, default=1, help="worker processes (default 1)")
    run.add_argument("--cache", help="persistent result-cache directory")
    run.add_argument("--cache-max", type=int, default=None, help="cache entry limit (LRU)")
    run.add_argument("--modes", help="comma-separated mode override (e.g. resyn,synquid)")
    run.add_argument("--include-slow", action="store_true", help="also run goals marked slow")
    run.add_argument("--timeout", type=float, default=None, help="per-job timeout in seconds")
    run.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        help=f"retry budget for crash-classified job failures (default {DEFAULT_RETRIES})",
    )
    run.add_argument(
        "--hard-timeout",
        type=float,
        default=DEFAULT_GRACE,
        metavar="GRACE",
        help=(
            "grace seconds past the soft timeout before the parent kills a "
            f"worker (hard deadline = timeout + grace; default {DEFAULT_GRACE:g})"
        ),
    )
    run.add_argument("--json", help="write a machine-readable report here")
    run.add_argument(
        "--expect-all-hits",
        action="store_true",
        help="fail unless every job was served from the cache (CI warm-cache check)",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shards for a new --cache (default 1; an existing cache's count is pinned)",
    )
    run.add_argument(
        "--warm",
        action="store_true",
        help="reuse warm solver state across jobs within each worker",
    )
    run.set_defaults(func=_cmd_run)

    serve = commands.add_parser("serve", help="run the long-lived synthesis server")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765, help="HTTP port (0 = ephemeral)")
    serve.add_argument("-j", "--jobs", type=int, default=2, help="worker processes (default 2)")
    serve.add_argument("--cache", help="persistent result-cache directory")
    serve.add_argument("--cache-max", type=int, default=None, help="cache entry limit (LRU)")
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shards for a new --cache (default 1; an existing cache's count is pinned)",
    )
    serve.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, help="crash-retry budget per job"
    )
    serve.add_argument(
        "--hard-timeout",
        type=float,
        default=DEFAULT_GRACE,
        metavar="GRACE",
        help="grace seconds past the soft timeout before a worker is killed",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="also accept newline-delimited JSON ops on stdin",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bound on admitted-but-unfinished jobs; further POST /jobs get "
            "429 with a Retry-After hint (default 256)"
        ),
    )
    serve.set_defaults(func=_cmd_serve)

    export = commands.add_parser("export", help="export benchmark tables as spec files")
    export.add_argument(
        "table",
        nargs="?",
        default="all",
        choices=["table1", "table2", "pbe", "asymptotic", "all"],
    )
    export.add_argument("--dir", default="specs", help="output directory (default specs/)")
    export.set_defaults(func=_cmd_export)

    cache = commands.add_parser("cache", help="inspect or clear a result cache")
    cache.add_argument("dir", help="cache directory")
    cache.add_argument("--clear", action="store_true", help="delete every entry")
    cache.set_defaults(func=_cmd_cache)

    stats = commands.add_parser("stats", help="report accumulated cache/scheduler telemetry")
    stats.add_argument("dir", help="cache directory")
    stats.add_argument("--json", action="store_true", help="print the raw telemetry as JSON")
    stats.set_defaults(func=_cmd_stats)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
