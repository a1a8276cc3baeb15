"""Portfolio-smoke checker: the asymptotic suite's racing contract.

Runs the committed asymptotic suite (``specs/asymptotic_suite.json``) cold
through the portfolio scheduler on two workers — twice — and asserts:

* **solved** — every fast goal of the suite is solved via its bound-ladder
  race, and each winner rung matches the spec's ``expected_winner``;
* **cancellation** — at least one losing variant was actually cancelled
  (the race reclaims workers instead of letting slack rungs run dry);
* **determinism** — the second run (fresh runner, no cache) picks the same
  winner rung and synthesizes a byte-identical program for every goal:
  the race outcome is a pure function of the goal, not of race timing;
* **gate** — with ``REPRO_PORTFOLIO=off`` the sequential ladder walk
  reproduces the same winners and programs with zero cancellations.

Usage::

    PYTHONPATH=src python benchmarks/check_portfolio.py \\
        [--spec specs/asymptotic_suite.json] [--workers 2]
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def run_suite(spec: dict, workers: int) -> dict:
    """One cold run; returns {tag: (winner, program, raced, cancelled)}."""
    from repro.service.scheduler import BatchScheduler
    from repro.service.specs import jobs_from_spec

    runner = BatchScheduler(workers=workers)
    outcomes = {}
    for result in runner.run(jobs_from_spec(spec)):
        stats_block = (result.record or {}).get("stats", {}).get("portfolio", {})
        info = result.portfolio or {}
        outcomes[result.tag] = {
            "ok": result.succeeded,
            "winner": stats_block.get("winner"),
            "program": result.program_text,
            "raced": int(info.get("variants_raced", 0)),
            "cancelled": int(info.get("variants_cancelled", 0)),
        }
    outcomes["__stats__"] = {
        "variants_raced": runner.stats.variants_raced,
        "variants_cancelled": runner.stats.variants_cancelled,
        "wall_seconds": runner.stats.wall_seconds,
    }
    return outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--spec", default=os.path.join(REPO_ROOT, "specs", "asymptotic_suite.json")
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    from repro.service.specs import load_spec

    spec = load_spec(args.spec)
    expected = {
        f"{entry['key']}/resyn": entry.get("expected_winner")
        for entry in spec["goals"]
        if not entry.get("slow")
    }

    failures = []

    first = run_suite(spec, args.workers)
    second = run_suite(spec, args.workers)
    first_stats = first.pop("__stats__")
    second.pop("__stats__")

    for tag, want in sorted(expected.items()):
        row = first.get(tag)
        if row is None or not row["ok"]:
            failures.append(f"{tag}: not solved by the bound-ladder race")
            continue
        print(
            f"  {tag:>22s}  winner {row['winner']:>11s}  "
            f"raced {row['raced']}  cancelled {row['cancelled']}"
        )
        if want and row["winner"] != want:
            failures.append(f"{tag}: winner {row['winner']!r} != expected {want!r}")
        rerun = second.get(tag) or {}
        if rerun.get("winner") != row["winner"]:
            failures.append(
                f"{tag}: winner not deterministic across runs "
                f"({row['winner']!r} vs {rerun.get('winner')!r})"
            )
        if rerun.get("program") != row["program"]:
            failures.append(f"{tag}: program not byte-identical across runs")

    if first_stats["variants_cancelled"] < 1:
        failures.append("race cancelled no losing variants")
    print(
        f"race: {first_stats['variants_raced']} variants raced, "
        f"{first_stats['variants_cancelled']} cancelled, "
        f"wall {first_stats['wall_seconds']:.2f}s on {args.workers} workers"
    )

    # Gate off: the sequential ladder must reproduce the race byte-for-byte.
    os.environ["REPRO_PORTFOLIO"] = "off"
    try:
        gated = run_suite(spec, args.workers)
    finally:
        del os.environ["REPRO_PORTFOLIO"]
    gated_stats = gated.pop("__stats__")
    if gated_stats["variants_cancelled"]:
        failures.append("REPRO_PORTFOLIO=off still cancelled variants (gate leak)")
    for tag in expected:
        if (gated.get(tag) or {}).get("program") != first[tag]["program"]:
            failures.append(f"{tag}: gate-off program differs from the race's")
        if (gated.get(tag) or {}).get("winner") != first[tag]["winner"]:
            failures.append(f"{tag}: gate-off winner differs from the race's")
    print("gate off: sequential ladder reproduced every winner and program")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"portfolio smoke OK: {len(expected)} goals, deterministic winners, "
        "losers cancelled, gate-off byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
