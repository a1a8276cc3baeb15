"""Regression guard for the quick synthesis benchmark.

Compares a freshly generated ``BENCH_synthesis.json`` against a baseline
report and fails (exit code 1) when

* any synthesized program differs from the baseline — byte-identity is the
  strongest regression signal the suite has: the search is deterministic
  and verdict-driven, so programs are machine-independent;
* any PBE-suite program differs from the baseline, a program stops
  satisfying its examples, a grammar-demo row loses its strict
  restricted-vs-unrestricted ``eterm_checks`` reduction, or a row's
  ``eterm_checks`` drifts past the counter tolerance (reports without a
  ``pbe`` block are skipped silently);
* any portfolio-suite winner rung or program differs from the baseline, or
  the race stops cancelling losers — the variant counters and wall-clock
  fields themselves are exempt, since they depend on race timing (reports
  without a ``portfolio`` block are skipped silently);
* any deterministic solver counter (the report's ``counters`` block:
  LIA queries/eliminations/cores, SAT decisions/conflicts, ...) drifts by
  more than the counter tolerance — these are also machine-independent, so
  they catch algorithmic perf regressions that wall-clock noise would hide;
* ``intern_nodes`` (hash-consed term nodes alive after the serial loop)
  exceeds the baseline's at all — a ceiling with no tolerance, because a
  synthesis that leaks fresh names into the term tables grows it (skipped
  with the counters, and for baselines without the field);
* when both reports carry a ``phases`` block (traced runs,
  ``REPRO_TRACE=1``), the span *counts* — ``total_spans`` and each phase's
  ``spans`` — drift past the counter tolerance.  The blocks' wall-clock
  fields (``seconds``/``self_seconds``) are explicitly exempt: span counts
  are deterministic, span durations are not;
* total wall-clock exceeds the baseline by more than the timing tolerance
  (default 25%).

**Wall-clock is only meaningful against a baseline measured on the same
machine.** CI therefore regenerates the baseline from the PR's base commit
on the same runner before applying the 25% guard (see
``.github/workflows/ci.yml``); comparing against the committed JSON from a
different machine should use ``--no-timing`` (program identity and counters
only).

Usage::

    python benchmarks/check_regression.py BASELINE.json FRESH.json \
        [--tolerance 1.25] [--counter-tolerance 1.25] [--no-timing]
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys


def load_programs(report: dict) -> dict:
    return {(row["benchmark"], row["mode"]): row["program"] for row in report["rows"]}


def program_diff(benchmark: str, mode: str, baseline: str | None, fresh: str | None) -> str:
    """A unified diff of two synthesized programs, labeled by benchmark/mode.

    Programs are single-line S-expressions; diffing them token-per-line makes
    the first diverging subterm visible instead of dumping two long lines.
    """
    base_lines = (baseline or "<no program>").replace(" ", "\n").splitlines(keepends=False)
    fresh_lines = (fresh or "<no program>").replace(" ", "\n").splitlines(keepends=False)
    diff = difflib.unified_diff(
        [line + "\n" for line in base_lines],
        [line + "\n" for line in fresh_lines],
        fromfile=f"baseline/{benchmark}/{mode}",
        tofile=f"fresh/{benchmark}/{mode}",
    )
    return "".join(diff)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline BENCH_synthesis.json")
    parser.add_argument("fresh", help="freshly generated report to validate")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.25,
        help="allowed total wall-clock ratio fresh/baseline (default 1.25)",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=1.25,
        help="allowed ratio for each deterministic solver counter (default 1.25)",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="skip the wall-clock check (baseline from a different machine)",
    )
    parser.add_argument(
        "--no-counters",
        action="store_true",
        help="skip the counter check (e.g. vs a rebuilt merge-base baseline, "
        "where intentional counter changes are already vetted against the "
        "committed report)",
    )
    args = parser.parse_args()

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)

    failures = []

    base_programs = load_programs(baseline)
    fresh_programs = load_programs(fresh)
    for (benchmark, mode), program in sorted(base_programs.items(), key=str):
        if (benchmark, mode) not in fresh_programs:
            failures.append(f"benchmark {benchmark!r} mode {mode!r}: row missing from fresh report")
            continue
        fresh_program = fresh_programs[(benchmark, mode)]
        if fresh_program != program:
            failures.append(
                f"program drift in benchmark {benchmark!r} mode {mode!r}:\n"
                + program_diff(benchmark, mode, program, fresh_program)
            )

    # Deterministic counters: identical code must produce identical counts, so
    # any growth past the tolerance is an algorithmic regression regardless of
    # what machine either report was generated on.  Older baselines (pre-PR 3)
    # have no counters block; skip silently in that case.
    base_counters = {} if args.no_counters else (baseline.get("counters") or {})
    fresh_counters = fresh.get("counters") or {}
    for name in sorted(base_counters):
        base_value = base_counters[name]
        fresh_value = fresh_counters.get(name)
        if fresh_value is None:
            failures.append(f"counter {name} missing from fresh report")
        elif fresh_value > base_value * args.counter_tolerance + 1:
            failures.append(
                f"counter regression: {name} {base_value} -> {fresh_value} "
                f"(tolerance {args.counter_tolerance:.2f}x)"
            )
    base_nodes = None if args.no_counters else baseline.get("intern_nodes")
    if base_nodes is not None and fresh.get("intern_nodes", 0) > base_nodes:
        failures.append(
            f"intern-node ceiling exceeded: {base_nodes} -> {fresh.get('intern_nodes')}"
        )

    # PBE suite (reports since the PBE front-end landed): programs are guarded
    # byte-identically like the Table 1 rows, per-row eterm_checks like the
    # deterministic counters, and the grammar-demo rows must keep their strict
    # restricted < unrestricted reduction.  Older baselines have no pbe block;
    # skip silently in that case.
    base_pbe = {row["benchmark"]: row for row in (baseline.get("pbe") or {}).get("rows", [])}
    fresh_pbe = {row["benchmark"]: row for row in (fresh.get("pbe") or {}).get("rows", [])}
    for benchmark in sorted(base_pbe):
        base_row = base_pbe[benchmark]
        fresh_row = fresh_pbe.get(benchmark)
        if fresh_row is None:
            failures.append(f"pbe benchmark {benchmark!r}: row missing from fresh report")
            continue
        if fresh_row["program"] != base_row["program"]:
            failures.append(
                f"program drift in pbe benchmark {benchmark!r}:\n"
                + program_diff(benchmark, "pbe", base_row["program"], fresh_row["program"])
            )
        if not fresh_row.get("examples_ok"):
            failures.append(f"pbe benchmark {benchmark!r}: program no longer satisfies its examples")
        if not args.no_counters:
            base_checks = int(base_row.get("eterm_checks", 0))
            fresh_checks = int(fresh_row.get("eterm_checks", 0))
            if fresh_checks > base_checks * args.counter_tolerance + 1:
                failures.append(
                    f"counter regression: pbe {benchmark} eterm_checks "
                    f"{base_checks} -> {fresh_checks} "
                    f"(tolerance {args.counter_tolerance:.2f}x)"
                )
        unrestricted = fresh_row.get("unrestricted_eterm_checks")
        if unrestricted is not None and int(unrestricted) <= int(fresh_row["eterm_checks"]):
            failures.append(
                f"pbe benchmark {benchmark!r}: grammar restriction no longer reduces "
                f"eterm_checks ({fresh_row['eterm_checks']} restricted vs "
                f"{unrestricted} unrestricted)"
            )

    # Portfolio suite (reports since the portfolio scheduler landed): winner
    # rungs and programs are the determinism contract — both are guarded
    # strictly.  Variant counters (raced/cancelled) depend on race timing and
    # wall-clock fields on the machine, so both are exempt; the only counter
    # invariant is that racing keeps cancelling *some* losers.
    base_portfolio = {
        row["benchmark"]: row for row in (baseline.get("portfolio") or {}).get("rows", [])
    }
    fresh_portfolio_block = fresh.get("portfolio") or {}
    fresh_portfolio = {row["benchmark"]: row for row in fresh_portfolio_block.get("rows", [])}
    for benchmark in sorted(base_portfolio):
        base_row = base_portfolio[benchmark]
        fresh_row = fresh_portfolio.get(benchmark)
        if fresh_row is None:
            failures.append(f"portfolio benchmark {benchmark!r}: row missing from fresh report")
            continue
        if fresh_row.get("winner") != base_row.get("winner"):
            failures.append(
                f"portfolio winner drift in {benchmark!r}: "
                f"{base_row.get('winner')!r} -> {fresh_row.get('winner')!r}"
            )
        if fresh_row["program"] != base_row["program"]:
            failures.append(
                f"program drift in portfolio benchmark {benchmark!r}:\n"
                + program_diff(benchmark, "portfolio", base_row["program"], fresh_row["program"])
            )
    if base_portfolio and not int(fresh_portfolio_block.get("variants_cancelled", 0)):
        failures.append(
            "portfolio race cancelled no variants: losers are no longer being reclaimed"
        )

    # Phase tables (traced runs only): span counts are deterministic counters
    # and guarded like the block above; the seconds/self_seconds columns are
    # wall-clock and deliberately never compared.
    base_phases = None if args.no_counters else baseline.get("phases")
    fresh_phases = fresh.get("phases")
    if base_phases and fresh_phases:
        base_total_spans = int(base_phases.get("total_spans", 0))
        fresh_total_spans = int(fresh_phases.get("total_spans", 0))
        if fresh_total_spans > base_total_spans * args.counter_tolerance + 1:
            failures.append(
                f"span-count regression: total_spans {base_total_spans} -> "
                f"{fresh_total_spans} (tolerance {args.counter_tolerance:.2f}x)"
            )
        fresh_rows = {row["phase"]: row for row in fresh_phases.get("rows", [])}
        for row in base_phases.get("rows", []):
            name = row["phase"]
            fresh_row = fresh_rows.get(name)
            if fresh_row is None:
                failures.append(f"phase {name} missing from fresh report")
            elif int(fresh_row["spans"]) > int(row["spans"]) * args.counter_tolerance + 1:
                failures.append(
                    f"span-count regression: phase {name} {row['spans']} -> "
                    f"{fresh_row['spans']} (tolerance {args.counter_tolerance:.2f}x)"
                )

    if not args.no_timing:
        base_total = float(baseline["total_seconds"])
        fresh_total = float(fresh["total_seconds"])
        ratio = fresh_total / base_total if base_total else float("inf")
        print(
            f"wall-clock: baseline {base_total:.3f}s, fresh {fresh_total:.3f}s "
            f"(ratio {ratio:.2f}, tolerance {args.tolerance:.2f})"
        )
        if ratio > args.tolerance:
            failures.append(
                f"wall-clock regression: {fresh_total:.3f}s > "
                f"{args.tolerance:.2f} * {base_total:.3f}s"
            )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    checks = "programs identical"
    if not args.no_counters:
        checks += ", counters within tolerance"
        if base_phases and fresh_phases:
            checks += ", span counts within tolerance"
    if not args.no_timing:
        checks += ", wall-clock within tolerance"
    print(f"regression guard OK: {checks}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
