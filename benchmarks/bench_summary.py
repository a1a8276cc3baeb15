"""Render a BENCH_synthesis.json report as a GitHub-flavored Markdown summary.

CI appends the output to ``$GITHUB_STEP_SUMMARY`` so the perf trajectory of
every run — per-benchmark wall-clock plus the deterministic solver counters
(gate-cache traffic, LIA eliminations, SAT decisions, ...) — is visible on
the run page without downloading the artifact.

With a second report argument, each table gains a baseline column and a
ratio, so a PR run can show fresh-vs-committed at a glance.

Usage::

    python benchmarks/bench_summary.py FRESH.json [BASELINE.json] >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import json
import sys


def _fmt_ratio(fresh: float, base: float) -> str:
    if not base:
        return "n/a"
    return f"{fresh / base:.2f}x"


def render(fresh: dict, baseline: dict | None = None) -> str:
    lines = ["## Quick benchmark (fast Table 1 subset)", ""]
    meta = (
        f"python {fresh.get('python', '?')}, suite `{fresh.get('suite', '?')}`, "
        f"total **{fresh.get('total_seconds', 0.0):.3f} s**"
    )
    if baseline is not None:
        ratio = _fmt_ratio(fresh.get("total_seconds", 0.0), baseline.get("total_seconds", 0.0))
        meta += f" (committed baseline {baseline.get('total_seconds', 0.0):.3f} s, ratio {ratio})"
    if "src_lines" in fresh:
        meta += f", `src/` **{fresh['src_lines']}** lines"
        if baseline is not None and "src_lines" in baseline:
            meta += f" (baseline {baseline['src_lines']})"
    if "intern_nodes" in fresh:
        meta += f", **{fresh['intern_nodes']}** interned term nodes"
        if baseline is not None and "intern_nodes" in baseline:
            meta += f" (baseline {baseline['intern_nodes']})"
    lines.append(meta)

    lines += ["", "### Wall-clock per row", ""]
    header = "| benchmark | mode | seconds |"
    divider = "|---|---|---:|"
    base_rows = {}
    if baseline is not None:
        header += " baseline |"
        divider += "---:|"
        base_rows = {(r["benchmark"], r["mode"]): r for r in baseline.get("rows", [])}
    lines += [header, divider]
    for row in fresh.get("rows", []):
        line = f"| {row['benchmark']} | {row['mode']} | {row['seconds']:.4f} |"
        if baseline is not None:
            base = base_rows.get((row["benchmark"], row["mode"]))
            line += f" {base['seconds']:.4f} |" if base else " — |"
        lines.append(line)

    lines += ["", "### Aggregated solver counters", ""]
    header = "| counter | value |"
    divider = "|---|---:|"
    base_counters = (baseline or {}).get("counters") or {}
    if baseline is not None:
        header += " baseline | ratio |"
        divider += "---:|---:|"
    lines += [header, divider]
    for name, value in sorted((fresh.get("counters") or {}).items()):
        line = f"| `{name}` | {value} |"
        if baseline is not None:
            base_value = base_counters.get(name)
            if base_value is None:
                line += " — | — |"
            else:
                line += f" {base_value} | {_fmt_ratio(value, base_value)} |"
        lines.append(line)

    phases = fresh.get("phases")
    if phases:
        lines += ["", "### Phase-time breakdown (traced run)", ""]
        rows = phases.get("rows", [])
        total_self = sum(float(r.get("self_seconds", 0.0)) for r in rows) or 1.0
        lines += [
            f"{phases.get('total_spans', 0)} spans "
            "(span counts are deterministic and regression-guarded; "
            "the time columns are wall-clock and exempt)",
            "",
            "| phase | spans | total s | self s | self % |",
            "|---|---:|---:|---:|---:|",
        ]
        ordered = sorted(rows, key=lambda r: (-float(r.get("self_seconds", 0.0)), r["phase"]))
        for row in ordered:
            self_s = float(row.get("self_seconds", 0.0))
            lines.append(
                f"| `{row['phase']}` | {row['spans']} | {float(row['seconds']):.4f} "
                f"| {self_s:.4f} | {100 * self_s / total_self:.1f}% |"
            )

    service = fresh.get("service")
    if service:
        lines += [
            "",
            "### Batch service",
            "",
            f"{service.get('jobs', '?')} jobs on {service.get('workers', '?')} workers: "
            f"{service.get('parallel_seconds', 0.0):.3f} s "
            f"(speedup {service.get('speedup', 0.0):.2f}x, "
            f"programs identical: {service.get('programs_identical')})",
        ]
        if "run_seconds" in service:
            lines.append(
                f"queue wait {float(service.get('queue_seconds', 0.0)):.3f} s, "
                f"run time {float(service.get('run_seconds', 0.0)):.3f} s"
            )
        utilization = service.get("worker_utilization") or {}
        if utilization:
            lines.append(
                "worker utilization: "
                + ", ".join(
                    f"{worker} {100 * float(busy):.0f}%"
                    for worker, busy in sorted(utilization.items())
                )
            )
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as handle:
        fresh = json.load(handle)
    baseline = None
    if len(sys.argv) == 3:
        with open(sys.argv[2]) as handle:
            baseline = json.load(handle)
    sys.stdout.write(render(fresh, baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
