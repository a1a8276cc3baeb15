"""One smoke driver for the end-to-end contracts CI enforces.

``python benchmarks/smoke.py SUITE`` runs one committed spec under one
setting, asserts the suite's contract with the checks shared below, prints a
markdown summary on stdout (CI tees it into the step summary; the service
CLI's own output goes to stderr) and exits 1 if any check failed.

* ``service`` — ``service export`` reproduces every committed spec byte for
  byte; a cold 2-worker ``service run --json`` over Table 1 solves every job;
  the warm rerun passes ``--expect-all-hits``; ``service stats`` reports both.
* ``serve`` — a real server over HTTP: hostile requests get 400 while
  ``/healthz`` keeps answering; a cold pass solves every job from an empty
  cache; a warm pass is 100% cache hits with the cold programs; workers reuse
  warm solver state; ``/stats`` shows the sharded cache; a
  ``REPRO_WARM=off`` server synthesizes the same programs.
* ``pbe`` — the example suite cold, then warm (100% hits, same programs);
  in-process synthesis reproduces the service's programs, each satisfies its
  examples by direct interpretation, and grammar-restricted rows check
  strictly fewer e-terms than their unrestricted twins.
* ``portfolio`` — the asymptotic suite races its bound ladders on 2 workers
  with the spec's expected winners and at least one cancelled loser; a second
  race and a 1-worker sequential ladder walk (zero cancellations) reproduce
  every winner and program.
* ``chaos`` — Table 1 under worker crashes and hangs plus torn cache writes
  (cold), then read corruption (warm), each run capped at 300 s: every job
  ends ok with the fault-free run's programs, and ``service stats --json``
  shows every injected fault in the failure counters.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py {service,serve,pbe,portfolio,chaos}
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence

TABLE1 = "specs/table1.json"
WORKERS = 2
#: The failure counters each injected chaos fault must move.
CHAOS_COUNTERS = (
    "retries",
    "worker_kills",
    "hard_timeouts",
    "pool_rebuilds",
    "cache_quarantined",
)
#: Seed 7 draws 2 crashes and 2 hangs on the fast Table 1 subset.
CHAOS_COLD = "worker.crash=0.4:once,worker.hang=0.15:once,cache.write_torn=0.4"
CHAOS_WARM = "cache.read_corrupt=0.5:once"
CHAOS_FLAGS = ("--timeout", "10", "--hard-timeout", "2")
CHAOS_RUN_SECONDS = 300


class SmokeFailure(Exception):
    """A step could not run at all (a nonzero CLI exit or a broken bound)."""


# ---------------------------------------------------------------------------
# Shared checks.  A *row* is one job of a run in the ``service run --json``
# report shape: ``{"tag", "status", "program"}``, plus ``"winner"`` (the
# winning ladder rung) for portfolio jobs.  Each check returns its failures.
# ---------------------------------------------------------------------------


def all_ok(rows: Sequence[dict], label: str) -> List[str]:
    """Every job finished with a program (fresh, cached or deduplicated)."""
    if not rows:
        return [f"{label}: no results came back"]
    return [
        f"{label}: {row['tag']} finished {row['status']!r}"
        for row in rows
        if row["status"] not in ("ok", "hit", "dedup")
    ]


def all_hits(rows: Sequence[dict], label: str) -> List[str]:
    """Every job was served from the cache."""
    return [
        f"{label}: {row['tag']} was {row['status']!r}, not a cache hit"
        for row in rows
        if row["status"] != "hit"
    ]


def same_outcomes(reference: Sequence[dict], rows: Sequence[dict], label: str) -> List[str]:
    """Same jobs, byte-identical programs and the same winner rungs as ``reference``."""
    want = {row["tag"]: (row["program"], row.get("winner")) for row in reference}
    got = {row["tag"]: (row["program"], row.get("winner")) for row in rows}
    if set(want) != set(got):
        return [f"{label}: job sets differ: {sorted(set(want) ^ set(got))}"]
    return [
        f"{label}: {tag} drifted: {want[tag]!r} -> {got[tag]!r}"
        for tag in sorted(want)
        if want[tag] != got[tag]
    ]


def nonzero(counters: dict, names: Iterable[str], label: str) -> List[str]:
    """Every named counter moved."""
    return [
        f"{label}: expected nonzero {name!r}, got {counters.get(name, 0)!r}"
        for name in names
        if not counters.get(name)
    ]


def expected_winners(rows: Sequence[dict], expected: Dict[str, str], label: str) -> List[str]:
    """Each ladder was won by the rung the spec expects."""
    won = {row["tag"]: row.get("winner") for row in rows}
    return [
        f"{label}: {tag} won at {won.get(tag)!r}, expected {want!r}"
        for tag, want in sorted(expected.items())
        if won.get(tag) != want
    ]


class Summary:
    """A suite's markdown summary and the failures of its checks."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.rows: List[tuple] = []
        self.notes: List[str] = []
        self.failures: List[str] = []

    def check(self, failures: List[str], name: str, value: object) -> None:
        self.failures.extend(failures)
        self.rows.append((name, value))

    def render(self) -> str:
        lines = [f"### {self.title}", "", "| check | value |", "|---|---|"]
        lines += [f"| {name} | {value} |" for name, value in self.rows]
        lines += [""] + self.notes
        lines += [f"FAIL: {failure}" for failure in self.failures]
        lines.append(f"\n{self.title}: {'FAILED' if self.failures else 'OK'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def service_cli(*args: str, env: Optional[Dict[str, str]] = None, timeout: Optional[int] = None):
    """``python -m repro.service ARGS``: echoes its output to stderr, returns stdout."""
    command = [sys.executable, "-m", "repro.service", *args]
    print("$", " ".join(command[1:]), file=sys.stderr, flush=True)
    env = {**os.environ, **(env or {})}
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SmokeFailure(f"`{' '.join(args)}` ran past its {timeout} s bound") from None
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise SmokeFailure(f"`{' '.join(args)}` exited {proc.returncode}")
    return proc.stdout


def run_spec(work: str, name: str, spec: str, *flags: str, **kwargs) -> List[dict]:
    """A 2-worker ``service run --json`` of ``spec``; returns its rows."""
    report = os.path.join(work, f"{name}.json")
    service_cli("run", spec, "-j", str(WORKERS), "--json", report, *flags, **kwargs)
    with open(report) as handle:
        return json.load(handle)["results"]


def scheduler_rows(spec: dict, workers: int):
    """One cold in-process scheduler run of ``spec``: (rows, scheduler stats)."""
    from repro.service.scheduler import BatchScheduler
    from repro.service.specs import jobs_from_spec

    runner = BatchScheduler(workers=workers)
    rows = []
    for result in runner.run(jobs_from_spec(spec)):
        ladder = ((result.record or {}).get("stats") or {}).get("portfolio", {})
        rows.append(
            {
                "tag": result.tag,
                "status": "ok" if result.succeeded else "failed",
                "program": result.program_text,
                "winner": ladder.get("winner"),
                "race": result.portfolio or {},
            }
        )
    return rows, runner.stats


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def service_suite(work: str, summary: Summary) -> None:
    exported = os.path.join(work, "specs")
    service_cli("export", "--dir", exported)
    names = sorted(os.listdir(exported))
    stale = []
    for name in names:
        with open(os.path.join("specs", name)) as committed:
            with open(os.path.join(exported, name)) as fresh:
                if committed.read() != fresh.read():
                    stale.append(f"specs/{name} is stale: regenerate it with `make specs`")
    summary.check(stale, "committed specs identical to `service export`", len(names))

    cache = os.path.join(work, "cache")
    cold = run_spec(work, "cold", TABLE1, "--cache", cache)
    summary.check(all_ok(cold, "cold run"), "cold run jobs ok", len(cold))
    service_cli("run", TABLE1, "-j", str(WORKERS), "--cache", cache, "--expect-all-hits")
    summary.rows.append(("warm rerun", "100% cache hits (`--expect-all-hits`)"))
    summary.notes.append("```\n" + service_cli("stats", cache) + "```")


def request(handle, method: str, path: str, payload=None, timeout: float = 600.0):
    """One HTTP exchange with the server; returns ``(status, body bytes)``."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def http_pass(handle, spec: dict) -> List[dict]:
    """Submit ``spec`` through ``POST /jobs``; returns one row per result event."""
    status, raw = request(handle, "POST", "/jobs", {"spec": spec})
    if status != 200:
        raise SmokeFailure(f"POST /jobs answered {status} {raw[:200]!r}")
    rows = []
    for line in raw.decode().strip().splitlines():
        event = json.loads(line)
        if event.get("event") == "result":
            state = "hit" if event["cache_hit"] else "ok"
            rows.append(
                {
                    "tag": event["tag"],
                    "status": state if event["ok"] else "failed",
                    "program": event["program"],
                    "warm": event["warm"],
                }
            )
    return rows


def hostile_requests(handle, spec: dict) -> List[str]:
    """Malformed requests get 400 and leave the server answering."""
    goal = spec["goals"][0]["goal"]
    payloads = {
        "job timeout 'soon'": {"jobs": [{"goal": goal, "timeout": "soon"}]},
        "config timeout 'soon'": {
            "jobs": [{"goal": goal, "config": {"mode": "resyn", "overrides": {"timeout": "soon"}}}]
        },
        "numeric goal": {"jobs": [{"goal": 5}]},
    }
    failures = []
    for label, payload in payloads.items():
        status, raw = request(handle, "POST", "/jobs", payload, timeout=30)
        if status != 400:
            failures.append(f"hostile request {label} answered {status} {raw[:200]!r}")
        status, _ = request(handle, "GET", "/healthz", timeout=30)
        if status != 200:
            failures.append(f"/healthz answered {status} after hostile request {label}")
    return failures


def serve_suite(work: str, summary: Summary) -> None:
    from repro.service.cache import ResultCache
    from repro.service.serve import serve_in_thread
    from repro.service.specs import load_spec

    spec = load_spec(TABLE1)
    shards = 4
    cache = ResultCache(os.path.join(work, "warm"), shards=shards)
    handle = serve_in_thread(workers=WORKERS, cache=cache)
    try:
        summary.check(hostile_requests(handle, spec), "hostile requests answered 400", 3)
        cold = http_pass(handle, spec)
        hits = [f"cold pass: {row['tag']} was a hit" for row in cold if row["status"] == "hit"]
        summary.check(all_ok(cold, "cold pass") + hits, "cold pass jobs ok", len(cold))
        warm = http_pass(handle, spec)
        summary.check(
            all_hits(warm, "warm pass") + same_outcomes(cold, warm, "warm pass"),
            "warm pass cache hits, programs identical",
            len(warm),
        )
        _, raw = request(handle, "GET", "/stats", timeout=30)
        stats = json.loads(raw)
    finally:
        handle.stop()
    server, scheduler, cache = stats["server"], stats["scheduler"], stats["cache"]
    warm_state = scheduler.get("warm_state", {})
    reuse = "/".join(str(warm_state.get(f"{key}_hits", 0)) for key in ("gate", "valid", "model"))
    summary.check(
        nonzero(warm_state, ["reused_jobs"], "warm state"),
        "warm-state reused jobs (gate/valid/model reuse hits)",
        f"{warm_state.get('reused_jobs', 0)}/{warm_state.get('jobs', 0)} ({reuse})",
    )
    shape = []
    if server["workers_live"] != WORKERS:
        shape.append(f"expected {WORKERS} live workers, got {server['workers_live']}")
    if int(cache["shards"]) != shards:
        shape.append(f"cache is not sharded {shards} ways: {cache['shards']}")
    if int(scheduler["cache_hits"]) < len(warm):
        shape.append("warm pass hits are missing from the scheduler stats")
    summary.check(shape, "workers live", f"{server['workers_live']}/{server['workers']}")
    summary.rows.append(("cache shards", f"{cache['shards']} ({cache['entries']} entries)"))
    summary.rows.append(("cache hit rate", f"{cache['cache_hit_rate']:.3f}"))

    os.environ["REPRO_WARM"] = "off"
    try:
        cache = ResultCache(os.path.join(work, "ab"), shards=shards)
        handle = serve_in_thread(workers=WORKERS, cache=cache)
        try:
            ab = http_pass(handle, spec)
        finally:
            handle.stop()
    finally:
        del os.environ["REPRO_WARM"]
    leaked = [f"REPRO_WARM=off: {row['tag']} still ran warm" for row in ab if row["warm"]]
    summary.check(
        all_ok(ab, "REPRO_WARM=off") + same_outcomes(cold, ab, "REPRO_WARM=off") + leaked,
        "REPRO_WARM=off programs identical",
        len(ab),
    )


def pbe_suite(work: str, summary: Summary) -> None:
    from repro.core import synthesize
    from repro.pbe.check import check_program_on_examples, failing_examples
    from repro.pbe.suite import pbe_benchmarks, unrestricted

    cache = os.path.join(work, "cache")
    cold = run_spec(work, "cold", "specs/pbe_suite.json", "--cache", cache)
    summary.check(all_ok(cold, "cold run"), "cold run jobs ok", len(cold))
    warm = run_spec(work, "warm", "specs/pbe_suite.json", "--cache", cache)
    summary.check(
        all_hits(warm, "warm run") + same_outcomes(cold, warm, "warm run"),
        "warm rerun cache hits, programs identical",
        len(warm),
    )

    local, unsatisfied = [], []
    for bench in pbe_benchmarks():
        goal = bench.goal
        result = synthesize(goal, bench.config())
        program = result.program
        text = None if program is None else str(program)
        local.append({"tag": f"{bench.key}/resyn", "status": "ok", "program": text})
        builtins = goal.component_builtins()
        if program is not None and not check_program_on_examples(program, goal.examples, builtins):
            bad = failing_examples(program, goal.examples, builtins)
            unsatisfied.append(
                f"{bench.key}: {program} fails {len(bad)}/{len(goal.examples)} examples: "
                + "; ".join(f"{e.inputs!r} -> {e.output!r}" for e in bad)
            )
        if bench.grammar_demo:
            restricted = int(result.stats.get("eterm_checks", 0))
            free = synthesize(unrestricted(goal), bench.config()).stats.get("eterm_checks", 0)
            pruned = [] if restricted < int(free) else [f"{bench.key}: grammar did not prune"]
            name = f"{bench.key} eterm_checks, open -> grammar"
            summary.check(pruned, name, f"{free} -> {restricted}")
    summary.check(
        same_outcomes(cold, local, "in-process synthesis"),
        "in-process programs identical",
        len(local),
    )
    summary.check(unsatisfied, "programs satisfying every example", len(local) - len(unsatisfied))


def portfolio_suite(work: str, summary: Summary) -> None:
    from repro.service.specs import load_spec

    spec = load_spec("specs/asymptotic_suite.json")
    expected = {
        f"{entry['key']}/resyn": entry["expected_winner"]
        for entry in spec["goals"]
        if not entry.get("slow")
    }
    race, stats = scheduler_rows(spec, WORKERS)
    summary.check(
        all_ok(race, "race") + expected_winners(race, expected, "race"),
        "goals won at the expected rung",
        len(race),
    )
    for row in race:
        raced, cancelled = row["race"].get("variants_raced"), row["race"].get("variants_cancelled")
        summary.rows.append((row["tag"], f"{row['winner']}, raced {raced}, cancelled {cancelled}"))
    idle = [] if stats.variants_cancelled else ["race: no losing rung was cancelled"]
    raced = f"{stats.variants_raced} / {stats.variants_cancelled}"
    summary.check(idle, "rungs raced / cancelled", raced)
    rerun, _ = scheduler_rows(spec, WORKERS)
    summary.check(same_outcomes(race, rerun, "second race"), "second race identical", len(rerun))
    walk, stats = scheduler_rows(spec, 1)
    cancelled = []
    if stats.variants_cancelled:
        cancelled.append(f"ladder walk cancelled {stats.variants_cancelled} rungs")
    summary.check(
        same_outcomes(race, walk, "ladder walk") + cancelled,
        "1-worker ladder walk identical, 0 cancelled",
        len(walk),
    )


def chaos_suite(work: str, summary: Summary) -> None:
    baseline = run_spec(work, "baseline", TABLE1, "--cache", os.path.join(work, "clean"))
    summary.check(all_ok(baseline, "fault-free run"), "fault-free run jobs ok", len(baseline))
    cache = os.path.join(work, "cache")
    for label, plan in (("cold chaos run", CHAOS_COLD), ("warm chaos run", CHAOS_WARM)):
        rows = run_spec(
            work,
            label.replace(" ", "-"),
            TABLE1,
            "--cache",
            cache,
            *CHAOS_FLAGS,
            env={"REPRO_FAULTS": plan, "REPRO_FAULTS_SEED": "7"},
            timeout=CHAOS_RUN_SECONDS,
        )
        summary.check(
            all_ok(rows, label) + same_outcomes(baseline, rows, label),
            f"{label} (`{plan}`): programs identical",
            len(rows),
        )
    telemetry = json.loads(service_cli("stats", cache, "--json"))["telemetry"]
    totals = (telemetry or {}).get("totals", {})
    summary.check(
        nonzero(totals, CHAOS_COUNTERS, "telemetry totals"),
        "failure counters",
        ", ".join(f"{name} {totals.get(name, 0):g}" for name in CHAOS_COUNTERS),
    )
    summary.notes.append("```\n" + service_cli("stats", cache) + "```")


SUITES = {
    "service": service_suite,
    "serve": serve_suite,
    "pbe": pbe_suite,
    "portfolio": portfolio_suite,
    "chaos": chaos_suite,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=sorted(SUITES))
    args = parser.parse_args(argv)
    summary = Summary(f"{args.suite}-smoke")
    with tempfile.TemporaryDirectory(prefix=f"resyn-{args.suite}-smoke-") as work:
        try:
            SUITES[args.suite](work, summary)
        except SmokeFailure as failure:
            summary.failures.append(str(failure))
    print(summary.render())
    return 1 if summary.failures else 0


if __name__ == "__main__":
    sys.exit(main())
