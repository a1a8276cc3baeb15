"""Serve-smoke checker: the long-running server's warm/cold/cache contract.

Boots a real :class:`repro.service.serve.SynthesisServer` (resident warm
workers + sharded cache + HTTP front-end) in this process, then drives it
over actual HTTP the way a client would, asserting:

* **hostile requests** — a non-numeric ``timeout`` (on the job or in its
  config) and a malformed goal each get 400, and ``/healthz`` still answers;
* **cold pass** — the spec's jobs all succeed through ``POST /jobs``, nothing
  is served from the cache, and the resident workers prove state reuse
  (``warm_state.reused_jobs > 0``: some worker's job N>1 started with the
  solver caches its earlier jobs built);
* **warm pass** — resubmitting the same spec to the *same server* is answered
  100% from the sharded cache, with byte-identical programs;
* **A/B guard** — a second server booted with ``REPRO_WARM=off`` (cold
  solver per job, fresh cache) synthesizes byte-identical programs, proving
  warm solver state changes cost, never results;
* **stats** — ``GET /stats`` reports the traffic (scraped into the step
  summary as markdown).

Usage::

    PYTHONPATH=src python benchmarks/check_serve.py \\
        --spec specs/table1.json --cache /tmp/resyn-serve-cache
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys


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


def post_jobs(handle, payload: dict) -> list:
    status, raw = request(handle, "POST", "/jobs", payload)
    if status != 200:
        raise SystemExit(f"POST /jobs failed: {status} {raw!r}")
    return [json.loads(line) for line in raw.decode().strip().splitlines()]


def get_stats(handle) -> dict:
    return json.loads(request(handle, "GET", "/stats", timeout=30)[1])


def results_by_tag(events: list) -> dict:
    results = {}
    for event in events:
        if event.get("event") == "result":
            results[event["tag"]] = event
    return results


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"serve-smoke FAILED: {message}")


def run_pass(handle, spec: dict, label: str) -> dict:
    events = post_jobs(handle, {"spec": spec})
    results = results_by_tag(events)
    check(bool(results), f"{label}: no results came back")
    failed = sorted(tag for tag, r in results.items() if not r["ok"])
    check(not failed, f"{label}: jobs failed: {failed}")
    return results


def hostile_phase(handle, spec: dict) -> int:
    """Malformed requests get 400 and leave the server answering; returns their count."""
    goal = spec["goals"][0]["goal"]
    payloads = {
        "job timeout 'soon'": {"jobs": [{"goal": goal, "timeout": "soon"}]},
        "config timeout 'soon'": {
            "jobs": [{"goal": goal, "config": {"mode": "resyn", "overrides": {"timeout": "soon"}}}]
        },
        "numeric goal": {"jobs": [{"goal": 5}]},
    }
    for label, payload in payloads.items():
        status, raw = request(handle, "POST", "/jobs", payload, timeout=30)
        check(status == 400, f"hostile phase: {label} answered {status} {raw[:200]!r}")
        status, _ = request(handle, "GET", "/healthz", timeout=30)
        check(status == 200, f"hostile phase: /healthz answered {status} after {label}")
    return len(payloads)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default="specs/table1.json")
    parser.add_argument("--cache", default="/tmp/resyn-serve-cache")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=4)
    args = parser.parse_args()

    from repro.service.cache import ResultCache
    from repro.service.serve import serve_in_thread
    from repro.service.specs import load_spec

    spec = load_spec(args.spec)

    # --- warm server: cold pass, then warm (all-hits) pass -----------------
    handle = serve_in_thread(
        workers=args.workers,
        cache=ResultCache(os.path.join(args.cache, "warm"), shards=args.shards),
    )
    try:
        hostile = hostile_phase(handle, spec)
        cold = run_pass(handle, spec, "cold pass")
        check(
            not any(r["cache_hit"] for r in cold.values()),
            "cold pass: expected an empty cache, saw cache hits",
        )
        warm = run_pass(handle, spec, "warm pass")
        missed = sorted(tag for tag, r in warm.items() if not r["cache_hit"])
        check(not missed, f"warm pass: not served from cache: {missed}")
        drifted = sorted(
            tag for tag in cold if cold[tag]["program"] != warm[tag]["program"]
        )
        check(not drifted, f"warm pass: cached programs drifted: {drifted}")
        stats = get_stats(handle)
    finally:
        handle.stop()

    warm_state = stats["scheduler"].get("warm_state", {})
    check(
        int(warm_state.get("reused_jobs", 0)) > 0,
        f"no warm-state reuse recorded across jobs: {warm_state}",
    )
    check(
        stats["server"]["workers_live"] == args.workers,
        f"expected {args.workers} live workers, got {stats['server']['workers_live']}",
    )
    check(
        int(stats["cache"]["shards"]) == args.shards,
        f"cache is not sharded {args.shards} ways: {stats['cache'].get('shards')}",
    )
    check(
        int(stats["scheduler"]["cache_hits"]) >= len(warm),
        "warm pass hits are missing from the scheduler stats",
    )

    # --- A/B guard: REPRO_WARM=off must synthesize identical programs ------
    os.environ["REPRO_WARM"] = "off"
    try:
        cold_handle = serve_in_thread(
            workers=args.workers,
            cache=ResultCache(os.path.join(args.cache, "ab"), shards=args.shards),
        )
        try:
            ab = run_pass(cold_handle, spec, "REPRO_WARM=off pass")
        finally:
            cold_handle.stop()
    finally:
        del os.environ["REPRO_WARM"]
    check(
        not any(r["warm"] for r in ab.values()),
        "REPRO_WARM=off pass still executed warm",
    )
    ab_drift = sorted(tag for tag in cold if cold[tag]["program"] != ab[tag]["program"])
    check(not ab_drift, f"warm/cold programs differ (A/B guard): {ab_drift}")

    # --- markdown report (tee into $GITHUB_STEP_SUMMARY) -------------------
    server, scheduler, cache = stats["server"], stats["scheduler"], stats["cache"]
    print("### serve-smoke: warm server over HTTP\n")
    print("| check | value |")
    print("|---|---|")
    print(f"| jobs (cold + warm pass) | {scheduler['jobs']} |")
    print(f"| workers live | {server['workers_live']}/{server['workers']} |")
    print(f"| warm pass cache hits | {len(warm)}/{len(warm)} (100%) |")
    print(f"| warm-state reused jobs | {warm_state['reused_jobs']}/{warm_state['jobs']} |")
    print(
        "| warm reuse hits (gate/valid/model) | "
        f"{warm_state.get('gate_hits', 0)}/"
        f"{warm_state.get('valid_hits', 0)}/{warm_state.get('model_hits', 0)} |"
    )
    print(f"| cache shards | {cache['shards']} ({cache['entries']} entries) |")
    print(f"| cache hit rate | {cache['cache_hit_rate']:.3f} |")
    print(f"| REPRO_WARM=off byte-identity | {len(ab)}/{len(ab)} programs identical |")
    print(f"| hostile requests | {hostile}/{hostile} answered 400, /healthz 200 after each |")
    print("\nPer-shard entries: ", end="")
    print(", ".join(f"{s['shard']}: {s['entries']}" for s in cache["per_shard"]))
    print("\nserve-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
