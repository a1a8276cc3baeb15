"""Server-grade tests for the long-running synthesis server (repro.service.serve).

The contract under test, per pillar:

* **lifecycle** — the server starts, serves, drains and stops cleanly; a
  non-drain shutdown still delivers a (cancelled) result event for every
  admitted job; submissions during shutdown are refused, not lost silently;
* **streaming** — every job's NDJSON event stream is ordered
  ``queued`` → (``started`` | ``retry``)* → ``result``, concurrently for
  many clients;
* **warm workers** — resident workers accumulate solver state across jobs
  (``warm.reused`` flips true from a worker's second job on) and the server
  aggregates the proof into ``warm_state`` counters, while programs stay
  byte-identical to a cold serial ``run_goals``;
* **failure semantics** — the PR 7 guarantees (crash retry, hang kill,
  poison refusal) stay live in server mode, across requests, without a
  server restart.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.service import faults
from repro.service.cache import ResultCache
from repro.service.codec import config_to_json, goal_to_json
from repro.service.scheduler import POISON_KILLS, BatchScheduler, job_for_goal
from repro.service.serve import SynthesisServer, jobs_from_wire, serve_in_thread
from repro.service.specs import export_table_spec

from conftest import tiny_config, tiny_goal

# ---------------------------------------------------------------------------
# HTTP helpers
# ---------------------------------------------------------------------------


def job_entry(name, timeout=None, retries=None):
    entry = {"goal": goal_to_json(tiny_goal(name)), "config": config_to_json(tiny_config())}
    entry["tag"] = name
    if timeout is not None:
        entry["timeout"] = timeout
    if retries is not None:
        entry["retries"] = retries
    return entry


def post_json(handle, path, payload, timeout=120):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(payload).encode())
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(handle, path):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def post_jobs(handle, entries, timeout=120):
    """POST /jobs and parse the NDJSON stream into a list of event dicts."""
    status, raw = post_json(handle, "/jobs", {"jobs": entries}, timeout=timeout)
    assert status == 200, raw
    return [json.loads(line) for line in raw.decode().strip().splitlines()]


def raw_status(handle, request):
    """Send raw request bytes; return the status code of a JSON error reply."""
    with socket.create_connection((handle.host, handle.port), 10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    assert b"error" in rest, reply
    return int(status_line.split()[1])


def assert_healthy(handle):
    status, body = get_json(handle, "/healthz")
    assert status == 200 and body == {"ok": True}


def results_of(events):
    return [event for event in events if event["event"] == "result"]


def assert_stream_ordering(events, expect_jobs):
    """The per-job ordering guarantee: queued -> (started|retry)* -> result."""
    assert events[0]["event"] == "accepted"
    ids = events[0]["ids"]
    assert len(ids) == expect_jobs
    for seq in ids:
        kinds = [e["event"] for e in events[1:] if e.get("id") == seq]
        assert kinds[0] == "queued", kinds
        assert kinds[-1] == "result", kinds
        assert set(kinds[1:-1]) <= {"started", "retry"}, kinds
    return ids


# ---------------------------------------------------------------------------
# A shared warm server for the read-mostly HTTP tests (booted once: forking
# resident workers per test would dominate the suite's runtime).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def warm_server(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("serve-cache")), shards=4)
    handle = serve_in_thread(workers=2, cache=cache)
    yield handle
    handle.stop()


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_healthz_and_idempotent_stop(self):
        handle = serve_in_thread(workers=1)
        status, body = get_json(handle, "/healthz")
        assert status == 200 and body == {"ok": True}
        handle.stop()
        handle.stop()  # idempotent
        assert not handle._thread.is_alive()

    def test_graceful_drain_delivers_every_result(self):
        server = SynthesisServer(workers=1).start()
        events = []
        for i in range(3):
            server.submit(job_for_goal(tiny_goal(f"drain{i}"), tiny_config()), events.append)
        server.shutdown(drain=True)
        results = [e for e in events if e["event"] == "result"]
        assert len(results) == 3
        assert all(r["ok"] and not r["error"] for r in results)

    def test_nondrain_shutdown_still_answers_every_job(self):
        server = SynthesisServer(workers=1).start()
        events = []
        for i in range(6):
            server.submit(job_for_goal(tiny_goal(f"cancel{i}"), tiny_config()), events.append)
        server.shutdown(drain=False)
        results = [e for e in events if e["event"] == "result"]
        # No admitted job is left without an answer — finished ones report
        # ok, the rest are explicitly cancelled.
        assert len(results) == 6
        assert all(r["ok"] or r["cancelled"] or r["error"] for r in results)
        assert any(r["cancelled"] for r in results)

    def test_submit_during_shutdown_is_refused(self):
        server = SynthesisServer(workers=1).start()
        server.shutdown(drain=True)
        with pytest.raises(RuntimeError):
            server.submit(job_for_goal(tiny_goal(), tiny_config()), lambda e: None)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SynthesisServer(workers=0)


# ---------------------------------------------------------------------------
# HTTP front-end: streaming, wire decoding, stats
# ---------------------------------------------------------------------------


class TestHTTP:
    def test_streamed_event_ordering(self, warm_server):
        events = post_jobs(warm_server, [job_entry(f"order{i}") for i in range(4)])
        ids = assert_stream_ordering(events, expect_jobs=4)
        results = results_of(events)
        assert {r["id"] for r in results} == set(ids)
        assert all(r["ok"] and r["program"] for r in results)

    def test_concurrent_clients_each_get_ordered_streams(self, warm_server):
        outcomes = {}

        def client(k):
            events = post_jobs(
                warm_server, [job_entry(f"client{k}a"), job_entry(f"client{k}b")]
            )
            assert_stream_ordering(events, expect_jobs=2)
            outcomes[k] = events[0]["ids"]

        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert sorted(outcomes) == [0, 1, 2, 3]
        all_ids = [seq for ids in outcomes.values() for seq in ids]
        assert len(all_ids) == len(set(all_ids))  # server-wide unique job ids

    def test_spec_submission_expands_server_side(self, warm_server):
        spec = export_table_spec("table1")
        spec["goals"] = [g for g in spec["goals"] if g["key"] == "t1_is_empty"]
        status, raw = post_json(warm_server, "/jobs", {"spec": spec, "modes": ["resyn"]})
        assert status == 200
        events = [json.loads(line) for line in raw.decode().strip().splitlines()]
        (result,) = results_of(events)
        assert result["ok"] and result["tag"] == "t1_is_empty/resyn"

    def test_bad_requests_get_400(self, warm_server):
        for body in ({}, {"jobs": []}, {"jobs": [{"nope": 1}]}, {"spec": {"format": "?"}}):
            status, raw = post_json(warm_server, "/jobs", body)
            assert status == 400, (body, raw)
            assert "error" in json.loads(raw)

    def test_unknown_route_404(self, warm_server):
        status, body = get_json(warm_server, "/no-such-route")
        assert status == 404 and "error" in body

    def test_stats_shape(self, warm_server):
        post_jobs(warm_server, [job_entry("stats0")])
        status, stats = get_json(warm_server, "/stats")
        assert status == 200
        server = stats["server"]
        assert server["workers"] == 2
        assert server["workers_live"] == 2
        assert server["warm"] is True
        assert server["draining"] is False
        scheduler = stats["scheduler"]
        assert scheduler["jobs"] >= 1
        assert "warm_state" in scheduler
        cache = stats["cache"]
        assert cache["shards"] == 4
        assert len(cache["per_shard"]) >= 4

    def test_malformed_content_length_gets_an_error_status(self, warm_server):
        from repro.service.serve import MAX_BODY_BYTES

        def status_for(length):
            request = f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            return raw_status(warm_server, request.encode())

        assert status_for("abc") == 400
        assert status_for("-5") == 400
        assert status_for(MAX_BODY_BYTES + 1) == 413
        assert_healthy(warm_server)

    def test_non_object_shutdown_body_gets_400(self, warm_server):
        request = b"POST /shutdown HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]"
        assert raw_status(warm_server, request) == 400
        assert_healthy(warm_server)

    def test_oversized_request_head_gets_414_or_431(self, warm_server):
        from repro.service.serve import MAX_HEADERS

        long_path = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        assert raw_status(warm_server, long_path) == 414
        long_header = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        assert raw_status(warm_server, long_header) == 431
        many = b"".join(b"X-H%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
        assert raw_status(warm_server, b"GET /healthz HTTP/1.1\r\n" + many + b"\r\n") == 431
        exactly = b"".join(b"X-H%d: 1\r\n" % i for i in range(MAX_HEADERS))
        with socket.create_connection((warm_server.host, warm_server.port), 10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + exactly + b"\r\n")
            assert sock.recv(4096).startswith(b"HTTP/1.1 200 OK")
        assert_healthy(warm_server)

    def test_silent_client_gets_408(self, warm_server, monkeypatch):
        from repro.service import serve

        monkeypatch.setattr(serve, "READ_TIMEOUT_S", 0.2)
        stalled_line = b"GET /healthz"
        assert raw_status(warm_server, stalled_line) == 408
        short_body = b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"{" * 10
        assert raw_status(warm_server, short_body) == 408
        assert_healthy(warm_server)

    def test_jobs_from_wire_rejects_non_object(self):
        from repro.service.codec import CodecError

        with pytest.raises(CodecError):
            jobs_from_wire([1, 2, 3])
        with pytest.raises(CodecError):
            jobs_from_wire({"jobs": "nope"})

    def test_stdio_non_object_line_gets_an_error_event(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run(
            [sys.executable, "-m", "repro.service", "serve", "--stdio", "-j", "1", "--port", "0"],
            input='[1]\n{"op": "stats"}\n',
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            check=True,
        )
        events = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
        assert [event["event"] for event in events] == ["error", "stats"]


# ---------------------------------------------------------------------------
# Warm workers: reuse proof and the cache integration
# ---------------------------------------------------------------------------


class TestWarmState:
    def test_warm_counters_increase_across_jobs(self):
        # One worker makes reuse deterministic: its second job *must* start
        # with the state the first job built.
        handle = serve_in_thread(workers=1)
        try:
            events = post_jobs(handle, [job_entry("warmA"), job_entry("warmB")])
            first, second = sorted(results_of(events), key=lambda r: r["id"])
            assert first["warm"]["enabled"] and second["warm"]["enabled"]
            assert first["warm"]["reused"] is False
            assert second["warm"]["reused"] is True
            assert second["warm"]["worker_job"] == 2
            assert second["warm"]["gate_entries_at_start"] > 0
            _, stats = get_json(handle, "/stats")
            warm_state = stats["scheduler"]["warm_state"]
            assert warm_state["jobs"] == 2
            assert warm_state["reused_jobs"] == 1
            assert warm_state["peak_gate_entries"] > 0
        finally:
            handle.stop()

    def test_database_rebuilds_keep_the_warm_solver_and_its_verdicts(self, monkeypatch):
        from repro.core import synthesize
        from repro.service import warm
        from repro.smt import encoder

        monkeypatch.setattr(encoder, "_DATABASE_MAX", 1)
        state = warm.WarmState()
        blocks, programs = [], []
        for _ in range(2):
            solver, ctx = state.begin_job()
            result = synthesize(tiny_goal("rebuild"), tiny_config(), solver=solver)
            programs.append(str(result.program))
            blocks.append(state.finish_job(ctx))
        assert solver is state.solver
        assert 0 < blocks[0]["resets"] <= blocks[1]["resets"]
        assert blocks[1]["valid_hits"] > 0
        cold = synthesize(tiny_goal("rebuild"), tiny_config())
        assert programs == [str(cold.program)] * 2

    def test_warm_off_env_disables_reuse_and_preserves_programs(self, monkeypatch):
        warm_handle = serve_in_thread(workers=1)
        try:
            warm_events = post_jobs(warm_handle, [job_entry("ab0"), job_entry("ab1")])
        finally:
            warm_handle.stop()
        monkeypatch.setenv("REPRO_WARM", "off")
        cold_handle = serve_in_thread(workers=1)
        try:
            cold_events = post_jobs(cold_handle, [job_entry("ab0"), job_entry("ab1")])
        finally:
            cold_handle.stop()
        warm_results = sorted(results_of(warm_events), key=lambda r: r["tag"])
        cold_results = sorted(results_of(cold_events), key=lambda r: r["tag"])
        assert all(r["warm"] for r in warm_results)
        assert all(r["warm"] is None for r in cold_results)
        # The A/B guard: warm state changes cost, never the program.
        assert [r["program"] for r in warm_results] == [r["program"] for r in cold_results]

    def test_server_byte_identical_to_run_goals_serial(self, warm_server):
        goals = [tiny_goal(f"ident{i}") for i in range(3)]
        serial = BatchScheduler(workers=1).run_goals(goals, tiny_config())
        reference = [str(result.program) for result in serial]
        events = post_jobs(warm_server, [job_entry(f"ident{i}") for i in range(3)])
        served = [r["program"] for r in sorted(results_of(events), key=lambda r: r["tag"])]
        assert served == reference

    def test_cache_hit_and_inflight_dedup(self, warm_server):
        cold = results_of(post_jobs(warm_server, [job_entry("dedup0")]))[0]
        assert not cold["cache_hit"]
        # Resubmit: answered from the sharded cache, byte-identical.
        hit = results_of(post_jobs(warm_server, [job_entry("dedup0")]))[0]
        assert hit["cache_hit"] and hit["program"] == cold["program"]
        # Two identical jobs in one request: one runs, one follows.  The
        # follower is deduplicated against the in-flight leader, or — when
        # the leader finishes before the follower is dispatched — answered
        # from the cache entry stored moments earlier.  Either way exactly
        # one of the two may invoke the synthesizer.
        events = post_jobs(warm_server, [job_entry("dedup1"), job_entry("dedup1")])
        flags = [(r["deduplicated"], r["cache_hit"]) for r in results_of(events)]
        assert sum(1 for dedup, hit in flags if not dedup and not hit) == 1
        assert sum(1 for dedup, hit in flags if dedup or hit) == 1
        first, second = results_of(events)
        assert first["program"] == second["program"]


# ---------------------------------------------------------------------------
# Chaos: PR 7 failure semantics stay live in server mode
# ---------------------------------------------------------------------------


class TestChaos:
    def test_crash_recovery_without_server_restart(self, monkeypatch):
        handle = serve_in_thread(workers=2)
        try:
            monkeypatch.setenv(faults.ENV_SPEC, "worker.crash=1.0:once")
            monkeypatch.setenv(faults.ENV_SEED, "1")
            events = post_jobs(handle, [job_entry("chaosA"), job_entry("chaosB")])
            results = results_of(events)
            retries = [e for e in events if e["event"] == "retry"]
            assert len(retries) == 2 and all(r["cause"] == "crash" for r in retries)
            assert all(r["ok"] and r["attempts"] == 2 for r in results)
            # Same server, faults cleared: healthy service continues.
            monkeypatch.delenv(faults.ENV_SPEC)
            monkeypatch.delenv(faults.ENV_SEED)
            after = results_of(post_jobs(handle, [job_entry("chaosC")]))[0]
            assert after["ok"] and after["attempts"] == 1
            _, stats = get_json(handle, "/stats")
            assert stats["scheduler"]["worker_kills"] == 2
            assert stats["scheduler"]["pool_rebuilds"] == 2
            assert stats["server"]["workers_live"] == 2
        finally:
            handle.stop()

    def test_hang_recovery_via_hard_deadline(self, monkeypatch):
        handle = serve_in_thread(workers=1, grace=1.0)
        try:
            monkeypatch.setenv(faults.ENV_SPEC, "worker.hang=1.0:once")
            monkeypatch.setenv(faults.ENV_SEED, "3")
            events = post_jobs(handle, [job_entry("hang0", timeout=2.0)])
            (result,) = results_of(events)
            retries = [e for e in events if e["event"] == "retry"]
            assert len(retries) == 1 and retries[0]["cause"] == "hang"
            assert result["ok"] and result["attempts"] == 2
        finally:
            handle.stop()

    def test_poison_memory_survives_requests(self, monkeypatch):
        handle = serve_in_thread(workers=1)
        try:
            monkeypatch.setenv(faults.ENV_SPEC, "worker.crash=1.0")  # every attempt
            monkeypatch.setenv(faults.ENV_SEED, "5")
            events = post_jobs(handle, [job_entry("poison0", retries=8)])
            (result,) = results_of(events)
            assert not result["ok"]
            assert "poison" in result["error"]
            assert result["attempts"] == POISON_KILLS
            # Faults cleared, same job resubmitted in a *new* request: the
            # server remembers and refuses without executing anything.
            monkeypatch.delenv(faults.ENV_SPEC)
            monkeypatch.delenv(faults.ENV_SEED)
            _, before = get_json(handle, "/stats")
            (refused,) = results_of(post_jobs(handle, [job_entry("poison0")]))
            assert not refused["ok"] and "refusing" in refused["error"]
            assert refused["attempts"] == 0
            _, after = get_json(handle, "/stats")
            assert after["scheduler"]["poisoned"] == before["scheduler"]["poisoned"] + 1
            assert after["scheduler"]["worker_kills"] == before["scheduler"]["worker_kills"]
            assert after["server"]["poison_fingerprints"] == 1
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# Portfolio races over HTTP
# ---------------------------------------------------------------------------


def asym_entry(key):
    from dataclasses import replace

    from repro.core import SynthesisConfig
    from repro.portfolio.suite import benchmark_by_key

    bench = benchmark_by_key(key)
    config = replace(SynthesisConfig.resyn(), **bench.config_overrides)
    return {"tag": key, "goal": goal_to_json(bench.goal), "config": config_to_json(config)}


class TestPortfolio:
    def test_race_streams_variant_events_and_reports_the_winner(self, warm_server):
        from repro.portfolio.suite import benchmark_by_key

        events = post_jobs(warm_server, [asym_entry("asym_length")])
        started = [e for e in events if e["event"] == "variant_started"]
        cancelled = [e for e in events if e["event"] == "variant_cancelled"]
        assert started, "racing must announce its variants"
        assert cancelled, "a win above the O(1) probe must cancel slack rungs"
        (result,) = results_of(events)
        assert result["ok"]
        info = result["portfolio"]
        expected = benchmark_by_key("asym_length").expected_winner
        assert info["winner"] == expected
        assert info["variants_cancelled"] == len(cancelled)
        # Every streamed variant event refers to the logical job.
        assert {e["id"] for e in started + cancelled} == {result["id"]}

    def test_logical_cache_hit_replays_without_racing(self, warm_server):
        first = results_of(post_jobs(warm_server, [asym_entry("asym_is_empty")]))
        replay_events = post_jobs(warm_server, [asym_entry("asym_is_empty")])
        (replay,) = results_of(replay_events)
        assert replay["cache_hit"]
        assert replay["program"] == first[0]["program"]
        assert not [e for e in replay_events if e["event"] == "variant_started"]

    def test_dedup_follower_keeps_the_race_attribution(self):
        # No cache: the twin can only be a follower of the in-flight race (or,
        # should the leader finish first, run a race of its own).
        handle = serve_in_thread(workers=2)
        try:
            events = post_jobs(handle, [asym_entry("asym_length"), asym_entry("asym_length")])
        finally:
            handle.stop()
        first, second = results_of(events)
        assert first["ok"] and second["ok"]
        assert first["program"] == second["program"]
        assert first["portfolio"]["winner"] == second["portfolio"]["winner"]

    def test_no_variant_jobs_leak_into_server_tallies(self):
        handle = serve_in_thread(workers=2)
        try:
            events = post_jobs(handle, [asym_entry("asym_is_empty")])
            assert len(results_of(events)) == 1
            _, stats = get_json(handle, "/stats")
            # One logical job, however many variants it raced.
            assert stats["scheduler"]["jobs"] == 1
            assert stats["scheduler"]["variants_raced"] >= 1
            assert stats["server"]["admission"]["pending"] == 0
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# Bounded admission
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_stats_expose_the_admission_block(self, warm_server):
        _, stats = get_json(warm_server, "/stats")
        admission = stats["server"]["admission"]
        assert admission["max_pending"] >= 1
        assert admission["pending"] == 0

    def test_full_queue_gets_429_with_retry_after(self, monkeypatch):
        handle = serve_in_thread(workers=1, max_pending=1, grace=1.0)
        try:
            # Occupy the only admission slot with a job whose worker hangs
            # long enough for the second submission to observe a full queue.
            monkeypatch.setenv(faults.ENV_SPEC, "worker.hang=1.0:once")
            monkeypatch.setenv(faults.ENV_SEED, "11")
            results = []
            blocker = threading.Thread(
                target=lambda: results.extend(
                    post_jobs(handle, [job_entry("admit0", timeout=2.0)])
                )
            )
            blocker.start()
            try:
                import time as time_mod

                start = time_mod.monotonic()
                while time_mod.monotonic() - start < 5.0:
                    _, stats = get_json(handle, "/stats")
                    if stats["server"]["admission"]["pending"] >= 1:
                        break
                    time_mod.sleep(0.02)
                status, raw = post_json(handle, "/jobs", {"jobs": [job_entry("admit1")]})
            finally:
                blocker.join()
            assert status == 429, raw
            payload = json.loads(raw)
            assert "admission queue full" in payload["error"]
            assert payload["retry_after"] >= 1
            _, stats = get_json(handle, "/stats")
            assert stats["server"]["admission"]["rejected"] == 1
            # The slot frees once the blocker's job finishes: a resubmission
            # (faults cleared) is admitted and runs to completion.
            monkeypatch.delenv(faults.ENV_SPEC)
            monkeypatch.delenv(faults.ENV_SEED)
            (result,) = results_of(post_jobs(handle, [job_entry("admit1", timeout=30.0)]))
            assert result["ok"]
        finally:
            handle.stop()

    def test_rejects_nonpositive_max_pending(self):
        with pytest.raises(ValueError):
            SynthesisServer(workers=1, max_pending=0)
