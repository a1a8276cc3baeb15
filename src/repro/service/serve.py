"""Long-running synthesis server: asyncio front-ends over a resident pool.

This is the serve path ROADMAP item 1 asks for.  Batch runs
(:mod:`repro.service.scheduler`) reuse one resident pool between calls, but
by default every batch job still starts from a fresh solver.  :class:`SynthesisServer`
keeps its own supervised :class:`~repro.service.scheduler.WorkerPool`
*resident* for the lifetime of the process, so workers accumulate warm
solver state (the hash-consed term intern table, the Tseitin gate cache,
learned theory lemmas, validity/model LRUs — see :mod:`repro.service.warm`)
across every job of every request.

Architecture — one supervisor thread, any number of front-ends::

    asyncio event loop (HTTP / stdin NDJSON)        supervisor thread
    ----------------------------------------        -----------------------
    submit(job, emit) ──► inbox queue ── wake pipe ─► Supervisor.submit
    events ◄── loop.call_soon_threadsafe ◄── emit      Supervisor.step ─►
                                                      WorkerPool

The server thread only moves inbox submissions into the
:class:`~repro.service.supervisor.Supervisor` and steps it with the wake pipe
as an extra waitable, so a new submission interrupts an idle (or long) wait
immediately.  The supervisor owns *all* mutable scheduling state (queue,
retries, in-flight dedup, poison memory, stats) on that one thread — the
same code a batch run drains — so every failure semantic of a batch run
(hard deadlines, crash retry with backoff, poison detection, portfolio
races) is live across requests.  Its poison memory lives as long as the
server: a job that already killed ``POISON_KILLS`` workers is refused on
resubmission instead of being allowed to take down more of the pool.  Cache
quarantine lives on disk, so it survives requests (and server restarts) for
free.  Admission control and HTTP stay here.

Per-job progress streams as events through the ``emit`` callback, in
guaranteed order per job: ``queued`` → (``started`` | ``retry``)* →
``result``.  Results are byte-identical to a serial ``run_goals`` because
the search is verdict-driven and warm solver state can change only the cost
of a verdict, never the verdict (``REPRO_WARM=off`` in the server's
environment runs the same pool cold, which is how CI proves it).
"""

from __future__ import annotations

import asyncio
import json
import os
import queue as queue_mod
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import trace
from repro.service import warm
from repro.service.codec import CodecError, config_from_wire, goal_from_json
from repro.service.scheduler import (
    DEFAULT_GRACE,
    DEFAULT_RETRIES,
    Job,
    JobResult,
    SchedulerStats,
    WorkerPool,
    job_for_goal,
)
from repro.service.specs import jobs_from_spec, validate_spec
from repro.service.supervisor import Emit, Group, Supervisor

#: Default cap on submitted-but-unfinished jobs (generous: admission control
#: exists to bound memory under pathological clients, not to throttle use).
DEFAULT_MAX_PENDING = 256
#: Largest request body read (bytes); a larger Content-Length gets 413.  The
#: committed specs are tens of kilobytes.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Most header lines read per request; one more gets 431.  (A single line
#: longer than the stream reader's 64 KiB limit gets 414 or 431 as well.)
MAX_HEADERS = 100
#: Seconds a client gets to send its whole request (line, headers and body);
#: a slower one gets 408, so a silent client cannot hold a handler forever.
READ_TIMEOUT_S = 30.0


class AdmissionFullError(RuntimeError):
    """``submit`` refused: the server's pending-job cap is reached.

    The HTTP front-end maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` hint (seconds).
    """

    def __init__(self, pending: int, max_pending: int, retry_after: int) -> None:
        super().__init__(
            f"admission queue full: {pending} jobs pending (max {max_pending})"
        )
        self.retry_after = retry_after


def result_summary(result: JobResult) -> dict:
    """The wire form of a finished job (the ``result`` event payload)."""
    payload = {
        "ok": result.succeeded,
        "tag": result.tag,
        "fingerprint": result.fingerprint,
        "program": result.program_text,
        "seconds": round(result.seconds, 4),
        "cache_hit": result.cache_hit,
        "deduplicated": result.deduplicated,
        "timed_out": result.timed_out,
        "hard_timed_out": result.hard_timed_out,
        "cancelled": result.cancelled,
        "error": result.error,
        "attempts": result.attempts,
        "worker_pid": result.worker_pid,
        "warm": result.warm,
    }
    if result.portfolio is not None:
        payload["portfolio"] = result.portfolio
    return payload


def jobs_from_wire(data: dict) -> List[Job]:
    """Decode a ``POST /jobs`` body into schedulable jobs.

    Two shapes: ``{"jobs": [{"goal": ..., "config"?, "tag"?, "timeout"?,
    "retries"?}]}`` for explicit goals, or ``{"spec": <resyn-goals/1>,
    "modes"?, "include_slow"?, "timeout"?, "retries"?}`` to expand a
    declarative spec server-side.  Any malformed payload raises
    :class:`CodecError`, so front-ends answer it with one clean error.
    """
    try:
        return _decode_jobs(data)
    except CodecError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CodecError(f"malformed job payload: {type(exc).__name__}: {exc}") from None


def _decode_jobs(data: dict) -> List[Job]:
    if not isinstance(data, dict):
        raise CodecError("request body must be a JSON object")
    if "spec" in data:
        spec = data["spec"]
        validate_spec(spec)
        return jobs_from_spec(
            spec,
            modes=data.get("modes"),
            include_slow=bool(data.get("include_slow")),
            timeout=data.get("timeout"),
            retries=data.get("retries"),
        )
    entries = data.get("jobs")
    if not isinstance(entries, list) or not entries:
        raise CodecError("request must contain a non-empty 'jobs' list (or a 'spec')")
    jobs = []
    for entry in entries:
        if not isinstance(entry, dict) or "goal" not in entry:
            raise CodecError("each job entry needs a 'goal' payload")
        jobs.append(
            job_for_goal(
                goal_from_json(entry["goal"]),
                config_from_wire(entry.get("config")),
                tag=entry.get("tag"),
                timeout=entry.get("timeout"),
                retries=entry.get("retries"),
            )
        )
    return jobs


class SynthesisServer:
    """A resident worker pool plus the supervisor thread that drives it."""

    def __init__(
        self,
        workers: int = 2,
        cache=None,
        retries: int = DEFAULT_RETRIES,
        grace: float = DEFAULT_GRACE,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if workers < 1:
            raise ValueError("a server needs at least one worker")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.workers = workers
        self.cache = cache
        self.grace = grace
        self.stats = SchedulerStats(workers=workers)
        self.started_at: Optional[float] = None
        self._pool: Optional[WorkerPool] = None
        #: Its poison memory lives as long as the server; the pool joins at
        #: start().
        self._supervisor = Supervisor(
            self.stats,
            workers=workers,
            cache=cache,
            retries=retries,
            # Warm execution is the server's default; REPRO_WARM=off in the
            # environment (inherited by forked workers) is the escape hatch
            # the byte-identity A/B guard uses.
            warm=True,
            on_finish=self._finished,
        )
        self._thread: Optional[threading.Thread] = None
        self._inbox: "queue_mod.Queue[Tuple[str, object]]" = queue_mod.Queue()
        self._wake_r, self._wake_w = os.pipe()
        self._lock = threading.Lock()
        self._seq = 0
        self._draining = False
        self._stopped = threading.Event()
        #: Bounded admission: submitted-but-unfinished logical jobs.
        self.max_pending = max_pending
        self._pending = 0
        self._admission_rejected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SynthesisServer":
        self._pool = self._supervisor.pool = WorkerPool(size=self.workers, grace=self.grace)
        if self._pool.start() == 0:
            # No worker could spawn: stay up, run jobs inline (degraded).
            self.stats.degraded_serial = 1
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._thread.start()
        trace.event("serve.start", workers=self.workers, warm=warm.env_allows())
        return self

    def shutdown(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the server: optionally drain queued work, then stop the pool.

        Graceful (``drain=True``) finishes every queued and active job and
        delivers their events before workers stop; ``drain=False`` cancels
        queued jobs (each still receives a ``result`` event, marked
        cancelled) and kills active ones.
        """
        with self._lock:
            if self._stopped.is_set():
                return
            self._draining = True
        self._inbox.put(("shutdown", drain))
        self._wake()
        self._stopped.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, job: Job, emit: Emit) -> int:
        """Queue one job; events stream to ``emit`` (called from the
        supervisor thread — wrap with ``call_soon_threadsafe`` in asyncio).
        Returns the server-wide job id."""
        with self._lock:
            if self._draining or self._stopped.is_set():
                raise RuntimeError("server is shutting down")
            if self._pending >= self.max_pending:
                self._admission_rejected += 1
                # Hint scales with the backlog per worker: roughly how long
                # until a slot frees up, clamped to something polite.
                retry_after = max(1, min(30, self._pending // max(self.workers, 1)))
                raise AdmissionFullError(self._pending, self.max_pending, retry_after)
            self._pending += 1
            self._seq += 1
            seq = self._seq
        self._inbox.put(("submit", (job, seq, emit, time.monotonic())))
        self._wake()
        return seq

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Stats (any thread)
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        pool = self._pool
        supervisor = self._supervisor
        with supervisor.lock:
            scheduler = self.stats.as_dict()
        if pool is not None:
            scheduler["worker_kills"] = pool.kills
            scheduler["pool_rebuilds"] = pool.rebuilds
        uptime = time.monotonic() - self.started_at if self.started_at else 0.0
        scheduler["wall_seconds"] = round(uptime, 4)
        payload = {
            "server": {
                "uptime_seconds": round(uptime, 4),
                "workers": self.workers,
                "workers_live": pool.live_count if pool is not None else 0,
                "queue_depth": supervisor.queue_depth,
                "active_jobs": pool.active_count if pool is not None else 0,
                "warm": warm.env_allows(),
                "draining": self._draining,
                "poison_fingerprints": supervisor.poisoned_fingerprints(),
                "admission": {
                    "max_pending": self.max_pending,
                    "pending": self._pending,
                    "rejected": self._admission_rejected,
                },
            },
            "scheduler": scheduler,
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats_dict()
        return payload

    # ------------------------------------------------------------------
    # Supervisor thread: moves submissions in, steps the supervisor
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        supervisor = self._supervisor
        pool = self._pool
        assert pool is not None
        shutdown = False
        try:
            while True:
                while True:
                    try:
                        op, arg = self._inbox.get_nowait()
                    except queue_mod.Empty:
                        break
                    if op == "submit":
                        job, seq, emit, submitted = arg
                        supervisor.submit(job, seq=seq, emit=emit, submitted=submitted)
                    else:  # shutdown
                        shutdown = True
                        if not arg:
                            # Every open job gets a cancelled result; active
                            # ones die with the pool below.
                            supervisor.cancel_all()
                            return
                if shutdown and not supervisor.busy():
                    break
                if supervisor.step(extra=[self._wake_r]):
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
        finally:
            with supervisor.lock:
                self.stats.worker_kills = pool.kills
                self.stats.pool_rebuilds = pool.rebuilds
            pool.stop()
            self._stopped.set()
            trace.event("serve.stop")

    def _finished(self, group: Group) -> None:
        """Supervisor callback: one submitted job is done; stream its result."""
        result = group.result
        with self._lock:
            self._pending = max(0, self._pending - 1)
        trace.event(
            "serve.job.done", tag=result.tag, ok=result.succeeded, attempts=result.attempts
        )
        if group.emit is not None:
            try:
                group.emit({"event": "result", "id": group.seq, **result_summary(result)})
            except Exception:  # noqa: BLE001 - a dead client must not kill serving
                pass


# ---------------------------------------------------------------------------
# HTTP front-end (hand-rolled HTTP/1.1 over asyncio — no dependencies)
# ---------------------------------------------------------------------------


def _http_response(status: str, payload: dict, extra_headers: str = "") -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra_headers}Connection: close\r\n\r\n"
    ).encode() + body


class _RequestError(Exception):
    """A request the server answers with an error status instead of reading."""

    def __init__(self, status: str, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader, status: str, what: str) -> bytes:
    """One CRLF-terminated line; an over-long one is answered with ``status``."""
    try:
        return await reader.readline()
    except ValueError as exc:  # the stream reader's line-length limit
        raise _RequestError(status, f"{what} too long") from exc


async def _read_request(reader) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    line = await _read_line(reader, "414 URI Too Long", "request line")
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        return None
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        hline = await _read_line(reader, "431 Request Header Fields Too Large", "header line")
        if not hline or hline in (b"\r\n", b"\n"):
            break
        name, _, value = hline.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _RequestError(
            "431 Request Header Fields Too Large", f"more than {MAX_HEADERS} header lines"
        )
    body = b""
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise _RequestError("400 Bad Request", f"invalid Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise _RequestError(
            "413 Payload Too Large",
            f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
        )
    if length:
        body = await reader.readexactly(length)
    return method, path, headers, body


def _chunk(data: bytes) -> bytes:
    return b"%X\r\n%s\r\n" % (len(data), data)


async def _stream_jobs(server: SynthesisServer, jobs: List[Job], writer) -> None:
    """Submit ``jobs`` and stream their NDJSON events until all results land.

    The body is ``Transfer-Encoding: chunked`` — one chunk per NDJSON line,
    closed by the terminating 0-chunk — so a client sees ``queued``/
    ``started``/``retry`` progress live and knows the stream is complete
    without waiting for EOF.  Self-delimiting framing matters here: workers
    respawned mid-request (crash recovery) fork a copy of the accepted
    socket, so the client would otherwise never observe FIN while a resident
    worker holds the descriptor.  The resident batch pool of
    :meth:`~repro.service.scheduler.BatchScheduler.run` has the same
    property: a batch worker keeps every descriptor that was open when it
    forked for as long as it lives, which is now across batch runs.
    """
    loop = asyncio.get_running_loop()
    events: "asyncio.Queue[dict]" = asyncio.Queue()

    def emit(event: dict) -> None:
        loop.call_soon_threadsafe(events.put_nowait, event)

    ids = []
    rejected: List[str] = []
    admission_error: Optional[AdmissionFullError] = None
    for job in jobs:
        try:
            ids.append(server.submit(job, emit))
        except AdmissionFullError as exc:
            admission_error = exc
            rejected.append(job.tag)
    if not ids and admission_error is not None:
        # Nothing was admitted — the caller can still send a clean 429.
        raise admission_error
    writer.write(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    accepted: Dict[str, object] = {"event": "accepted", "ids": ids}
    if rejected:
        accepted["rejected"] = rejected
        accepted["retry_after"] = admission_error.retry_after
    writer.write(_chunk((json.dumps(accepted) + "\n").encode()))
    await writer.drain()
    done = 0
    while done < len(ids):
        event = await events.get()
        writer.write(_chunk((json.dumps(event, sort_keys=True) + "\n").encode()))
        await writer.drain()
        if event.get("event") == "result":
            done += 1
    writer.write(b"0\r\n\r\n")


async def _handle_connection(
    server: SynthesisServer, reader, writer, stop_event: asyncio.Event
) -> None:
    try:
        try:
            request = await asyncio.wait_for(_read_request(reader), READ_TIMEOUT_S)
        except _RequestError as exc:
            writer.write(_http_response(exc.status, {"error": str(exc)}))
            await writer.drain()
            return
        except asyncio.TimeoutError:
            error = f"request not received within {READ_TIMEOUT_S} s"
            writer.write(_http_response("408 Request Timeout", {"error": error}))
            await writer.drain()
            return
        if request is None:
            return
        method, path, _, body = request
        if method == "GET" and path == "/healthz":
            writer.write(_http_response("200 OK", {"ok": True}))
        elif method == "GET" and path == "/stats":
            writer.write(_http_response("200 OK", server.stats_dict()))
        elif method == "POST" and path == "/jobs":
            try:
                jobs = jobs_from_wire(json.loads(body or b"{}"))
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, CodecError) as exc:
                writer.write(_http_response("400 Bad Request", {"error": str(exc)}))
            else:
                try:
                    await _stream_jobs(server, jobs, writer)
                except AdmissionFullError as exc:
                    writer.write(
                        _http_response(
                            "429 Too Many Requests",
                            {"error": str(exc), "retry_after": exc.retry_after},
                            extra_headers=f"Retry-After: {exc.retry_after}\r\n",
                        )
                    )
                except RuntimeError as exc:  # shutting down
                    writer.write(_http_response("503 Service Unavailable", {"error": str(exc)}))
        elif method == "POST" and path == "/shutdown":
            try:
                options = json.loads(body or b"{}")
            except json.JSONDecodeError:
                options = {}
            if isinstance(options, dict):
                drain = bool(options.get("drain", True))
                writer.write(_http_response("200 OK", {"ok": True, "drain": drain}))
                await writer.drain()
                stop_event.drain_on_stop = drain  # type: ignore[attr-defined]
                stop_event.set()
            else:
                writer.write(
                    _http_response("400 Bad Request", {"error": "expected a JSON object body"})
                )
        else:
            writer.write(_http_response("404 Not Found", {"error": f"no route {method} {path}"}))
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# ---------------------------------------------------------------------------
# stdin NDJSON front-end
# ---------------------------------------------------------------------------


async def _stdio_loop(server: SynthesisServer, stop_event: asyncio.Event) -> None:
    """Newline-delimited JSON over stdin/stdout.

    Ops: ``{"op": "submit", "jobs"|"spec": ...}`` (events stream to stdout),
    ``{"op": "stats"}``, ``{"op": "shutdown", "drain"?: bool}``.  EOF on
    stdin is a graceful shutdown.
    """
    loop = asyncio.get_running_loop()

    def out(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        sys.stdout.flush()

    def emit(event: dict) -> None:
        loop.call_soon_threadsafe(out, event)

    while not stop_event.is_set():
        line = await asyncio.to_thread(sys.stdin.readline)
        if not line:
            stop_event.set()
            break
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ValueError("expected a JSON object")
            op = data.get("op")
            if op == "submit":
                jobs = jobs_from_wire(data)
                ids = [server.submit(job, emit) for job in jobs]
                out({"event": "accepted", "ids": ids})
            elif op == "stats":
                out({"event": "stats", "stats": server.stats_dict()})
            elif op == "shutdown":
                stop_event.drain_on_stop = bool(data.get("drain", True))  # type: ignore[attr-defined]
                out({"event": "shutting_down"})
                stop_event.set()
            else:
                out({"event": "error", "error": f"unknown op {op!r}"})
        except (json.JSONDecodeError, CodecError, RuntimeError, ValueError) as exc:
            out({"event": "error", "error": str(exc)})


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


async def serve_async(
    server: SynthesisServer,
    host: str = "127.0.0.1",
    port: int = 0,
    stdio: bool = False,
    ready: Optional[Callable[[int], None]] = None,
) -> None:
    """Run the HTTP (and optionally stdio) front-ends until shutdown."""
    stop_event = asyncio.Event()
    http_server = await asyncio.start_server(
        lambda r, w: _handle_connection(server, r, w, stop_event), host, port
    )
    bound_port = http_server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(bound_port)
    stdio_task = asyncio.create_task(_stdio_loop(server, stop_event)) if stdio else None
    await stop_event.wait()
    http_server.close()
    await http_server.wait_closed()
    if stdio_task is not None:
        stdio_task.cancel()
    drain = getattr(stop_event, "drain_on_stop", True)
    await asyncio.to_thread(server.shutdown, drain)


class ServerHandle:
    """A running server + event loop in a background thread (tests, smoke)."""

    def __init__(self, server: SynthesisServer, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self.host = host
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested = False

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            def on_ready(bound: int) -> None:
                self.port = bound
                self._ready.set()

            try:
                loop.run_until_complete(serve_async(server, host, port, ready=on_ready))
            finally:
                loop.close()

        self._thread = threading.Thread(target=runner, name="repro-serve-loop", daemon=True)

    def start(self) -> "ServerHandle":
        self.server.start()
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("server failed to start within 30s")
        return self

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Idempotent: trigger loop shutdown and wait for it to finish."""
        if self._thread.is_alive() and not self._stop_requested:
            self._stop_requested = True
            # Use the graceful path — POST /shutdown over a real socket — so
            # drain semantics match what an external client gets.
            try:
                import http.client

                conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
                conn.request("POST", "/shutdown", body=json.dumps({"drain": drain}).encode())
                conn.getresponse().read()
                conn.close()
            except OSError:
                loop = self._loop
                if loop is not None:
                    loop.call_soon_threadsafe(
                        lambda: [task.cancel() for task in asyncio.all_tasks(loop)]
                    )
        self._thread.join(timeout)
        self.server.shutdown(drain)


def serve_in_thread(
    workers: int = 2,
    cache=None,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_kwargs,
) -> ServerHandle:
    """Boot a server + HTTP front-end in this process; returns its handle."""
    server = SynthesisServer(workers=workers, cache=cache, **server_kwargs)
    return ServerHandle(server, host=host, port=port).start()


def serve_forever(
    workers: int = 2,
    cache=None,
    host: str = "127.0.0.1",
    port: int = 8765,
    stdio: bool = False,
    **server_kwargs,
) -> None:
    """Blocking entry point for ``python -m repro.service serve``."""
    server = SynthesisServer(workers=workers, cache=cache, **server_kwargs).start()

    def ready(bound: int) -> None:
        print(f"serving on http://{host}:{bound} (workers={workers})", flush=True)

    try:
        asyncio.run(serve_async(server, host, port, stdio=stdio, ready=ready))
    except KeyboardInterrupt:
        server.shutdown(drain=False)
