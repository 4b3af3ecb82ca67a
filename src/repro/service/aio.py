"""The HTTP front end: four JSON routes served from one asyncio event loop.

Endpoints
---------

``POST /assess``
    Body: ``{"profile": <profile_to_json payload>, "tolerance": 0.05,
    "delta": null, "runs": 5, "seed": 0, "interest": [3, 7, "milk"],
    "deadline_seconds": 2.5}``
    (everything but ``profile`` and ``tolerance`` optional; *interest*
    items are raw JSON ints/strings matching the profile's items).
    Response: ``{"fingerprint", "cached", "elapsed_seconds", "partial",
    "assessment": <assessment_to_json payload>}``.  With
    ``deadline_seconds`` set, the engine computes under a
    :class:`~repro.budget.ComputeBudget`: an over-budget request still
    answers 200 with ``"partial": true`` and an ``INCONCLUSIVE``
    decision carrying the best estimate so far, or 503 with a
    ``Retry-After`` header when the deadline expired before *anything*
    was ready.

``POST /crack/step``
    The streaming attacker workbench (see :mod:`repro.service.crack`):
    open a solver session with an ``instance`` payload, then stream
    ``observations`` into it by ``session`` id.

``GET /healthz``
    Liveness probe; reports the package version.

``GET /metrics``
    Engine metrics snapshot plus cache counters, admission queue depth
    and per-route latency histograms.

Route semantics — validation, the error mapping (400/404/422/429/500/
503 with ``Retry-After``), admission control, per-route counters and
latency histograms — live in the transport-agnostic
:class:`~repro.service.routes.ServiceCore`.  This module contributes
the socket plumbing: :func:`asyncio.start_server`, HTTP/1.1 parsing
with keep-alive and pipelining, and a thread executor for the ``POST``
routes.

Protocol notes
--------------

* Requests are parsed back-to-back off each connection's buffer, so a
  client that pipelines N requests gets N responses in order.
* Every response carries an exact ``Content-Length`` (the core
  guarantees a JSON body on every path), which is what makes keep-alive
  legal.  ``Connection: close`` is honoured, as is HTTP/1.0's
  close-by-default.
* A malformed request head, an oversized body, or a body shorter than
  its declared ``Content-Length`` answers 400 and closes the
  connection: after a framing error the stream cannot be trusted.

Concurrency
-----------

``GET`` routes are cheap and answered on the event loop itself, so a
liveness probe never waits behind engine work.  ``POST`` routes run
:meth:`ServiceCore.dispatch` on an executor sized from the admission
limits — ``max_inflight`` computing, ``max_queue`` waiting, plus one
thread to shed the next request with 429 — so every request past the
queue reaches admission control (and its deadline starts counting)
instead of idling in the executor's own unbounded queue.

:meth:`AsyncAssessmentServer.shutdown_gracefully` stops accepting,
waits for in-flight requests to drain (bounded by the grace period),
then closes the remaining keep-alive connections; ``repro-serve`` wires
it to ``SIGTERM``/``SIGINT``.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS

from repro.service.admission import AdmissionController
from repro.service.engine import AssessmentEngine
from repro.service.routes import MAX_BODY_BYTES, RouteResponse, ServiceCore

__all__ = ["AsyncAssessmentServer", "serve_async"]

#: Upper bound on one request's head (request line + headers).
_MAX_HEAD_BYTES = 64 * 1024


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]] | None:
    """``(method, path, version, headers)`` from a request head, or ``None``.

    Tolerates ``\\r\\n`` and bare ``\\n`` line endings; header names are
    lower-cased.  Anything structurally off — no request line, a version
    that is not ``HTTP/1.x`` — is a parse failure, not an exception.
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    parts = lines[0].split()
    if len(parts) != 3:
        return None
    method, path, version = parts
    if not version.startswith("HTTP/1."):
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            return None
        headers[name.strip().lower()] = value.strip()
    return method, path, version, headers


def _keep_alive(version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


def _encode_response(response: RouteResponse, keep_alive: bool) -> bytes:
    body = response.body()
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    if not keep_alive:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def _bad_request(message: str) -> RouteResponse:
    return RouteResponse(
        400,
        {"error": {"type": "ValueError", "message": message}, "status": 400},
    )


class AsyncAssessmentServer:
    """An :func:`asyncio.start_server` front end over one :class:`ServiceCore`.

    *core* is the shared route layer; a fresh one (fresh engine, default
    admission limits) when omitted.  The executor for ``POST`` routes is
    sized from its admission limits (see the module docstring).
    """

    def __init__(self, core: ServiceCore | None = None) -> None:
        self.core = core if core is not None else ServiceCore()
        admission = self.core.admission
        self._executor = ThreadPoolExecutor(
            max_workers=admission.max_inflight + admission.max_queue + 1,
            thread_name_prefix="repro-aio",
        )
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task[None]] = set()

    # -- convenience pass-throughs ---------------------------------------

    @property
    def engine(self) -> AssessmentEngine:
        return self.core.engine

    @property
    def admission(self) -> AdmissionController:
        return self.core.admission

    def inflight_requests(self) -> int:
        return self.core.inflight_requests()

    @property
    def server_port(self) -> int:
        assert self._server is not None, "server not started"
        sockets = self._server.sockets
        port: int = sockets[0].getsockname()[1]
        return port

    # -- lifecycle --------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting; ``port=0`` picks a free port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_MAX_HEAD_BYTES
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def shutdown_gracefully(self, grace_seconds: float = 5.0) -> bool:
        """Stop accepting, drain in-flight requests, close connections.

        Returns ``True`` when every in-flight request finished within
        *grace_seconds*.  Idle keep-alive connections are closed
        unconditionally afterwards — their clients get a clean EOF.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace_seconds
        drained = True
        while self.core.inflight_requests() > 0:
            if loop.time() >= deadline:
                drained = False
                break
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            writer.close()
        # Reap the connection handlers so loop teardown never cancels a
        # coroutine mid-read (which would log a spurious traceback).
        tasks = [task for task in self._tasks if not task.done()]
        if tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True), timeout=1.0
                )
            except asyncio.TimeoutError:  # pragma: no cover - stuck handler
                drained = False
        self._executor.shutdown(wait=False)
        return drained

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            self.core.engine.metrics.increment("client_disconnects")
        except asyncio.CancelledError:
            pass  # loop shutdown closed us mid-read; nothing to answer
        finally:
            if task is not None:
                self._tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    # Mid-request EOF: the head never completed.
                    self.core.engine.metrics.increment("client_disconnects")
                return  # clean EOF between requests: keep-alive ended
            except asyncio.LimitOverrunError:
                await self._send(
                    writer, _bad_request("request head too large"), keep_alive=False
                )
                return
            parsed = _parse_head(head)
            if parsed is None:
                await self._send(
                    writer, _bad_request("malformed request head"), keep_alive=False
                )
                return
            method, path, version, headers = parsed
            keep_alive = _keep_alive(version, headers)
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                length = -1
            if length < 0 or length > MAX_BODY_BYTES:
                await self._send(
                    writer,
                    _bad_request(f"invalid Content-Length {headers.get('content-length')}"),
                    keep_alive=False,
                )
                return
            body = b""
            if length > 0:
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError as exc:
                    # The client half-closed mid-body: answer, then hang
                    # up, since the framing is gone.
                    await self._send(
                        writer,
                        _bad_request(
                            f"truncated request body: Content-Length said "
                            f"{length} bytes but only {len(exc.partial)} arrived"
                        ),
                        keep_alive=False,
                    )
                    return
            with self.core.tracked_request():
                if method == "POST":
                    response = await loop.run_in_executor(
                        self._executor, self.core.dispatch, method, path, body
                    )
                else:
                    response = self.core.dispatch(method, path, body)
            await self._send(writer, response, keep_alive=keep_alive)
            if not keep_alive:
                return

    async def _send(
        self, writer: asyncio.StreamWriter, response: RouteResponse, keep_alive: bool
    ) -> None:
        writer.write(_encode_response(response, keep_alive))
        await writer.drain()


async def _run_until_signal(
    server: AsyncAssessmentServer,
    host: str,
    port: int,
    grace_seconds: float,
    banner: str | None,
) -> None:
    await server.start(host, port)
    if banner is not None:
        print(banner.format(port=server.server_port), flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[int] = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
    try:
        await stop.wait()
    except asyncio.CancelledError:  # pragma: no cover - external cancel
        pass
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.shutdown_gracefully(grace_seconds)


def serve_async(
    host: str = "127.0.0.1",
    port: int = 8080,
    engine: AssessmentEngine | None = None,
    grace_seconds: float = 5.0,
    max_inflight: int = 8,
    max_queue: int = 32,
    banner: str | None = None,
) -> None:
    """Serve until ``SIGTERM``/``SIGINT`` (the ``repro-serve`` entry point).

    *banner*, when given, is printed once the socket is bound, with
    ``{port}`` substituted — the load harness parses it to discover an
    ephemeral port.  A failed bind raises :class:`OSError` before any
    banner.  On a signal the server drains in-flight requests for up to
    *grace_seconds* and returns.
    """
    core = ServiceCore(
        engine=engine, max_inflight=max_inflight, max_queue=max_queue
    )
    server = AsyncAssessmentServer(core=core)
    try:
        asyncio.run(
            _run_until_signal(server, host, port, grace_seconds, banner)
        )
    except KeyboardInterrupt:
        pass
