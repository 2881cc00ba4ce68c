"""The resident anonymization service: a stdlib asyncio HTTP server.

``repro serve`` turns the batch pipeline into a long-lived process: one
:class:`ServeServer` holds a :class:`~repro.serve.state.ServeState`
(datasets, releases, derived artifacts and the content-addressed cache,
all resident in memory) behind a small HTTP/1.1 request router.  No third
party dependencies — requests are parsed off ``asyncio`` streams directly,
responses are JSON.

Endpoints
---------
========================  ==================================================
``GET  /health``          liveness, uptime, request and resident counts
``GET  /metrics``         the live ``repro.obs`` metrics snapshot
``POST /anonymize``       algorithm × params → release summary (cached)
``POST /properties``      per-tuple property-vector lookups (Definition 1)
``POST /compare``         Section-5 comparator verdicts between releases
``POST /query``           released-data workload queries (six shapes)
``POST /shutdown``        graceful drain + artifact flush, then exit
========================  ==================================================

Every request runs inside a ``repro.obs`` span (``serve.<endpoint>``) and
feeds per-endpoint latency histograms, so a traced server exports the same
Chrome-trace/metrics artifacts a traced study does.  Shutdown — whether by
``SIGINT``/``SIGTERM``, the ``/shutdown`` endpoint, or
:meth:`ServeServer.request_shutdown` — stops accepting, drains in-flight
requests against a deadline, then flushes trace/metrics files atomically
via :mod:`repro.utility.atomic` before the process exits.

Handlers execute in the event loop: CPU-bound work (a cold ``anonymize``)
briefly serializes the request stream, which is exactly what makes
concurrent identical cold requests single-flight — the first computes and
memoizes, the rest hit memory.  Warm traffic is pure dictionary lookups.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .. import __version__
from ..obs import NULL_OBSERVATION, Observation, metrics as obs_metrics
from ..obs import observing, tracer as obs_tracer
from ..obs.export import write_chrome_trace, write_metrics_snapshot
from ..runtime.study import StudyError, VECTOR_PROPERTIES
from .query import QueryError, render_cell
from .state import ServeRequestError, ServeState

#: Upper bound on a request body; anything larger is refused with 413.
MAX_BODY_BYTES = 1 << 20

#: Upper bound on header count per request.
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An HTTP-level protocol failure (maps straight to a status code)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict[str, Any]:
        """The request body parsed as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to keep the connection open."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


def _render_response(status: int, payload: Mapping[str, Any], keep_alive: bool) -> bytes:
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8") + b"\n"
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a closed connection."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1", "replace").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise _HttpError(400, "too many headers")
        name, separator, value = line.decode("latin-1", "replace").partition(":")
        if not separator:
            raise _HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "malformed Content-Length") from None
    if length < 0:
        raise _HttpError(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method.upper(), target.split("?", 1)[0], headers, body)


class ServeServer:
    """A long-lived anonymization service over one :class:`ServeState`.

    Parameters
    ----------
    state:
        The resident datasets/releases/cache the handlers resolve through.
    host, port:
        Bind address; port ``0`` binds an ephemeral port (the bound port
        is printed on stdout and exposed as :attr:`port`).
    observation:
        A live :class:`repro.obs.Observation` installed for the server's
        lifetime (request spans + latency metrics); the null default
        records nothing.
    drain_timeout:
        Seconds shutdown waits for in-flight requests before closing
        connections.
    run_dir, trace_path, metrics_path:
        Where to flush trace/metrics artifacts on shutdown.  ``run_dir``
        is shorthand for ``trace.json`` + ``metrics.json`` inside it.
    handle_signals:
        Install ``SIGINT``/``SIGTERM`` handlers that trigger graceful
        shutdown (main thread only; ignored on a background thread).
    quiet:
        Suppress the stdout status lines (used by in-process harnesses).
    """

    def __init__(
        self,
        state: ServeState,
        host: str = "127.0.0.1",
        port: int = 0,
        observation: Any = NULL_OBSERVATION,
        drain_timeout: float = 5.0,
        run_dir: str | Path | None = None,
        trace_path: str | Path | None = None,
        metrics_path: str | Path | None = None,
        handle_signals: bool = True,
        quiet: bool = False,
    ):
        self.state = state
        self.host = host
        self.port = port
        self.observation = observation
        self.drain_timeout = drain_timeout
        self.trace_path = Path(trace_path) if trace_path else (
            Path(run_dir) / "trace.json" if run_dir else None
        )
        self.metrics_path = Path(metrics_path) if metrics_path else (
            Path(run_dir) / "metrics.json" if run_dir else None
        )
        self.handle_signals = handle_signals
        self.quiet = quiet
        self.requests_served = 0
        self.started = threading.Event()
        self.shutdown_reason: str | None = None
        self._draining = False
        self._active = 0
        self._connections: set[asyncio.Task[Any]] = set()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._start_monotonic = 0.0

    # -- lifecycle ---------------------------------------------------------

    def request_shutdown(self, reason: str = "requested") -> None:
        """Begin graceful shutdown (idempotent; safe from the loop only).

        From another thread, go through the owning loop:
        ``loop.call_soon_threadsafe(server.request_shutdown, reason)``.
        """
        if self.shutdown_reason is None:
            self.shutdown_reason = reason
        self._draining = True
        if self._stop is not None:
            self._stop.set()

    async def serve(self) -> None:
        """Bind, announce the port, and serve until shutdown; then drain."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._draining:
            self._stop.set()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._start_monotonic = time.monotonic()
        if not self.quiet:
            print(
                f"repro serve: listening on http://{self.host}:{self.port}",
                flush=True,
            )
        self.started.set()
        installed = self._install_signal_handlers()
        try:
            with observing(self.observation):
                await self._stop.wait()
                self._draining = True
                server.close()
                await server.wait_closed()
                await self._drain()
        finally:
            self._remove_signal_handlers(installed)
            self._flush_artifacts()
            if not self.quiet:
                print(
                    f"repro serve: shut down ({self.shutdown_reason or 'stopped'}) "
                    f"after {self.requests_served} request(s)",
                    flush=True,
                )

    def _install_signal_handlers(self) -> list[signal.Signals]:
        if not self.handle_signals:
            return []
        if threading.current_thread() is not threading.main_thread():
            return []
        installed: list[signal.Signals] = []
        assert self._loop is not None
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(
                    signum, self.request_shutdown, signum.name
                )
            except (NotImplementedError, RuntimeError):
                continue
            installed.append(signum)
        return installed

    def _remove_signal_handlers(self, installed: list[signal.Signals]) -> None:
        assert self._loop is not None
        for signum in installed:
            try:
                self._loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError):
                pass

    async def _drain(self) -> None:
        """Wait (bounded) for in-flight requests, then close connections."""
        assert self._loop is not None
        deadline = self._loop.time() + self.drain_timeout
        while self._active > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    def _flush_artifacts(self) -> None:
        """Write trace/metrics artifacts atomically (when paths are set)."""
        if self.metrics_path is not None and self.observation.enabled:
            write_metrics_snapshot(
                self.observation.metrics.snapshot(), self.metrics_path
            )
        if self.trace_path is not None and self.observation.enabled:
            write_chrome_trace(
                list(self.observation.trace.spans),
                self.trace_path,
                process_name="repro-serve",
            )

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while not self._draining:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    writer.write(
                        _render_response(
                            exc.status, {"ok": False, "error": str(exc)}, False
                        )
                    )
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                if request is None:
                    return
                self._active += 1
                try:
                    status, payload = self._dispatch(request)
                finally:
                    self._active -= 1
                keep_alive = request.keep_alive and not self._draining
                writer.write(_render_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- routing -----------------------------------------------------------

    def _dispatch(self, request: HttpRequest) -> tuple[int, dict[str, Any]]:
        """Route one request; always returns a JSON-able response pair."""
        routes = {
            "/health": ("GET", self._handle_health),
            "/metrics": ("GET", self._handle_metrics),
            "/anonymize": ("POST", self._handle_anonymize),
            "/properties": ("POST", self._handle_properties),
            "/compare": ("POST", self._handle_compare),
            "/query": ("POST", self._handle_query),
            "/shutdown": ("POST", self._handle_shutdown),
        }
        route = routes.get(request.path)
        if route is None:
            return 404, {
                "ok": False,
                "error": f"unknown endpoint {request.path!r}",
                "endpoints": sorted(routes),
            }
        method, handler = route
        if request.method != method:
            return 405, {
                "ok": False,
                "error": f"{request.path} expects {method}, got {request.method}",
            }
        endpoint = request.path.lstrip("/")
        self.requests_served += 1
        started = time.monotonic()
        status = 500
        try:
            with obs_tracer().span(f"serve.{endpoint}", category="serve"):
                status, payload = handler(request.json())
            return status, payload
        except _HttpError as exc:
            status = exc.status
            return exc.status, {"ok": False, "error": str(exc)}
        except (ServeRequestError, QueryError, StudyError) as exc:
            status = 400
            return 400, {"ok": False, "error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500 path
            # Only the exception *type* crosses the boundary: a message
            # could embed data values from arbitrarily deep in the stack.
            status = 500
            return 500, {
                "ok": False,
                "error": f"internal error: {type(exc).__name__}",
            }
        finally:
            elapsed_ms = (time.monotonic() - started) * 1000.0
            obs_metrics().inc(f"serve.request.{endpoint}")
            obs_metrics().observe(f"serve.latency_ms.{endpoint}", elapsed_ms)
            if status >= 400:
                obs_metrics().inc("serve.error")

    # -- endpoint handlers ---------------------------------------------------

    def _handle_health(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        return 200, {
            "ok": True,
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "uptime_s": time.monotonic() - self._start_monotonic,
            "requests": self.requests_served,
            "resident": self.state.resident_count(),
        }

    def _handle_metrics(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        return 200, {"ok": True, "metrics": self.observation.metrics.snapshot()}

    def _handle_shutdown(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        assert self._loop is not None
        # Respond first, stop accepting right after: the loop callback runs
        # once this response is on the wire.
        self._loop.call_soon(self.request_shutdown, "shutdown endpoint")
        return 200, {"ok": True, "draining": True}

    def _handle_anonymize(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        dataset_spec = self.state.dataset_spec(body.get("dataset"))
        cell = self.state.algorithm_spec(body.get("algorithm"))
        release, source = self.state.release_for(dataset_spec, cell)
        summary, _ = self.state.summary_for(dataset_spec, cell, release)
        payload: dict[str, Any] = {
            "ok": True,
            "algorithm": cell.label,
            "dataset": dataset_spec.as_payload(),
            "source": source,
            **summary,
        }
        if body.get("include_rows"):
            payload["columns"] = list(release.released.schema.names)
            payload["released_rows"] = [
                [render_cell(cell_value) for cell_value in row]
                for row in release.released
            ]
        return 200, payload

    def _handle_properties(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        dataset_spec = self.state.dataset_spec(body.get("dataset"))
        cell = self.state.algorithm_spec(body.get("algorithm"))
        prop = body.get("property", "equivalence-class-size")
        vector, source = self.state.vector_for(dataset_spec, cell, prop)
        values = [float(value) for value in vector]
        indices = body.get("indices")
        if indices is not None:
            if not isinstance(indices, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in indices
            ):
                raise ServeRequestError("'indices' must be a list of integers")
            out_of_range = [i for i in indices if not 0 <= i < len(values)]
            if out_of_range:
                raise ServeRequestError(
                    f"indices out of range for {len(values)} rows: {out_of_range}"
                )
            values = [values[i] for i in indices]
        return 200, {
            "ok": True,
            "algorithm": cell.label,
            "property": prop,
            "source": source,
            "rows": len(vector),
            "indices": indices,
            "values": values,
        }

    def _handle_compare(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        dataset_spec = self.state.dataset_spec(body.get("dataset"))
        algorithms = body.get("algorithms")
        if not isinstance(algorithms, list) or len(algorithms) < 2:
            raise ServeRequestError(
                "compare requires an 'algorithms' list of at least two cells"
            )
        cells = tuple(self.state.algorithm_spec(item) for item in algorithms)
        prop = body.get("property", "equivalence-class-size")
        if prop not in VECTOR_PROPERTIES:
            raise ServeRequestError(
                f"unknown property {prop!r}; "
                f"choose from {sorted(VECTOR_PROPERTIES)}"
            )
        result, source = self.state.compare_for(dataset_spec, cells, prop)
        relations = sorted(
            [first, second, relation.value]
            for (first, second), relation in result["relations"].items()
        )
        return 200, {
            "ok": True,
            "property": result["property"],
            "source": source,
            "cells": [cell.label for cell in cells],
            "relations": relations,
            "wins": result["wins"],
        }

    def _handle_query(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        dataset_spec = self.state.dataset_spec(body.get("dataset"))
        cell = self.state.algorithm_spec(body.get("algorithm"))
        query = body.get("query")
        if not isinstance(query, dict):
            raise ServeRequestError("request requires a 'query' object")
        other = None
        if body.get("other") is not None:
            other = self.state.algorithm_spec(body.get("other"))
        result, source = self.state.query_for(dataset_spec, cell, query, other)
        return 200, {
            "ok": True,
            "algorithm": cell.label,
            "source": source,
            "result": result,
        }


class ServerThread:
    """Run a :class:`ServeServer` on a daemon thread (tests, embedding).

    ``start()`` blocks until the port is bound and returns the base URL;
    ``stop()`` triggers graceful shutdown through the owning loop and
    joins the thread.  Signal handlers are never installed (background
    threads cannot own them); use the CLI entry point for signal-driven
    lifecycles.
    """

    def __init__(self, server: ServeServer):
        server.handle_signals = False
        server.quiet = True
        self.server = server
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def _run(self) -> None:
        try:
            asyncio.run(self.server.serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced in stop()
            self._error = exc

    def start(self, timeout: float = 30.0) -> str:
        """Start serving; returns ``http://host:port`` once bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self.server.started.wait(timeout):
            raise RuntimeError(
                f"server did not bind within {timeout}s"
            ) from self._error
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Drain, flush artifacts, and join the server thread."""
        thread = self._thread
        if thread is None:
            return
        loop = self.server._loop
        if loop is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(
                    self.server.request_shutdown, "ServerThread.stop"
                )
            except RuntimeError:
                pass
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError(f"server thread did not stop within {timeout}s")
        self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error
