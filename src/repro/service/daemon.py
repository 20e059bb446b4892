"""The long-lived results service: a worker pool behind a thin HTTP door.

:class:`ResultsService` is the serving core, independent of any transport:
it owns the shared :class:`~repro.sweeps.store.SweepStore`, a long-lived
:class:`~concurrent.futures.ProcessPoolExecutor`, and the request counters.
:meth:`ResultsService.resolve` answers one normalized query — a warm hit is
a pure store lookup (zero engine work), a miss is routed to the pool, which
resolves it through the exact same unit of work the sweep layer uses
(:func:`repro.sweeps.runner.resolve_config`), and the record is written back
before the response returns.  Identical concurrent misses are *single
flight*: the first request computes, the rest await the same future, so a
thundering herd on one cold config costs one engine resolve.

Because the store is keyed by config content hash and every config resolves
from its own content alone, a service response is bit-for-bit identical to
the batch/campaign path for the same spec hash — warm or cold, at any
worker count (``tests/service`` holds the literal byte comparison).

:class:`ServiceServer` is the transport: a threading stdlib
``http.server`` bound to localhost, speaking JSON —

* ``POST /query`` — body is a query mapping (see
  :func:`repro.service.api.normalize_query`); answers the canonical
  response body with cache status in the ``X-Repro-Cache`` header
  (``hit``/``miss``), 400 for malformed queries, 500 for resolution
  failures (the daemon survives them);
* ``GET /status`` — live counters: requests, hits, misses, in-flight,
  stored records, pool restarts, uptime;
* ``POST /stop`` — acknowledges, then shuts the server down.

:func:`serve` ties both together for the CLI: it publishes the bound
endpoint as a store blob (``service/endpoint.json``) so ``repro service
query|status|stop`` can discover a running daemon from the store alone, and
removes the blob on shutdown.

Store sharing is safe by the store's concurrency contract (atomic
single-file writes, last-writer-wins; see :mod:`repro.sweeps.store`): the
daemon and an overlapping ``repro sweep run`` may write the same config
hash concurrently and readers always observe one intact record.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from repro import obs
from repro.service.api import QueryError, normalize_query, render_response
from repro.sweeps.runner import resolve_config
from repro.sweeps.spec import SweepConfig
from repro.sweeps.store import ConfigRecord, StoreSchemaError, SweepStore

__all__ = [
    "ENDPOINT_BLOB",
    "ENDPOINT_SCHEMA",
    "ResultsService",
    "ServiceServer",
    "serve",
]

#: Store blob key under which a running daemon publishes its endpoint.
ENDPOINT_BLOB = "service/endpoint"

#: Version stamped into the endpoint blob.
ENDPOINT_SCHEMA = 1


class ResultsService:
    """The serving core: store-first resolution over a persistent pool.

    Parameters
    ----------
    store:
        The shared :class:`~repro.sweeps.store.SweepStore` memoization tier.
    workers:
        Worker processes for cold queries.  ``0`` resolves misses inline in
        the serving thread (the CLI fallback path); results are bit-for-bit
        identical either way.  A pool broken by a dead worker is replaced
        and the miss retried once (counted in ``pool_restarts``).
    """

    def __init__(self, store: SweepStore, *, workers: int = 2) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.store = store
        self.workers = workers
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.pool_restarts = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[str, Future] = {}
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ResultsService":
        """Create the worker pool (no-op when ``workers == 0``)."""
        if self.workers > 0 and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self

    def close(self) -> None:
        """Shut the worker pool down (waits for in-flight resolutions)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ResultsService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- resolution ----------------------------------------------------------

    def resolve(self, config: SweepConfig) -> Tuple[ConfigRecord, bool]:
        """Answer one query: ``(record, cached)``.

        A warm hit never touches the engine (pure store lookup).  A miss is
        resolved through the pool (or inline without one), persisted, then
        returned.  Counters advance in the serving process only, so
        ``service.hits``/``service.misses`` totals are worker-count
        invariant, exactly like the sweep layer's ``store.*`` counters.
        """
        key = config.config_hash()
        t0 = time.perf_counter()
        with obs.span("service.request", hash=key):
            with self._lock:
                self.requests += 1
            record = self.store.load(config)
            if record is not None:
                with self._lock:
                    self.hits += 1
                obs.add("service.requests")
                obs.add("service.hits")
                self._log_request(key, "hit", t0)
                return record, True
            with self._lock:
                self.misses += 1
            obs.add("service.requests")
            obs.add("service.misses")
            record = self._compute(config, key)
            self._log_request(key, "miss", t0)
            return record, False

    def _log_request(self, key: str, cache: str, t0: float) -> None:
        seconds = time.perf_counter() - t0
        obs.gauge("service.request_seconds", seconds)
        obs.event("service.request", hash=key, cache=cache, dur_s=round(seconds, 6))

    def _compute(self, config: SweepConfig, key: str) -> ConfigRecord:
        """Resolve one miss, single-flight per config hash.

        The first thread to miss a hash owns its future and resolves the
        config; concurrent requests for the same hash await that future
        instead of resolving the config again.  Only the owner writes the
        store, after the future resolves.
        """
        with self._lock:
            future = self._inflight.get(key)
            owner = future is None
            if owner:
                future = self._inflight[key] = Future()
        if owner:
            try:
                future.set_result(self._resolve_in_pool(config))
            except BaseException as exc:
                future.set_exception(exc)
        try:
            record = future.result()
            # Persist before deregistering: a request landing between the
            # two would otherwise miss the store *and* the in-flight table
            # and resolve the config a second time.
            if owner:
                self.store.save(record)
        finally:
            if owner:
                with self._lock:
                    self._inflight.pop(key, None)
        return record

    def _resolve_in_pool(self, config: SweepConfig) -> ConfigRecord:
        """Resolve one config in the pool (inline without one).

        A worker that dies (killed, out of memory) breaks the whole pool, so
        every later submit would fail too: the broken pool is replaced and
        the config retried once on the fresh one.
        """
        pool = self._pool
        if pool is None:
            return resolve_config(config)
        try:
            return pool.submit(resolve_config, config).result()
        except BrokenProcessPool:
            return self._restart_pool(pool).submit(resolve_config, config).result()

    def _restart_pool(self, broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Replace ``broken`` unless another request already has."""
        with self._lock:
            if self._pool is broken:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                self.pool_restarts += 1
                obs.add("service.pool_restarts")
            pool = self._pool
        broken.shutdown(wait=False)
        if pool is None:
            raise BrokenProcessPool("the service was closed while a worker died")
        return pool

    # -- introspection -------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Live counters and identity of this service instance."""
        with self._lock:
            requests, hits, misses = self.requests, self.hits, self.misses
            inflight = len(self._inflight)
            pool_restarts = self.pool_restarts
        return {
            "schema": 1,
            "requests": requests,
            "hits": hits,
            "misses": misses,
            "inflight": inflight,
            "workers": self.workers,
            "pool_restarts": pool_restarts,
            "records": len(self.store),
            "store": str(self.store.root),
            "pid": os.getpid(),
            "uptime_s": round(time.perf_counter() - self._t0, 3),
        }


class _Handler(BaseHTTPRequestHandler):
    """JSON request handler over one :class:`ResultsService`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ResultsService:
        return self.server.service

    def log_message(self, *args) -> None:
        # The request log is the obs trace (`service.request` events), not
        # stderr noise interleaved with the CLI's own output.
        pass

    def _send(self, code: int, body: bytes, headers: Tuple = ()) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        self._send(code, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))

    def do_GET(self) -> None:
        if self.path == "/status":
            self._send_json(200, self.service.status())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:
        if self.path == "/query":
            self._handle_query()
        elif self.path == "/stop":
            self._send_json(200, {"stopping": True})
            # shutdown() blocks until serve_forever returns, so it must run
            # outside the handler thread that serve_forever is waiting on.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _handle_query(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", 0))
            query = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": f"request body is not JSON: {exc}"})
            return
        try:
            config = normalize_query(query)
        except QueryError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            record, cached = self.service.resolve(config)
        except StoreSchemaError as exc:
            self._send_json(500, {"error": str(exc)})
            return
        except Exception as exc:  # a failed resolution must not kill the daemon
            self._send_json(500, {"error": f"resolution failed: {exc}"})
            return
        self._send(
            200,
            render_response(record).encode("utf-8"),
            headers=(("X-Repro-Cache", "hit" if cached else "miss"),),
        )


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ResultsService`."""

    daemon_threads = True

    def __init__(
        self, service: ResultsService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(
    service: ResultsService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Optional[Callable[[str], None]] = None,
) -> None:
    """Serve ``service`` over HTTP until ``POST /stop`` (or interrupt).

    Publishes the bound endpoint as the store blob ``service/endpoint.json``
    (host-assigned port included, so ``--port 0`` works) and removes it on
    the way out, whatever ends the serve loop.  ``announce`` (if given)
    receives the endpoint URL once the socket is bound.
    """
    server = ServiceServer(service, host=host, port=port)
    service.store.save_blob(
        ENDPOINT_BLOB,
        {"schema": ENDPOINT_SCHEMA, "endpoint": server.endpoint, "pid": os.getpid()},
    )
    if announce is not None:
        announce(server.endpoint)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        with contextlib.suppress(OSError):
            service.store.blob_path(ENDPOINT_BLOB).unlink()
