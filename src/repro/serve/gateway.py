"""The async query gateway: admission control, coalescing, drain.

:class:`InferenceGateway` fronts HRIS inference with an
``asyncio.start_server`` HTTP/1.1 service (see :mod:`repro.serve.http`
for the wire layer) exposing four endpoints:

* ``POST /v1/infer``       — top-K routes for one query trajectory;
* ``POST /v1/infer_batch`` — many queries in one request;
* ``GET  /healthz``        — liveness (503 once draining);
* ``GET  /metrics``        — per-endpoint counters + latency p50/p90/p99.

Three serving behaviours distinguish it from a bare request loop:

**Admission control.**  Accepted inference jobs flow through one bounded
queue to a fixed pool of worker tasks; each worker owns a private HRIS
clone (caches are not thread-safe — see :meth:`HRIS.worker_clone`) and
runs inference on an executor thread so the event loop never blocks.
When admitted work reaches ``max_inflight`` or the queue reaches
``max_queue``, new requests are shed immediately with ``429`` and a
``Retry-After`` hint — the gateway degrades by refusing work it cannot
serve promptly, never by queueing without bound.

**Request coalescing.**  Identical in-flight queries — same point
sequence, same K, hence the same ``(segment-pair, window)`` reference
lookups and the same deterministic answer — share one computation
through a keyed future map.  Followers attach to the leader's future
and bypass admission entirely (they add no work), so a thundering herd
of duplicate queries costs one inference.

**Graceful drain.**  ``SIGTERM`` (or :meth:`InferenceGateway.stop`)
stops accepting connections and new work (``503`` + ``Connection:
close``), completes every admitted job, flushes the responses, then
exits.  In-flight clients see normal answers; only new work is turned
away.

Results served through the gateway are bit-identical to direct
:meth:`HRIS.infer_routes` calls: JSON round-trips floats exactly, and
the ``gateway_vs_seed`` identity key in the benchmark report is gated in
CI.  See ``docs/serving.md`` for the operator handbook.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.kgri import GlobalRoute
from repro.serve.http import (
    HttpError,
    Request,
    Response,
    json_response,
    read_request,
    write_response,
)
from repro.serve.metrics import LATENCY_WINDOW, GatewayMetrics
from repro.trajectory.io import trajectory_from_dict
from repro.trajectory.model import Trajectory

__all__ = ["GatewayConfig", "InferenceGateway", "hris_backends"]

#: One inference backend: ``(trajectory, k) -> top-K global routes``.
InferenceBackend = Callable[[Trajectory, Optional[int]], List[GlobalRoute]]

#: Endpoints the gateway serves; anything else is 404 (metrics key "other").
KNOWN_PATHS = ("/v1/infer", "/v1/infer_batch", "/healthz", "/metrics")

#: Upper bound on K per request — a sanity cap, far above any useful K.
MAX_K = 50


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """Gateway tunables.

    Attributes:
        host: Bind address.
        port: Bind port (0 lets the OS pick; read it back from
            :attr:`InferenceGateway.address`).
        max_inflight: Cap on admitted jobs (queued + executing).  At the
            cap, new work is shed with 429.
        max_queue: Cap on jobs waiting for a worker — bounds queueing
            delay independently of ``max_inflight``.
        retry_after_s: Hint returned in the ``Retry-After`` header of
            429/503 answers (rounded up to whole seconds on the wire).
        drain_grace_s: Longest the drain sequence waits for admitted
            jobs and open responses before forcing connections closed.
        max_batch: Cap on queries per ``/v1/infer_batch`` request.
        latency_window: Latency samples retained per endpoint for the
            ``/metrics`` percentiles.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 16
    max_queue: int = 16
    retry_after_s: float = 1.0
    drain_grace_s: float = 30.0
    max_batch: int = 256
    latency_window: int = LATENCY_WINDOW

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.retry_after_s <= 0 or self.drain_grace_s <= 0:
            raise ValueError("retry_after_s and drain_grace_s must be positive")


def hris_backends(hris, workers: int) -> List[InferenceBackend]:
    """One inference callable per gateway worker.

    The first worker serves from ``hris`` itself; each further worker
    gets its own :meth:`HRIS.worker_clone` — same network, archive and
    landmark tables, private caches — because the engine's LRU caches
    are not thread-safe.  Every clone returns bit-identical routes.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    backends: List[InferenceBackend] = [hris.infer_routes]
    for _ in range(1, workers):
        backends.append(hris.worker_clone().infer_routes)
    return backends


class _Saturated(Exception):
    """Admission refused: queue or in-flight limit reached."""


class _Draining(Exception):
    """Admission refused: the gateway is draining."""


@dataclass(slots=True)
class _Job:
    key: tuple
    trajectory: Trajectory
    k: Optional[int]
    future: asyncio.Future


class InferenceGateway:
    """HTTP/JSON gateway over a pool of inference backends.

    Args:
        backends: One callable per worker task (see :func:`hris_backends`).
            Each backend is only ever invoked by its own worker, one job
            at a time, on an executor thread.
        config: Serving tunables.

    Two lifecycles:

    * :meth:`run` — serve on the calling thread until SIGTERM/SIGINT,
      then drain (the ``repro serve`` CLI path);
    * :meth:`start` / :meth:`stop` — serve from a daemon thread
      (tests, benchmarks, the docs walkthrough).
    """

    def __init__(
        self,
        backends: Sequence[InferenceBackend],
        config: GatewayConfig = GatewayConfig(),
    ) -> None:
        if not backends:
            raise ValueError("the gateway needs at least one inference backend")
        self._backends = list(backends)
        self._config = config
        self._metrics = GatewayMetrics(config.latency_window)
        self._address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        # Event-loop state, created inside _main:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._pending: Dict[tuple, asyncio.Future] = {}
        self._admitted = 0
        self._draining = False
        # writer -> busy flag; busy connections finish their request on drain.
        self._connections: Dict[asyncio.StreamWriter, bool] = {}
        self._conn_tasks: set = set()

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; available once serving."""
        if self._address is None:
            raise RuntimeError("the gateway is not serving")
        return self._address

    def run(self, announce: Optional[Callable[[Tuple[str, int]], None]] = None) -> None:
        """Serve on this thread until SIGTERM/SIGINT triggers a drain.

        Args:
            announce: Called with the bound address once listening
                (the CLI prints it).
        """

        def on_ready(address: Tuple[str, int]) -> None:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._drain_event.set)
                except (NotImplementedError, ValueError, RuntimeError):
                    pass  # non-main thread / platform without signal support
            if announce is not None:
                announce(address)

        asyncio.run(self._main(on_ready))

    def start(self, timeout_s: float = 10.0) -> Tuple[str, int]:
        """Serve from a daemon thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("the gateway is already running")
        ready = threading.Event()
        startup_error: List[BaseException] = []

        def runner() -> None:
            try:
                asyncio.run(self._main(lambda _addr: ready.set()))
            except BaseException as exc:  # surface bind errors to start()
                startup_error.append(exc)
                ready.set()

        self._thread = threading.Thread(
            target=runner, name="repro-gateway", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout_s):
            raise RuntimeError("gateway did not start in time")
        if startup_error:
            self._thread.join()
            self._thread = None
            raise startup_error[0]
        return self.address

    def begin_drain(self) -> None:
        """Trigger the drain sequence from any thread (idempotent)."""
        loop, event = self._loop, self._drain_event
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    def stop(self, timeout_s: Optional[float] = None) -> None:
        """Drain a :meth:`start`-ed gateway and join its thread."""
        thread = self._thread
        if thread is None:
            return
        self.begin_drain()
        thread.join(timeout_s if timeout_s is not None else self._config.drain_grace_s + 10.0)
        self._thread = None

    # ------------------------------------------------------------ event loop

    async def _main(self, on_ready: Callable[[Tuple[str, int]], None]) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._drain_event = asyncio.Event()
        self._draining = False
        executor = ThreadPoolExecutor(
            max_workers=len(self._backends), thread_name_prefix="gateway-infer"
        )
        server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        workers = [
            self._loop.create_task(self._worker(i, executor))
            for i in range(len(self._backends))
        ]
        on_ready(self._address)
        try:
            await self._drain_event.wait()
        finally:
            # ---- graceful drain: stop intake, finish admitted work ----
            self._draining = True
            server.close()
            await server.wait_closed()
            # Idle keep-alive connections are parked in read_request;
            # closing the transport gives their loops a clean EOF.  Busy
            # ones finish the current request (responses say close).
            for writer, busy in list(self._connections.items()):
                if not busy:
                    writer.close()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._queue.join(), timeout=self._config.drain_grace_s
                )
            for _ in workers:
                self._queue.put_nowait(None)
            await asyncio.gather(*workers, return_exceptions=True)
            if self._conn_tasks:  # let handlers flush their final responses
                await asyncio.wait(
                    list(self._conn_tasks), timeout=self._config.drain_grace_s
                )
            for writer in list(self._connections):
                writer.close()
            executor.shutdown(wait=True)
            self._loop = None

    async def _worker(self, index: int, executor: ThreadPoolExecutor) -> None:
        backend = self._backends[index]
        while True:
            job = await self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                result = await self._loop.run_in_executor(
                    executor, _run_inference, backend, job.trajectory, job.k
                )
            except Exception as exc:
                if not job.future.done():
                    job.future.set_exception(exc)
                    job.future.exception()  # handlers re-raise on await
            else:
                if not job.future.done():
                    job.future.set_result(result)
            finally:
                self._pending.pop(job.key, None)
                self._admitted -= 1
                self._queue.task_done()

    # ------------------------------------------------------------ admission

    def _submit(self, trajectory: Trajectory, k: Optional[int]):
        """Admit one job, or attach to an identical in-flight one.

        Returns ``(future, coalesced)``.  Raises :class:`_Saturated` /
        :class:`_Draining` when admission refuses new work — followers
        of an in-flight computation are never refused, they add none.
        """
        key = (tuple((p.point.x, p.point.y, p.t) for p in trajectory.points), k)
        future = self._pending.get(key)
        if future is not None:
            return future, True
        if self._draining:
            raise _Draining()
        if (
            self._admitted >= self._config.max_inflight
            or self._queue.qsize() >= self._config.max_queue
        ):
            raise _Saturated()
        future = self._loop.create_future()
        self._pending[key] = future
        self._admitted += 1
        self._queue.put_nowait(_Job(key, trajectory, k, future))
        return future, False

    def _submit_batch(self, parsed: List[Tuple[Trajectory, Optional[int]]]):
        """Admit a batch atomically: all queries or a single 429.

        Duplicates — within the batch or against in-flight work — are
        coalesced first, so only genuinely new jobs count against the
        limits.
        """
        keys = [
            (tuple((p.point.x, p.point.y, p.t) for p in traj.points), k)
            for traj, k in parsed
        ]
        new_keys = {
            key for key in keys if key not in self._pending
        }
        if new_keys:
            if self._draining:
                raise _Draining()
            if (
                self._admitted + len(new_keys) > self._config.max_inflight
                or self._queue.qsize() + len(new_keys) > self._config.max_queue
            ):
                raise _Saturated()
        futures: List[Tuple[asyncio.Future, bool]] = []
        for key, (traj, k) in zip(keys, parsed):
            futures.append(self._submit(traj, k))
        return futures

    # ------------------------------------------------------------ endpoints

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._connections[writer] = False
        try:
            while not self._draining:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    # Framing is unrecoverable: answer and drop the socket.
                    with contextlib.suppress(ConnectionError):
                        await write_response(
                            writer,
                            json_response(
                                exc.status, {"error": str(exc)}, close=True
                            ),
                        )
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                self._connections[writer] = True
                try:
                    response = await self._dispatch(request)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # handler bug: never kill the loop
                    response = json_response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}, close=True
                    )
                if self._draining or not request.keep_alive:
                    response.close = True
                try:
                    await write_response(writer, response)
                except (ConnectionError, RuntimeError):
                    return
                self._connections[writer] = False
                if response.close:
                    return
        finally:
            self._connections.pop(writer, None)
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: Request) -> Response:
        start = time.perf_counter()
        metric_key = request.path if request.path in KNOWN_PATHS else "other"
        endpoint = self._metrics.endpoint(metric_key)
        coalesced = False
        try:
            if request.path == "/healthz" and request.method == "GET":
                response = self._healthz_response()
            elif request.path == "/metrics" and request.method == "GET":
                response = self._metrics_response()
            elif request.path == "/v1/infer" and request.method == "POST":
                response, coalesced = await self._infer_one(request)
            elif request.path == "/v1/infer_batch" and request.method == "POST":
                response, coalesced = await self._infer_batch(request)
            elif request.path in KNOWN_PATHS:
                response = json_response(
                    405, {"error": f"{request.method} not allowed on {request.path}"}
                )
            else:
                response = json_response(
                    404, {"error": f"no such endpoint {request.path!r}"}
                )
        except HttpError as exc:
            response = json_response(exc.status, {"error": str(exc)})
        endpoint.record(response.status, time.perf_counter() - start, coalesced)
        return response

    async def _infer_one(self, request: Request) -> Tuple[Response, bool]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "expected a JSON object body")
        trajectory, k = _parse_query(payload.get("query"), payload.get("k"))
        try:
            future, coalesced = self._submit(trajectory, k)
        except _Saturated:
            return self._shed_response(), False
        except _Draining:
            return self._drain_refusal(), False
        try:
            routes = await asyncio.shield(future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            return (
                json_response(500, {"error": f"{type(exc).__name__}: {exc}"}),
                coalesced,
            )
        return (
            json_response(
                200, {"k": k, "routes": routes, "coalesced": coalesced}
            ),
            coalesced,
        )

    async def _infer_batch(self, request: Request) -> Tuple[Response, bool]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "expected a JSON object body")
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise HttpError(400, "'queries' must be a non-empty list")
        if len(queries) > self._config.max_batch:
            raise HttpError(
                400,
                f"batch of {len(queries)} exceeds max_batch="
                f"{self._config.max_batch}",
            )
        default_k = payload.get("k")
        parsed = [_parse_query(entry, default_k) for entry in queries]
        try:
            futures = self._submit_batch(parsed)
        except _Saturated:
            return self._shed_response(), False
        except _Draining:
            return self._drain_refusal(), False
        results = []
        any_coalesced = False
        for future, coalesced in futures:
            any_coalesced = any_coalesced or coalesced
            try:
                routes = await asyncio.shield(future)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                results.append(
                    {"error": f"{type(exc).__name__}: {exc}", "coalesced": coalesced}
                )
            else:
                results.append({"routes": routes, "coalesced": coalesced})
        return (
            json_response(
                200, {"k": default_k, "count": len(results), "results": results}
            ),
            any_coalesced,
        )

    def _healthz_response(self) -> Response:
        status = 503 if self._draining else 200
        return json_response(
            status,
            {
                "status": "draining" if self._draining else "ok",
                "workers": len(self._backends),
                "admitted": self._admitted,
                "queued": self._queue.qsize() if self._queue else 0,
            },
        )

    def _metrics_response(self) -> Response:
        gauges = {
            "workers": len(self._backends),
            "admitted": self._admitted,
            "queued": self._queue.qsize() if self._queue else 0,
            "inflight_keys": len(self._pending),
            "connections": len(self._connections),
            "draining": self._draining,
            "max_inflight": self._config.max_inflight,
            "max_queue": self._config.max_queue,
        }
        payload = self._metrics.snapshot(gauges)
        engine = self._engine_stats()
        if engine is not None:
            payload["engine"] = engine
        archive = self._archive_stats()
        if archive is not None:
            payload["archive"] = archive
        return json_response(200, payload)

    def _engine_stats(self) -> Optional[Dict[str, float]]:
        """Routing-engine counters summed across every HRIS-backed worker.

        Each backend of :func:`hris_backends` is a bound ``infer_routes``
        method, so its ``__self__`` reaches the worker's HRIS and its
        engine: settled nodes, cache hit/miss/evictions and oracle sweeps
        land on ``/metrics`` next to the latency percentiles.
        Backends that are not HRIS-bound (e.g. test stubs) contribute
        nothing; with no instrumented backend at all the key is omitted.
        """
        totals: Optional[Dict[str, float]] = None
        for backend in self._backends:
            owner = getattr(backend, "__self__", None)
            engine = getattr(owner, "engine", None)
            if engine is None:
                continue
            counters = engine.stats().as_dict()
            if totals is None:
                totals = dict(counters)
            else:
                for key, value in counters.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def _archive_stats(self) -> Optional[dict]:
        """Archive-backend snapshot for the fleet behind this gateway.

        Mirrors :meth:`_engine_stats` one layer down: each HRIS-bound
        backend reaches its archive, whose ``backend_stats()`` carries the
        replication-health, WAL durability (appends, fsyncs, compactions,
        unflushed records) and log catch-up counters of the remote
        backend.  Workers normally share one archive object — duplicates
        are reported once; with several distinct archives the snapshots
        are listed under ``"archives"``.  Non-HRIS backends contribute
        nothing; with none at all the key is omitted.
        """
        seen: Dict[int, dict] = {}
        for backend in self._backends:
            owner = getattr(backend, "__self__", None)
            archive = getattr(owner, "archive", None)
            stats = getattr(archive, "backend_stats", None)
            if stats is None or id(archive) in seen:
                continue
            seen[id(archive)] = stats()
        if not seen:
            return None
        snapshots = list(seen.values())
        return snapshots[0] if len(snapshots) == 1 else {"archives": snapshots}

    def _shed_response(self) -> Response:
        retry = str(max(1, math.ceil(self._config.retry_after_s)))
        return json_response(
            429,
            {
                "error": "admission queue full",
                "retry_after_s": self._config.retry_after_s,
            },
            headers={"Retry-After": retry},
        )

    def _drain_refusal(self) -> Response:
        retry = str(max(1, math.ceil(self._config.retry_after_s)))
        return json_response(
            503,
            {"error": "gateway is draining"},
            headers={"Retry-After": retry},
            close=True,
        )


def _parse_query(entry, k) -> Tuple[Trajectory, Optional[int]]:
    """Validate one query payload into ``(trajectory, k)``.

    Accepts the :func:`~repro.trajectory.io.trajectory_to_dict` shape
    (``{"id": ..., "points": [[x, y, t], ...]}``, id optional) or a bare
    point list.  Raises :class:`HttpError` 400 on anything malformed —
    bad payloads must never reach the admission queue.
    """
    if k is not None:
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_K:
            raise HttpError(400, f"'k' must be an integer in [1, {MAX_K}]")
    if isinstance(entry, list):
        entry = {"id": 0, "points": entry}
    if not isinstance(entry, dict):
        raise HttpError(400, "each query must be an object or a point list")
    record = {"id": entry.get("id", 0), "points": entry.get("points")}
    if not isinstance(record["points"], list):
        raise HttpError(400, "a query needs a 'points' list of [x, y, t] rows")
    try:
        trajectory = trajectory_from_dict(record)
    except (ValueError, TypeError) as exc:
        raise HttpError(400, f"bad query trajectory: {exc}")
    if len(trajectory) < 2:
        raise HttpError(400, "a query needs at least two points")
    return trajectory, k


def _run_inference(
    backend: InferenceBackend, trajectory: Trajectory, k: Optional[int]
) -> List[dict]:
    """Executor-thread entry: run one inference, shape the JSON payload.

    The payload is built once here so coalesced followers share the
    serialisation too.  ``json`` round-trips the float scores exactly,
    which is what keeps served results bit-identical to direct calls.
    """
    routes = backend(trajectory, k)
    return [
        {"log_score": g.log_score, "segments": list(g.route.segment_ids)}
        for g in routes
    ]
