"""The ``repro serve`` daemon: long-lived verification as a service.

Architecture (the sst-sat exemplar's composable long-lived components,
minus the clock — each component is a supervised thread with an
explicit liveness beat):

* **ingest front-end** — one thread multiplexing the Unix-socket
  listener and its connections through a ``selectors`` loop (or, in
  ``--stdio`` mode, reading the pipe); feeds every connection's bytes
  to an incremental :class:`~repro.service.protocol.RequestParser`, so
  malformed or oversized requests are refused with byte-offset
  diagnostics without ever taking the daemon down;
* **bounded queue** — admission control with explicit backpressure
  (:mod:`repro.service.queue`): overload answers ``RETRY_AFTER`` in
  one round-trip, per-tenant share caps keep one flooder from
  occupying the queue;
* **worker pool** — N threads draining same-tenant/same-options
  batches into :func:`repro.engine.batch.verify_many`, so concurrent
  duplicate requests are canonicalized, deduplicated and solved once;
  worker-process crash recovery, deadlines and fault injection ride
  the engine's existing :class:`ResiliencePolicy`;
* **tenant stores** — per-client namespaces with independent LRU
  quotas (:mod:`repro.service.tenants`);
* **heartbeat** — periodic liveness/readiness beats carrying the
  queue, worker and engine counters (also served to any client via the
  ``ping`` op);
* **supervisor** — restarts components whose threads die, with capped
  exponential backoff, and replaces wedged workers.

Degradation discipline: every admitted request is answered exactly
once, and every degraded answer is *machine-readable and sound* — a
``RETRY_AFTER``, an ``error`` with a byte offset, or an UNKNOWN whose
``unknown_reason`` names the cause (``crashed``, ``timeout``,
``shutdown``); never a guessed verdict.  On SIGTERM the server drains:
the queue is rejected with UNKNOWN(shutdown), in-flight requests get
``drain_grace_s`` to finish, stragglers are answered UNKNOWN(shutdown)
and their late results discarded (a response is sent exactly once).
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, BinaryIO, Callable

from repro.core.serialize import parse_trace_bytes
from repro.engine.batch import verify_many
from repro.engine.executor import ResiliencePolicy
from repro.service import protocol
from repro.service.protocol import (
    ParseError,
    RequestParser,
    ServiceRequest,
    encode_response,
    response_error,
    response_for_outcome,
    response_retry_after,
    response_shutdown,
)
from repro.service.queue import (
    ADMITTED,
    REJECT_DRAINING,
    REJECT_FULL,
    REJECT_TENANT,
    BoundedRequestQueue,
)
from repro.service.tenants import TenantLimitError, TenantStores

#: Same-options requests gulped per worker batch (mirrors the batch
#: engine's chunk size, so one ``verify_many`` call sees a dedupable
#: group).
BATCH_WINDOW = 8

_RECV_CHUNK = 1 << 16


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune (see the CLI flags)."""

    socket_path: str | None = None
    stdio: bool = False
    #: Injected pipe ends for tests; default sys.stdin/stdout buffers.
    stdin: BinaryIO | None = None
    stdout: BinaryIO | None = None
    workers: int = 2
    queue_depth: int = 64
    tenant_share: float = 0.5
    max_request_bytes: int = protocol.MAX_REQUEST_BYTES
    store_root: str | None = None
    store_quota_mb: float | None = None
    max_tenants: int = 64
    certify: str = "off"
    prepass: bool = True
    portfolio: Any = True
    resilience: ResiliencePolicy | None = None
    drain_grace_s: float = 5.0
    heartbeat_s: float = 0.0
    send_timeout_s: float = 5.0
    retry_after_s: float = 0.5
    supervisor_poll_s: float = 0.05
    worker_wedge_s: float = 30.0
    max_backoff_s: float = 2.0
    on_heartbeat: Callable[[dict[str, Any]], None] | None = None


@dataclass
class ServiceStats:
    connections: int = 0
    requests: int = 0
    ok: int = 0
    errors: int = 0
    retry_after: int = 0
    shutdown: int = 0
    parse_errors: int = 0
    #: Responses dropped by injected ``conn-drop`` chaos.
    conn_drops: int = 0
    #: Connections closed because the client would not drain its
    #: responses within ``send_timeout_s``.
    slow_client_drops: int = 0
    #: Component restarts by the supervisor.
    restarts: int = 0
    #: Wedged workers replaced by the supervisor.
    replaced_workers: int = 0
    batches: int = 0
    certified: int = 0
    #: Aggregated batch-engine provenance (solved / memory / store /
    #: dedup counts across every answered request).
    provenance: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "retry_after": self.retry_after,
            "shutdown": self.shutdown,
            "parse_errors": self.parse_errors,
            "conn_drops": self.conn_drops,
            "slow_client_drops": self.slow_client_drops,
            "restarts": self.restarts,
            "replaced_workers": self.replaced_workers,
            "batches": self.batches,
            "certified": self.certified,
            "provenance": dict(self.provenance),
        }


# ---------------------------------------------------------------------
# Connections
# ---------------------------------------------------------------------
class _BaseConn:
    """Shared bookkeeping: a parser, a send lock, and an outstanding
    count so a connection is only torn down after its last response."""

    def __init__(self, server: "VerificationServer", source: str):
        self.server = server
        self.source = source
        self.parser = RequestParser(
            server.config.max_request_bytes, source=source
        )
        self.open = True
        self.eof = False
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._outstanding = 0

    def note_pending(self) -> None:
        with self._state_lock:
            self._outstanding += 1

    def note_done(self) -> None:
        with self._state_lock:
            self._outstanding -= 1
            closeable = self.eof and self._outstanding <= 0
        if closeable:
            self.close()

    @property
    def outstanding(self) -> int:
        with self._state_lock:
            return self._outstanding

    def send_line(self, payload: dict[str, Any]) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _SocketConn(_BaseConn):
    """One accepted Unix-socket connection (non-blocking for reads;
    sends run a bounded retry loop so a slow client stalls at most
    ``send_timeout_s`` before being dropped, never a worker forever)."""

    def __init__(self, server: "VerificationServer", sock: socket.socket,
                 cid: int):
        super().__init__(server, f"<conn {cid}>")
        self.sock = sock
        sock.setblocking(False)

    def send_line(self, payload: dict[str, Any]) -> bool:
        data = encode_response(payload)
        deadline = time.monotonic() + self.server.config.send_timeout_s
        with self._send_lock:
            if not self.open:
                return False
            try:
                while data:
                    try:
                        sent = self.sock.send(data)
                        data = data[sent:]
                    except (BlockingIOError, InterruptedError):
                        if time.monotonic() >= deadline:
                            self.server.stats.slow_client_drops += 1
                            self._abort()
                            return False
                        time.sleep(0.002)
            except OSError:
                self._abort()
                return False
        return True

    def _abort(self) -> None:
        """Give up on this client: shut the socket down so the ingest
        selector sees EOF and reaps it (closing the fd from a worker
        thread would race the selector)."""
        self.open = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        self.open = False
        try:
            self.sock.close()
        except OSError:
            pass


class _StdioConn(_BaseConn):
    """The pipe pair of ``--stdio`` mode."""

    def __init__(self, server: "VerificationServer", out: BinaryIO):
        super().__init__(server, "<stdin>")
        self.out = out

    def send_line(self, payload: dict[str, Any]) -> bool:
        with self._send_lock:
            if not self.open:
                return False
            try:
                self.out.write(encode_response(payload))
                self.out.flush()
            except (OSError, ValueError):
                self.open = False
                return False
        return True

    def close(self) -> None:
        self.open = False


class PendingRequest:
    """One admitted verify request; answered exactly once.

    The once-guard is what makes drain sound: when the coordinator
    answers UNKNOWN(shutdown) for a straggler, the worker's late result
    is discarded here instead of producing a second, contradictory
    response on the wire.
    """

    __slots__ = ("req", "conn", "_lock", "_done")

    def __init__(self, req: ServiceRequest, conn: _BaseConn):
        self.req = req
        self.conn = conn
        self._lock = threading.Lock()
        self._done = False

    @property
    def responded(self) -> bool:
        with self._lock:
            return self._done

    def respond(
        self, server: "VerificationServer", payload: dict[str, Any]
    ) -> bool:
        """Send ``payload`` unless a response already went out; returns
        whether *this* call won the race to answer."""
        with self._lock:
            if self._done:
                return False
            self._done = True
        chaos = server.chaos
        if chaos is not None and chaos.drops_connection(str(self.req.id)):
            # The injected fault: the client's connection dies before
            # the response is written.  The daemon survives; nothing
            # wrong ever reaches the wire.
            server.stats.conn_drops += 1
            if isinstance(self.conn, _SocketConn):
                self.conn._abort()
            self.conn.note_done()
            server.count_response(payload)
            return True
        self.conn.send_line(payload)
        self.conn.note_done()
        server.count_response(payload)
        return True


# ---------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------
class Component:
    """A supervised long-lived thread with a liveness beat."""

    def __init__(self, name: str, server: "VerificationServer"):
        self.name = name
        self.server = server
        self.thread: threading.Thread | None = None
        self.restarts = 0
        self.beat = time.monotonic()
        self.busy = False
        self.crashed: str | None = None
        self.replaced = False
        self._next_restart_at = 0.0

    def start(self) -> None:
        self.beat = time.monotonic()
        self.crashed = None
        thread = threading.Thread(
            target=self._guard, name=f"repro-serve-{self.name}", daemon=True
        )
        thread.start()
        # Published only once started: a concurrent drain joins
        # ``self.thread``, and joining an unstarted thread raises.
        self.thread = thread

    def _guard(self) -> None:
        try:
            self.run()
        except Exception as e:  # noqa: BLE001 — the supervisor restarts
            self.crashed = f"{type(e).__name__}: {e}"
            self.server.diagnostics.append(
                f"component {self.name} died: {self.crashed}"
            )

    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()

    def tick(self) -> None:
        self.beat = time.monotonic()

    def run(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _SocketFrontend(Component):
    def __init__(self, server: "VerificationServer"):
        super().__init__("frontend", server)

    def run(self) -> None:
        server = self.server
        sel = selectors.DefaultSelector()
        listener = server.listener
        assert listener is not None
        sel.register(listener, selectors.EVENT_READ, None)
        try:
            while not server.stopping.is_set():
                for key, _mask in sel.select(timeout=0.05):
                    if key.data is None:
                        self._accept(sel, listener)
                    else:
                        self._service(sel, key.data)
                self.tick()
        finally:
            sel.close()

    def _accept(self, sel, listener: socket.socket) -> None:
        server = self.server
        try:
            sock, _addr = listener.accept()
        except (BlockingIOError, OSError):
            return
        server.stats.connections += 1
        conn = _SocketConn(server, sock, server.stats.connections)
        sel.register(sock, selectors.EVENT_READ, conn)

    def _service(self, sel, conn: _SocketConn) -> None:
        server = self.server
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if data:
            conn.parser.feed(data)
            server.handle_events(conn, conn.parser.events())
            return
        # EOF (or an aborted socket): finalize the parser — this is
        # where a raw REPROBIN request completes, and where a writer
        # dying mid-frame earns its byte-offset diagnostic.
        conn.eof = True
        try:
            sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        server.handle_events(conn, conn.parser.eof())
        if conn.outstanding <= 0:
            conn.close()


class _StdioFrontend(Component):
    def __init__(self, server: "VerificationServer", conn: _StdioConn,
                 fh: BinaryIO):
        super().__init__("frontend", server)
        self.conn = conn
        self.fh = fh
        self._saw_eof = False

    def run(self) -> None:
        server = self.server
        fd = self.fh.fileno()
        while not server.stopping.is_set() and not self._saw_eof:
            self.tick()
            try:
                data = os.read(fd, _RECV_CHUNK)
            except OSError:
                data = b""
            if data:
                self.conn.parser.feed(data)
                server.handle_events(self.conn, self.conn.parser.events())
                continue
            self._saw_eof = True
            self.conn.eof = True
            server.handle_events(self.conn, self.conn.parser.eof())
        # End of input: wait for the in-flight work to answer, then
        # drain — pipe mode serves one client, and it hung up.
        while not server.stopping.is_set():
            self.tick()
            if (
                self.conn.outstanding <= 0
                and len(server.queue) == 0
                and not server.has_active()
            ):
                break
            time.sleep(0.02)
        server.request_drain("end of input")


class _Worker(Component):
    def run(self) -> None:
        server = self.server
        while not server.stop_workers.is_set():
            self.tick()
            batch = server.queue.take_batch(
                BATCH_WINDOW,
                timeout=0.1,
                same=lambda p: (
                    p.req.tenant, p.req.certify, p.req.deadline_s
                ),
            )
            if not batch:
                continue
            self.busy = True
            try:
                server.solve_batch(batch)
            finally:
                self.busy = False


class _Heartbeat(Component):
    def __init__(self, server: "VerificationServer"):
        super().__init__("heartbeat", server)

    def run(self) -> None:
        server = self.server
        period = server.config.heartbeat_s
        last_emit = time.monotonic()
        while not server.stopping.is_set():
            self.tick()
            now = time.monotonic()
            if (
                period > 0
                and server.config.on_heartbeat is not None
                and now - last_emit >= period
            ):
                last_emit = now
                try:
                    server.config.on_heartbeat(server.status())
                except Exception:  # noqa: BLE001 — a sink must not kill us
                    pass
            time.sleep(min(0.05, period) if period > 0 else 0.05)


class _Supervisor(Component):
    """Restart dead components (capped exponential backoff); replace
    wedged workers.  A Python thread cannot be killed, so a wedged
    worker is *superseded* — a fresh worker keeps the pool serving
    while the stuck one either finishes late (its response is dropped
    by the once-guard if drain answered first) or sits out."""

    def __init__(self, server: "VerificationServer"):
        super().__init__("supervisor", server)

    def run(self) -> None:
        server = self.server
        cfg = server.config
        while not server.stopping.is_set():
            self.tick()
            now = time.monotonic()
            for comp in server.supervised():
                if comp.replaced:
                    continue
                if not comp.alive():
                    if comp._next_restart_at == 0.0:
                        delay = min(
                            cfg.max_backoff_s, 0.05 * (2 ** comp.restarts)
                        )
                        comp._next_restart_at = now + delay
                    elif now >= comp._next_restart_at:
                        comp._next_restart_at = 0.0
                        comp.restarts += 1
                        server.stats.restarts += 1
                        comp.start()
                elif (
                    isinstance(comp, _Worker)
                    and comp.busy
                    and now - comp.beat > cfg.worker_wedge_s
                ):
                    comp.replaced = True
                    server.stats.replaced_workers += 1
                    server.diagnostics.append(
                        f"worker {comp.name} wedged for "
                        f"{now - comp.beat:.1f}s; superseded"
                    )
                    server.add_worker()
            time.sleep(cfg.supervisor_poll_s)


# ---------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------
class VerificationServer:
    """The daemon: construct with a :class:`ServiceConfig`, then
    :meth:`start`; :meth:`serve_forever` blocks until a drain
    completes (SIGTERM/SIGINT, a client ``drain`` op, stdin EOF, or
    :meth:`stop`)."""

    def __init__(self, config: ServiceConfig):
        if bool(config.socket_path) == bool(config.stdio):
            raise ValueError(
                "exactly one of socket_path / stdio must be set"
            )
        self.config = config
        self.stats = ServiceStats()
        self.diagnostics: list[str] = []
        self.chaos = (
            config.resilience.chaos
            if config.resilience is not None else None
        )
        self.queue = BoundedRequestQueue(
            config.queue_depth, config.tenant_share
        )
        self.tenants = TenantStores(
            config.store_root,
            quota_mb=config.store_quota_mb,
            chaos=self.chaos,
            max_tenants=config.max_tenants,
        )
        self.listener: socket.socket | None = None
        self.stopping = threading.Event()
        self.stop_workers = threading.Event()
        self.draining = threading.Event()
        self._done = threading.Event()
        self._active: set[PendingRequest] = set()
        self._active_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._components: list[Component] = []
        self._drain_reason = ""
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        cfg = self.config
        self.started_at = time.monotonic()
        if cfg.socket_path:
            if os.path.exists(cfg.socket_path):
                os.unlink(cfg.socket_path)
            self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.listener.bind(cfg.socket_path)
            self.listener.listen(64)
            self.listener.setblocking(False)
            self.frontend: Component = _SocketFrontend(self)
        else:
            import sys

            out = cfg.stdout if cfg.stdout is not None else sys.stdout.buffer
            fh = cfg.stdin if cfg.stdin is not None else sys.stdin.buffer
            self._stdio_conn = _StdioConn(self, out)
            self.frontend = _StdioFrontend(self, self._stdio_conn, fh)
        self._components = [self.frontend]
        for _ in range(cfg.workers):
            self.add_worker(start_now=False)
        self.heartbeat = _Heartbeat(self)
        self._components.append(self.heartbeat)
        self.supervisor = _Supervisor(self)
        for comp in self._components:
            comp.start()
        self.supervisor.start()

    def add_worker(self, start_now: bool = True) -> None:
        worker = _Worker(f"worker-{len(self._workers)}", self)
        self._workers.append(worker)
        self._components.append(worker)
        if start_now:
            worker.start()

    def supervised(self) -> list[Component]:
        return list(self._components)

    def serve_forever(self, install_signals: bool = True) -> int:
        if (
            install_signals
            and threading.current_thread() is threading.main_thread()
        ):
            for sig in (signal.SIGTERM, signal.SIGINT):
                signal.signal(
                    sig,
                    lambda s, _f: self.request_drain(
                        f"signal {signal.Signals(s).name}"
                    ),
                )
        self._done.wait()
        return 0

    def request_drain(self, reason: str) -> None:
        """Begin a graceful drain (idempotent, non-blocking)."""
        if self.draining.is_set():
            return
        self.draining.set()
        self._drain_reason = reason
        threading.Thread(
            target=self._drain, args=(reason,),
            name="repro-serve-drain", daemon=True,
        ).start()

    def _drain(self, reason: str) -> None:
        # 1. Reject the queue: queued-but-unstarted work is answered
        #    UNKNOWN(shutdown) immediately, never silently dropped.
        for pending in self.queue.drain():
            pending.respond(
                self, response_shutdown(
                    pending.req.id, f"queued at drain ({reason})"
                )
            )
        # 2. Give in-flight solves the grace window.
        deadline = time.monotonic() + max(0.0, self.config.drain_grace_s)
        while time.monotonic() < deadline:
            if not self.has_active() and len(self.queue) == 0:
                break
            time.sleep(0.01)
        # 3. Stragglers: answer UNKNOWN(shutdown) now; the once-guard
        #    discards their late results.
        with self._active_lock:
            leftovers = list(self._active)
        for pending in leftovers:
            pending.respond(
                self, response_shutdown(
                    pending.req.id,
                    f"in flight past drain grace ({reason})",
                )
            )
        # 4. Stop components, persist stores, release the socket.
        self.stop_workers.set()
        self.queue.wake_all()
        self.stopping.set()
        for comp in self.supervised() + [self.supervisor]:
            thread = comp.thread
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=2.0)
        try:
            self.tenants.close_all()
        except Exception as e:  # noqa: BLE001 — drain must complete
            self.diagnostics.append(f"store flush at drain failed: {e}")
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
            if self.config.socket_path and os.path.exists(
                self.config.socket_path
            ):
                try:
                    os.unlink(self.config.socket_path)
                except OSError:
                    pass
        self._done.set()

    def stop(self, reason: str = "stop()") -> None:
        self.request_drain(reason)
        self.wait()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    @property
    def drained(self) -> bool:
        return self._done.is_set()

    @property
    def drain_reason(self) -> str:
        return self._drain_reason

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def handle_events(self, conn: _BaseConn, events) -> None:
        for kind, payload in events:
            if kind == "error":
                self._handle_parse_error(conn, payload)
            else:
                self.submit(conn, payload)

    def _handle_parse_error(self, conn: _BaseConn, perr: ParseError) -> None:
        self.stats.parse_errors += 1
        self.stats.errors += 1
        conn.send_line(
            response_error(perr.req_id, perr.message, perr.offset)
        )
        if perr.fatal and isinstance(conn, _SocketConn):
            conn._abort()

    def submit(self, conn: _BaseConn, req: ServiceRequest) -> None:
        self.stats.requests += 1
        if req.op in ("ping", "stats"):
            payload: dict[str, Any] = {
                "id": req.id, "status": protocol.STATUS_OK, "code": 0,
                "op": req.op,
            }
            payload.update(self.status())
            if req.op == "stats":
                payload["tenants"] = self.tenants.stats()
                payload["quota"] = self.tenants.quota_report()
            conn.send_line(payload)
            return
        if req.op == "drain":
            conn.send_line({
                "id": req.id, "status": protocol.STATUS_OK, "code": 0,
                "op": "drain", "draining": True,
            })
            self.request_drain(f"drain op from {req.source}")
            return
        # op == "verify"
        pending = PendingRequest(req, conn)
        conn.note_pending()
        if self.draining.is_set():
            pending.respond(
                self, response_shutdown(req.id, "server is draining")
            )
            return
        verdict = self.queue.offer(pending, req.tenant)
        if verdict == ADMITTED:
            return
        if verdict == REJECT_DRAINING:
            pending.respond(
                self, response_shutdown(req.id, "server is draining")
            )
        elif verdict == REJECT_TENANT:
            pending.respond(
                self,
                response_retry_after(
                    req.id, self.config.retry_after_s,
                    f"tenant {req.tenant!r} share of the queue is full "
                    f"({self.queue.tenant_cap} pending)",
                ),
            )
        else:  # REJECT_FULL
            pending.respond(
                self,
                response_retry_after(
                    req.id, self.config.retry_after_s,
                    f"queue full ({self.queue.depth} pending)",
                ),
            )

    def has_active(self) -> bool:
        with self._active_lock:
            return bool(self._active)

    def solve_batch(self, batch: list[PendingRequest]) -> None:
        """Decode, dedup and decide one same-options batch; answer
        every request exactly once no matter what fails."""
        with self._active_lock:
            self._active.update(batch)
        self.stats.batches += 1
        pendings: list[PendingRequest] = []
        try:
            executions = []
            for pending in batch:
                req = pending.req
                try:
                    executions.append(
                        parse_trace_bytes(
                            req.trace or b"", f"{req.source}#{req.id}"
                        )
                    )
                    pendings.append(pending)
                except (ValueError, OSError) as e:
                    pending.respond(self, response_error(req.id, str(e)))
            if not pendings:
                return
            req0 = pendings[0].req
            certify = (
                req0.certify if req0.certify is not None
                else self.config.certify
            )
            try:
                cache = self.tenants.get(req0.tenant)
            except (TenantLimitError, ValueError) as e:
                for pending in pendings:
                    pending.respond(
                        self, response_error(pending.req.id, str(e))
                    )
                return
            outcomes = verify_many(
                executions,
                labels=[
                    f"{p.req.source}#{p.req.id}" for p in pendings
                ],
                jobs=1,
                cache=cache,
                resilience=self._policy_for(req0),
                certify=certify,
                prepass=self.config.prepass,
                portfolio=self.config.portfolio,
            )
            for pending, outcome in zip(pendings, outcomes):
                self._count_outcome(outcome)
                pending.respond(
                    self, response_for_outcome(pending.req.id, outcome)
                )
            cache.flush_store()
        except Exception as e:  # noqa: BLE001 — answer, then recover
            for pending in batch:
                if not pending.responded:
                    pending.respond(
                        self,
                        response_error(
                            pending.req.id, f"engine failure: {e}"
                        ),
                    )
            self.diagnostics.append(f"batch failed: {e}")
        finally:
            with self._active_lock:
                self._active.difference_update(batch)

    def _policy_for(self, req: ServiceRequest) -> ResiliencePolicy:
        policy = (
            self.config.resilience
            if self.config.resilience is not None
            else ResiliencePolicy()
        )
        if req.deadline_s is not None:
            timeout = (
                req.deadline_s if policy.timeout is None
                else min(policy.timeout, req.deadline_s)
            )
            policy = replace(policy, timeout=timeout)
        return policy

    def _count_outcome(self, outcome: Any) -> None:
        with self._stats_lock:
            self.stats.certified += outcome.certified
            for kind, n in (outcome.provenance or {}).items():
                self.stats.provenance[kind] = (
                    self.stats.provenance.get(kind, 0) + n
                )

    def count_response(self, payload: dict[str, Any]) -> None:
        status = payload.get("status")
        with self._stats_lock:
            if status == protocol.STATUS_OK:
                self.stats.ok += 1
            elif status == protocol.STATUS_RETRY_AFTER:
                self.stats.retry_after += 1
            elif status == protocol.STATUS_SHUTDOWN:
                self.stats.shutdown += 1
            elif status == protocol.STATUS_ERROR:
                self.stats.errors += 1

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """The liveness/readiness heartbeat payload (also the ``ping``
        response body)."""
        now = time.monotonic()
        workers_alive = sum(
            1 for w in self._workers if not w.replaced and w.alive()
        )
        return {
            "version": protocol.PROTOCOL_VERSION,
            "ready": not self.draining.is_set(),
            "draining": self.draining.is_set(),
            "drain_reason": self._drain_reason,
            "uptime_s": round(now - self.started_at, 3),
            "queue": {
                "depth": len(self.queue),
                "limit": self.queue.depth,
                "tenant_cap": self.queue.tenant_cap,
                **self.queue.stats.as_dict(),
            },
            "workers": {
                "configured": self.config.workers,
                "alive": workers_alive,
                "busy": sum(1 for w in self._workers if w.busy),
                "wedged_replaced": self.stats.replaced_workers,
            },
            "components": {
                comp.name: {
                    "alive": comp.alive(),
                    "beat_age_s": round(now - comp.beat, 3),
                    "restarts": comp.restarts,
                }
                for comp in self.supervised()
            },
            "requests": self.stats.as_dict(),
            "tenants": self.tenants.tenants(),
        }
