"""The daemon itself: end-to-end over a real Unix socket and the
stdio pipe, plus the lifecycle machinery (backpressure, drain
soundness, supervisor restarts, wedged-worker supersession, chaos).

Every test that boots a server drains it — a leaked daemon thread
would poison later tests.
"""

from __future__ import annotations

import io
import json
import os
import socket
import threading
import time

import pytest

from repro.core.serialize_bin import dump_stream, dumps_bin
from repro.engine.chaos import ChaosSpec
from repro.engine.executor import ResiliencePolicy
from repro.service import (
    ServiceClient,
    ServiceConfig,
    VerificationServer,
)
from repro.service.server import PendingRequest, _StdioConn
from repro.service.protocol import ServiceRequest
from tests.conftest import make_coherent_execution

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _wait_for(predicate, timeout=5.0, every=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(every)
    return predicate()


def _slow_start_of(monkeypatch, name, skip=0, delay=0.3):
    """Delay ``Thread.start`` for component ``name`` (after its first
    ``skip`` starts), widening the window in which a component may be
    seen with a thread that exists but has not started.  Returns an
    event set when a delayed start begins."""
    entered = threading.Event()
    real = threading.Thread.start
    seen = [0]

    def start(thread):
        if thread.name == f"repro-serve-{name}":
            seen[0] += 1
            if seen[0] > skip:
                entered.set()
                time.sleep(delay)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return entered


@pytest.fixture
def boot(tmp_path):
    """Factory fixture: boot a socket server, auto-drain at teardown."""
    servers = []

    def _boot(**kw):
        kw.setdefault("socket_path", os.fspath(tmp_path / "repro.sock"))
        kw.setdefault("workers", 2)
        kw.setdefault("drain_grace_s", 2.0)
        srv = VerificationServer(ServiceConfig(**kw))
        srv.start()
        assert _wait_for(
            lambda: os.path.exists(srv.config.socket_path)
        ), "listener socket never appeared"
        servers.append(srv)
        return srv

    yield _boot
    for srv in servers:
        if not srv.drained:
            srv.stop("test teardown")
        assert srv.wait(timeout=10.0), "server failed to drain"


def _client(srv, **kw):
    return ServiceClient(srv.config.socket_path, **kw)


def _execution(seed=3, n_ops=25, nproc=2):
    ex, _ = make_coherent_execution(n_ops, nproc, seed=seed)
    return ex


class TestRequestResponse:
    def test_ping_reports_readiness(self, boot):
        srv = boot()
        with _client(srv) as c:
            status = c.ping()
        assert status["status"] == "ok"
        assert status["ready"] is True
        assert status["workers"]["configured"] == 2
        assert status["queue"]["limit"] == 64
        assert "frontend" in status["components"]

    def test_verify_cold_then_warm(self, boot):
        srv = boot()
        ex = _execution()
        with _client(srv) as c:
            cold = c.verify(ex, certify="strict")
            warm = c.verify(ex, certify="strict")
        assert cold["status"] == "ok"
        assert cold["verdict"] == "holds"
        assert cold["code"] == 0
        assert cold["certified"] >= 1
        assert cold["certificate"] is not None
        assert cold["provenance"].get("solved", 0) >= 1
        # Second hit is served from the tenant's warm cache.
        assert warm["verdict"] == "holds"
        assert warm["provenance"].get("memory", 0) >= 1
        assert warm["certificate"] == cold["certificate"]

    def test_tenants_do_not_share_warmth(self, boot, tmp_path):
        srv = boot(store_root=os.fspath(tmp_path / "stores"))
        ex = _execution(seed=11)
        with _client(srv) as c:
            a = c.verify(ex, tenant="alpha")
            b = c.verify(ex, tenant="beta")
        assert a["verdict"] == b["verdict"]
        # Tenant beta's first look solved from scratch — alpha's cache
        # and store are invisible to it.
        assert b["provenance"].get("memory", 0) == 0
        assert b["provenance"].get("store", 0) == 0
        assert b["provenance"].get("solved", 0) >= 1

    def test_raw_stream_connection(self, boot):
        srv = boot()
        ex, sched = make_coherent_execution(20, 2, seed=4)
        buf = io.BytesIO()
        dump_stream(buf, sched, len(ex.histories), initial=ex.initial,
                    final=ex.final)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10)
            s.connect(srv.config.socket_path)
            blob = buf.getvalue()
            s.sendall(blob[: len(blob) // 2])
            time.sleep(0.05)  # force a fragmented arrival
            s.sendall(blob[len(blob) // 2:])
            line = s.makefile("rb").readline()
        resp = json.loads(line)
        assert resp["status"] == "ok"
        assert resp["verdict"] == "holds"
        assert resp["id"] == "raw-1"

    def test_raw_binary_connection(self, boot):
        srv = boot()
        ex = _execution(seed=5)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10)
            s.connect(srv.config.socket_path)
            s.sendall(dumps_bin(ex))
            s.shutdown(socket.SHUT_WR)  # EOF delimits the request
            line = s.makefile("rb").readline()
        resp = json.loads(line)
        assert resp["status"] == "ok"
        assert resp["verdict"] == "holds"

    def test_malformed_line_keeps_connection_alive(self, boot):
        srv = boot()
        with _client(srv) as c:
            # Establish NDJSON mode, then send a broken line: the
            # parser resyncs to the next newline instead of dying.
            assert c.ping()["status"] == "ok"
            c.sock.sendall(b'{"op": "verify", not json}\n')
            err = c.recv()
            assert err["status"] == "error"
            assert err["code"] == 2
            assert "at byte" in err["reason"]
            # Same connection still serves the next request.
            assert c.ping()["status"] == "ok"
        assert srv.stats.parse_errors >= 1

    def test_writer_dying_mid_frame_gets_offset_diagnostic(self, boot):
        srv = boot()
        ex, sched = make_coherent_execution(20, 2, seed=4)
        buf = io.BytesIO()
        dump_stream(buf, sched, len(ex.histories), initial=ex.initial,
                    final=ex.final)
        blob = buf.getvalue()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10)
            s.connect(srv.config.socket_path)
            s.sendall(blob[:-9])
            s.shutdown(socket.SHUT_WR)  # the "writer" exits mid-frame
            line = s.makefile("rb").readline()
        resp = json.loads(line)
        assert resp["status"] == "error"
        assert resp["code"] == 2
        assert "END frame" in resp["reason"]
        assert "at byte" in resp["reason"]

    def test_undecodable_trace_is_an_error_response(self, boot):
        srv = boot()
        with _client(srv) as c:
            resp = c.verify(trace_bytes=b"complete garbage \x00\x01")
        assert resp["status"] == "error"
        assert resp["code"] == 2

    def test_unknown_framing_closes_connection(self, boot):
        srv = boot()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10)
            s.connect(srv.config.socket_path)
            s.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
            fh = s.makefile("rb")
            resp = json.loads(fh.readline())
            assert resp["status"] == "error"
            assert "unrecognized framing" in resp["reason"]
            # Fatal: the server hangs up after answering.
            assert fh.readline() == b""

    def test_oversized_request_rejected_not_buffered(self, boot):
        srv = boot(max_request_bytes=1024)
        with _client(srv) as c:
            c.sock.sendall(b'{"op": "verify", "trace": "' + b"x" * 4096)
            resp = c.recv()
        assert resp["status"] == "error"
        assert "1024" in resp["reason"]


class TestBackpressure:
    def test_queue_full_answers_retry_after(self, boot):
        # No workers: nothing drains the queue, so the bound is exact.
        srv = boot(workers=0, queue_depth=2, tenant_share=1.0,
                   drain_grace_s=0.0)
        with _client(srv) as c:
            ids = [c.send(ServiceClient.verify_payload(_execution(seed=s)))
                   for s in (1, 2)]
            third = c.request(ServiceClient.verify_payload(_execution(seed=3)))
            assert third["status"] == "retry_after"
            assert third["retry_after_s"] > 0
            assert "queue full" in third["reason"]
            # Drain: both queued requests are answered UNKNOWN(shutdown)
            # — refused loudly, never silently dropped.
            srv.request_drain("test drain")
            answers = [c.recv_for(i) for i in ids]
        for resp in answers:
            assert resp["status"] == "shutdown"
            assert resp["verdict"] == "UNKNOWN"
            assert resp["unknown_reason"] == "shutdown"
            assert resp["code"] == 3
        assert srv.wait(timeout=10)
        assert srv.stats.retry_after == 1
        assert srv.stats.shutdown == 2

    def test_tenant_share_isolates_flooder(self, boot):
        srv = boot(workers=0, queue_depth=8, tenant_share=0.125,
                   drain_grace_s=0.0)  # per-tenant cap = 1
        with _client(srv) as c:
            first = c.send(
                ServiceClient.verify_payload(_execution(seed=1),
                                             tenant="noisy")
            )
            flood = c.request(
                ServiceClient.verify_payload(_execution(seed=2),
                                             tenant="noisy")
            )
            assert flood["status"] == "retry_after"
            assert "noisy" in flood["reason"]
            # A different tenant is still admitted.
            quiet = c.send(
                ServiceClient.verify_payload(_execution(seed=3),
                                             tenant="quiet")
            )
            srv.request_drain("test drain")
            assert c.recv_for(first)["status"] == "shutdown"
            assert c.recv_for(quiet)["status"] == "shutdown"
        assert srv.wait(timeout=10)

    def test_draining_server_refuses_with_shutdown(self, boot):
        srv = boot(workers=0, drain_grace_s=0.0)
        srv.request_drain("early drain")
        assert srv.wait(timeout=10)
        # The socket is gone after a completed drain.
        assert not os.path.exists(srv.config.socket_path)


class TestLifecycle:
    def test_drain_answers_inflight_straggler_unknown(self, boot):
        # A solve stalled by chaos outlives the grace window; the drain
        # coordinator answers UNKNOWN(shutdown) and the once-guard
        # discards the late result.
        policy = ResiliencePolicy(
            chaos=ChaosSpec(stall=1.0, stall_s=1.5, seed=1)
        )
        srv = boot(workers=1, drain_grace_s=0.05, resilience=policy)
        with _client(srv) as c:
            req_id = c.send(ServiceClient.verify_payload(_execution()))
            assert _wait_for(srv.has_active), "solve never started"
            srv.request_drain("test sigterm")
            resp = c.recv_for(req_id)
        assert resp["status"] == "shutdown"
        assert resp["verdict"] == "UNKNOWN"
        assert resp["unknown_reason"] == "shutdown"
        assert "grace" in resp["reason"]
        assert srv.wait(timeout=10)

    def test_drain_op_over_the_wire(self, boot):
        srv = boot()
        with _client(srv) as c:
            resp = c.drain()
            assert resp["draining"] is True
        assert srv.wait(timeout=10)
        assert "drain op" in srv.drain_reason

    def test_responses_sent_exactly_once(self, boot):
        srv = boot(workers=0, drain_grace_s=0.0)
        sent = []

        class _Conn(_StdioConn):
            def send_line(self, payload):
                sent.append(payload)
                return True

        conn = _Conn(srv, out=io.BytesIO())
        pending = PendingRequest(
            ServiceRequest(id="once", trace=b"x"), conn
        )
        conn.note_pending()
        assert pending.respond(srv, {"status": "ok", "id": "once"})
        assert not pending.respond(srv, {"status": "shutdown"})
        assert len(sent) == 1

    def test_supervisor_restarts_dead_component(self, boot):
        from repro.service.server import Component

        srv = boot(supervisor_poll_s=0.02)

        class _Flaky(Component):
            def __init__(self, server):
                super().__init__("flaky", server)
                self.runs = 0

            def run(self):
                self.runs += 1
                if self.runs == 1:
                    raise RuntimeError("injected death")
                while not self.server.stopping.is_set():
                    self.tick()
                    time.sleep(0.01)

        comp = _Flaky(srv)
        srv._components.append(comp)
        comp.start()
        assert _wait_for(lambda: comp.restarts >= 1 and comp.alive())
        assert srv.stats.restarts >= 1
        assert comp.crashed is None  # cleared by the restart
        assert any("injected death" in d for d in srv.diagnostics)

    def test_drain_right_after_start(self, tmp_path, monkeypatch):
        """A drain racing ``start()`` completes: a component still being
        started is not joined before its thread runs."""
        sock = os.fspath(tmp_path / "repro.sock")
        srv = VerificationServer(
            ServiceConfig(socket_path=sock, workers=1, drain_grace_s=0.0)
        )
        srv.start()
        srv.request_drain("drain right after start")
        assert srv.wait(timeout=5.0), "drain did not complete"

        entered = _slow_start_of(monkeypatch, "heartbeat")
        srv = VerificationServer(
            ServiceConfig(socket_path=sock, workers=1, drain_grace_s=0.0)
        )
        booting = threading.Thread(target=srv.start)
        booting.start()
        assert entered.wait(timeout=5.0)
        srv.request_drain("drain during start")
        assert srv.wait(timeout=5.0), "drain thread died mid-start"
        booting.join(timeout=5.0)
        assert not booting.is_alive()

    def test_drain_during_supervisor_restart(self, tmp_path, monkeypatch):
        from repro.service.server import Component

        # Booted by hand: a drain that dies must fail the test, not
        # hang the ``boot`` fixture's teardown.
        srv = VerificationServer(ServiceConfig(
            socket_path=os.fspath(tmp_path / "repro.sock"), workers=1,
            supervisor_poll_s=0.02, drain_grace_s=0.0,
        ))
        srv.start()

        class _DiesOnce(Component):
            def __init__(self, server):
                super().__init__("flaky", server)
                self.runs = 0

            def run(self):
                self.runs += 1
                if self.runs == 1:
                    raise RuntimeError("injected death")
                while not self.server.stopping.is_set():
                    self.tick()
                    time.sleep(0.01)

        entered = _slow_start_of(monkeypatch, "flaky", skip=1)
        comp = _DiesOnce(srv)
        srv._components.append(comp)
        comp.start()
        assert entered.wait(timeout=5.0), "supervisor never restarted it"
        srv.request_drain("drain during restart")
        assert srv.wait(timeout=5.0), "drain thread died mid-restart"
        assert comp.restarts == 1

    def test_wedged_worker_superseded(self, boot):
        policy = ResiliencePolicy(
            chaos=ChaosSpec(stall=1.0, stall_s=1.2, seed=2)
        )
        srv = boot(
            workers=1, resilience=policy, worker_wedge_s=0.2,
            supervisor_poll_s=0.02, drain_grace_s=4.0,
        )
        with _client(srv) as c:
            req_id = c.send(ServiceClient.verify_payload(_execution()))
            # The lone worker stalls mid-solve; the supervisor notices
            # the stale beat and brings up a replacement.
            assert _wait_for(lambda: srv.stats.replaced_workers >= 1)
            status = srv.status()
            assert status["workers"]["wedged_replaced"] >= 1
            # The stalled solve still finishes and answers (late but
            # correct — chaos stall delays, it does not corrupt).
            resp = c.recv_for(req_id)
        assert resp["status"] == "ok"
        assert resp["verdict"] == "holds"

    def test_worker_crash_recovery_is_sound(self, boot):
        # Engine-level crash chaos with no retries: the daemon answers
        # UNKNOWN(crashed) — a machine-readable refusal, not a guess —
        # and keeps serving.
        policy = ResiliencePolicy(
            retries=0, chaos=ChaosSpec(crash=1.0, seed=3)
        )
        srv = boot(workers=1, resilience=policy)
        with _client(srv) as c:
            resp = c.verify(_execution())
            assert resp["status"] == "ok"
            assert resp["verdict"] == "UNKNOWN"
            assert resp["unknown_reason"] == "crashed"
            assert resp["code"] == 3
            # Still alive and ready afterwards.
            assert c.ping()["ready"] is True

    def test_conn_drop_chaos_never_reaches_the_wire(self, boot):
        policy = ResiliencePolicy(
            chaos=ChaosSpec(conn_drop=1.0, seed=4)
        )
        srv = boot(workers=1, resilience=policy)
        with _client(srv) as c:
            c.send(ServiceClient.verify_payload(_execution()))
            # The response is dropped and the connection aborted.
            with pytest.raises(ConnectionError):
                c.recv()
        assert _wait_for(lambda: srv.stats.conn_drops >= 1)
        # The daemon survives the dropped client.
        with _client(srv) as c2:
            assert c2.ping()["ready"] is True

    def test_slow_client_dropped_within_deadline(self, boot, tmp_path):
        srv = boot(send_timeout_s=0.2)
        from repro.service.server import _SocketConn

        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            conn = _SocketConn(srv, a, cid=99)
            payload = {"id": 1, "reason": "y" * (1 << 20)}
            t0 = time.monotonic()
            ok = conn.send_line(payload)  # b never reads
            elapsed = time.monotonic() - t0
            assert ok is False
            assert elapsed < 5.0  # bounded, not a worker wedged forever
            assert srv.stats.slow_client_drops == 1
        finally:
            a.close()
            b.close()

    def test_heartbeat_callback_fires(self, boot):
        beats = []
        srv = boot(heartbeat_s=0.05, on_heartbeat=beats.append)
        assert _wait_for(lambda: len(beats) >= 2)
        assert beats[0]["ready"] is True
        assert "queue" in beats[0] and "workers" in beats[0]

    def test_stats_op_reports_tenants_and_quota(self, boot, tmp_path):
        srv = boot(store_root=os.fspath(tmp_path / "stores"))
        with _client(srv) as c:
            c.verify(_execution(), tenant="alpha")
            stats = c.stats()
        assert "alpha" in stats["tenants"]
        assert "alpha" in stats["quota"]
        assert stats["quota"]["alpha"]["totals"]["entries"] >= 1


class TestStdioMode:
    def test_pipe_session_end_to_end(self):
        r_in, w_in = os.pipe()
        r_out, w_out = os.pipe()
        stdin = open(r_in, "rb", buffering=0)
        stdout = open(w_out, "wb", buffering=0)
        srv = VerificationServer(ServiceConfig(
            stdio=True, stdin=stdin, stdout=stdout, workers=1,
            drain_grace_s=2.0,
        ))
        srv.start()
        payload = ServiceClient.verify_payload(
            _execution(seed=21), req_id="p1", certify="strict"
        )
        os.write(w_in, json.dumps(payload).encode() + b"\n")
        os.write(w_in, b'{"id": "p2", "op": "ping"}\n')
        os.close(w_in)  # EOF: the single client hung up
        assert srv.wait(timeout=20), "stdio server did not drain on EOF"
        assert "end of input" in srv.drain_reason
        os.close(w_out)
        with open(r_out, "rb") as fh:
            responses = [json.loads(line) for line in fh if line.strip()]
        stdin.close()
        by_id = {r["id"]: r for r in responses}
        assert by_id["p1"]["status"] == "ok"
        assert by_id["p1"]["verdict"] == "holds"
        assert by_id["p1"]["certified"] >= 1
        assert by_id["p2"]["status"] == "ok"

    def test_config_rejects_ambiguous_transport(self):
        with pytest.raises(ValueError):
            VerificationServer(ServiceConfig())
        with pytest.raises(ValueError):
            VerificationServer(
                ServiceConfig(socket_path="/tmp/x.sock", stdio=True)
            )


class TestServeCLI:
    def test_transport_is_required(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_both_transports_rejected(self, capsys):
        from repro.cli import main

        assert main(["serve", "--socket", "/tmp/x.sock", "--stdio"]) == 2

    def test_chaos_requires_env_gate(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.engine.chaos import CHAOS_ENV

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        rc = main(["serve", "--socket", "/tmp/x.sock",
                   "--chaos", "crash=0.5"])
        assert rc == 2
