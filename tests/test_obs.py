"""The run record (:mod:`repro.obs`): spans, counters and the
boundaries a record crosses — and every front door's accounting
through it (UNKNOWN causes, shared-cache evictions, the process pool,
the daemon's counters)."""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time

import pytest

from repro import obs
from repro.cli import main
from repro.core.builder import parse_trace
from repro.core.serialize import save
from repro.engine import (
    ChaosSpec,
    ResiliencePolicy,
    ResultCache,
    run_batch,
    verify_vmc,
)
from repro.service import ServiceClient, ServiceConfig, VerificationServer
from tests.conftest import make_coherent_execution
from tests.engine.test_differential import CORPUS

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

TWO_ADDRS = "P0: W(x,1) R(x,1) W(y,2)\nP1: R(x,1) R(y,2)"


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestRecord:
    def test_no_record_open_is_a_no_op(self):
        assert obs.current() is None
        obs.add("x")
        with obs.span("search"):
            assert obs.stage() == "run"
        counters = obs.Counters("store", "hits")
        counters.add("hits")
        assert counters.hits == 1  # lifetime totals still count

    def test_self_times_exclude_nested_spans(self):
        with obs.opened() as rec:
            with obs.span("batch"):
                _busy(0.01)
                with obs.span("search"):
                    assert obs.stage() == "search"
                    _busy(0.01)
        batch_self, batch_total, _ = rec.spans["batch"]
        search_self, search_total, _ = rec.spans["search"]
        assert search_self == pytest.approx(search_total)
        assert batch_self == pytest.approx(batch_total - search_total)
        assert search_self >= 0.01 and batch_self >= 0.01

    def test_a_call_that_stays_in_its_stage_opens_no_span(self):
        with obs.opened() as rec:
            with obs.span("store"), obs.span("store"):
                pass
        assert rec.spans["store"][2] == 1

    def test_closing_folds_into_the_outer_record(self):
        outer = obs.Record(rows=True)
        with obs.opened(outer):
            with obs.opened(obs.Record(rows=True)) as inner:
                obs.add("engine.runs")
                inner.rows.append({"address": "x"})
                with obs.span("plan"):
                    pass
        assert outer["engine.runs"] == 1
        assert outer.rows == [{"address": "x"}]
        assert "plan" in outer.spans
        rowless = obs.Record()
        with obs.opened(rowless):
            with obs.opened(obs.Record(rows=True)) as inner:
                inner.rows.append({"address": "x"})
        assert rowless.rows is None

    def test_merge_sums_counters_and_keeps_peaks(self):
        a, b = obs.Record(), obs.Record()
        a.add("cache.hits", 2)
        a.add("monitor.peak_window", 5)
        b.add("cache.hits", 3)
        b.add("monitor.peak_window", 4)
        b.time("queue", 0.5)
        a.merge(b)
        assert a["cache.hits"] == 5
        assert a["monitor.peak_window"] == 5
        assert a.seconds("queue") == 0.5

    def test_plain_form_crosses_pickle_and_json(self):
        rec = obs.Record(rows=True)
        rec.add("unknown.budget")
        rec.add("unknown.budget@queue")
        rec.time("search", 0.25)
        rec.rows.append({"address": "x", "seconds": 0.1})
        rec.info["pool"] = "serial"
        data = json.loads(json.dumps(pickle.loads(pickle.dumps(rec.as_dict()))))
        back = obs.Record(rows=True)
        back.merge(data)
        assert back.as_dict() == rec.as_dict()
        assert back.unknowns() == {"budget": 1}

    def test_counters_forward_the_callers_share(self):
        counters = obs.Counters("store", "hits misses")
        with obs.opened() as rec:
            counters.add("hits")
        counters.add("hits")
        assert counters.hits == 2 and counters.misses == 0
        assert rec["store.hits"] == 1
        with pytest.raises(KeyError):
            counters.add("typo")
        with pytest.raises(AttributeError):
            counters.typo


class TestUnknownCauses:
    """Each UNKNOWN reason, from its existing trigger, counted once per
    UNKNOWN answer under the stage where the run gave up."""

    def test_budget(self, tmp_path, capsys):
        ex = parse_trace(TWO_ADDRS)
        result = verify_vmc(ex, resilience=ResiliencePolicy(timeout=0.0))
        assert result.unknown_reason == "budget"
        assert result.report.unknowns() == {"budget": 1}
        assert result.report["unknown.budget@queue"] == 1
        assert result.report["engine.unknown.budget"] == 2
        path = tmp_path / "t.txt"
        path.write_text(TWO_ADDRS)
        assert main(["verify", str(path), "--timeout", "0", "--stats"]) == 3
        assert "unknown: budget=1[queue=1]" in capsys.readouterr().out

    def test_crashed(self):
        ex = parse_trace(TWO_ADDRS)
        policy = ResiliencePolicy(
            retries=0, backoff_s=0.0, chaos=ChaosSpec.parse("crash=1,seed=0")
        )
        result = verify_vmc(ex, cache=False, resilience=policy)
        assert result.unknown_reason == "crashed"
        assert result.report.unknowns() == {"crashed": 1}
        assert result.report["unknown.crashed@search"] == 1

    def test_uncertified(self):
        ex = parse_trace(TWO_ADDRS)
        policy = ResiliencePolicy(
            retries=0, backoff_s=0.0, chaos=ChaosSpec(bad_verdict=1.0, seed=0)
        )
        result = verify_vmc(
            ex, cache=False, early_exit=False, resilience=policy,
            certify="strict",
        )
        assert result.unknown_reason == "uncertified"
        assert result.report.unknowns() == {"uncertified": 1}
        assert result.report["unknown.uncertified@certify"] == 1

    def test_batch_counts_one_per_unknown_source(self, tmp_path, capsys):
        for i in range(3):
            ex, _ = make_coherent_execution(12, 2, seed=i)
            save(ex, tmp_path / f"t{i}.json")
        paths = sorted(str(p) for p in tmp_path.glob("*.json"))
        report = run_batch(paths, resilience=ResiliencePolicy(timeout=0.0))
        assert report["totals"]["unknown"] == 3
        assert report["totals"]["unknown_causes"] == {"budget": 3}
        rc = main(["batch", *paths, "--timeout", "0", "--stats"])
        assert rc == 3
        assert "unknown: budget=3[queue=3]" in capsys.readouterr().out

    def test_campaign_table_and_json(self):
        from repro.memsys import FaultKind, campaign_table, run_campaign

        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE], substrates=["bus"],
            runs_per_cell=2, ops_per_processor=8,
            resilience=ResiliencePolicy(timeout=0.0),
        )
        runs = report.total_runs
        assert report.to_json()["unknown_causes"] == {"budget": runs}
        assert f"unknown: budget={runs}[queue={runs}]" in campaign_table(report)

    def test_shutdown_replies_and_stats(self, tmp_path):
        srv = VerificationServer(ServiceConfig(
            socket_path=os.fspath(tmp_path / "s.sock"), workers=0,
            queue_depth=4, tenant_share=1.0, drain_grace_s=0.0,
        ))
        srv.start()
        try:
            with ServiceClient(srv.config.socket_path) as c:
                ids = [
                    c.send(ServiceClient.verify_payload(parse_trace(TWO_ADDRS)))
                    for _ in range(2)
                ]
                deadline = time.monotonic() + 10
                while len(srv.queue) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                srv.request_drain("test drain")
                answers = [c.recv_for(i) for i in ids]
        finally:
            srv.stop("test teardown")
        assert [a["unknown_reason"] for a in answers] == ["shutdown"] * 2
        assert srv.requests()["unknown"] == {"shutdown": 2}
        assert srv.record["unknown.shutdown@queue"] == 2


def test_shared_cache_evictions_are_charged_to_their_run():
    """Two threads verify through one small cache: each run's
    ``cache.evictions`` counts only the evictions it caused, so the
    runs' counts add up to the cache's lifetime count."""
    cache = ResultCache(max_entries=3)
    executions = [
        make_coherent_execution(10, 2, seed=s, addresses=("x", "y"))[0]
        for s in range(40)
    ]
    per_run: list[float] = []
    lock = threading.Lock()
    start = threading.Barrier(2)

    def work(offset: int) -> None:
        start.wait(timeout=10)
        for ex in executions[offset::2]:
            n = verify_vmc(ex, cache=cache).report["cache.evictions"]
            with lock:
                per_run.append(n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(per_run) == len(executions)
    assert cache.stats.evictions > 0
    assert sum(per_run) == cache.stats.evictions


#: The counters a pooled run must report exactly as a serial one does.
_POOL_INVARIANT = (
    "certify.", "prepass.", "unknown.", "engine.memory_hits",
    "engine.store_hits", "engine.misses", "engine.executed",
    "engine.planned", "engine.unknown.", "cache.hits", "cache.misses",
    "cache.stores", "store.",
)


def _invariant(rec: obs.Record) -> dict:
    return {
        k: v for k, v in rec.counters.items()
        if k.startswith(_POOL_INVARIANT) and v
    }


@pytest.mark.parametrize("certify", ["off", "on"])
def test_pooled_records_match_serial(force_pool, certify):
    """A pool worker's record crosses back with its result: over the
    differential corpus, ``jobs=2`` on the process pool counts what
    ``jobs=1`` counts, and certification time reaches the parent."""
    certify_s = 0.0
    for ex in CORPUS[:: max(1, len(CORPUS) // 25)]:
        kw = dict(cache=None, early_exit=False, certify=certify)
        serial = verify_vmc(ex, jobs=1, **kw)
        pooled = verify_vmc(ex, jobs=2, **kw)
        assert pooled.holds == serial.holds
        assert _invariant(pooled.report) == _invariant(serial.report)
        if pooled.report.info["pool"] == "process":
            certify_s += pooled.report.seconds("certify")
    if certify == "on":
        assert certify_s > 0


def test_daemon_counters_take_no_lost_updates(tmp_path):
    """Several clients against a four-worker daemon: ``requests``
    counts every request plus the stats probe, and the reply counters
    add up to the replies sent."""
    srv = VerificationServer(ServiceConfig(
        socket_path=os.fspath(tmp_path / "s.sock"), workers=4,
        queue_depth=256, tenant_share=1.0,
    ))
    srv.start()
    clients, per_client = 6, 15
    statuses: list[str] = []
    lock = threading.Lock()

    def client(k: int) -> None:
        with ServiceClient(srv.config.socket_path, timeout=60) as c:
            for i in range(per_client):
                ex, _ = make_coherent_execution(8, 2, seed=k * 100 + i)
                status = c.verify(ex, req_id=f"{k}-{i}")["status"]
                with lock:
                    statuses.append(status)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        with ServiceClient(srv.config.socket_path) as c:
            stats = c.stats()
    finally:
        sys.setswitchinterval(switch)
        srv.stop("test teardown")
    n = clients * per_client
    assert len(statuses) == n
    req = stats["requests"]
    assert req["requests"] == n + 1
    assert req["connections"] == clients + 1
    assert (
        req["ok"] + req["errors"] + req["retry_after"] + req["shutdown"] == n
    )
    assert req["ok"] == statuses.count("ok")
    assert sum(req["provenance"].values()) == n
    assert stats["record"]["counters"]["service.requests"] == n + 1
