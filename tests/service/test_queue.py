"""The bounded admission queue: explicit refusal, tenant fairness,
same-key batching, and drain semantics."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.queue import (
    ADMITTED,
    REJECT_DRAINING,
    REJECT_FULL,
    REJECT_TENANT,
    BoundedRequestQueue,
)


class TestAdmission:
    def test_depth_bound_refuses_immediately(self):
        q = BoundedRequestQueue(depth=2, tenant_share=1.0)
        assert q.offer("a") == ADMITTED
        assert q.offer("b") == ADMITTED
        t0 = time.monotonic()
        assert q.offer("c") == REJECT_FULL
        # Refusal is immediate — never a block-until-space.
        assert time.monotonic() - t0 < 0.05
        assert q.stats.rejected_full == 1
        assert len(q) == 2

    def test_tenant_share_cap(self):
        q = BoundedRequestQueue(depth=8, tenant_share=0.25)  # cap = 2
        assert q.tenant_cap == 2
        assert q.offer("a1", tenant="a") == ADMITTED
        assert q.offer("a2", tenant="a") == ADMITTED
        assert q.offer("a3", tenant="a") == REJECT_TENANT
        # The flooder's refusal does not starve another tenant.
        assert q.offer("b1", tenant="b") == ADMITTED
        assert q.stats.rejected_tenant == 1

    def test_tenant_count_released_on_take(self):
        q = BoundedRequestQueue(depth=4, tenant_share=0.25)  # cap = 1
        assert q.offer("a1", tenant="a") == ADMITTED
        assert q.offer("a2", tenant="a") == REJECT_TENANT
        assert q.take(timeout=0) == "a1"
        assert q.offer("a2", tenant="a") == ADMITTED

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            BoundedRequestQueue(depth=0)
        with pytest.raises(ValueError):
            BoundedRequestQueue(depth=4, tenant_share=0.0)
        with pytest.raises(ValueError):
            BoundedRequestQueue(depth=4, tenant_share=1.5)


class TestTakeBatch:
    def test_fifo_order(self):
        q = BoundedRequestQueue(depth=8)
        for v in ("a", "b", "c"):
            q.offer(v)
        assert q.take_batch(8) == ["a", "b", "c"]

    def test_same_key_grouping_preserves_order(self):
        q = BoundedRequestQueue(depth=16, tenant_share=1.0)
        for v in ("a1", "b1", "a2", "b2", "a3"):
            q.offer(v)
        batch = q.take_batch(8, same=lambda v: v[0])
        assert batch == ["a1", "a2", "a3"]
        # The skipped tenant-b items stayed queued, still in order.
        assert q.take_batch(8, same=lambda v: v[0]) == ["b1", "b2"]

    def test_max_n_bound(self):
        q = BoundedRequestQueue(depth=16)
        for i in range(5):
            q.offer(i)
        assert q.take_batch(2) == [0, 1]
        assert len(q) == 3

    def test_timeout_returns_empty(self):
        q = BoundedRequestQueue(depth=2)
        t0 = time.monotonic()
        assert q.take_batch(4, timeout=0.05) == []
        assert 0.04 <= time.monotonic() - t0 < 1.0

    def test_offer_wakes_blocked_taker(self):
        q = BoundedRequestQueue(depth=2)
        got: list = []

        def taker():
            got.extend(q.take_batch(1, timeout=5.0))

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        q.offer("wake")
        t.join(timeout=5.0)
        assert got == ["wake"]


class TestDrain:
    def test_drain_evicts_and_refuses(self):
        q = BoundedRequestQueue(depth=4)
        q.offer("a")
        q.offer("b")
        assert q.drain() == ["a", "b"]
        assert len(q) == 0
        assert q.offer("c") == REJECT_DRAINING
        assert q.stats.rejected_draining == 1

    def test_drain_wakes_blocked_takers(self):
        q = BoundedRequestQueue(depth=2)
        done = threading.Event()

        def taker():
            q.take_batch(1, timeout=10.0)
            done.set()

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        q.drain()
        assert done.wait(timeout=5.0)
        t.join()

    def test_stats_snapshot(self):
        q = BoundedRequestQueue(depth=2, tenant_share=1.0)
        q.offer("a")
        q.offer("b")
        q.offer("c")
        q.take_batch(8)
        d = q.stats.as_dict()
        assert d["admitted"] == 2
        assert d["rejected_full"] == 1
        assert d["peak_depth"] == 2
        assert "batches" not in d  # counted once, by the server
