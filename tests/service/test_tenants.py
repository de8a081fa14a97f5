"""Per-tenant store isolation: separate directories, separate quotas,
a bounded namespace, and the quota report."""

from __future__ import annotations

import os

import pytest

from repro.engine.cache import canonicalize
from repro.core.builder import parse_trace
from repro.service.tenants import TenantLimitError, TenantStores


def _canon(text, method="auto"):
    ex = parse_trace(text)
    addr = ex.constrained_addresses()[0]
    return canonicalize(ex.restrict_to_address(addr), None, "vmc", method)


def _fill(store, n, tag):
    for i in range(n):
        store.put(
            f"svc/{tag}/{i}".encode(), holds=True, method="exact",
            reason=f"{tag}/{i}", schedule_idx=None, stats={},
        )
    store.flush()


class TestStoreless:
    def test_distinct_caches_per_tenant(self):
        ts = TenantStores(root=None)
        a = ts.get("alpha")
        b = ts.get("beta")
        assert a is not b
        assert ts.get("alpha") is a  # stable handle
        assert ts.store_of("alpha") is None
        assert ts.tenants() == ["alpha", "beta"]

    def test_bad_tenant_name_raises(self):
        ts = TenantStores(root=None)
        with pytest.raises(ValueError):
            ts.get("no spaces")
        with pytest.raises(ValueError):
            ts.get("x" * 65)

    def test_namespace_cap(self):
        ts = TenantStores(root=None, max_tenants=2)
        ts.get("a")
        ts.get("b")
        with pytest.raises(TenantLimitError):
            ts.get("c")
        # Existing tenants keep working past the cap.
        assert ts.get("a") is ts.get("a")


class TestStoreBacked:
    def test_separate_directories_and_quotas(self, tmp_path):
        ts = TenantStores(tmp_path, quota_mb=1.0)
        ts.get("alpha")
        ts.get("beta")
        sa = ts.store_of("alpha")
        sb = ts.store_of("beta")
        assert sa is not None and sb is not None
        assert sa.path != sb.path
        assert os.path.basename(sa.path) == "alpha"
        assert "tenants" in sa.path
        # Each tenant gets the *whole* quota — isolation by
        # construction, not shared-pool accounting.
        assert sa.max_bytes == sb.max_bytes == int(1.0 * 1024 * 1024)

    def test_entries_do_not_leak_across_tenants(self, tmp_path):
        ts = TenantStores(tmp_path)
        ts.get("alpha")
        ts.get("beta")
        sa = ts.store_of("alpha")
        sb = ts.store_of("beta")
        _fill(sa, 3, "a")
        assert sa.lookup(b"svc/a/0") is not None
        assert sb.lookup(b"svc/a/0") is None

    def test_flush_all_persists(self, tmp_path):
        ts = TenantStores(tmp_path)
        ts.get("alpha")
        _fill(ts.store_of("alpha"), 2, "a")
        ts.close_all()
        fresh = TenantStores(tmp_path)
        fresh.get("alpha")
        assert fresh.store_of("alpha").lookup(b"svc/a/1") is not None

    def test_quota_report_per_tenant(self, tmp_path):
        ts = TenantStores(tmp_path, quota_mb=1.0)
        ts.get("alpha")
        ts.get("beta")
        _fill(ts.store_of("alpha"), 2, "a")
        _fill(ts.store_of("beta"), 5, "b")
        report = ts.quota_report()
        assert sorted(report) == ["alpha", "beta"]
        assert report["alpha"]["totals"]["entries"] == 2
        assert report["beta"]["totals"]["entries"] == 5
        occupied = [
            row for row in report["alpha"]["shards"] if row["entries"]
        ]
        assert occupied
        for row in occupied:
            assert row["bytes"] > 0
            assert row["budget_bytes"] is not None
            assert row["lru_age_s"] is not None

    def test_stats_shape(self, tmp_path):
        ts = TenantStores(tmp_path)
        cache = ts.get("alpha")
        canon = _canon("P0: W(x,1) R(x,1)")
        assert cache.lookup(canon) is None  # one miss
        stats = ts.stats()
        assert stats["alpha"]["cache"]["misses"] == 1
        assert "store" in stats["alpha"]
