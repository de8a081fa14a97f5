"""Per-tenant result stores and caches.

Multi-tenant isolation is *structural*, not accounting: each tenant
gets its own :class:`~repro.engine.store.ResultStore` directory under
``root/tenants/<name>`` with its own ``max_mb`` budget, so the LRU
compactor only ever weighs a tenant's entries against that tenant's
own quota.  A noisy tenant filling its store evicts its own cold
verdicts — never another tenant's warm ones.  (A shared store with
per-tenant byte accounting would need compaction to make cross-tenant
eviction choices; separate stores make the isolation property hold by
construction.)
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any

from repro.engine.cache import ResultCache
from repro.engine.store import ResultStore
from repro.service.protocol import valid_tenant

if TYPE_CHECKING:
    from repro.engine.chaos import ChaosSpec


class TenantLimitError(ValueError):
    """A request named a tenant past the server's namespace cap."""


class TenantStores:
    """Lazily created per-tenant (cache, store) pairs.

    ``root=None`` runs storeless: each tenant still gets its own
    in-memory :class:`ResultCache`, so warm verdicts survive between
    requests but not restarts.  ``max_tenants`` bounds the namespace
    (stores are directories plus open state; an unbounded namespace
    would let a client mint tenants as a resource exhaustion attack).
    """

    def __init__(
        self,
        root: str | os.PathLike | None,
        quota_mb: float | None = None,
        n_shards: int = 16,
        chaos: "ChaosSpec | None" = None,
        max_tenants: int = 64,
    ):
        self.root = os.fspath(root) if root is not None else None
        self.quota_mb = quota_mb
        self.n_shards = n_shards
        self.chaos = chaos
        self.max_tenants = max_tenants
        self._lock = threading.Lock()
        self._caches: dict[str, ResultCache] = {}
        self._stores: dict[str, ResultStore] = {}

    def get(self, tenant: str) -> ResultCache:
        """The tenant's cache (store-backed when a root is mounted);
        raises :class:`TenantLimitError` past ``max_tenants`` and
        ``ValueError`` on a name the protocol validator rejects."""
        if not valid_tenant(tenant):
            raise ValueError(f"bad tenant name {tenant!r}")
        with self._lock:
            cache = self._caches.get(tenant)
            if cache is not None:
                return cache
            if len(self._caches) >= self.max_tenants:
                raise TenantLimitError(
                    f"tenant namespace is full "
                    f"({self.max_tenants} tenants); {tenant!r} rejected"
                )
            store = None
            if self.root is not None:
                store = ResultStore(
                    os.path.join(self.root, "tenants", tenant),
                    max_mb=self.quota_mb,
                    n_shards=self.n_shards,
                    chaos=self.chaos,
                )
                self._stores[tenant] = store
            cache = ResultCache(store=store)
            self._caches[tenant] = cache
            return cache

    def store_of(self, tenant: str) -> ResultStore | None:
        with self._lock:
            return self._stores.get(tenant)

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._caches)

    # ------------------------------------------------------------------
    def flush_all(self) -> None:
        with self._lock:
            stores = list(self._stores.values())
        for store in stores:
            store.flush()

    def close_all(self) -> None:
        """Close every tenant store (the drain's last durability
        point)."""
        with self._lock:
            stores = list(self._stores.values())
        for store in stores:
            store.close()

    def quota_report(self) -> dict[str, Any]:
        """Per-tenant per-shard occupancy (see
        :meth:`ResultStore.quota_report`)."""
        with self._lock:
            stores = dict(self._stores)
        return {
            tenant: store.quota_report()
            for tenant, store in sorted(stores.items())
        }

    def stats(self) -> dict[str, Any]:
        with self._lock:
            caches = dict(self._caches)
        out: dict[str, Any] = {}
        for tenant, cache in sorted(caches.items()):
            row: dict[str, Any] = {"cache": cache.stats.as_dict()}
            store = self._stores.get(tenant)
            if store is not None:
                row["store"] = store.stats.as_dict()
                row["store_bytes"] = store.total_bytes()
            out[tenant] = row
        return out
