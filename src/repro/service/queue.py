"""The daemon's bounded admission queue.

Overload policy is *explicit refusal*, never unbounded buffering: when
the queue (or one tenant's share of it) is full, :meth:`offer` refuses
immediately and the caller answers ``RETRY_AFTER`` — the client knows
within one round-trip, instead of a request silently aging in an
ever-growing backlog.  The per-tenant share cap is the fairness half
of the same policy: one noisy tenant flooding requests fills only its
own share, so other tenants keep being admitted.

Workers drain the queue in small same-options batches
(:meth:`take_batch`) so the batch engine's canonicalize-then-dedup
front-end sees whole groups of concurrent requests at once — identical
instances submitted together are solved once.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs

#: offer() outcomes.
ADMITTED = "ok"
REJECT_FULL = "full"
REJECT_TENANT = "tenant"
REJECT_DRAINING = "draining"


#: The queue's lifetime counters (``queue.stats.<name>``).
QUEUE_COUNTERS = (
    "admitted rejected_full rejected_tenant rejected_draining peak_depth"
)


@dataclass
class _Item:
    value: Any
    tenant: str = ""

    # deque of _Item; dataclass keeps repr useful in diagnostics
    __hash__ = None  # type: ignore[assignment]


class BoundedRequestQueue:
    """A depth-bounded FIFO with per-tenant admission fairness.

    ``tenant_share`` caps any single tenant's pending requests at
    ``max(1, int(depth * tenant_share))`` — full isolation would be
    per-tenant queues, but a share cap gives the property that matters
    (no tenant can occupy the whole queue) without reserving capacity
    idle tenants never use.
    """

    def __init__(self, depth: int, tenant_share: float = 0.5):
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        if not 0.0 < tenant_share <= 1.0:
            raise ValueError(
                f"tenant_share must be in (0, 1], got {tenant_share}"
            )
        self.depth = depth
        self.tenant_cap = max(1, int(depth * tenant_share))
        self.stats = obs.Counters("queue", QUEUE_COUNTERS)
        self._items: deque[_Item] = deque()
        self._per_tenant: dict[str, int] = {}
        self._cond = threading.Condition()
        self._draining = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    # ------------------------------------------------------------------
    def offer(self, value: Any, tenant: str = "") -> str:
        """Admit ``value`` or refuse *now*; returns one of
        :data:`ADMITTED` / :data:`REJECT_FULL` / :data:`REJECT_TENANT` /
        :data:`REJECT_DRAINING` — never blocks, never buffers beyond
        the bound."""
        with self._cond:
            if self._draining:
                self.stats.add("rejected_draining")
                return REJECT_DRAINING
            if len(self._items) >= self.depth:
                self.stats.add("rejected_full")
                return REJECT_FULL
            if self._per_tenant.get(tenant, 0) >= self.tenant_cap:
                self.stats.add("rejected_tenant")
                return REJECT_TENANT
            self._items.append(_Item(value, tenant))
            self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1
            self.stats.add("admitted")
            self.stats.peak("peak_depth", len(self._items))
            self._cond.notify()
            return ADMITTED

    def _pop(self, idx: int = 0) -> Any:
        item = self._items[idx]
        del self._items[idx]
        n = self._per_tenant.get(item.tenant, 1) - 1
        if n <= 0:
            self._per_tenant.pop(item.tenant, None)
        else:
            self._per_tenant[item.tenant] = n
        return item.value

    def take(self, timeout: float | None = None) -> Any | None:
        """Block up to ``timeout`` for one item; ``None`` on timeout or
        drain."""
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if not self._items:
                return None
            return self._pop()

    def take_batch(
        self,
        max_n: int,
        timeout: float | None = None,
        same: Callable[[Any], Any] | None = None,
    ) -> list[Any]:
        """Take up to ``max_n`` items in one gulp.

        With ``same``, only items whose ``same(value)`` equals the
        first item's key join the batch (the worker pool batches
        same-tenant/same-options requests so one batch plan can dedup
        across them); others stay queued in order.
        """
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if not self._items:
                return []
            out = [self._pop()]
            key = same(out[0]) if same is not None else None
            i = 0
            while len(out) < max_n and i < len(self._items):
                if same is None or same(self._items[i].value) == key:
                    out.append(self._pop(i))
                else:
                    i += 1
            return out

    # ------------------------------------------------------------------
    def drain(self) -> list[Any]:
        """Stop admitting and empty the queue; returns the evicted
        items (the server answers each with UNKNOWN(shutdown))."""
        with self._cond:
            self._draining = True
            out = [item.value for item in self._items]
            self._items.clear()
            self._per_tenant.clear()
            self._cond.notify_all()
            return out

    def wake_all(self) -> None:
        """Wake blocked takers (worker shutdown)."""
        with self._cond:
            self._cond.notify_all()
