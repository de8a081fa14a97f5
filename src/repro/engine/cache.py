"""Canonical-fingerprint result caching.

Memsys campaigns and benchmark sweeps verify thousands of per-address
sub-executions, and a large fraction are *the same instance up to
renaming*: the same read/write pattern at a different address, with
different value names, or with the processes permuted.  Coherence is
invariant under all three relabelings, so the engine hashes a canonical
form of every task and serves repeats from a dictionary.

Canonicalization (:func:`canonicalize`), over the task's columnar
view (a per-address task's view is sliced from its parent trace's
columns, see :func:`repro.engine.planner.address_tasks`):

* empty process histories are dropped (they cannot constrain a
  schedule);
* addresses are renamed to dense ids by first appearance;
* values (including initial and final values) are renamed to dense ids
  by first appearance — the initial value of the first address always
  becomes id 0;
* each operation becomes three i32 codes ``(kind | addr_id << 3,
  read_id, write_id)``, positions replacing the original program-order
  indices (sub-executions keep gappy parent indices);
* histories are sorted by their encoded bytes, making the fingerprint
  invariant under most process permutations;
* the key is those bytes behind ``problem NUL method NUL`` and the
  counts that make the encoding injective.

Equal fingerprints imply the two instances are isomorphic (the
fingerprint is a faithful relabeling), so a cached verdict — and its
witness and certificate, stored by canonical op position and canonical
address id (:func:`to_canonical`) and mapped back onto the new
execution's operations (:func:`from_canonical`) — is always correct.
The one exception is a ``rup`` proof: it numbers CNF variables, not
operations, so it is stored verbatim and re-checked on every certified
hit.  Isomorphism does not imply equal fingerprints: some isomorphic
pairs hash differently (value ids are assigned before histories are
sorted), which only costs a cache miss, never a wrong answer.
"""

from __future__ import annotations

import sys
import threading
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from repro import obs
from repro.core.columnar import KIND_CODES, ColumnarTrace
from repro.core.result import Certificate, VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.store import fingerprint_key

if TYPE_CHECKING:
    from repro.engine.store import ResultStore


@dataclass
class CanonicalInstance:
    """A task's canonical form plus the maps back to the real ops."""

    #: The canonical key: a flat byte encoding (see :func:`canonicalize`).
    key: bytes
    #: The columnar view the form was computed from.
    view: ColumnarTrace
    #: Flat positions of ``view`` in canonical order: histories in
    #: canonical order, program order within each.
    order: list[int]
    #: Canonical address id -> the original address.
    addrs: list[Address]
    #: The uids of the supplied write-order (None without one).
    write_order_uids: tuple | None = None

    @cached_property
    def ops(self) -> list[Operation]:
        """The original operations in canonical order."""
        ops = self.view.operations
        return [ops[i] for i in self.order]

    @cached_property
    def index_of(self) -> dict[tuple[int, int], int]:
        """uid -> canonical position."""
        procs, indices = self.view.procs, self.view.indices
        return {(procs[i], indices[i]): k for k, i in enumerate(self.order)}

    @cached_property
    def fingerprint(self) -> bytes:
        """The store's content address of ``key``, hashed once."""
        return fingerprint_key(self.key)


def _int32s(ints: Sequence[int]) -> bytes:
    """Little-endian i32 bytes of ``ints``, on every host."""
    a = array("i", ints)
    if sys.byteorder == "big":  # pragma: no cover
        a.byteswap()
    return a.tobytes()


#: Bytes per encoded operation: three i32 codes.
_OP_BYTES = 12


@obs.timed("canon")
def canonicalize(
    execution: Execution,
    write_order: Sequence[Operation] | None = None,
    problem: str = "vmc",
    method: str = "auto",
) -> CanonicalInstance:
    """Compute the canonical form of one verification task.

    Runs over the execution's columnar view — for a per-address task,
    the view sliced from its parent trace's columns
    (:meth:`~repro.core.columnar.ColumnarTrace.address_view`) — with
    C-level remaps of whole columns, and encodes the key as flat bytes:

    ``problem NUL method NUL`` then little-endian i32s: the address and
    history counts, each history's length, every operation as three
    codes ``(kind | address id << 3, read value id, written value id)``
    (``-1`` for no value), the ``(initial, final)`` value ids per
    address, and the write-order — its length and four codes per entry
    ``(canonical position, kind, read value id, written value id)``, or
    ``-1`` without one.  The encoding is injective, so two tasks share
    a key exactly when they share the canonical form.
    """
    view = execution.columnar()
    n = view.n_ops
    rvs, wvs = view.read_vids, view.write_vids

    # Canonical address order: touched ids by first appearance (the
    # view's own order), then final-only addresses ordered by repr so
    # dict insertion order cannot leak into the key.  Initial-only
    # addresses stay out of the key (they cannot constrain a schedule).
    addr_order = list(range(view.n_touched))
    addr_order += sorted(
        range(view.n_touched, view.n_constrained),
        key=lambda ai: repr(view.addrs[ai]),
    )

    # Canonical value ids by first appearance: initial values (in
    # canonical address order), then op values in flat order (read,
    # then written), then final values.
    walk = [-1] * (2 * n)
    walk[0::2] = rvs
    walk[1::2] = wvs
    seen = dict.fromkeys(view.initial_ids[ai] for ai in addr_order)
    seen.update(dict.fromkeys(walk))
    seen.pop(-1, None)
    for ai in addr_order:
        if view.final_ids[ai] >= 0:
            seen.setdefault(view.final_ids[ai])
    cvid = {vv: i for i, vv in enumerate(seen)}
    cvid[-1] = -1

    codes = [0] * (3 * n)
    if view.n_touched <= 1:
        codes[0::3] = view.kinds
    else:
        aid_code = [0] * len(view.addrs)
        for i, ai in enumerate(addr_order):
            aid_code[ai] = i << 3
        codes[0::3] = [
            k | aid_code[a] for k, a in zip(view.kinds, view.addr_ids)
        ]
    codes[1::3] = list(map(cvid.__getitem__, rvs))
    codes[2::3] = list(map(cvid.__getitem__, wvs))
    blob = _int32s(codes)

    # Histories (empty ones dropped: they cannot constrain a schedule)
    # sorted by their encoding, which makes the key invariant under
    # most process permutations.
    spans = [
        (view.proc_offsets[p], view.proc_offsets[p + 1])
        for p in range(view.n_procs)
        if view.proc_offsets[p] != view.proc_offsets[p + 1]
    ]
    rows = [blob[_OP_BYTES * s:_OP_BYTES * e] for s, e in spans]
    perm = sorted(range(len(rows)), key=rows.__getitem__)
    order: list[int] = []
    for h in perm:
        order.extend(range(*spans[h]))
    tail = []
    for ai in addr_order:
        tail += (cvid[view.initial_ids[ai]], cvid[view.final_ids[ai]])
    # The key is filled in last: the write-order part names canonical
    # positions, which the instance maps.
    canon = CanonicalInstance(
        key=b"",
        view=view,
        order=order,
        addrs=[view.addrs[ai] for ai in addr_order],
        write_order_uids=(
            tuple(op.uid for op in write_order)
            if write_order is not None else None
        ),
    )
    if write_order is None:
        tail.append(-1)
    else:
        # Encode content as well as identity: a (possibly faulty)
        # memory system may hand back an order containing operations
        # that are missing from, or disagree with, the execution — the
        # write-order backend decides such instances "not coherent
        # under this order", and the fingerprint must distinguish them.
        # Foreign values (absent from the trace) extend the canonical
        # numbering by value equality.
        index_of = canon.index_of
        value_key: dict[Hashable, int] = {
            view.values[vv]: cid for vv, cid in cvid.items() if vv >= 0
        }

        def vkey(v: Hashable) -> int:
            cid = value_key.get(v)
            if cid is None:
                cid = value_key[v] = len(value_key)
            return cid

        tail.append(len(write_order))
        for op in write_order:
            tail += (
                index_of.get(op.uid, -1),
                KIND_CODES[op.kind],
                vkey(op.value_read) if op.kind.reads else -1,
                vkey(op.value_written) if op.kind.writes else -1,
            )
    canon.key = b"".join((
        f"{problem}\0{method}\0".encode(),
        _int32s([len(addr_order), len(rows)] + [
            len(rows[h]) // _OP_BYTES for h in perm
        ]),
        *(rows[h] for h in perm),
        _int32s(tail),
    ))
    return canon


def _map_certificate(
    cert: Certificate | None, op: Callable, addr: Callable, order: Callable
) -> Certificate | None:
    """``cert`` with its operations mapped by ``op``, its addresses by
    ``addr`` and an ``order`` payload by ``order``; None when one cannot
    be mapped.  ``witness`` and ``rup`` payloads pass verbatim (a rup
    proof numbers CNF variables, which no relabeling maps)."""
    if cert is None:
        return None
    kind, payload = cert.kind, cert.payload
    try:
        if kind == "cycle":
            steps, cycle = payload
            payload = (
                tuple(
                    (op(u), op(v), rule, aux and (op(aux[0]), op(aux[1])))
                    for u, v, rule, aux in steps
                ),
                tuple(map(op, cycle)),
            )
        elif kind == "infeasible":
            tag, arg = payload
            payload = (tag, op(arg) if tag == "read-impossible" else addr(arg))
        elif kind == "order":
            payload = order(payload)
    except (KeyError, ValueError, TypeError, IndexError):
        return None
    return Certificate(kind, payload)


def _at(items: Sequence, i: Any) -> Any:
    """``items[i]`` for an in-range position (no negative wrap-around)."""
    if type(i) is not int or not 0 <= i < len(items):
        raise IndexError(i)
    return items[i]


def to_canonical(
    canon: CanonicalInstance,
    schedule: Sequence[Operation] | None,
    certificate: Certificate | None,
) -> tuple[list[int] | None, Certificate | None]:
    """A result's witness and certificate in the form the cache and the
    store keep: op uids become canonical positions, addresses canonical
    ids, and an ``order`` payload (which must name the supplied
    write-order) its length.  What cannot be mapped is dropped: a
    missing piece costs a recompute, a foreign one would be wrong."""

    def order(payload) -> int:
        if tuple(map(tuple, payload)) != canon.write_order_uids:
            raise ValueError(payload)
        return len(payload)

    try:
        schedule = schedule and [
            canon.index_of[o.proc, o.index] for o in schedule
        ]
    except KeyError:
        schedule = None
    return schedule, _map_certificate(
        certificate, lambda u: canon.index_of[tuple(u)],
        canon.addrs.index, order,
    )


def from_canonical(
    canon: CanonicalInstance,
    schedule_idx: Sequence[int] | None,
    certificate: Certificate | None,
) -> tuple[list[Operation] | None, Certificate | None]:
    """:func:`to_canonical` inverted onto ``canon``'s own operations and
    addresses; on the instance it came from, the round trip returns an
    equal witness and a certificate with an identical ``repr``.  A bad
    position drops its piece, which then fails validation."""

    def order(n) -> tuple:
        if n != len(canon.write_order_uids or ()):
            raise ValueError(n)
        return canon.write_order_uids

    try:
        schedule = schedule_idx and [_at(canon.ops, i) for i in schedule_idx]
    except IndexError:
        schedule = None
    return schedule, _map_certificate(
        certificate, lambda i: _at(canon.ops, i).uid,
        lambda i: _at(canon.addrs, i), order,
    )


@dataclass
class _Entry:
    holds: bool
    method: str
    reason: str
    schedule_idx: list[int] | None
    stats: dict[str, Any]
    #: The verdict's certificate in canonical form (:func:`to_canonical`),
    #: re-materialized onto any isomorphic hit as the witness is; a
    #: ``rup`` proof a permuted hit fails is re-derived by the planner.
    certificate: Certificate | None = None
    #: Whether the entry was loaded from the persistent store tier (so
    #: a later validation failure is charged to the store, not to the
    #: in-memory cache).
    from_store: bool = False


#: The cache's lifetime counters (``cache.stats.<name>``).  A
#: ``validation_failures`` hit failed the on-hit check (a witness that
#: no longer replays, a rejected certificate) and was recomputed;
#: ``store_revalidation_failures`` counts the store-loaded ones.
CACHE_COUNTERS = (
    "hits misses stores evictions validation_failures store_hits "
    "store_revalidation_failures"
)


class ResultCache:
    """Thread-safe verdict/witness cache keyed by canonical fingerprint.

    The witness and the certificate are stored in canonical form; on a
    hit they are re-materialized with the *current* execution's
    operations and addresses, so the returned schedule passes
    :mod:`repro.core.checker` — and the certificate the trusted
    checker — for the new instance even though they were computed for
    an isomorphic one.

    With a :class:`~repro.engine.store.ResultStore` attached the cache
    becomes two-tiered: lookups fall through to the store on a memory
    miss (read-through, the loaded entry is promoted into memory) and
    every store writes through into the store's group commit — so every
    front door (``verify``, ``batch``, ``serve``, campaigns) gains
    cross-run persistence, made durable at the front door's own
    boundary (see :mod:`repro.engine.store`).  Store-loaded verdicts
    pass through the same on-hit validation seam as memory hits
    (:func:`repro.engine.planner.plan_task`); a failure evicts the
    record from *both* tiers and recomputes.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        store: "ResultStore | None" = None,
    ):
        self._data: dict[Hashable, _Entry] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.store_tier = store
        self.stats = obs.Counters("cache", CACHE_COUNTERS)

    def __len__(self) -> int:
        return len(self._data)

    def _install(self, key: Hashable, entry: _Entry) -> None:
        """Insert under the lock, honouring ``max_entries`` (FIFO)."""
        if (
            self.max_entries is not None
            and key not in self._data
            and len(self._data) >= self.max_entries
        ):
            self._data.pop(next(iter(self._data)))
            self.stats.add("evictions")
        self._data[key] = entry

    def lookup(self, canon: CanonicalInstance) -> VerificationResult | None:
        with self._lock:
            entry = self._data.get(canon.key)
            if entry is not None:
                self.stats.add("hits")
        from_store = False
        if entry is None and self.store_tier is not None:
            rec = self.store_tier.lookup(canon)
            if rec is not None:
                entry = _Entry(
                    holds=rec["holds"],
                    method=rec["method"],
                    reason=rec["reason"],
                    schedule_idx=rec["schedule_idx"],
                    stats=rec["stats"],
                    certificate=rec["certificate"],
                    from_store=True,
                )
                from_store = True
                with self._lock:
                    self._install(canon.key, entry)
                    self.stats.add("store_hits")
        if entry is None:
            self.stats.add("misses")
            return None
        schedule, certificate = from_canonical(
            canon, entry.schedule_idx, entry.certificate
        )
        stats = dict(entry.stats)
        stats["cache_hit"] = True
        if from_store:
            stats["store_hit"] = True
        return VerificationResult(
            holds=entry.holds,
            method=entry.method,
            schedule=schedule,
            reason=entry.reason,
            stats=stats,
            certificate=certificate,
        )

    def invalidate(self, canon: CanonicalInstance) -> None:
        """Drop an entry whose re-materialized result failed the on-hit
        check; the caller recomputes the task as if it had missed.  A
        store-loaded entry is tombstoned on disk too — a corrupt or
        stale record must never be trusted by a later run either."""
        with self._lock:
            entry = self._data.pop(canon.key, None)
            self.stats.add("validation_failures")
            if entry is not None and entry.from_store:
                self.stats.add("store_revalidation_failures")
        if self.store_tier is not None:
            self.store_tier.invalidate(canon)

    def store(self, canon: CanonicalInstance, result: VerificationResult) -> None:
        schedule_idx, certificate = to_canonical(
            canon, result.schedule, result.certificate
        )
        entry = _Entry(
            holds=result.holds,
            method=result.method,
            reason=result.reason,
            schedule_idx=schedule_idx,
            stats={
                k: v
                for k, v in result.stats.items()
                if k not in ("cache_hit", "store_hit")
            },
            certificate=certificate,
        )
        with self._lock:
            if canon.key not in self._data:
                self.stats.add("stores")
            self._install(canon.key, entry)
        if self.store_tier is not None and not result.unknown:
            self.store_tier.put(
                canon,
                holds=entry.holds,
                method=entry.method,
                reason=entry.reason,
                schedule_idx=entry.schedule_idx,
                stats=entry.stats,
                certificate=entry.certificate,
            )

    def flush_store(self) -> None:
        """Persist buffered write-through entries (one fsync batch per
        dirty shard); a no-op without a store tier."""
        if self.store_tier is not None:
            self.store_tier.flush()

    def clear(self) -> None:
        """Reset the in-memory tier and counters (the store survives)."""
        with self._lock:
            self._data.clear()
            self.stats = obs.Counters("cache", CACHE_COUNTERS)


def fingerprint(
    execution: Execution,
    write_order: Sequence[Operation] | None = None,
    problem: str = "vmc",
    method: str = "auto",
) -> bytes:
    """The canonical cache key of a task (mostly for tests/debugging)."""
    return canonicalize(execution, write_order, problem, method).key
