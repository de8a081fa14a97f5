"""Disk-backed content-addressed result store.

The in-memory :class:`~repro.engine.cache.ResultCache` proves that a
large fraction of campaign work is *the same instance up to renaming* —
but it forgets everything between runs.  This module persists the same
canonical entries on disk, keyed by a SHA-256 fingerprint of the
canonical key, so warm re-runs, sibling processes, and whole batch
campaigns never solve an instance twice.

Layout (``store_dir/``)::

    store.meta            {"version": 1, "n_shards": N}
    shards/00/records.bin append-only record log for shard 0
    shards/00/.lock       flock target (never replaced, unlike the log)
    ...

The first fingerprint byte picks the shard (``fp[0] % n_shards``), so
concurrent writers in different processes (``verify``, ``batch``,
``serve``, campaigns sharing one store) contend per shard, not per
store.

Record log format (``serialize_bin`` conventions):

* 16-byte header: magic ``REPROSTO``, u16 version, u16 reserved,
  u32 generation (bumped by compaction so concurrent readers know to
  rebuild their index);
* records: u8 type + u32 payload length + u32 CRC-32, then the payload.
  ``RECORD`` payloads are the 32-byte fingerprint followed by a pickled
  entry dict (including the full canonical key and the entry format's
  :data:`RECORD_VERSION` — a hash collision or a stale record is
  rejected by key and version equality, never served); ``TOUCH``
  and ``TOMBSTONE`` payloads are the bare fingerprint.

Durability and concurrency:

* group commit: ``put``/``lookup``/``invalidate`` buffer their
  ``RECORD``/``TOUCH``/``TOMBSTONE`` records in the process (visible to
  this handle at once) and append them in one batch — one exclusive
  ``flock`` + one ``fsync`` per dirty shard — when the pending bytes
  reach :data:`PENDING_BYTES` or the oldest pending record is
  :data:`PENDING_AGE_S` old, on :meth:`ResultStore.flush` /
  :meth:`ResultStore.close` / ``with`` exit, and at interpreter exit
  (or garbage collection) for a handle nobody closed.  Front doors
  flush at their own boundary: a batch, a daemon request group, a CLI
  command's end;
* a crash loses at most the records still pending: a later run misses
  and recomputes them, and the CRC and key-equality checks below mean
  nothing torn or partial is ever served;
* a flush appends the pending records after a catch-up scan of other
  writers' appends and advances its view past its own bytes without
  reading them back; a reader re-scans a shard only when its
  ``stat`` (inode, size, mtime) moved since its last scan;
* a torn or truncated tail (crash mid-append) is *skipped* on read with
  a byte-offset diagnostic, and truncated away by the next writer while
  it holds the exclusive lock (only then is "torn" distinguishable from
  "another writer's append in flight");
* ``TOUCH`` records propagate LRU recency across processes; compaction
  (triggered at a flush when the store exceeds ``max_mb``) rewrites
  overweight shards newest-last, dropping the least recently used
  entries.

Trust: the store itself only guarantees *integrity of transport*
(CRC + key equality).  Verdict-level trust is the caller's business —
:class:`~repro.engine.cache.ResultCache` re-materializes store hits
through the executor's on-hit validation seam, so under ``--certify``
every loaded verdict is re-checked by ``certify.validate_result`` and
corrupt or stale records are evicted and recomputed, never served.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import threading
import time
import weakref
import zlib
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro import obs

try:  # pragma: no cover - Linux/macOS always have fcntl
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from repro.engine.cache import CanonicalInstance
    from repro.engine.chaos import ChaosSpec

MAGIC = b"REPROSTO"
VERSION = 1
#: The entry format inside a ``RECORD``: version 2 keeps certificates in
#: canonical form (:func:`repro.engine.cache.to_canonical`); an older
#: entry names uids, so it is a miss, never decoded as positions.
#: Version 3 keys entries by the flat byte encoding of the canonical
#: form; a version-2 entry (a nested-tuple key) is a miss, never served.
RECORD_VERSION = 3
#: Shard-file header: magic, version, reserved, generation.
_HEADER = struct.Struct("<8sHHI")
#: Record header: type, payload length, payload CRC-32.
_REC = struct.Struct("<BII")
#: Sanity cap on a single record payload (a canonical entry is KBs).
MAX_PAYLOAD = 1 << 26

REC_RECORD = 1
REC_TOUCH = 2
REC_TOMBSTONE = 3
_REC_TYPES = (REC_RECORD, REC_TOUCH, REC_TOMBSTONE)

_FP_LEN = 32

#: Optional wall-clock timestamp trailing a TOUCH fingerprint (entries
#: carry theirs in the pickled dict under ``"ts"``).  Readers slice the
#: fingerprint off the front, so logs written before timestamps existed
#: — and by writers that omit them — stay readable; the quota report
#: simply counts those entries as untimed.
_TS = struct.Struct("<d")

#: Group-commit budgets: pending records are appended once this many
#: bytes are buffered, or once the oldest of them is this many seconds
#: old (checked whenever a record is buffered or looked up).
PENDING_BYTES = 1 << 20
PENDING_AGE_S = 1.0


def fingerprint_key(key: bytes) -> bytes:
    """The 32-byte content address of a canonical cache key.

    Canonical keys are flat byte strings (see
    :func:`repro.engine.cache.canonicalize`), independent of
    ``PYTHONHASHSEED``, process, and platform, so the address is their
    SHA-256.
    """
    return hashlib.sha256(key).digest()


#: The store's lifetime counters (``store.stats.<name>``): LRU
#: compaction ``evictions``, invalidation ``tombstones``, and torn
#: tails skipped on read (``torn_records``, one per distinct offset).
STORE_COUNTERS = (
    "hits misses stores evictions tombstones torn_records compactions"
)


class StoreFormatError(ValueError):
    """A shard file whose header is not a REPROSTO log at all.

    Torn *records* are recoverable and never raise — this fires only
    when the file exists but was clearly never written by the store.
    """

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class _Flock:
    """A (shared or exclusive) flock on a never-replaced lock file."""

    def __init__(self, path: str, exclusive: bool):
        self._path = path
        self._exclusive = exclusive
        self._fd: int | None = None

    def __enter__(self) -> "_Flock":
        self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is not None:
            fcntl.flock(
                self._fd,
                fcntl.LOCK_EX if self._exclusive else fcntl.LOCK_SH,
            )
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._fd is not None:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


class _Shard:
    """In-memory view of one shard's record log."""

    __slots__ = (
        "path", "lock_path", "index", "recency", "recency_ts", "seq",
        "scanned", "generation", "torn_at", "pending", "stat",
    )

    def __init__(self, path: str, lock_path: str):
        self.path = path
        self.lock_path = lock_path
        #: fingerprint -> entry dict (the live view after tombstones).
        self.index: dict[bytes, dict[str, Any]] = {}
        #: fingerprint -> last-seen sequence number (LRU recency).
        self.recency: dict[bytes, int] = {}
        #: fingerprint -> last-touched wall-clock time, where known
        #: (quota reporting only — eviction order stays on ``recency``,
        #: which is total even across clock skew).
        self.recency_ts: dict[bytes, float] = {}
        self.seq = 0
        #: Byte offset scanned up to (end of the last good record).
        self.scanned = 0
        self.generation = -1
        #: Offset of the torn tail already diagnosed (avoid recounting
        #: the same tail on every refresh while a writer is in flight).
        self.torn_at = -1
        #: Records buffered for the next flush, in order, as
        #: ``(type, fingerprint, value, encoded)`` — the decoded form
        #: replays them onto the view after the append (see
        #: :func:`_append`), the encoded one is what goes to disk.
        self.pending: list[tuple[int, bytes, Any, bytes]] = []
        #: ``(st_ino, st_size, st_mtime_ns)`` of the log as last
        #: scanned or written: an unchanged stat means nothing to read.
        self.stat: tuple[int, int, int] | None = None

    def reset(self) -> None:
        self.index.clear()
        self.recency.clear()
        self.recency_ts.clear()
        self.seq = 0
        self.scanned = 0
        self.generation = -1
        self.torn_at = -1
        self.stat = None

    def note_stat(self, fh) -> None:
        st = os.fstat(fh.fileno())
        self.stat = (st.st_ino, st.st_size, st.st_mtime_ns)

    def apply(self, rtype: int, fp: bytes, value: Any) -> None:
        """Apply one decoded record to the view: ``value`` is the entry
        dict of a ``RECORD``, the timestamp (or ``None``) of a
        ``TOUCH``; a ``TOMBSTONE`` has none."""
        self.seq += 1
        if rtype == REC_RECORD:
            self.index[fp] = value
            self.recency[fp] = self.seq
            ts = value.get("ts")
            if isinstance(ts, float):
                self.recency_ts[fp] = ts
        elif rtype == REC_TOUCH:
            if fp in self.index:
                self.recency[fp] = self.seq
                if value is not None:
                    self.recency_ts[fp] = value
        elif rtype == REC_TOMBSTONE:
            self.index.pop(fp, None)
            self.recency.pop(fp, None)
            self.recency_ts.pop(fp, None)


def _encode(rtype: int, payload: bytes) -> bytes:
    return _REC.pack(rtype, len(payload), zlib.crc32(payload)) + payload


def _decode(rtype: int, payload: bytes) -> tuple[bytes, Any]:
    """Split a CRC-valid payload into its fingerprint and value."""
    fp = payload[:_FP_LEN]
    if rtype == REC_RECORD:
        try:
            return fp, pickle.loads(payload[_FP_LEN:])
        except Exception:
            # Counted by the caller as torn (CRC passed but the pickle
            # is not loadable — same recovery: skip).
            raise _TornRecord("unpicklable entry payload")
    if rtype == REC_TOUCH and len(payload) >= _FP_LEN + _TS.size:
        return fp, _TS.unpack_from(payload, _FP_LEN)[0]
    return fp, None


def _read_header(fh, shard: _Shard) -> int | None:
    """Validate the header; returns the generation or ``None`` when the
    file is empty / shorter than a header (treated as new)."""
    fh.seek(0)
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        return None
    magic, version, _reserved, generation = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StoreFormatError(
            f"bad magic {magic!r}; not a result-store shard", shard.path
        )
    if version != VERSION:
        raise StoreFormatError(
            f"unsupported shard version {version}", shard.path
        )
    return generation


def _scan(shard: _Shard, fh, on_torn: Callable[[_Shard, int, str], None]) -> None:
    """Advance ``shard``'s view to the end of the good prefix;
    ``on_torn(shard, offset, why)`` reports a torn tail."""
    size = os.fstat(fh.fileno()).st_size
    if size < shard.scanned:
        shard.reset()  # compacted underneath us
    gen = _read_header(fh, shard)
    if gen is None:
        shard.scanned = 0
        return
    if shard.generation != -1 and gen != shard.generation:
        shard.reset()
    shard.generation = gen
    good = max(shard.scanned, _HEADER.size)
    if size > good:
        fh.seek(good)
        data = fh.read(size - good)
        off = 0
        n = len(data)
        while off < n:
            if off + _REC.size > n:
                on_torn(shard, good + off, "truncated record header")
                break
            rtype, length, crc = _REC.unpack_from(data, off)
            if rtype not in _REC_TYPES or length > MAX_PAYLOAD:
                on_torn(
                    shard, good + off,
                    f"bad record header (type={rtype}, len={length})",
                )
                break
            end = off + _REC.size + length
            if end > n:
                on_torn(shard, good + off, "truncated record payload")
                break
            payload = data[off + _REC.size:end]
            if zlib.crc32(payload) != crc:
                on_torn(shard, good + off, "payload CRC mismatch")
                break
            try:
                shard.apply(rtype, *_decode(rtype, payload))
            except _TornRecord as e:
                on_torn(shard, good + off, str(e))
                break
            off = end
        good += off
    shard.scanned = good
    shard.note_stat(fh)


def _append(shard: _Shard, on_torn: Callable[[_Shard, int, str], None]) -> None:
    """Append ``shard.pending`` under the exclusive lock with one
    ``fsync``, then advance the view past the bytes just written."""
    pending = shard.pending
    shard.pending = []
    records = b"".join(rec for *_, rec in pending)
    with _Flock(shard.lock_path, exclusive=True):
        try:
            fh = open(shard.path, "r+b")
        except FileNotFoundError:
            fh = open(shard.path, "w+b")
        with fh:
            if os.fstat(fh.fileno()).st_size < _HEADER.size:
                fh.seek(0)
                fh.truncate(0)
                fh.write(_HEADER.pack(MAGIC, VERSION, 0, 0))
                # Flush before any fstat: a buffered header would read
                # as an empty file and spuriously reset the view.
                fh.flush()
                shard.generation = 0
                shard.scanned = _HEADER.size
            # Catch up on other writers' appends, then cut any torn
            # tail: we hold the exclusive lock, so an invalid tail
            # cannot be an append in flight — it is a crash residue.
            _scan(shard, fh, on_torn)
            if os.fstat(fh.fileno()).st_size > shard.scanned:
                fh.truncate(shard.scanned)
            fh.seek(shard.scanned)
            fh.write(records)
            fh.flush()
            os.fsync(fh.fileno())
            # Nobody else can append or compact while we hold the lock,
            # so the log is exactly the scanned prefix plus our records:
            # skip reading them back, and replay their decoded form so
            # the view orders them after the catch-up (a catch-up that
            # reset the view or tombstoned one of them is repaired).
            shard.scanned += len(records)
            for rtype, fp, value, _rec in pending:
                shard.apply(rtype, fp, value)
            shard.note_stat(fh)
            shard.torn_at = -1


def _ignore_torn(shard: _Shard, offset: int, why: str) -> None:
    pass


def _flush_at_exit(shards: list[_Shard], lock: threading.Lock, pid: int) -> None:
    """The finalizer of a handle nobody closed: append what is pending
    (in the process that buffered it — never in a forked child)."""
    if os.getpid() != pid:
        return
    with lock:
        for shard in shards:
            if shard.pending:
                try:
                    _append(shard, _ignore_torn)
                except OSError:
                    pass  # a lost record costs a recompute, nothing more


class ResultStore:
    """A sharded append-only store of canonical verification results.

    Thread-safe within a process; safe across processes via per-shard
    file locking (single writer per shard, readers lock-free up to a
    stale-view refresh).  ``max_mb`` caps the on-disk footprint with
    LRU-style compaction; ``chaos`` injects the ``slow-store`` /
    ``corrupt-store`` faults (see :mod:`repro.engine.chaos`).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        max_mb: float | None = None,
        n_shards: int = 16,
        chaos: "ChaosSpec | None" = None,
    ):
        if n_shards < 1 or n_shards > 256:
            raise ValueError(f"n_shards must be in [1, 256], got {n_shards}")
        self.path = os.fspath(path)
        self.max_bytes = None if max_mb is None else int(max_mb * 1024 * 1024)
        self.chaos = chaos if chaos is not None and (
            chaos.slow_store > 0 or chaos.corrupt_store > 0
        ) else None
        self.stats = obs.Counters("store", STORE_COUNTERS)
        #: Human-readable torn-record diagnostics (also for tests).
        self.diagnostics: list[str] = []
        self._lock = threading.Lock()
        os.makedirs(os.path.join(self.path, "shards"), exist_ok=True)
        self.n_shards = self._load_meta(n_shards)
        self._shards = [
            _Shard(
                os.path.join(self.path, "shards", f"{i:02x}", "records.bin"),
                os.path.join(self.path, "shards", f"{i:02x}", ".lock"),
            )
            for i in range(self.n_shards)
        ]
        for shard in self._shards:
            os.makedirs(os.path.dirname(shard.path), exist_ok=True)
        #: Bytes buffered across all shards, and when the oldest of them
        #: was buffered (``None`` while nothing is pending).
        self._pending_bytes = 0
        self._pending_since: float | None = None
        weakref.finalize(
            self, _flush_at_exit, self._shards, self._lock, os.getpid()
        )

    # ------------------------------------------------------------------
    # Meta
    # ------------------------------------------------------------------
    def _load_meta(self, n_shards: int) -> int:
        """The shard count is a store property, not a handle property:
        an existing store's meta wins over the constructor argument."""
        meta_path = os.path.join(self.path, "store.meta")
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
            if meta.get("version") != VERSION:
                raise StoreFormatError(
                    f"unsupported store version {meta.get('version')!r}",
                    meta_path,
                )
            return int(meta["n_shards"])
        except FileNotFoundError:
            tmp = meta_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"version": VERSION, "n_shards": n_shards}, fh)
            try:
                # Atomic publish; a concurrent creator's identical meta
                # winning the race is fine.
                os.replace(tmp, meta_path)
            except OSError:
                os.unlink(tmp)
            return n_shards

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def shard_of(self, fp: bytes) -> int:
        """First fingerprint byte picks the shard."""
        return fp[0] % self.n_shards

    @staticmethod
    def _address(
        canon: "CanonicalInstance | Hashable",
    ) -> tuple[Hashable, bytes]:
        """The canonical key and its fingerprint — computed once per
        :class:`~repro.engine.cache.CanonicalInstance`, shared by its
        lookup and its put."""
        fp = getattr(canon, "fingerprint", None)
        if fp is not None:
            return canon.key, fp
        key = getattr(canon, "key", canon)
        return key, fingerprint_key(key)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def _torn(self, shard: _Shard, offset: int, why: str) -> None:
        if shard.torn_at == offset:
            return  # same in-flight tail as last refresh
        shard.torn_at = offset
        self.stats.add("torn_records")
        self.diagnostics.append(
            f"{shard.path}: torn record at byte {offset}: {why}; "
            f"skipping tail"
        )

    def _refresh(self, shard: _Shard) -> None:
        """Catch up on other writers — unless the log's stat shows
        nothing new since the last scan.  A view that is stale anyway
        (a same-size rewrite within the mtime granularity) can only
        turn a hit into a miss, i.e. a recompute."""
        try:
            st = os.stat(shard.path)
            if st.st_size == shard.scanned and shard.stat == (
                st.st_ino, st.st_size, st.st_mtime_ns
            ):
                return
            with _Flock(shard.lock_path, exclusive=False):
                with open(shard.path, "rb") as fh:
                    _scan(shard, fh, self._torn)
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @obs.timed("store")
    def lookup(self, canon: "CanonicalInstance") -> dict[str, Any] | None:
        """Return the stored entry for ``canon`` or ``None``.

        The returned dict is a private copy with keys ``holds``,
        ``method``, ``reason``, ``schedule_idx``, ``stats``,
        ``certificate``.  A fingerprint match with a different full key
        (hash collision / stale format) is a miss, never served.
        """
        key, fp = self._address(canon)
        if self.chaos is not None:
            delay = self.chaos.store_delay(fp.hex(), "lookup")
            if delay > 0:
                time.sleep(delay)
        with self._lock:
            shard = self._shards[self.shard_of(fp)]
            entry = shard.index.get(fp)
            if entry is None:
                self._refresh(shard)
                entry = shard.index.get(fp)
            if not _matches(entry, key):
                self.stats.add("misses")
                self._maybe_commit()
                return None
            self.stats.add("hits")
            # Cross-process LRU: recency travels as a TOUCH record
            # (timestamped, so quota reports can age entries).
            now = time.time()
            self._buffer(shard, REC_TOUCH, fp, now, fp + _TS.pack(now))
            out = dict(entry)
            out["stats"] = dict(entry.get("stats") or {})
            self._maybe_commit()
        if self.chaos is not None and self.chaos.corrupts_store_record(fp.hex()):
            _tamper_entry(out)
        return out

    def contains(self, canon: "CanonicalInstance | Hashable") -> bool:
        """Uncounted probe (the ``batch --dry-run`` predictor)."""
        key, fp = self._address(canon)
        with self._lock:
            shard = self._shards[self.shard_of(fp)]
            entry = shard.index.get(fp)
            if entry is None:
                self._refresh(shard)
                entry = shard.index.get(fp)
            return _matches(entry, key)

    def __len__(self) -> int:
        with self._lock:
            for shard in self._shards:
                self._refresh(shard)
            return sum(len(s.index) for s in self._shards)

    def entries(self) -> list[dict[str, Any]]:
        """All live entries (tests / tooling; copies, freshest view)."""
        out: list[dict[str, Any]] = []
        with self._lock:
            for shard in self._shards:
                self._refresh(shard)
                out.extend(dict(entry) for entry in shard.index.values())
        return out

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @obs.timed("store")
    def put(
        self,
        canon: "CanonicalInstance",
        *,
        holds: bool,
        method: str,
        reason: str,
        schedule_idx: list[int] | None,
        stats: dict[str, Any],
        certificate: Any = None,
    ) -> None:
        """Buffer one entry for the next group commit.

        The entry is visible to this handle immediately; other handles
        and processes see it once it is flushed — when a budget
        (:data:`PENDING_BYTES` / :data:`PENDING_AGE_S`) is spent at this
        handle's next call, or at its owner's flush or close.  Payloads
        are pickled here so later caller-side mutation cannot leak into
        the log.
        """
        key, fp = self._address(canon)
        entry = {
            "key": key,
            "v": RECORD_VERSION,
            "holds": bool(holds),
            "method": method,
            "reason": reason,
            "schedule_idx": list(schedule_idx) if schedule_idx else None,
            "stats": {
                k: v for k, v in (stats or {}).items()
                if k not in ("cache_hit", "store_hit")
            },
            "certificate": certificate,
            "ts": time.time(),
        }
        payload = fp + pickle.dumps(entry, protocol=4)
        with self._lock:
            shard = self._shards[self.shard_of(fp)]
            self._buffer(shard, REC_RECORD, fp, entry, payload)
            self.stats.add("stores")
            self._maybe_commit()

    def invalidate(self, canon: "CanonicalInstance") -> None:
        """Evict an entry whose verdict failed revalidation (tombstone
        persists the eviction so no later process trusts it either)."""
        _key, fp = self._address(canon)
        with self._lock:
            shard = self._shards[self.shard_of(fp)]
            if fp not in shard.index:
                self._refresh(shard)  # it may be on disk all the same
            if fp in shard.index:
                self._buffer(shard, REC_TOMBSTONE, fp, None, fp)
                self.stats.add("tombstones")
            self._maybe_commit()

    def _buffer(
        self, shard: _Shard, rtype: int, fp: bytes, value: Any,
        payload: bytes,
    ) -> None:
        """Apply a record to this handle's view now; queue it for the
        next group commit (caller holds ``self._lock``)."""
        shard.apply(rtype, fp, value)
        record = _encode(rtype, payload)
        shard.pending.append((rtype, fp, value, record))
        self._pending_bytes += len(record)
        if self._pending_since is None:
            self._pending_since = time.monotonic()

    def _maybe_commit(self) -> None:
        """Group-commit once a budget is spent (caller holds the lock)."""
        if self._pending_since is not None and (
            self._pending_bytes >= PENDING_BYTES
            or time.monotonic() - self._pending_since >= PENDING_AGE_S
        ):
            self._commit()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @obs.timed("store")
    def flush(self) -> None:
        """Append all buffered records — one exclusive lock and one
        ``fsync`` per dirty shard — then compact if over budget (a
        no-op when nothing is pending)."""
        with self._lock:
            self._commit()

    def _commit(self) -> None:
        if self._pending_since is None:
            return
        for shard in self._shards:
            if shard.pending:
                self._flush_shard(shard)
        self._pending_bytes = 0
        self._pending_since = None
        self._maybe_compact()

    def _flush_shard(self, shard: _Shard) -> None:
        if self.chaos is not None:
            delay = self.chaos.store_delay(
                os.path.basename(os.path.dirname(shard.path)), "flush"
            )
            if delay > 0:
                time.sleep(delay)
        _append(shard, self._torn)

    def total_bytes(self) -> int:
        total = 0
        for shard in self._shards:
            try:
                total += os.stat(shard.path).st_size
            except FileNotFoundError:
                pass
        return total

    # ------------------------------------------------------------------
    # Quota observability
    # ------------------------------------------------------------------
    def quota_report(self) -> dict[str, Any]:
        """Per-shard occupancy and LRU ages, for quota tuning.

        Returns ``{"shards": [...], "totals": {...}}``; each shard row
        carries ``shard`` (hex id), ``entries``, ``bytes``,
        ``budget_bytes`` (the per-shard compaction budget, ``None``
        without a ``max_mb`` cap), ``pct`` of that budget, and
        ``lru_age_s`` / ``mru_age_s`` — seconds since the least / most
        recently used live entry was touched.  Entries written before
        timestamps existed have no age and are counted in ``untimed``.
        """
        now = time.time()
        budget = (
            max(self.max_bytes // self.n_shards, _HEADER.size)
            if self.max_bytes is not None
            else None
        )
        rows: list[dict[str, Any]] = []
        with self._lock:
            for i, shard in enumerate(self._shards):
                self._refresh(shard)
                try:
                    size = os.stat(shard.path).st_size
                except FileNotFoundError:
                    size = 0
                timed = [
                    shard.recency_ts[fp]
                    for fp in shard.index
                    if fp in shard.recency_ts
                ]
                rows.append({
                    "shard": f"{i:02x}",
                    "entries": len(shard.index),
                    "bytes": size,
                    "budget_bytes": budget,
                    "pct": (
                        round(100.0 * size / budget, 1)
                        if budget else None
                    ),
                    "lru_age_s": (
                        round(max(0.0, now - min(timed)), 3)
                        if timed else None
                    ),
                    "mru_age_s": (
                        round(max(0.0, now - max(timed)), 3)
                        if timed else None
                    ),
                    "untimed": len(shard.index) - len(timed),
                })
        return {
            "shards": rows,
            "totals": {
                "entries": sum(r["entries"] for r in rows),
                "bytes": sum(r["bytes"] for r in rows),
                "max_bytes": self.max_bytes,
            },
        }

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if self.max_bytes is None or self.total_bytes() <= self.max_bytes:
            return
        budget = max(self.max_bytes // self.n_shards, _HEADER.size)
        for shard in self._shards:
            try:
                size = os.stat(shard.path).st_size
            except FileNotFoundError:
                continue
            if size > budget:
                self._compact_shard(shard, budget)

    def compact(self) -> int:
        """Force LRU compaction of every overweight shard (requires a
        ``max_mb`` budget); returns the number of evicted entries."""
        if self.max_bytes is None:
            return 0
        before = self.stats.evictions
        with self._lock:
            self._commit()
            self._maybe_compact()
        return self.stats.evictions - before

    def _compact_shard(self, shard: _Shard, budget: int) -> None:
        """Rewrite one shard keeping the most recently used entries.

        Runs under the exclusive lock; publishes atomically via
        ``os.replace`` with a bumped generation so concurrent readers
        rebuild their index instead of trusting stale offsets.
        """
        with _Flock(shard.lock_path, exclusive=True):
            try:
                with open(shard.path, "rb") as fh:
                    _scan(shard, fh, self._torn)
            except FileNotFoundError:
                return
            by_recency = sorted(
                shard.index, key=lambda fp: shard.recency.get(fp, 0)
            )
            encoded = {
                fp: _encode(
                    REC_RECORD,
                    fp + pickle.dumps(shard.index[fp], protocol=4),
                )
                for fp in by_recency
            }
            kept: list[bytes] = []
            used = _HEADER.size
            for fp in reversed(by_recency):  # newest first
                rec_len = len(encoded[fp])
                if kept and used + rec_len > budget:
                    break
                used += rec_len
                kept.append(fp)
            kept.reverse()  # write oldest-first so recency order survives
            evicted = [fp for fp in by_recency if fp not in set(kept)]
            generation = shard.generation + 1 if shard.generation >= 0 else 1
            tmp = shard.path + ".compact"
            with open(tmp, "wb") as fh:
                fh.write(_HEADER.pack(MAGIC, VERSION, 0, generation))
                for fp in kept:
                    fh.write(encoded[fp])
                fh.flush()
                os.fsync(fh.fileno())
                new_size = fh.tell()
            os.replace(tmp, shard.path)
            with open(shard.path, "rb") as fh:
                shard.note_stat(fh)
            for fp in evicted:
                shard.index.pop(fp, None)
                shard.recency.pop(fp, None)
                shard.recency_ts.pop(fp, None)
            shard.scanned = new_size
            shard.generation = generation
            shard.torn_at = -1
            self.stats.add("evictions", len(evicted))
            self.stats.add("compactions")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush what is pending.  The handle stays usable; a handle
        never closed is flushed when collected or at interpreter exit."""
        self.flush()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _matches(entry: dict[str, Any] | None, key: Hashable) -> bool:
    """Whether an indexed entry may be served for ``key``: a fingerprint
    collision, a stale key or an older entry version is a miss."""
    return entry is not None and (entry.get("key"), entry.get("v")) == (
        key, RECORD_VERSION,
    )


class _TornRecord(Exception):
    """Internal: a CRC-valid record whose payload is not loadable."""


def _tamper_entry(entry: dict[str, Any]) -> None:
    """The ``corrupt-store`` fault: flip the verdict and strip the
    material a flipped verdict would need, exactly what on-disk bit rot
    or a malicious store looks like.  The on-hit revalidation seam must
    reject the result under ``--certify on|strict`` (a flipped HOLDS has
    no witness; a flipped VIOLATED carries no refutation certificate) —
    certification ``off`` serving it is the documented trust gap."""
    entry["holds"] = not entry.get("holds")
    entry["reason"] = f"[chaos corrupt-store] {entry.get('reason', '')}".strip()
    entry["schedule_idx"] = None
    entry["certificate"] = None
