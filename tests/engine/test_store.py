"""The disk-backed content-addressed result store.

Covers the ISSUE's store acceptance surface: round-trip persistence
across handles, torn-record recovery with byte-offset diagnostics,
single-writer-per-shard locking exercised by a real process pool
hammering one shard, LRU compaction under a byte budget, and
tombstone persistence after invalidation.
"""

from __future__ import annotations

import concurrent.futures
import os

import pytest

from repro.core.builder import parse_trace
from repro.core.result import Certificate, VerificationResult
from repro.engine.cache import ResultCache, canonicalize
from repro.engine.store import (
    _HEADER,
    MAGIC,
    ResultStore,
    StoreFormatError,
    fingerprint_key,
)
from repro import obs


def _canon(text, initial=None, method="auto"):
    ex = parse_trace(text, initial=initial)
    addr = ex.constrained_addresses()[0]
    return canonicalize(ex.restrict_to_address(addr), None, "vmc", method)


def _put(store, canon, holds=True, reason="ok", schedule_idx=None):
    store.put(
        canon,
        holds=holds,
        method="exact",
        reason=reason,
        schedule_idx=schedule_idx,
        stats={"states": 3},
    )


class TestFingerprintKey:
    def test_deterministic_and_sized(self):
        key = _canon("P0: R(x,1)\nP1: W(x,1)").key
        assert isinstance(key, bytes)
        assert fingerprint_key(key) == fingerprint_key(key)
        assert len(fingerprint_key(key)) == 32

    def test_process_independent(self):
        # Key bytes and their hash must not depend on PYTHONHASHSEED.
        import subprocess
        import sys

        text = "P0: W(x,1) R(x,2)\nP1: W(x,2) R(x,1)"
        code = (
            "from tests.engine.test_store import _canon;"
            "from repro.engine.store import fingerprint_key;"
            f"print(fingerprint_key(_canon({text!r}).key).hex())"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert out == fingerprint_key(_canon(text).key).hex()


class TestRoundTrip:
    def test_put_lookup_same_handle(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        canon = _canon("P0: W(x,1) R(x,1)")
        assert store.lookup(canon) is None
        _put(store, canon, schedule_idx=[0, 1])
        entry = store.lookup(canon)
        assert entry is not None
        assert entry["holds"] is True
        assert entry["schedule_idx"] == [0, 1]
        assert entry["stats"] == {"states": 3}
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_persists_across_handles(self, tmp_path):
        canon = _canon("P0: W(x,1) R(x,1)")
        with ResultStore(tmp_path / "store") as store:
            _put(store, canon)
        reopened = ResultStore(tmp_path / "store")
        entry = reopened.lookup(canon)
        assert entry is not None and entry["holds"] is True

    def test_unflushed_entries_invisible_to_other_handles(self, tmp_path):
        canon = _canon("P0: W(x,1) R(x,1)")
        store = ResultStore(tmp_path / "store")
        _put(store, canon)
        # Visible to this handle immediately ...
        assert store.lookup(canon) is not None
        # ... but other processes only see it after flush.
        assert ResultStore(tmp_path / "store").lookup(canon) is None
        store.flush()
        assert ResultStore(tmp_path / "store").lookup(canon) is not None

    def test_distinct_instances_distinct_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        a = _canon("P0: W(x,1) R(x,1)")
        b = _canon("P0: W(x,1) W(x,2) R(x,2)")
        _put(store, a, holds=True)
        _put(store, b, holds=False, reason="nope")
        assert store.lookup(a)["holds"] is True
        assert store.lookup(b)["holds"] is False
        assert len(store) == 2

    def test_meta_shard_count_wins_over_ctor(self, tmp_path):
        ResultStore(tmp_path / "store", n_shards=4)
        assert ResultStore(tmp_path / "store", n_shards=16).n_shards == 4

    def test_bad_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store", n_shards=0)

    def test_contains_is_uncounted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        canon = _canon("P0: W(x,1) R(x,1)")
        assert not store.contains(canon)
        _put(store, canon)
        assert store.contains(canon)
        assert store.stats.hits == 0 and store.stats.misses == 0


class TestTombstones:
    def test_invalidate_then_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        canon = _canon("P0: W(x,1) R(x,1)")
        _put(store, canon)
        store.invalidate(canon)
        assert store.lookup(canon) is None
        assert store.stats.tombstones == 1

    def test_tombstone_persists(self, tmp_path):
        canon = _canon("P0: W(x,1) R(x,1)")
        with ResultStore(tmp_path / "store") as store:
            _put(store, canon)
        with ResultStore(tmp_path / "store") as store:
            store.invalidate(canon)
        assert ResultStore(tmp_path / "store").lookup(canon) is None

    def test_invalidating_absent_entry_writes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.invalidate(_canon("P0: W(x,1) R(x,1)"))
        assert store.stats.tombstones == 0


class TestTornRecords:
    def _shard_file(self, root, canon, n_shards=1):
        fp = fingerprint_key(canon.key)
        return os.path.join(
            os.fspath(root), "shards", f"{fp[0] % n_shards:02x}",
            "records.bin",
        )

    def test_truncated_tail_skipped_with_diagnostic(self, tmp_path):
        a = _canon("P0: W(x,1) R(x,1)")
        b = _canon("P0: W(x,1) W(x,2) R(x,2)")
        with ResultStore(tmp_path / "store", n_shards=1) as store:
            _put(store, a)
            store.flush()
            good_size = os.stat(self._shard_file(tmp_path / "store", a)).st_size
            _put(store, b)
        # Crash mid-append: cut the second record in half.
        path = self._shard_file(tmp_path / "store", a)
        full = os.stat(path).st_size
        with open(path, "r+b") as fh:
            fh.truncate(good_size + (full - good_size) // 2)

        reopened = ResultStore(tmp_path / "store")
        assert reopened.lookup(a) is not None  # good prefix survives
        assert reopened.lookup(b) is None      # torn tail skipped
        assert reopened.stats.torn_records == 1
        assert any(
            f"byte {good_size}" in d for d in reopened.diagnostics
        ), reopened.diagnostics

    def test_garbage_tail_skipped(self, tmp_path):
        canon = _canon("P0: W(x,1) R(x,1)")
        with ResultStore(tmp_path / "store", n_shards=1) as store:
            _put(store, canon)
        path = self._shard_file(tmp_path / "store", canon)
        with open(path, "ab") as fh:
            fh.write(b"\xff" * 40)
        reopened = ResultStore(tmp_path / "store")
        assert reopened.lookup(canon) is not None
        assert reopened.stats.torn_records == 1

    def test_writer_truncates_torn_tail_and_recovers(self, tmp_path):
        a = _canon("P0: W(x,1) R(x,1)")
        b = _canon("P0: W(x,1) W(x,2) R(x,2)")
        with ResultStore(tmp_path / "store", n_shards=1) as store:
            _put(store, a)
        path = self._shard_file(tmp_path / "store", a)
        good_size = os.stat(path).st_size
        with open(path, "ab") as fh:
            fh.write(b"\x01garbage-partial-record")

        writer = ResultStore(tmp_path / "store")
        _put(writer, b)
        writer.flush()  # holds the exclusive lock: cuts the torn tail
        assert writer.stats.torn_records == 1

        clean = ResultStore(tmp_path / "store")
        assert clean.lookup(a) is not None
        assert clean.lookup(b) is not None
        assert clean.stats.torn_records == 0
        # The torn bytes are gone from disk, not merely skipped.
        with open(path, "rb") as fh:
            data = fh.read()
        assert b"garbage-partial-record" not in data
        assert len(data) > good_size

    def test_foreign_file_raises_format_error(self, tmp_path):
        canon = _canon("P0: W(x,1) R(x,1)")
        store = ResultStore(tmp_path / "store", n_shards=1)
        path = self._shard_file(tmp_path / "store", canon)
        with open(path, "wb") as fh:
            fh.write(b"NOTASTOREFILE???" * 4)
        with pytest.raises(StoreFormatError):
            store.lookup(canon)

    def test_header_only_file_is_empty(self, tmp_path):
        canon = _canon("P0: W(x,1) R(x,1)")
        store = ResultStore(tmp_path / "store", n_shards=1)
        path = self._shard_file(tmp_path / "store", canon)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, 1, 0, 0))
        assert store.lookup(canon) is None
        assert store.stats.torn_records == 0


class TestCompaction:
    def test_lru_eviction_under_budget(self, tmp_path):
        store = ResultStore(tmp_path / "store", n_shards=1)
        canons = [
            _canon(f"P0: W(x,{i + 1}) R(x,{i + 1})", method=f"m{i}")
            for i in range(24)
        ]
        for canon in canons:
            _put(store, canon)
        store.flush()
        # Touch the oldest entry so recency (not insertion order) rules.
        assert store.lookup(canons[0]) is not None
        store.flush()  # persist the TOUCH before compaction re-scans
        store.max_bytes = 2048
        evicted = store.compact()
        assert evicted > 0
        assert store.stats.compactions >= 1
        assert store.total_bytes() <= 2048
        # The freshly touched entry survived; some stale one did not.
        assert store.contains(canons[0])
        assert not all(store.contains(c) for c in canons[1:])

    def test_compacted_store_reopens_clean(self, tmp_path):
        with ResultStore(tmp_path / "store", max_mb=0.002, n_shards=1) as store:
            canons = [
                _canon(f"P0: W(x,{i + 1}) R(x,{i + 1})", method=f"m{i}")
                for i in range(24)
            ]
            for canon in canons:
                _put(store, canon)
            store.flush()
            store.compact()
            survivors = [c for c in canons if c.key in {
                e["key"] for e in store.entries()
            }]
        reopened = ResultStore(tmp_path / "store")
        assert reopened.stats.torn_records == 0
        for canon in survivors:
            assert reopened.lookup(canon) is not None

    def test_concurrent_reader_survives_compaction(self, tmp_path):
        writer = ResultStore(tmp_path / "store", n_shards=1)
        canons = [
            _canon(f"P0: W(x,{i + 1}) R(x,{i + 1})", method=f"m{i}")
            for i in range(24)
        ]
        for canon in canons:
            _put(writer, canon)
        writer.flush()
        reader = ResultStore(tmp_path / "store")
        assert reader.lookup(canons[-1]) is not None  # index built
        writer.max_bytes = 2048
        writer.compact()  # os.replace underneath the reader
        # Stale view detected (generation bump), index rebuilt, and the
        # survivor set is served — no stale offsets, no torn records.
        assert reader.lookup(canons[-1]) is not None
        for canon in canons:
            entry = reader.lookup(canon)
            assert entry is None or entry["key"] == canon.key


# ---------------------------------------------------------------------
# Concurrent writers (real processes, one shard)
# ---------------------------------------------------------------------
def _hammer(store_path: str, worker: int, n: int) -> int:
    """Pool worker: write n entries into the single shard, flushing
    after every put to maximize lock interleaving."""
    store = ResultStore(store_path)
    for i in range(n):
        key = b"concurrent/%d/%d" % (worker, i)
        store.put(
            key,
            holds=True,
            method="exact",
            reason=f"w{worker}/{i}",
            schedule_idx=None,
            stats={},
        )
        store.flush()
    return worker


class TestConcurrentWriters:
    def test_two_process_writers_one_shard(self, tmp_path):
        """Two real processes hammer the same shard under flock: every
        record survives, none are torn, and a fresh reader sees all."""
        store_path = os.fspath(tmp_path / "store")
        ResultStore(store_path, n_shards=1)  # publish the meta
        n = 25
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            futs = [pool.submit(_hammer, store_path, w, n) for w in (0, 1)]
            assert sorted(f.result(timeout=120) for f in futs) == [0, 1]

        reader = ResultStore(store_path)
        assert len(reader) == 2 * n
        assert reader.stats.torn_records == 0
        for worker in (0, 1):
            for i in range(n):
                entry = reader.lookup(b"concurrent/%d/%d" % (worker, i))
                assert entry is not None
                assert entry["reason"] == f"w{worker}/{i}"


class TestCacheStoreTier:
    def test_memory_vs_store_hits_distinguished(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        canon = _canon("P0: W(x,1) R(x,1)")
        _put(store, canon, schedule_idx=[0, 1])
        store.flush()

        cache = ResultCache(store=ResultStore(tmp_path / "store"))
        with obs.opened() as rec:
            first = cache.lookup(canon)
            assert first is not None and first.stats.get("store_hit")
            second = cache.lookup(canon)  # promoted: now a memory hit
            assert second is not None and not second.stats.get("store_hit")
        assert cache.stats.store_hits == 1 and cache.stats.hits == 1
        assert "hits=1 " in obs.render(rec) and "store_hits=1" in obs.render(rec)

    def test_write_through_and_warm_readthrough(self, tmp_path):
        from repro.engine import verify_vmc

        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        cold = ResultCache(store=ResultStore(tmp_path / "store"))
        assert verify_vmc(ex, cache=cold).holds
        cold.flush_store()

        warm = ResultCache(store=ResultStore(tmp_path / "store"))
        result = verify_vmc(ex, cache=warm)
        assert result.holds
        assert warm.stats.store_hits == 1
        assert result.report["engine.store_hits"] == 1

    def test_store_revalidation_failure_counted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        canon = _canon("P0: W(x,1) R(x,1)")
        _put(store, canon)
        store.flush()
        cache = ResultCache(store=store)
        with obs.opened() as rec:
            assert cache.lookup(canon) is not None
            cache.invalidate(canon)
        assert cache.stats.store_revalidation_failures == 1
        assert store.stats.tombstones == 1
        assert "store_revalidation_failures=1" in obs.render(rec)

    def test_cycle_certificate_revalidated_from_store(self, tmp_path):
        """A closure ``cycle`` certificate round-trips through the store
        and revalidates on the hit; a tampered step fails closed — the
        record is evicted and the task re-solved, never served."""
        from repro.engine import validate_result, verify_vmc

        ex = parse_trace("P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)")
        sub = ex.restrict_to_address("x")
        cold = ResultCache(store=ResultStore(tmp_path / "store"))
        first = verify_vmc(ex, cache=cold, certify="on").per_address["x"]
        assert first.certificate.kind == "cycle"
        assert first.stats["certificate_via"] == "closure"
        cold.flush_store()

        warm = ResultCache(store=ResultStore(tmp_path / "store"))
        hit = verify_vmc(ex, cache=warm, certify="on").per_address["x"]
        assert hit.violated and hit.stats.get("store_hit")
        assert hit.stats.get("certified") and hit.certificate.kind == "cycle"
        assert warm.stats.validation_failures == 0

        # Reverse the first inferred (non-program-order) step.
        store = ResultStore(tmp_path / "store")
        (rec,) = store.entries()
        steps, cycle = rec["certificate"].payload
        i = next(k for k, st in enumerate(steps) if st[2] != "po")
        u, v, rule, aux = steps[i]
        bad = Certificate(
            "cycle", (steps[:i] + ((v, u, rule, aux),) + steps[i + 1:], cycle)
        )
        assert not validate_result(
            sub, VerificationResult(holds=False, method="t", certificate=bad)
        )
        store.put(
            rec["key"], holds=False, method=rec["method"],
            reason=rec["reason"], schedule_idx=None, stats=rec["stats"],
            certificate=bad,
        )
        store.flush()

        poisoned = ResultCache(store=ResultStore(tmp_path / "store"))
        again = verify_vmc(ex, cache=poisoned, certify="on").per_address["x"]
        assert poisoned.stats.store_revalidation_failures == 1
        assert again.violated and not again.stats.get("store_hit")
        assert again.stats.get("certified")
        assert validate_result(sub, again)


class TestRecordFormat:
    def test_header_layout(self, tmp_path):
        canon = _canon("P0: W(x,1) R(x,1)")
        with ResultStore(tmp_path / "store", n_shards=1) as store:
            _put(store, canon)
        path = os.path.join(
            os.fspath(tmp_path / "store"), "shards", "00", "records.bin",
        )
        with open(path, "rb") as fh:
            magic, version, _res, gen = _HEADER.unpack(fh.read(_HEADER.size))
        assert magic == MAGIC and version == 1 and gen == 0

    def test_payload_cap_in_header_check(self):
        # The record header sanity check rejects absurd lengths rather
        # than allocating; encode one manually and scan it.
        from repro.engine.store import _REC, MAX_PAYLOAD

        raw = _REC.pack(1, MAX_PAYLOAD + 1, 0)
        rtype, length, _crc = _REC.unpack_from(raw, 0)
        assert rtype == 1 and length > MAX_PAYLOAD


# ---------------------------------------------------------------------
# Writer racing the compactor (real processes, one shard)
# ---------------------------------------------------------------------
def _race_appender(store_path: str, n: int) -> int:
    """Append n entries, flushing each one, while the other process
    keeps rewriting the shard underneath us via os.replace."""
    store = ResultStore(store_path)
    for i in range(n):
        store.put(
            b"race/%d" % i, holds=True, method="exact", reason=f"r{i}",
            schedule_idx=None, stats={},
        )
        store.flush()
    return n


def _race_compactor(store_path: str, rounds: int) -> int:
    """Force-compact the single shard with an effectively unlimited
    budget: nothing is ever *evicted*, but every round rewrites the
    file and bumps the generation via os.replace — exactly the window
    a naive appending writer would clobber."""
    store = ResultStore(store_path)
    for _ in range(rounds):
        store._compact_shard(store._shards[0], 1 << 30)
    return rounds


class TestCompactionRacesWriter:
    def test_appender_survives_generation_bumps(self, tmp_path):
        """Compaction (generation-bump + os.replace) racing an
        *appending writer*: zero lost records, zero torn records.

        The writer's in-memory view (scanned offset, generation) goes
        stale every time the compactor republishes the shard; a writer
        that trusted its stale offset would truncate live records as a
        'torn tail'.  The flock + generation re-validation must make
        every append land in whichever file is current.
        """
        store_path = os.fspath(tmp_path / "store")
        ResultStore(store_path, n_shards=1)  # publish the meta
        n, rounds = 40, 60
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            appender = pool.submit(_race_appender, store_path, n)
            compactor = pool.submit(_race_compactor, store_path, rounds)
            assert appender.result(timeout=120) == n
            assert compactor.result(timeout=120) == rounds

        reader = ResultStore(store_path)
        assert reader.stats.torn_records == 0
        assert len(reader) == n
        for i in range(n):
            entry = reader.lookup(b"race/%d" % i)
            assert entry is not None, f"record {i} lost to compaction"
            assert entry["reason"] == f"r{i}", f"record {i} torn"


class TestQuotaReport:
    def test_occupancy_and_ages(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_mb=1.0, n_shards=1)
        for i in range(3):
            store.put(
                b"qr/%d" % i, holds=True, method="exact", reason=f"q{i}",
                schedule_idx=None, stats={},
            )
        store.flush()
        report = store.quota_report()
        assert report["totals"]["entries"] == 3
        assert report["totals"]["bytes"] > 0
        assert report["totals"]["max_bytes"] == 1 << 20
        (row,) = report["shards"]
        assert row["shard"] == "00"
        assert row["entries"] == 3
        assert row["budget_bytes"] == 1 << 20
        # A few hundred bytes against a 1 MB budget rounds to ~0%.
        assert 0 <= row["pct"] < 100
        assert row["untimed"] == 0
        # Every entry was just written: both ages are ~now, LRU is the
        # oldest of the three.
        assert 0 <= row["mru_age_s"] <= row["lru_age_s"] < 60

    def test_touch_refreshes_recency(self, tmp_path):
        import time as _time

        store = ResultStore(tmp_path / "store", n_shards=1)
        store.put(
            b"qr/old", holds=True, method="exact", reason="old",
            schedule_idx=None, stats={},
        )
        store.flush()
        _time.sleep(0.05)
        store.put(
            b"qr/new", holds=True, method="exact", reason="new",
            schedule_idx=None, stats={},
        )
        store.flush()
        report = store.quota_report()
        (row,) = report["shards"]
        assert row["lru_age_s"] > row["mru_age_s"]
        # Touch the old entry: it becomes the MRU, shrinking the gap.
        assert store.lookup(b"qr/old") is not None
        after = store.quota_report()["shards"][0]
        assert after["mru_age_s"] <= row["mru_age_s"] + 0.05

    def test_no_budget_reports_none(self, tmp_path):
        store = ResultStore(tmp_path / "store", n_shards=1)
        store.put(
            b"qr/0", holds=True, method="exact", reason="q",
            schedule_idx=None, stats={},
        )
        store.flush()
        (row,) = store.quota_report()["shards"]
        assert row["budget_bytes"] is None
        assert row["pct"] is None
        assert store.quota_report()["totals"]["max_bytes"] is None

    def test_ages_survive_reopen(self, tmp_path):
        """Recency timestamps ride the log (entry ``ts`` + timestamped
        TOUCH records), so a fresh handle can still age entries."""
        with ResultStore(tmp_path / "store", n_shards=1) as store:
            store.put(
                b"qr/persist", holds=True, method="exact",
                reason="p", schedule_idx=None, stats={},
            )
        reopened = ResultStore(tmp_path / "store")
        assert reopened.lookup(b"qr/persist") is not None
        (row,) = reopened.quota_report()["shards"]
        assert row["untimed"] == 0
        assert row["lru_age_s"] is not None


class TestVersion2Records:
    def test_v2_store_is_all_misses_then_rewritten(self, tmp_path, monkeypatch):
        """A store filled at RECORD_VERSION 2 — nested-tuple keys
        addressed by ``sha256(repr(key))``, and for good measure the
        same records under the byte keys' own addresses — serves
        nothing to the new code: every lookup misses, the re-solved
        verdicts are the true ones, and they are written at the new
        version."""
        import hashlib
        from types import SimpleNamespace

        from repro.engine import store as store_mod
        from repro.engine import verify_vmc
        from tests.engine.test_canonical_keys import _tuple_key
        from tests.engine.test_differential import CORPUS

        corpus = CORPUS[::4]
        truth = [bool(verify_vmc(ex, cache=False)) for ex in corpus]
        path = tmp_path / "store"
        monkeypatch.setattr(store_mod, "RECORD_VERSION", 2)
        with ResultStore(path) as old:
            for ex, holds in zip(corpus, truth):
                for addr in ex.constrained_addresses():
                    sub = ex.restrict_to_address(addr)
                    key = _tuple_key(sub)
                    new = canonicalize(sub)
                    for fp in (
                        hashlib.sha256(repr(key).encode()).digest(),
                        new.fingerprint,
                    ):
                        old.put(
                            SimpleNamespace(key=key, fingerprint=fp),
                            holds=not holds, method="exact", reason="v2",
                            schedule_idx=None, stats={},
                        )
                    old.put(
                        new, holds=not holds, method="exact", reason="v2",
                        schedule_idx=None, stats={},
                    )
        monkeypatch.undo()
        assert store_mod.RECORD_VERSION == 3

        store = ResultStore(path)
        cache = ResultCache(store=store)
        got = [bool(verify_vmc(ex, cache=cache)) for ex in corpus]
        assert got == truth
        assert cache.stats.store_hits == 0
        assert store.stats.hits == 0 and store.stats.misses > 0
        cache.flush_store()

        fresh = ResultStore(path)
        live = [e for e in fresh.entries() if e["reason"] != "v2"]
        assert live and all(e["v"] == 3 for e in live)
        assert all(isinstance(e["key"], bytes) for e in live)
        warm = ResultCache(store=fresh)
        again = [bool(verify_vmc(ex, cache=warm)) for ex in corpus]
        assert again == truth
        assert warm.stats.store_hits > 0
        assert warm.stats.store_revalidation_failures == 0
