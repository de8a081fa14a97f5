"""The result store's group-commit durability contract.

Records are buffered per handle and appended at a byte or age budget,
at ``flush``/``close``/``with`` exit, and when an unclosed handle is
collected or the interpreter exits.  A crash costs the records still
pending — a later run misses and recomputes them, never serving a torn
or partial record.  Readers re-scan a shard only when its ``stat``
moved, and a writer advances past its own append without reading it
back; both must leave every handle's view equal to a fresh scan.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time

import pytest

from repro.core.builder import parse_trace
from repro.engine import ResultCache, verify_vmc
from repro.engine import cache as cache_mod
from repro.engine import store as store_mod
from repro.engine.cache import canonicalize
from repro.engine.store import PENDING_AGE_S, PENDING_BYTES, ResultStore

#: Single-address traces, pairwise non-isomorphic (distinct shapes), so
#: each is its own store entry.
TRACES = [
    "P0: W(x,1) R(x,1)",
    "P0: W(x,1) W(x,2) R(x,2)",
    "P0: W(x,1) R(x,1)\nP1: W(x,2) R(x,2) R(x,1)",
    "P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)",
]


def _canon(i: int):
    ex = parse_trace(f"P0: W(x,{i + 1}) R(x,{i + 1})")
    return canonicalize(ex.restrict_to_address("x"), None, "vmc", f"m{i}")


def _put(store, canon, blob: str = ""):
    store.put(
        canon, holds=True, method="exact", reason="ok",
        schedule_idx=[0, 1], stats={"blob": blob} if blob else {},
    )


def _run_child(code: str, *argv: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )


def _assert_view_matches_disk(handle: ResultStore) -> None:
    len(handle)  # catch up on the other writers first
    fresh = ResultStore(handle.path)
    len(fresh)  # scan every shard
    for mine, disk in zip(handle._shards, fresh._shards):
        assert not mine.pending
        assert mine.index.keys() == disk.index.keys()
        assert mine.index == disk.index
        assert mine.scanned == disk.scanned


class TestCrashLosesOnlyPending:
    CHILD = """
import os, sys
from repro.core.builder import parse_trace
from repro.engine import ResultCache, verify_vmc
from repro.engine.store import ResultStore
store = ResultStore(sys.argv[1], n_shards=1)
cache = ResultCache(store=store)
texts = sys.argv[2:]
verify_vmc(parse_trace(texts[0]), cache=cache)
store.flush()
for text in texts[1:]:
    verify_vmc(parse_trace(text), cache=cache)
os._exit(0)  # a crash: no close, no atexit, no finalizer
"""

    def test_unflushed_records_are_recomputed(self, tmp_path):
        path = str(tmp_path / "store")
        _run_child(self.CHILD, path, *TRACES)
        store = ResultStore(path)
        cache = ResultCache(store=store)
        for text in TRACES:
            ex = parse_trace(text)
            got = verify_vmc(ex, cache=cache, certify="on")
            want = verify_vmc(ex, certify="on")
            assert bool(got) == bool(want)
            assert got.per_address["x"].stats.get("certified")
        # Only the flushed record survived the crash.
        assert store.stats.hits == 1
        assert store.stats.misses == len(TRACES) - 1
        assert store.stats.torn_records == 0

    def test_torn_append_is_never_served(self, tmp_path):
        path = str(tmp_path / "store")
        with ResultStore(path, n_shards=1) as store:
            cache = ResultCache(store=store)
            verify_vmc(parse_trace(TRACES[0]), cache=cache)
            store.flush()
            shard = store._shards[0].path
            good = os.stat(shard).st_size
            verify_vmc(parse_trace(TRACES[1]), cache=cache)
        # A crash mid-append: the second record is cut in half.
        full = os.stat(shard).st_size
        with open(shard, "r+b") as fh:
            fh.truncate(good + (full - good) // 2)
        store = ResultStore(path)
        cache = ResultCache(store=store)
        for text in TRACES[:2]:
            ex = parse_trace(text)
            assert bool(verify_vmc(ex, cache=cache)) == bool(verify_vmc(ex))
        assert (store.stats.hits, store.stats.misses) == (1, 1)
        assert store.stats.torn_records == 1


class TestBudgets:
    def test_byte_budget_flushes(self, tmp_path):
        path = tmp_path / "store"
        writer = ResultStore(path)
        blob = "b" * (PENDING_BYTES // 4)
        _put(writer, _canon(0), blob)
        assert ResultStore(path).lookup(_canon(0)) is None  # still pending
        for i in range(1, 4):  # the fourth put crosses the budget
            assert ResultStore(path).lookup(_canon(i - 1)) is None
            _put(writer, _canon(i), blob)
        assert all(not s.pending for s in writer._shards)
        reader = ResultStore(path)
        for i in range(4):
            assert reader.lookup(_canon(i))["stats"]["blob"] == blob

    def test_age_budget_flushes(self, tmp_path):
        path = tmp_path / "store"
        writer = ResultStore(path)
        _put(writer, _canon(0))
        assert ResultStore(path).lookup(_canon(0)) is None
        time.sleep(PENDING_AGE_S + 0.05)
        # Any call that buffers or looks up checks the age budget —
        # here a lookup that misses.
        assert writer.lookup(_canon(1)) is None
        assert ResultStore(path).lookup(_canon(0)) is not None

    def test_no_flush_before_a_budget(self, tmp_path):
        path = tmp_path / "store"
        writer = ResultStore(path)
        for i in range(8):
            _put(writer, _canon(i))
            assert writer.lookup(_canon(i)) is not None
        assert writer.total_bytes() == 0


class TestCloseAndExit:
    def test_close(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _put(store, _canon(0))
        store.close()
        assert ResultStore(tmp_path / "store").lookup(_canon(0)) is not None

    def test_with_block(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _put(store, _canon(0))
        assert ResultStore(tmp_path / "store").lookup(_canon(0)) is not None

    def test_collected_handle(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _put(store, _canon(0))
        del store
        gc.collect()
        assert ResultStore(tmp_path / "store").lookup(_canon(0)) is not None

    def test_unclosed_handle_at_interpreter_exit(self, tmp_path):
        path = str(tmp_path / "store")
        _run_child(
            """
import sys
from repro.core.builder import parse_trace
from repro.engine import ResultCache, verify_vmc
from repro.engine.store import ResultStore
STORE = ResultStore(sys.argv[1])  # module global, never closed
verify_vmc(parse_trace(sys.argv[2]), cache=ResultCache(store=STORE))
""",
            path, TRACES[2],
        )
        store = ResultStore(path)
        verify_vmc(parse_trace(TRACES[2]), cache=ResultCache(store=store))
        assert store.stats.hits == 1 and store.stats.misses == 0


class TestStatGatedRefresh:
    def test_unchanged_log_is_not_reopened(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        with ResultStore(path, n_shards=1) as writer:
            _put(writer, _canon(0))
        reader = ResultStore(path)
        assert reader.lookup(_canon(1)) is None  # first scan
        opened = []
        real = store_mod._Flock.__enter__

        def counting(self):
            opened.append(self)
            return real(self)

        monkeypatch.setattr(store_mod._Flock, "__enter__", counting)
        for _ in range(5):
            assert reader.lookup(_canon(1)) is None
        assert opened == []
        assert reader.lookup(_canon(0)) is not None

    def test_sees_another_handles_append(self, tmp_path):
        path = tmp_path / "store"
        reader = ResultStore(path, n_shards=1)
        writer = ResultStore(path)
        _put(writer, _canon(0))
        writer.flush()
        assert reader.lookup(_canon(1)) is None  # scanned at this size
        _put(writer, _canon(1))
        writer.flush()
        assert reader.lookup(_canon(1)) is not None

    def test_sees_a_compactions_generation_bump(self, tmp_path):
        path = tmp_path / "store"
        writer = ResultStore(path, n_shards=1)
        for i in range(24):
            _put(writer, _canon(i))
        writer.flush()
        reader = ResultStore(path)
        assert reader.lookup(_canon(23)) is not None
        generation = reader._shards[0].generation
        writer.max_bytes = 2048
        assert writer.compact() > 0
        # A miss refreshes: the new log's stat differs, the scan sees
        # the bumped generation and rebuilds the view from scratch.
        assert reader.lookup(_canon(99)) is None
        assert reader._shards[0].generation == generation + 1
        assert reader._shards[0].index.keys() == writer._shards[0].index.keys()


class TestViewEqualsScan:
    def test_foreign_tombstone_before_own_append(self, tmp_path):
        path = tmp_path / "store"
        a = ResultStore(path, n_shards=1)
        b = ResultStore(path)
        _put(a, _canon(0))  # pending in a
        _put(b, _canon(0))
        b.invalidate(_canon(0))
        b.flush()
        # a's catch-up applies b's tombstone, then a's own record lands
        # after it on disk: the entry is live in both.
        a.flush()
        assert a.lookup(_canon(0)) is not None
        a.flush()
        _assert_view_matches_disk(a)
        _assert_view_matches_disk(b)

    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_handles(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "store"
        handles = [ResultStore(path, n_shards=2) for _ in range(2)]
        canons = [_canon(i) for i in range(10)]
        for _ in range(120):
            h = rng.choice(handles)
            c = rng.choice(canons)
            op = rng.random()
            if op < 0.4:
                _put(h, c, blob=str(rng.random()))
            elif op < 0.7:
                h.lookup(c)  # a hit buffers a TOUCH
            elif op < 0.85:
                h.invalidate(c)
            else:
                h.flush()
        for h in handles:
            h.flush()
        for h in handles:
            _assert_view_matches_disk(h)


def test_fingerprint_hashed_once_per_instance(tmp_path, monkeypatch):
    calls = []
    real = cache_mod.fingerprint_key

    def counting(key):
        calls.append(key)
        return real(key)

    monkeypatch.setattr(cache_mod, "fingerprint_key", counting)
    store = ResultStore(tmp_path / "store")
    canon = _canon(0)
    assert store.lookup(canon) is None
    _put(store, canon)
    assert store.lookup(canon) is not None
    assert len(calls) == 1
