"""One cache key for every front door.

A per-address verdict is a property of the instance up to renaming
(paper Section 3), so the result cache keys it by ``(problem, requested
method, canonical form)`` and nothing else: not the backend the router
picked, not the pre-pass, not the race.  These tests fill a store
through one front door and read it through another, over the
differential corpus: nothing may be solved twice.
"""

from __future__ import annotations

import pytest

from repro.core.builder import parse_trace
from repro.core.serialize import save
from repro.engine import (
    ResultCache,
    ResultStore,
    planner,
    run_batch,
    validate_result,
    verify_many,
    verify_vmc,
)
from tests.engine.test_differential import CORPUS


def _verify_all(cache, **kwargs):
    return [
        verify_vmc(ex, cache=cache, early_exit=False, **kwargs)
        for ex in CORPUS
    ]


def _misses(results) -> int:
    return sum(r.report["engine.misses"] for r in results)


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store filled by ``verify_vmc`` over the corpus, and its
    verdicts."""
    path = tmp_path_factory.mktemp("shared") / "store"
    cache = ResultCache(store=ResultStore(path))
    results = _verify_all(cache, certify="on")
    cache.flush_store()
    return path, [r.holds for r in results]


def test_verify_store_serves_verify_many(filled):
    path, holds = filled
    outcomes = verify_many(CORPUS, store=ResultStore(path), certify="on")
    assert not any(o.error for o in outcomes)
    assert [o.verdict == "holds" for o in outcomes] == holds
    assert sum(o.provenance.get("solved", 0) for o in outcomes) == 0
    assert sum(o.provenance.get("store", 0) for o in outcomes) > 0


def test_verify_store_serves_run_batch(filled, tmp_path):
    path, holds = filled
    paths = []
    for i, ex in enumerate(CORPUS):
        paths.append(str(tmp_path / f"t{i:03d}.json"))
        save(ex, paths[-1])
    report = run_batch(paths, store=ResultStore(path), certify="on")
    totals = report["totals"]
    assert totals["errors"] == 0
    assert totals["solved"] == 0
    assert totals["store_hits"] == totals["unique"]
    assert [f["verdict"] == "holds" for f in report["files"]] == holds


def test_warm_pass_never_runs_the_prepass(monkeypatch):
    cache = ResultCache()
    cold = _verify_all(cache)
    assert _misses(cold) > 0

    def boom(*_a, **_k):
        raise AssertionError("the pre-pass ran on a warm pass")

    monkeypatch.setattr(planner, "prepass_vmc", boom)
    warm = _verify_all(cache)
    assert [r.holds for r in warm] == [r.holds for r in cold]
    assert _misses(warm) == 0


def test_batch_store_serves_verify(tmp_path):
    """The other direction: a batch-filled store serves ``verify``."""
    path = tmp_path / "store"
    cache = ResultCache(store=ResultStore(path))
    outcomes = verify_many(CORPUS, cache=cache, certify="on")
    cache.flush_store()
    results = _verify_all(
        ResultCache(store=ResultStore(path)), certify="on"
    )
    assert [r.holds for r in results] == [
        o.verdict == "holds" for o in outcomes
    ]
    assert _misses(results) == 0


def test_forced_method_keeps_its_own_entries(filled):
    path, _holds = filled
    ex = CORPUS[0]
    forced = verify_vmc(
        ex, method="sat-cdcl", cache=ResultCache(store=ResultStore(path))
    )
    assert forced.report["engine.misses"] == len(ex.constrained_addresses())
    assert forced.method == "sat-cdcl"


def test_isomorphic_refutation_is_served_not_evicted(tmp_path):
    """A violated hit on a renamed, process-permuted twin carries a
    certificate that names the twin's own operations: it is served,
    never evicted from memory or tombstoned in the store."""
    a = parse_trace("P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)\nP2: R(x,1)")
    b = parse_trace("P0: R(y,1)\nP1: W(y,1) W(y,2)\nP2: R(y,2) R(y,1)")
    cache = ResultCache(store=ResultStore(tmp_path / "s"))
    verify_vmc(a, certify="on", cache=cache)
    hit = verify_vmc(b, certify="on", cache=cache).per_address["y"]
    assert hit.stats["cache_hit"] and hit.stats["certified"]
    assert validate_result(b.restrict_to_address("y"), hit)
    assert cache.stats.validation_failures == 0
    cache.flush_store()
    warm = ResultCache(store=ResultStore(tmp_path / "s"))
    again = verify_vmc(b, certify="on", cache=warm).per_address["y"]
    assert again.stats["store_hit"]
    assert validate_result(b.restrict_to_address("y"), again)
    assert warm.stats.store_revalidation_failures == 0
