"""Canonical fingerprinting and the result cache."""

from repro.core.builder import ExecutionBuilder, parse_trace
from repro.core.checker import is_coherent_schedule
from repro.core.result import Certificate, VerificationResult
from repro.engine import (
    ResultCache,
    ResultStore,
    fingerprint,
    validate_result,
    verify_vmc,
    verify_vmc_at,
)
from repro.engine import certify, store
from repro.engine.cache import canonicalize, from_canonical, to_canonical


def _ex(text, initial=None):
    return parse_trace(text, initial=initial)


class TestFingerprint:
    def test_identical_instances(self):
        a = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        b = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        assert fingerprint(a) == fingerprint(b)

    def test_invariant_under_value_renaming(self):
        a = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        b = _ex("P0: W(x,7) R(x,7)\nP1: R(x,7)", initial={"x": 9})
        assert fingerprint(a) == fingerprint(b)

    def test_invariant_under_address_renaming(self):
        a = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        b = _ex("P0: W(y,1) R(y,1)\nP1: R(y,1)", initial={"y": 0})
        assert fingerprint(a) == fingerprint(b)

    def test_invariant_under_process_permutation(self):
        a = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        b = _ex("P0: R(x,1)\nP1: W(x,1) R(x,1)", initial={"x": 0})
        assert fingerprint(a) == fingerprint(b)

    def test_empty_histories_dropped(self):
        a = _ex("P0: W(x,1)\nP1: R(x,1)", initial={"x": 0})
        b = _ex("P0: W(x,1)\nP1:\nP2: R(x,1)", initial={"x": 0})
        assert fingerprint(a) == fingerprint(b)

    def test_distinguishes_structure(self):
        a = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        b = _ex("P0: W(x,1)\nP1: R(x,1) R(x,1)", initial={"x": 0})
        assert fingerprint(a) != fingerprint(b)

    def test_distinguishes_value_identity(self):
        # Reading the initial value back vs. reading a distinct value:
        # different canonical ids, different keys.
        a = _ex("P0: W(x,1)\nP1: R(x,0)", initial={"x": 0})
        b = _ex("P0: W(x,1)\nP1: R(x,1)", initial={"x": 0})
        assert fingerprint(a) != fingerprint(b)

    def test_distinguishes_problem_and_method(self):
        ex = _ex("P0: W(x,1)\nP1: R(x,1)", initial={"x": 0})
        assert fingerprint(ex, problem="vmc") != fingerprint(ex, problem="vsc")
        assert fingerprint(ex, method="exact") != fingerprint(ex, method="sat")

    def test_write_order_in_key(self):
        ex = _ex("P0: W(x,1) W(x,2)\nP1: R(x,2)", initial={"x": 0})
        w1, w2 = (op for op in ex.all_ops() if op.kind.writes)
        assert fingerprint(ex, write_order=[w1, w2]) != fingerprint(ex)
        assert fingerprint(ex, write_order=[w1, w2]) != fingerprint(
            ex, write_order=[w2, w1]
        )


class TestResultCache:
    def test_hit_on_isomorphic_sub_addresses(self):
        # x and y carry fingerprint-identical histories: one task runs,
        # the other is served from the cache.
        b = ExecutionBuilder(initial={"x": 0, "y": 0})
        b.process().write("x", 1).read("x", 1).write("y", 1).read("y", 1)
        b.process().read("x", 1).read("y", 1)
        result = verify_vmc(b.build())
        assert result.holds
        assert result.report["engine.memory_hits"] == 1
        assert result.report["engine.misses"] == 1

    def test_cached_witness_passes_the_checker(self):
        b = ExecutionBuilder(initial={"x": 0, "y": 0})
        b.process().write("x", 1).read("x", 1).write("y", 1).read("y", 1)
        b.process().read("x", 1).read("y", 1)
        ex = b.build()
        result = verify_vmc(ex)
        hit = [t for t in result.report.rows if t["source"] == "cache"]
        assert len(hit) == 1
        cached = result.per_address[hit[0]["address"]]
        assert cached.stats.get("cache_hit") is True
        assert cached.schedule is not None
        # The witness was stored for the *other* address's instance and
        # re-materialized onto this one; it must certify this instance.
        assert is_coherent_schedule(ex, cached.schedule, addr=hit[0]["address"])

    def test_shared_cache_across_calls(self):
        cache = ResultCache()
        ex = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        r1 = verify_vmc(ex, cache=cache)
        r2 = verify_vmc(ex, cache=cache)
        assert r1.holds and r2.holds
        assert r1.report["engine.memory_hits"] == 0
        assert r2.report["engine.memory_hits"] == 1
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_negative_results_cached(self):
        cache = ResultCache()
        ex = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1) R(x,0)", initial={"x": 0})
        r1 = verify_vmc(ex, cache=cache)
        r2 = verify_vmc(ex, cache=cache)
        assert not r1.holds and not r2.holds
        assert r2.report["engine.memory_hits"] == 1
        assert r1.reason == r2.reason

    def test_cache_false_disables(self):
        b = ExecutionBuilder(initial={"x": 0, "y": 0})
        b.process().write("x", 1).write("y", 1)
        b.process().read("x", 1).read("y", 1)
        result = verify_vmc(b.build(), cache=False)
        assert result.holds
        assert result.report["engine.memory_hits"] == 0

    def test_verdicts_keyed_by_backend(self):
        # The same instance forced through two backends must not share
        # entries (the method label would come back wrong).
        cache = ResultCache()
        ex = _ex("P0: W(x,1) R(x,1)\nP1: R(x,1)", initial={"x": 0})
        r1 = verify_vmc(ex, method="exact", cache=cache)
        r2 = verify_vmc(ex, method="sat-cdcl", cache=cache)
        assert r1.method == "exact" and r2.method == "sat-cdcl"
        assert r2.report["engine.memory_hits"] == 0

    def test_max_entries_evicts(self):
        cache = ResultCache(max_entries=1)
        a = _ex("P0: W(x,1)\nP1: R(x,1)", initial={"x": 0})
        b = _ex("P0: W(x,1) W(x,2)\nP1: R(x,2)", initial={"x": 0})
        verify_vmc_at(a, "x", cache=cache)
        verify_vmc_at(b, "x", cache=cache)
        assert len(cache) == 1
        # a was evicted: verifying it again misses.
        verify_vmc_at(a, "x", cache=cache)
        assert cache.stats.hits == 0

    def test_clear(self):
        cache = ResultCache()
        ex = _ex("P0: W(x,1)\nP1: R(x,1)", initial={"x": 0})
        verify_vmc_at(ex, "x", cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and cache.stats.stores == 0


# A read-read inversion (certified by a happens-before cycle) and the
# same instance up to renaming: another address, another process order.
INVERSION = "P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)\nP2: R(x,1)"
INVERSION_RENAMED = "P0: R(y,1)\nP1: W(y,1) W(y,2)\nP2: R(y,2) R(y,1)"


def _violated_certificates():
    """(execution, write_order, certified result) for every certificate
    kind a violated verdict can carry, plus a witness."""
    out = []
    for text, initial, final in [
        (INVERSION, None, None),
        ("P0: W(x,1)\nP1: R(x,7)", {"x": 0}, None),
        ("P0: R(x,0)", {"x": 0}, {"x": 9}),
        ("P0: W(x,1)", {"x": 0}, {"x": 9}),
        ("P0: W(x,1) R(x,1)\nP1: R(x,1)", {"x": 0}, None),
    ]:
        ex = parse_trace(text, initial=initial, final=final)
        out.append((ex, None, verify_vmc_at(ex, "x", certify="on")))
    ex = parse_trace("P0: W(x,1) W(x,2) R(x,1)")
    order = [op for op in ex.all_ops() if op.kind.writes]
    out.append(
        (ex, order, verify_vmc_at(ex, "x", write_order=order, certify="on"))
    )
    ex = parse_trace(
        "P0: W(x,1) R(x,2)\nP1: W(x,2) R(x,1)\nP2: R(x,1) R(x,2)"
    )
    out.append((
        ex, None,
        verify_vmc_at(ex, "x", method="sat-cdcl", certify="on"),
    ))
    return out


class TestCanonicalCertificates:
    def test_round_trip_keeps_witness_and_certificate(self):
        kinds = set()
        for ex, order, result in _violated_certificates():
            kinds.add(result.certificate.kind)
            canon = canonicalize(ex, order)
            schedule, cert = from_canonical(
                canon, *to_canonical(canon, result.schedule, result.certificate)
            )
            assert schedule == result.schedule
            assert repr(cert) == repr(result.certificate)
        assert kinds == {"witness", "cycle", "infeasible", "order", "rup"}

    def test_canonical_form_names_positions_not_uids(self):
        ex = parse_trace(INVERSION)
        result = verify_vmc_at(ex, "x", certify="on")
        canon = canonicalize(ex)
        _, cert = to_canonical(canon, None, result.certificate)
        steps, cycle = cert.payload
        assert all(isinstance(i, int) for i in cycle)
        assert all(isinstance(u, int) for u, _v, _r, _a in steps)

    def test_unmappable_pieces_are_dropped(self):
        a = canonicalize(parse_trace(INVERSION))
        foreign = Certificate("infeasible", ("read-impossible", (7, 7)))
        assert to_canonical(a, None, foreign) == (None, None)
        assert from_canonical(a, [-1], Certificate("cycle", ((), (99,)))) == (
            None, None,
        )

    def test_uid_form_store_records_are_misses(self, tmp_path, monkeypatch):
        """A record written in the uid-form entry format is never
        decoded as positions."""
        ex = parse_trace(INVERSION)
        monkeypatch.setattr(store, "RECORD_VERSION", 1)
        with ResultStore(tmp_path / "s") as old:
            verify_vmc(ex, certify="on", cache=ResultCache(store=old))
        monkeypatch.undo()
        cache = ResultCache(store=ResultStore(tmp_path / "s"))
        assert not cache.store_tier.contains(canonicalize(
            ex.restrict_to_address("x"), None, "vmc", "auto"
        ))
        result = verify_vmc(ex, certify="on", cache=cache)
        assert cache.stats.store_hits == 0 and result.violated


def _bogus_rup_hit(ex):
    """A cache holding a violated verdict for ``ex`` whose rup proof
    does not refute ``ex``'s formula (as a permuted twin's may not)."""
    cache = ResultCache()
    canon = canonicalize(ex.restrict_to_address("x"), None, "vmc", "auto")
    cache.store(canon, VerificationResult(
        holds=False, method="sat-cdcl",
        certificate=Certificate("rup", (("a", (1,)),)),
    ))
    return cache


class TestRupHits:
    EX = "P0: W(x,1) R(x,2)\nP1: W(x,2) R(x,1)\nP2: R(x,1) R(x,2)"

    def test_failing_rup_hit_is_rederived_for_the_instance(self):
        ex = parse_trace(self.EX)
        cache = _bogus_rup_hit(ex)
        got = verify_vmc(ex, certify="on", cache=cache).per_address["x"]
        assert got.stats["cache_hit"] and got.stats["certified"]
        assert got.certificate.payload != (("a", (1,)),)
        assert validate_result(ex.restrict_to_address("x"), got)
        assert cache.stats.validation_failures == 0

    def test_underivable_rup_hit_is_solved_again(self, monkeypatch):
        ex = parse_trace(self.EX)
        cache = _bogus_rup_hit(ex)
        monkeypatch.setattr(
            certify, "ensure_certificate", lambda _ex, result, *_a: result
        )
        got = verify_vmc(ex, certify="on", cache=cache).per_address["x"]
        assert not got.stats["cache_hit"]
        assert cache.stats.validation_failures == 1
        assert validate_result(ex.restrict_to_address("x"), got)
