"""Certified verdicts: the trusted checker and the certified engine.

Two layers of tests.  The unit layer drives
:func:`repro.engine.certify.validate_result` directly with hand-built
certificates — one test per failure mode of each certificate kind, plus
genuine certificates it must accept.  The acceptance layer is the
ISSUE's differential property: over a 150+-execution corpus of both
polarities, every verdict produced by a certified engine run — across
backends, portfolio settings and pools — carries a certificate the
trusted checker validates *independently*, and every tampering is
rejected.
"""

import pytest

from repro.core.builder import parse_trace
from repro.core.result import Certificate, VerificationResult
from repro.core.types import Execution, OpKind, Operation
from repro.engine import (
    ResultCache,
    ensure_certificate,
    validate_result,
    verify_vmc,
    verify_vsc,
)
from repro import obs
from tests.conftest import make_coherent_execution

# A feasible encoding that is UNSAT; a forced SAT backend refutes it
# with a RUP proof (the read-map row and the happens-before closure
# decide it too).
INCOHERENT_SAT = (
    "P0: W(x,1) R(x,2)\n"
    "P1: W(x,2) R(x,1)\n"
    "P2: R(x,1) R(x,2)\n"
    "P3: R(x,2) R(x,1)"
)

# Incoherent, but no value has a unique writer, so forced reads-from
# yields nothing and the happens-before closure leaves it undecided —
# only the SAT route can certify it.
CLOSURE_UNDECIDED = (
    "P0: R(x,1) W(x,2) W(x,1)\n"
    "P1: W(x,2)\n"
    "P2: R(x,2)\n"
    "P3: R(x,1) W(x,1)"
)

# The store-buffering litmus: per-address coherent, but not SC.
SB_NOT_SC = "P0: W(x,1) R(y,0)\nP1: W(y,1) R(x,0)"


def _corrupt_one_read(ex: Execution) -> Execution | None:
    histories = [list(h.operations) for h in ex.histories]
    for ops in reversed(histories):
        for i in reversed(range(len(ops))):
            if ops[i].kind is OpKind.READ:
                op = ops[i]
                ops[i] = Operation(
                    OpKind.READ, op.addr, op.proc, op.index, value_read=99
                )
                return Execution.from_ops(
                    histories, initial=ex.initial, final=ex.final
                )
    return None


def _corpus() -> list[Execution]:
    corpus: list[Execution] = []
    for seed in range(80):
        ex, _ = make_coherent_execution(
            12, 3, seed, addresses=("x", "y", "z"), num_values=3
        )
        corpus.append(ex)
        bad = _corrupt_one_read(ex)
        if bad is not None:
            corpus.append(bad)
    return corpus


CORPUS = _corpus()


def _validated(ex: Execution, result) -> None:
    """Assert every decided per-address verdict passes the independent
    checker run against the raw (restricted) trace."""
    for addr, res in result.per_address.items():
        assert not res.unknown
        assert res.stats.get("certified") is True
        check = validate_result(ex.restrict_to_address(addr), res)
        assert check, f"{addr!r}: {check.reason}"


# ---------------------------------------------------------------------
# The Certificate value type
# ---------------------------------------------------------------------
class TestCertificateType:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="certificate kind"):
            Certificate("bogus")

    def test_kinds_accepted(self):
        for kind in ("witness", "cycle", "infeasible", "rup", "order"):
            assert Certificate(kind).kind == kind


# ---------------------------------------------------------------------
# validate_result: verdict-level rules
# ---------------------------------------------------------------------
class TestVerdictRules:
    def test_unknown_passes_vacuously(self):
        ex = parse_trace("P0: W(x,1)")
        res = VerificationResult.make_unknown(method="m", reason="timeout")
        assert validate_result(ex, res)

    def test_holds_without_schedule_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        res = VerificationResult(holds=True, method="m")
        assert "no witness schedule" in validate_result(ex, res).reason

    def test_holds_with_refutation_certificate_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        res = VerificationResult(
            holds=True, method="m", schedule=list(ex.all_ops()),
            certificate=Certificate("rup", ()),
        )
        assert not validate_result(ex, res)

    def test_holds_with_bad_schedule_rejected(self):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        ops = list(ex.all_ops())
        res = VerificationResult(
            holds=True, method="m", schedule=[ops[1], ops[0]],
            certificate=Certificate("witness"),
        )
        assert "rejected" in validate_result(ex, res).reason

    def test_violated_without_certificate_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        res = VerificationResult(holds=False, method="m")
        assert "no certificate" in validate_result(ex, res).reason

    def test_witness_certificate_on_violated_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        res = VerificationResult(
            holds=False, method="m", certificate=Certificate("witness")
        )
        assert "witness certificate" in validate_result(ex, res).reason

    def test_non_certificate_object_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        res = VerificationResult(holds=False, method="m", certificate="cert")
        assert "not a Certificate" in validate_result(ex, res).reason


# ---------------------------------------------------------------------
# validate_result: infeasibility claims
# ---------------------------------------------------------------------
def _violated(cert: Certificate) -> VerificationResult:
    return VerificationResult(holds=False, method="m", certificate=cert)


class TestInfeasibleClaims:
    def test_read_impossible_accepted(self):
        ex = parse_trace("P0: W(x,1)\nP1: R(x,2)")
        cert = Certificate("infeasible", ("read-impossible", (1, 0)))
        assert validate_result(ex, _violated(cert))

    def test_read_impossible_rejected_when_value_is_written(self):
        ex = parse_trace("P0: W(x,2)\nP1: R(x,2)")
        cert = Certificate("infeasible", ("read-impossible", (1, 0)))
        assert "is written" in validate_result(ex, _violated(cert)).reason

    def test_read_impossible_rejected_for_initial_read(self):
        ex = parse_trace("P0: R(x,0)", initial={"x": 0})
        cert = Certificate("infeasible", ("read-impossible", (0, 0)))
        assert "initial value" in validate_result(ex, _violated(cert)).reason

    def test_read_impossible_rejected_for_unknown_reader(self):
        ex = parse_trace("P0: W(x,1)")
        cert = Certificate("infeasible", ("read-impossible", (9, 9)))
        assert not validate_result(ex, _violated(cert))

    def test_read_impossible_rejected_for_non_read(self):
        ex = parse_trace("P0: W(x,1)")
        cert = Certificate("infeasible", ("read-impossible", (0, 0)))
        assert "does not read" in validate_result(ex, _violated(cert)).reason

    def test_final_vs_initial_accepted(self):
        ex = parse_trace("P0: R(x,0)", initial={"x": 0}, final={"x": 1})
        cert = Certificate("infeasible", ("final-vs-initial", "x"))
        assert validate_result(ex, _violated(cert))

    def test_final_vs_initial_rejected_when_written(self):
        ex = parse_trace("P0: W(x,1)", initial={"x": 0}, final={"x": 1})
        cert = Certificate("infeasible", ("final-vs-initial", "x"))
        assert "is written" in validate_result(ex, _violated(cert)).reason

    def test_final_vs_initial_rejected_without_final(self):
        ex = parse_trace("P0: R(x,0)", initial={"x": 0})
        cert = Certificate("infeasible", ("final-vs-initial", "x"))
        assert "no final value" in validate_result(ex, _violated(cert)).reason

    def test_final_unwritten_accepted(self):
        ex = parse_trace("P0: W(x,1)", initial={"x": 0}, final={"x": 2})
        cert = Certificate("infeasible", ("final-unwritten", "x"))
        assert validate_result(ex, _violated(cert))

    def test_final_unwritten_rejected_when_final_is_written(self):
        ex = parse_trace("P0: W(x,1)", initial={"x": 0}, final={"x": 1})
        cert = Certificate("infeasible", ("final-unwritten", "x"))
        assert "is written" in validate_result(ex, _violated(cert)).reason

    def test_unknown_claim_tag_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        cert = Certificate("infeasible", ("novel-claim", "x"))
        assert "unknown" in validate_result(ex, _violated(cert)).reason

    def test_malformed_claim_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        cert = Certificate("infeasible", "not-a-tuple")
        assert "malformed" in validate_result(ex, _violated(cert)).reason


# ---------------------------------------------------------------------
# validate_result: happens-before cycle certificates
# ---------------------------------------------------------------------
def _cross_reader_cycle():
    """The classic two-writer cross-read: a genuine hb cycle.

    a=W(x,1) po b=R(x,2); c=W(x,2) po d=R(x,1).  Forced rf c->b and
    a->d lift po into wr edges a->c and c->a — a cycle.
    """
    ex = parse_trace("P0: W(x,1) R(x,2)\nP1: W(x,2) R(x,1)")
    a, b, c, d = (0, 0), (0, 1), (1, 0), (1, 1)
    steps = (
        (a, b, "po", None),
        (c, d, "po", None),
        (c, b, "rf", None),
        (a, d, "rf", None),
        (a, c, "wr", (c, b)),
        (c, a, "wr", (a, d)),
    )
    return ex, steps, (a, c)


class TestCycleCertificates:
    def test_genuine_cycle_accepted(self):
        ex, steps, cycle = _cross_reader_cycle()
        cert = Certificate("cycle", (steps, cycle))
        check = validate_result(ex, _violated(cert))
        assert check, check.reason

    def test_unestablished_cycle_edge_rejected(self):
        ex, steps, _ = _cross_reader_cycle()
        cert = Certificate("cycle", (steps, ((0, 1), (1, 0))))
        assert "never established" in validate_result(
            ex, _violated(cert)
        ).reason

    def test_short_cycle_rejected(self):
        ex, steps, _ = _cross_reader_cycle()
        cert = Certificate("cycle", (steps, ((0, 0),)))
        assert "too short" in validate_result(ex, _violated(cert)).reason

    def test_malformed_step_rejected(self):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        cert = Certificate("cycle", ((((0, 0), (0, 1), "po"),), ()))
        assert "malformed proof step" in validate_result(
            ex, _violated(cert)
        ).reason

    def test_unknown_operation_rejected(self):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        cert = Certificate(
            "cycle", ((((0, 0), (9, 9), "po", None),), ())
        )
        assert "unknown operations" in validate_result(
            ex, _violated(cert)
        ).reason

    def test_reversed_po_rejected(self):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        cert = Certificate(
            "cycle", ((((0, 1), (0, 0), "po", None),), ())
        )
        assert "program order" in validate_result(ex, _violated(cert)).reason

    def test_rf_requires_unique_writer(self):
        ex = parse_trace("P0: W(x,1)\nP1: W(x,1)\nP2: R(x,1)")
        cert = Certificate(
            "cycle", ((((0, 0), (2, 0), "rf", None),), ())
        )
        assert "unique writer" in validate_result(ex, _violated(cert)).reason

    def test_init_requires_the_initial_value_never_rewritten(self):
        step = ((0, 0), (0, 1), "init", None)
        cert = Certificate("cycle", ((step,), ()))
        ok = parse_trace("P0: R(x,0) W(x,1)", initial={"x": 0})
        # The step holds; only the (empty) cycle is left to fail.
        assert "too short" in validate_result(ok, _violated(cert)).reason
        bad = parse_trace("P0: R(x,0) W(x,1)\nP1: W(x,0)", initial={"x": 0})
        assert "re-written by P1.W(x,0)" in validate_result(
            bad, _violated(cert)
        ).reason

    def test_closure_must_cite_validated_rf(self):
        ex, _, _ = _cross_reader_cycle()
        a, b, c = (0, 0), (0, 1), (1, 0)
        # wr cites an rf pair no earlier step validated.
        cert = Certificate("cycle", (((a, c, "wr", (c, b)),), ()))
        assert "never validated" in validate_result(
            ex, _violated(cert)
        ).reason

    def test_unknown_rule_rejected(self):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        cert = Certificate(
            "cycle", ((((0, 0), (0, 1), "magic", None),), ())
        )
        assert "unknown proof rule" in validate_result(
            ex, _violated(cert)
        ).reason

    def test_malformed_payload_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        cert = Certificate("cycle", 42)
        assert "malformed" in validate_result(ex, _violated(cert)).reason


# ---------------------------------------------------------------------
# validate_result: RUP certificates (incl. the encoding audit)
# ---------------------------------------------------------------------
class TestRupCertificates:
    def test_malformed_line_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        for payload in ((("x", (1,)),), (("a", (0,)),), ("oops",), 3):
            cert = Certificate("rup", payload)
            assert "malformed" in validate_result(ex, _violated(cert)).reason

    def test_proof_must_refute_this_traces_encoding(self):
        """A structurally fine proof that does not refute the CNF the
        trace induces fails the encoding audit: the execution is
        coherent, so no honest refutation of it exists."""
        ex = parse_trace("P0: W(x,1) R(x,1)")
        cert = Certificate("rup", (("a", ()),))
        assert "rup proof rejected" in validate_result(
            ex, _violated(cert)
        ).reason

    def test_engine_rup_certificate_accepted_and_fragile(self):
        ex = parse_trace(INCOHERENT_SAT)
        result = verify_vmc(
            ex, method="sat-cdcl", cache=False, certify="on"
        )
        assert result.violated
        cert = result.per_address["x"].certificate
        assert cert is not None and cert.kind == "rup"
        sub = ex.restrict_to_address("x")
        assert validate_result(sub, result.per_address["x"])
        # Strip the empty clause (the chaos bad-cert corruption).
        stripped = Certificate(
            "rup", tuple(l for l in cert.payload if l[1])
        )
        assert not validate_result(sub, _violated(stripped))


# ---------------------------------------------------------------------
# ensure_certificate (the producer side)
# ---------------------------------------------------------------------
# ---------------------------------------------------------------------
# Order certificates (§5.2 write-order refutations)
# ---------------------------------------------------------------------
class TestOrderCertificates:
    """A write-order VIOLATED verdict refutes the *order-augmented*
    instance — the raw trace alone may be schedulable, so the
    certificate names the refuted order and the checker re-decides."""

    def order_refuted_instance(self):
        # Reading 1 after W(x,2) is impossible when the supplied order
        # serializes W(x,1) before W(x,2).
        ex = parse_trace("P0: W(x,1) W(x,2) R(x,1)")
        order = [op for op in ex.all_ops() if op.kind.writes]
        return ex, order

    def test_producer_self_certifies(self):
        from repro.core.writeorder import writeorder_vmc

        ex, order = self.order_refuted_instance()
        res = writeorder_vmc(ex, order)
        assert res.violated
        assert res.certificate is not None
        assert res.certificate.kind == "order"
        assert res.certificate.payload == tuple(op.uid for op in order)
        assert validate_result(ex, res, write_order=order)

    def test_rejected_without_supplied_order(self):
        ex, order = self.order_refuted_instance()
        res = _violated(
            Certificate("order", tuple(op.uid for op in order))
        )
        check = validate_result(ex, res)
        assert "no write-order" in check.reason

    def test_rejected_for_mismatched_order(self):
        ex, order = self.order_refuted_instance()
        res = _violated(
            Certificate("order", tuple(op.uid for op in reversed(order)))
        )
        check = validate_result(ex, res, write_order=order)
        assert "different write-order" in check.reason

    def test_rejected_when_order_is_schedulable(self):
        # The same claim against a coherent order fails closed.
        ex = parse_trace("P0: W(x,1) W(x,2) R(x,2)")
        order = [op for op in ex.all_ops() if op.kind.writes]
        res = _violated(Certificate("order", tuple(op.uid for op in order)))
        check = validate_result(ex, res, write_order=order)
        assert "schedulable" in check.reason

    def test_malformed_payload_rejected(self):
        ex, order = self.order_refuted_instance()
        res = _violated(Certificate("order", 7))
        assert not validate_result(ex, res, write_order=order)

    def test_holds_witness_must_respect_supplied_order(self):
        from repro.core.writeorder import writeorder_vmc

        ex = parse_trace("P0: W(x,1)\nP1: W(x,2)", final={"x": 2})
        order = sorted(
            (op for op in ex.all_ops() if op.kind.writes),
            key=lambda op: op.value_written,
        )
        res = writeorder_vmc(ex, order)
        assert res.holds
        assert validate_result(ex, res, write_order=order)
        # The same witness checked against the *opposite* order must be
        # rejected: it schedules the writes in the wrong sequence.
        check = validate_result(
            ex, res, write_order=list(reversed(order))
        )
        assert "respect" in check.reason


class TestEnsureCertificate:
    def test_holds_gets_the_witness_marker(self):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        res = VerificationResult(
            holds=True, method="exact", schedule=list(ex.all_ops())
        )
        out = ensure_certificate(ex, res)
        assert out.certificate is not None
        assert out.certificate.kind == "witness"
        assert validate_result(ex, out)

    def test_uncertified_violation_is_rerefuted_via_sat(self):
        ex = parse_trace(CLOSURE_UNDECIDED)
        res = VerificationResult(holds=False, method="exact")
        out = ensure_certificate(ex, res)
        assert out.certificate is not None
        assert out.certificate.kind == "rup"
        assert out.stats["certificate_via"] == "sat-cdcl"
        assert validate_result(ex, out)

    @pytest.mark.parametrize(
        "text, backend, kind",
        [
            # read-read inversion: P1 sees 2 before 1, against P0's order
            ("P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)", "readmap", "cycle"),
            ("P0: W(x,1) W(x,2)\nP1: R(x,3) R(x,1)", "readmap", "infeasible"),
        ],
    )
    def test_closure_certifies_without_sat(self, monkeypatch, text, backend, kind):
        """A violation the closure decides is certified without ever
        touching the SAT route."""
        import repro.core.encode as encode

        def no_sat(*_a, **_k):
            raise AssertionError("SAT re-refutation on a closure-decided trace")

        monkeypatch.setattr(encode, "sat_vmc", no_sat)
        ex = parse_trace(text)
        result = verify_vmc(ex, cache=False, certify="on")
        res = result.per_address["x"]
        assert res.violated and res.method == backend
        assert res.certificate.kind == kind
        assert res.stats["certificate_via"] == "closure"
        assert validate_result(ex.restrict_to_address("x"), res)
        assert result.report["certify.via_closure"] == 1
        assert result.report["certify.via_sat"] == 0
        assert "via_closure=1 via_sat=0" in obs.render(result.report)

    def test_closure_skipped_for_vsc(self):
        """VSC keeps the SAT route, even on a single-address trace the
        closure would decide."""
        ex = parse_trace(INCOHERENT_SAT)
        out = ensure_certificate(
            ex, VerificationResult(holds=False, method="exact"), problem="vsc"
        )
        assert out.certificate.kind == "rup"
        assert out.stats["certificate_via"] == "sat-cdcl"
        assert validate_result(ex, out, problem="vsc")

    def test_wrong_violated_verdict_stays_uncertified(self):
        """A 'violated' claim about a coherent trace cannot be certified:
        the re-solve finds a schedule, no certificate is attached, and
        validation fails closed."""
        ex = parse_trace("P0: W(x,1) R(x,1)")
        res = VerificationResult(holds=False, method="buggy")
        out = ensure_certificate(ex, res)
        assert out.certificate is None
        assert not validate_result(ex, out)

    def test_unknown_passes_through(self):
        ex = parse_trace("P0: W(x,1)")
        res = VerificationResult.make_unknown(method="m", reason="budget")
        assert ensure_certificate(ex, res).certificate is None


# ---------------------------------------------------------------------
# The differential acceptance property
# ---------------------------------------------------------------------
class TestCertifiedEngine:
    def test_corpus_is_substantial_and_mixed(self):
        assert len(CORPUS) >= 150
        verdicts = {bool(verify_vmc(ex, cache=False)) for ex in CORPUS[:20]}
        assert verdicts == {True, False}

    def test_every_verdict_is_independently_certified(self):
        polarities = set()
        for ex in CORPUS:
            result = verify_vmc(
                ex, cache=False, early_exit=False, certify="on"
            )
            polarities.add(result.violated)
            _validated(ex, result)
            assert result.report["certify.certified"] == len(result.per_address)
            if result.violated:
                assert result.certificate is not None
        assert polarities == {True, False}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="exact"),
            dict(method="sat-cdcl"),
            dict(jobs=2),
        ],
        ids=["forced-exact", "forced-sat", "process-pool"],
    )
    def test_certified_across_engine_configs(self, kwargs, force_pool):
        n = 6 if kwargs.get("jobs") else 16
        for ex in CORPUS[:n]:
            result = verify_vmc(
                ex, cache=False, early_exit=False, certify="on", **kwargs
            )
            _validated(ex, result)

    @pytest.mark.parametrize(
        "name", ["single-op", "readmap", "exact", "sat-cdcl"]
    )
    def test_forced_backends_are_certified(self, name):
        tiny = [
            parse_trace("P0: W(x,1)\nP1: R(x,1)"),
            parse_trace("P0: W(x,1)\nP1: R(x,2)"),
        ]
        exercised = 0
        for ex in tiny + CORPUS[:12]:
            try:
                result = verify_vmc(
                    ex, method=name, cache=False, early_exit=False,
                    certify="on",
                )
            except ValueError:
                continue  # backend not applicable at some address
            exercised += 1
            _validated(ex, result)
        assert exercised > 0

    def test_strict_mode_is_clean_on_honest_runs(self):
        for ex in CORPUS[:16]:
            result = verify_vmc(
                ex, cache=False, early_exit=False, certify="strict"
            )
            assert not result.unknown
            assert result.report["certify.uncertified"] == 0
            _validated(ex, result)

    def test_certified_report_line(self):
        result = verify_vmc(CORPUS[0], cache=False, certify="on")
        assert result.report["certify.certified"] > 0
        assert "certify:" in obs.render(result.report)

    def test_vsc_verdicts_are_certified(self):
        for seed in range(6):
            ex, _ = make_coherent_execution(
                10, 3, seed, addresses=("x", "y"), num_values=3
            )
            result = verify_vsc(ex, certify="on")
            assert result.holds
            check = validate_result(ex, result, problem="vsc")
            assert check, check.reason
        sb = parse_trace(SB_NOT_SC, initial={"x": 0, "y": 0})
        result = verify_vsc(sb, certify="on")
        assert result.violated
        assert result.certificate is not None
        check = validate_result(sb, result, problem="vsc")
        assert check, check.reason

    def test_flipped_engine_verdicts_are_rejected(self):
        """A certificate never survives being re-used for the opposite
        verdict — the core guarantee chaos testing leans on."""
        ex = CORPUS[0]
        result = verify_vmc(ex, cache=False, early_exit=False, certify="on")
        for addr, res in result.per_address.items():
            flipped = VerificationResult(
                holds=not res.holds,
                method=res.method,
                schedule=res.schedule,
                certificate=res.certificate,
            )
            assert not validate_result(ex.restrict_to_address(addr), flipped)


# ---------------------------------------------------------------------
# Cache revalidation (hits are never trusted blindly)
# ---------------------------------------------------------------------
class TestCacheRevalidation:
    def test_corrupted_witness_entries_are_recomputed(self):
        """Even with certification off, a cached witness is replayed on
        every hit; a corrupted entry is evicted and recomputed."""
        ex, _ = make_coherent_execution(
            12, 3, 0, addresses=("x", "y", "z"), num_values=3
        )
        cache = ResultCache()
        first = verify_vmc(ex, cache=cache, early_exit=False)
        assert first.holds
        corrupted = 0
        for entry in cache._data.values():
            if entry.schedule_idx:
                entry.schedule_idx = entry.schedule_idx + [
                    entry.schedule_idx[0]
                ]
                corrupted += 1
        assert corrupted > 0
        again = verify_vmc(ex, cache=cache, early_exit=False)
        assert again.holds
        assert cache.stats.validation_failures >= corrupted
        assert "validation_failures=" in obs.render(again.report)

    def test_flipped_entries_are_recomputed_under_strict(self):
        ex, _ = make_coherent_execution(
            12, 3, 1, addresses=("x", "y", "z"), num_values=3
        )
        bad = _corrupt_one_read(ex)
        assert bad is not None
        cache = ResultCache()
        for trace in (ex, bad):
            verify_vmc(trace, cache=cache, early_exit=False, certify="on")
        assert len(cache._data) > 0
        for entry in cache._data.values():
            entry.holds = not entry.holds
        for trace, expect_holds in ((ex, True), (bad, False)):
            result = verify_vmc(
                trace, cache=cache, early_exit=False, certify="strict"
            )
            assert not result.unknown
            assert result.holds == expect_holds
            _validated(trace, result)
        assert cache.stats.validation_failures > 0

    def test_clean_entries_survive_revalidation(self):
        ex, _ = make_coherent_execution(
            12, 3, 2, addresses=("x", "y", "z"), num_values=3
        )
        cache = ResultCache()
        verify_vmc(ex, cache=cache, early_exit=False, certify="on")
        result = verify_vmc(ex, cache=cache, early_exit=False, certify="on")
        assert result.holds
        assert cache.stats.hits > 0
        assert cache.stats.validation_failures == 0
        _validated(ex, result)


# ---------------------------------------------------------------------
# Sliced cycle certificates
# ---------------------------------------------------------------------
def _inversions():
    """Incoherent single-address executions whose closure proofs cite
    reads-from pairs: the differential corpus, plus read-read
    inversions buried in long unique-valued histories."""
    from tests.engine.test_differential import CORPUS

    out = [
        ex.restrict_to_address(a)
        for ex in CORPUS for a in ex.constrained_addresses()
    ]
    for n in (3, 12, 40):
        writer = " ".join(f"W(x,{v})" for v in range(1, n + 1))
        readers = " ".join(f"R(x,{v})" for v in range(1, n + 1))
        out.append(parse_trace(
            f"P0: {writer}\nP1: {readers} R(x,1)\nP2: R(x,{n}) R(x,{n - 1})",
            initial={"x": 0},
        ))
    return out


def _cycle_certificates():
    from repro.core.infer import infer_order

    for ex in _inversions():
        decided = infer_order(ex).decided
        if decided is not None and decided.certificate.kind == "cycle":
            yield ex, decided


class TestSlicedCycleCertificates:
    def test_every_sliced_certificate_validates(self):
        seen = 0
        for ex, decided in _cycle_certificates():
            assert validate_result(ex, decided), decided.reason
            seen += 1
        assert seen >= 15

    def test_slice_is_a_fraction_of_the_log(self, monkeypatch):
        from repro.core import infer

        ex = _inversions()[-1]  # 40 writes, 81 reads
        sliced = infer.infer_order(ex).decided
        monkeypatch.setattr(
            infer, "_cycle_slice",
            lambda rows, first, cycle: range(len(rows)),
        )
        whole = infer.infer_order(ex).decided
        assert validate_result(ex, sliced) and validate_result(ex, whole)
        steps, cycle = sliced.certificate.payload
        assert cycle == whole.certificate.payload[1]
        assert set(steps) < set(whole.certificate.payload[0])
        assert 4 * len(steps) < len(whole.certificate.payload[0])

    def test_vsc_cycle_is_sliced_per_address(self):
        """A store-buffering cycle beside a long unrelated history: the
        VSC certificate cites the cycle's steps, not every address's
        whole derivation log."""
        from repro.core.infer import infer_order

        n = 29
        ex = parse_trace(
            SB_NOT_SC
            + "\nP2: " + " ".join(f"W(z,{v})" for v in range(1, n + 1))
            + "\nP3: " + " ".join(f"R(z,{v})" for v in range(1, n + 1)),
            initial={"x": 0, "y": 0, "z": 0},
        )
        result = verify_vsc(ex, certify="on")
        assert result.violated and result.certificate.kind == "cycle"
        assert validate_result(ex, result)
        steps, cycle = result.certificate.payload
        whole = {
            (o1.uid, o2.uid, "po", None)
            for h in ex.histories
            for o1, o2 in zip(h.operations, h.operations[1:])
        }
        for addr in ex.constrained_addresses():
            whole.update(infer_order(ex.restrict_to_address(addr)).steps)
        assert set(steps) < whole
        assert len(steps) <= 2 * len(cycle)
        for dropped in steps:
            tampered = tuple(s for s in steps if s != dropped)
            check = validate_result(ex, VerificationResult(
                holds=False, method="prepass",
                certificate=Certificate("cycle", (tampered, cycle)),
            ))
            assert not check
            assert "never established" in check.reason

    def test_dropping_a_cited_step_is_rejected(self):
        dropped = 0
        for ex, decided in _cycle_certificates():
            steps, cycle = decided.certificate.payload
            for u, v, rule, aux in steps:
                if aux is None:
                    continue
                cited = (aux[0], aux[1], "rf", None)
                assert cited in steps
                tampered = tuple(s for s in steps if s != cited)
                result = VerificationResult(
                    holds=False, method="prepass",
                    certificate=Certificate("cycle", (tampered, cycle)),
                )
                check = validate_result(ex, result)
                assert not check
                assert "never validated" in check.reason
                dropped += 1
        assert dropped >= 15
