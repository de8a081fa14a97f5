"""Differential testing: every applicable backend agrees on a corpus.

The corpus mixes (a) every candidate outcome of a few litmus-style
skeletons — these cover coherent and incoherent executions, multi- and
single-address — and (b) random sliced-schedule executions, half of
them corrupted to read a never-written value.  Each execution is
decided by the auto-routed engine and then re-decided with every
registered backend forced by name; the verdicts must be unanimous.

The suite runs **certified by default** (``certify="on"``): every
verdict — positive or negative, from any backend — must carry a
certificate the independent trusted checker validates against the raw
trace.
"""

import pytest

from repro.consistency.generate import candidate_executions, skeleton
from repro.core.result import VerificationResult
from repro.core.types import Execution, OpKind, Operation
from repro.engine import (
    ensure_certificate,
    validate_result,
    verify_vmc,
    vmc_registry,
)
from tests.conftest import make_coherent_execution

SKELETONS = [
    "P0: W(x,1) R(x,?)\nP1: R(x,?) R(x,?)",
    "P0: W(x,1) W(x,2)\nP1: R(x,?) R(x,?)",
    "P0: W(x,1) R(y,?)\nP1: W(y,1) R(x,?)",
    "P0: W(x,1) W(y,1)\nP1: R(y,?) R(x,?)",
    "P0: W(x,1) R(x,?) W(x,2)\nP1: R(x,?)",
]

FORCIBLE = ["single-op", "readmap", "exact", "sat-cdcl"]


def _corrupt(ex: Execution) -> Execution | None:
    histories = [list(h.operations) for h in ex.histories]
    for ops in histories:
        for i, op in enumerate(ops):
            if op.kind is OpKind.READ:
                ops[i] = Operation(
                    OpKind.READ, op.addr, op.proc, op.index, value_read=99
                )
                return Execution.from_ops(
                    histories, initial=ex.initial, final=ex.final
                )
    return None


def _corpus() -> list[Execution]:
    corpus: list[Execution] = []
    for text in SKELETONS:
        corpus.extend(candidate_executions(skeleton(text)))
    for seed in range(80):
        ex, _ = make_coherent_execution(7, 3, seed, num_values=3)
        corpus.append(ex)
        bad = _corrupt(ex)
        if bad is not None:
            corpus.append(bad)
    return corpus


CORPUS = _corpus()


def test_corpus_is_substantial():
    assert len(CORPUS) >= 190
    verdicts = {bool(verify_vmc(ex, cache=False)) for ex in CORPUS}
    assert verdicts == {True, False}  # both outcomes represented


def _check_certified(ex, result):
    """Every decided per-address verdict must validate independently."""
    for addr, res in result.per_address.items():
        assert not res.unknown
        assert res.stats.get("certified") is True
        check = validate_result(ex.restrict_to_address(addr), res)
        assert check, f"{addr!r}: {check.reason}"


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_backends_agree(idx):
    ex = CORPUS[idx]
    auto = verify_vmc(ex, cache=False, early_exit=False, certify="on")
    _check_certified(ex, auto)
    for name in FORCIBLE:
        try:
            forced = verify_vmc(
                ex, method=name, cache=False, early_exit=False, certify="on"
            )
        except ValueError:
            continue  # backend not applicable at some address
        assert forced.holds == auto.holds, (
            f"{name} disagrees with auto ({auto.method}) on corpus[{idx}]"
        )
        _check_certified(ex, forced)


@pytest.mark.parametrize("idx", range(0, len(CORPUS), 7))
def test_write_order_backend_agrees_on_coherent(idx):
    """Derive the write order from an exact witness; the write-order
    backend must accept it (Section 5.2 completeness direction)."""
    ex = CORPUS[idx]
    auto = verify_vmc(ex, cache=False, early_exit=False)
    if not auto.holds:
        return
    orders = {}
    for addr, res in auto.per_address.items():
        orders[addr] = [op for op in res.schedule if op.kind.writes]
    forced = verify_vmc(
        ex, method="write-order", write_orders=orders, cache=False,
        certify="on",
    )
    assert forced.holds
    _check_certified(ex, forced)


def test_certified_verdicts_match_uncertified(monkeypatch):
    """Certification never changes a verdict, every VIOLATED
    certificate validates, and the happens-before closure alone
    certifies every violated per-address instance of the corpus (the
    SAT re-refutation is never needed here)."""
    import repro.core.encode as encode

    def no_sat(*_a, **_k):
        raise AssertionError("the closure left a corpus instance undecided")

    monkeypatch.setattr(encode, "sat_vmc", no_sat)
    violated = 0
    for idx, ex in enumerate(CORPUS):
        plain = verify_vmc(ex, cache=False, early_exit=False)
        certified = verify_vmc(ex, cache=False, early_exit=False, certify="on")
        assert certified.holds == plain.holds, f"corpus[{idx}]"
        assert certified.report["certify.via_sat"] == 0, f"corpus[{idx}]"
        assert certified.per_address.keys() == plain.per_address.keys()
        for addr, res in plain.per_address.items():
            cres = certified.per_address[addr]
            assert cres.holds == res.holds, f"corpus[{idx}] at {addr!r}"
            if res.holds:
                continue
            violated += 1
            sub = ex.restrict_to_address(addr)
            check = validate_result(sub, cres)
            assert check, f"corpus[{idx}] at {addr!r}: {check.reason}"
            # A bare VIOLATED claim is certified by the closure too.
            bare = ensure_certificate(
                sub, VerificationResult(holds=False, method="exact")
            )
            assert bare.stats["certificate_via"] == "closure"
            assert validate_result(sub, bare)
    assert violated >= 90


def test_parallel_matches_serial_on_corpus():
    for ex in CORPUS[:: max(1, len(CORPUS) // 50)]:
        serial = verify_vmc(ex, jobs=1, cache=False, certify="on")
        parallel = verify_vmc(ex, jobs=4, cache=False, certify="on")
        assert serial.holds == parallel.holds


def test_forcible_covers_registry():
    """Every registered backend is exercised by the differential loop
    (write-order has its own derived-order test)."""
    assert set(FORCIBLE) | {"write-order"} == set(vmc_registry().names())
