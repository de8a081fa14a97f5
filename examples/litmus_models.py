#!/usr/bin/env python
"""Consistency models on the classic litmus tests (Section 6 context).

Prints the allow/forbid table for SC / TSO / PSO / RMO over the classic
litmus shapes, then demonstrates the Section 6.2 restriction argument
(every model equals coherence on one location) and the Figure 6.1
acquire/release wrapping for coherence-relaxing models.

Run:  python examples/litmus_models.py
"""

from repro.consistency.litmus import LITMUS_TESTS, check_litmus, litmus_table
from repro.consistency.lrc import lrc_holds
from repro.consistency.restrict import restriction_agrees_with_coherence
from repro.core.builder import parse_trace
from repro import verify_coherence
from repro.reductions.sat_to_vmc import fig_4_2_example
from repro.reductions.sync_wrap import wrap_with_sync


def main() -> None:
    print("== litmus table (checker verdicts; yes = outcome allowed) ==")
    print(litmus_table())

    # ------------------------------------------------------------------
    # Outcome exploration: enumerate *every* candidate result of a
    # program skeleton (herd-style), classified per model.
    # ------------------------------------------------------------------
    from repro.consistency.generate import outcome_table, skeleton

    print("\n== all outcomes of the store-buffering program ==")
    sb = skeleton(
        """
        P0: W(x,1) R(y,?)
        P1: W(y,1) R(x,?)
        """,
        initial={"x": 0, "y": 0},
    )
    print(outcome_table(sb))

    print("\n== expected vs observed ==")
    mismatches = 0
    for test in LITMUS_TESTS:
        for model, expected in test.allowed.items():
            observed = check_litmus(test, model)
            if observed != expected:
                mismatches += 1
                print(f"  MISMATCH {test.name}/{model}: "
                      f"expected {expected}, got {observed}")
    print(f"  {mismatches} mismatches against the literature tables")

    # ------------------------------------------------------------------
    # Section 6.2: on one location, every model collapses to coherence.
    # ------------------------------------------------------------------
    print("\n== restriction to one location (Section 6.2) ==")
    single = parse_trace(
        """
        P0: W(x,1) R(x,1) W(x,3)
        P1: R(x,1) W(x,2)
        P2: R(x,2) R(x,3)
        """,
        initial={"x": 0},
    )
    for model in ("SC", "TSO", "PSO", "RMO"):
        model_ok, coh_ok = restriction_agrees_with_coherence(single, model)
        print(f"  {model:>4}: model says {model_ok}, coherence says {coh_ok}")

    # ------------------------------------------------------------------
    # Figure 6.1: wrap a VMC instance in acquire/release; LRC-checking
    # the wrapped trace decides the original coherence question.
    # ------------------------------------------------------------------
    print("\n== Figure 6.1: acquire/release wrapping for LRC ==")
    reduction = fig_4_2_example()
    wrapped = wrap_with_sync(reduction.execution)
    print(
        f"wrapped the Figure 4.2 instance: {reduction.execution.num_ops} "
        f"data ops -> {wrapped.num_ops} ops with sync"
    )
    lrc = lrc_holds(wrapped)
    vmc = verify_coherence(reduction.execution)
    print(f"LRC on wrapped trace: {bool(lrc)}  (method: {lrc.method})")
    print(f"VMC on original:      {bool(vmc)}")
    assert bool(lrc) == bool(vmc)


if __name__ == "__main__":
    main()
