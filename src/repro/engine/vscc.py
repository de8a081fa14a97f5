"""VSCC (Definition 6.2): sequential consistency for coherent executions.

VSCC is a *promise* problem: the input is promised to be coherent per
address.  The paper's point (Section 6.3) is that the promise does not
help — VSCC is NP-Complete, even when the write-order makes checking
the promise polynomial.

``verify_vscc`` therefore does two things:

1. checks the promise (per-address coherence; with write-orders this is
   the polynomial Section 5.2 algorithm, otherwise whatever the VMC
   dispatcher picks), reporting a broken promise distinctly from an SC
   violation;
2. decides sequential consistency.

It also exposes the *incomplete-but-fast* pipeline the paper warns
about: ``vsc_via_conflict`` commits to the coherent schedules found in
step 1 and merges them in O(n log n) — sound when it answers yes, but
it may answer no for an SC execution whose chosen per-address schedules
simply don't merge.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.conflict import vsc_conflict
from repro.core.result import VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.executor import verify_vmc, verify_vsc


def verify_vscc(
    execution: Execution,
    write_orders: Mapping[Address, Sequence[Operation]] | None = None,
    method: str = "auto",
    *,
    jobs: int = 1,
    cache=None,
) -> VerificationResult:
    """Check the coherence promise, then decide sequential consistency.

    ``jobs``/``cache`` are forwarded to the engine for the per-address
    coherence-promise check (the SC decision itself is one task).
    """
    coherence = verify_vmc(
        execution, write_orders=write_orders, jobs=jobs, cache=cache
    )
    if not coherence:
        return VerificationResult(
            holds=False,
            method="vscc-promise",
            reason=f"the coherence promise is broken: {coherence.reason}",
            per_address=coherence.per_address,
        )
    result = verify_vsc(execution, method=method)
    result.per_address = coherence.per_address
    result.method = f"vscc/{result.method}"
    return result


def vsc_via_conflict(
    execution: Execution,
    write_orders: Mapping[Address, Sequence[Operation]] | None = None,
    *,
    jobs: int = 1,
    cache=None,
) -> VerificationResult:
    """The divide-and-conquer pipeline the paper shows is incomplete.

    Verify coherence per address (polynomial with write-orders), then
    treat the witnesses as commitments and merge (VSC-Conflict,
    O(n log n)).  A ``holds`` answer is always correct; a negative
    answer only means *these* schedules don't merge.
    """
    coherence = verify_vmc(
        execution, write_orders=write_orders, jobs=jobs, cache=cache
    )
    if not coherence:
        return VerificationResult(
            holds=False,
            method="conflict-pipeline",
            reason=f"not even coherent: {coherence.reason}",
            per_address=coherence.per_address,
        )
    schedules = {
        a: r.schedule
        for a, r in coherence.per_address.items()
        if r.schedule is not None
    }
    result = vsc_conflict(execution, schedules, validate_inputs=False)
    result.method = "conflict-pipeline"
    result.per_address = coherence.per_address
    if not result.holds:
        result.reason += (
            " (note: this pipeline is incomplete — the execution may "
            "still be sequentially consistent under a different choice "
            "of coherent schedules; see Section 6.3)"
        )
    return result
