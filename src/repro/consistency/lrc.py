"""Lazy Release Consistency on properly-locked traces (Figure 6.1).

LRC makes a writer's updates visible to the *next acquirer* of the same
lock.  For a trace in which **every** data operation sits in its own
acquire/release section of one global lock — the Figure 6.1 wrapping —
the critical sections must appear atomic and totally ordered by the
lock, with each section seeing the updates of all earlier sections.
That total order is exactly a legal schedule of the data operations:

* single shared location  → LRC-adherence ≡ VMC of the stripped trace;
* multiple locations      → LRC-adherence ≡ VSC of the stripped trace.

So the checker is one strip away from the coherence/SC verifiers, which
is precisely the paper's point: models that relax coherence become
NP-Hard to verify the moment the programmer uses the synchronization
the model provides.
"""

from __future__ import annotations

from repro.core.types import Address, Execution, OpKind
from repro.core.result import VerificationResult
from repro.engine import verify_vmc, verify_vsc
from repro.reductions.sync_wrap import critical_sections


def lrc_holds(
    execution: Execution, lock: Address = "lock", method: str = "auto"
) -> VerificationResult:
    """Decide LRC-adherence of a fully-locked execution.

    Requires every data operation to be inside an acquire/release
    section of ``lock`` (the Figure 6.1 shape) — checked up front; a
    trace with unlocked data accesses raises ``ValueError`` because its
    LRC verdict would depend on data-race semantics this checker does
    not model.
    """
    sections = critical_sections(execution, lock)
    locked_ops = sum(len(s) for s in sections)
    data_ops = sum(
        1 for op in execution.all_ops() if not op.kind.is_sync
    )
    if locked_ops != data_ops:
        raise ValueError(
            f"{data_ops - locked_ops} data operations are outside "
            f"critical sections of {lock!r}; this checker requires the "
            f"fully-locked Figure 6.1 shape"
        )
    stripped = execution.drop_sync_ops()
    if stripped.is_single_address():
        result = verify_vmc(stripped, method=method)
    else:
        result = verify_vsc(stripped, method=method)
    result.method = f"lrc/{result.method}"
    return result
