"""Verification results returned by the public verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.core.types import Address, Operation, schedule_str


#: The reasons an engine run may abandon a task without a verdict.
#: ``timeout`` — the per-task soft deadline expired mid-decision;
#: ``budget`` — the per-run wall-clock budget ran out before the task
#: started (or finished); ``crashed`` — the task's worker died (or kept
#: raising) through every retry and the task was quarantined;
#: ``uncertified`` — certification ran in strict mode and the verdict
#: either carried no certificate or carried one the trusted checker
#: rejected, so the verdict is withheld rather than trusted;
#: ``shutdown`` — a draining service abandoned the request (queued or
#: in flight past the drain grace) rather than answer after its
#: workers were told to stop — a sound refusal, never a guess.
UNKNOWN_REASONS = ("timeout", "budget", "crashed", "uncertified", "shutdown")


class CertificationError(RuntimeError):
    """A verdict failed certification under ``--certify on`` — either
    the producing solver or the checker is wrong, and the run must not
    quietly pick a side."""


#: Certify modes accepted by the engine and every front door.
CERTIFY_MODES = ("off", "on", "strict")

#: The certificate kinds a result may carry (see :class:`Certificate`).
CERTIFICATE_KINDS = ("witness", "cycle", "infeasible", "rup", "order")


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable justification attached to a verdict.

    Defined here (not in :mod:`repro.engine.certify`, which validates
    certificates) so ``core`` producers can attach them without
    importing the engine.  ``kind`` is one of
    :data:`CERTIFICATE_KINDS`:

    ``witness``
        A HOLDS verdict; the certificate *is* the result's witness
        schedule (the paper's §4 NP yes-certificate) and the payload is
        unused — the checker replays the schedule op-by-op.
    ``cycle``
        A VIOLATED verdict refuted by a happens-before cycle.  Payload:
        ``(steps, cycle)`` where ``steps`` is an ordered tuple of
        ``(u_uid, v_uid, rule, aux)`` proof steps (rules ``po``/``rf``/
        ``init``/``fin``/``finr`` are axioms checkable directly against
        the trace; ``wr``/``fr`` are closure steps whose ``aux`` names
        the reads-from pair that forces them) and ``cycle`` is the uid
        tuple of the cycle the steps close.
    ``infeasible``
        A VIOLATED verdict from a value-level impossibility.  Payload is
        one claim tuple: ``("read-impossible", uid)`` — the operation
        reads a value never written to its address and distinct from the
        initial value; ``("final-vs-initial", addr)`` — no writes but
        final differs from initial; ``("final-unwritten", addr)`` — the
        required final value is never written.
    ``rup``
        A VIOLATED verdict refuted by SAT.  Payload is a DRAT-style
        proof (tuple of ``("a"|"d", lits)`` lines) that
        :func:`repro.sat.drat.check_rup` validates against a CNF
        re-derived from the raw trace.
    ``order``
        A VIOLATED verdict of the Section 5.2 *order-augmented*
        problem: the trace is unschedulable **under the supplied
        write-order** (the raw trace alone may well be coherent, so no
        trace-only refutation exists).  Payload is the uid tuple of the
        refuted order; the checker requires it to match the order the
        instance actually supplies, then re-decides the augmented
        instance with an independent gap-placement pass.

    Payloads are tuples of primitives so certificates pickle across the
    process pool and survive the result cache.
    """

    kind: str
    payload: Any = None

    def __post_init__(self) -> None:
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(
                f"certificate kind {self.kind!r}; "
                f"expected one of {CERTIFICATE_KINDS}"
            )


@dataclass
class VerificationResult:
    """Outcome of a VMC/VSC/VSCC query.

    Truthy iff the property *provably* holds.  When it holds,
    ``schedule`` carries the witness (the NP certificate); when it does
    not, ``reason`` says why (which read cannot be served, which
    constraint graph cycled, or simply that the exhaustive search was
    completed without success).

    A result may also be **UNKNOWN** (``unknown=True``): the engine
    abandoned the decision — deadline expiry, run-budget exhaustion, or
    an unrecoverable worker crash — without learning the verdict either
    way.  Soundness under resource exhaustion demands this third
    outcome: an aborted search must never be reported as "violated"
    (nothing was refuted) nor as "holds" (nothing was proved).  Unknown
    results are falsy (they do not assert the property) but carry
    ``unknown_reason`` in :data:`UNKNOWN_REASONS`; callers that branch
    on violation must test ``result.violated``, not ``not result``.

    ``method`` names the algorithm that decided the instance —
    the dispatcher records its routing decision here so benchmarks and
    tests can assert the expected special case actually ran.
    """

    holds: bool
    method: str
    schedule: list[Operation] | None = None
    reason: str = ""
    address: Address | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    per_address: dict[Address, "VerificationResult"] = field(default_factory=dict)
    #: The run record (a :class:`repro.obs.Record`) when the query went
    #: through the unified engine; None otherwise.
    report: Any = None
    #: True when the engine gave up without a verdict (see class docs).
    unknown: bool = False
    #: The verdict's :class:`Certificate` when a certified run produced
    #: one; None for uncertified runs and UNKNOWN results.
    certificate: Certificate | None = None

    @classmethod
    def make_unknown(
        cls, method: str, reason: str, detail: str = "",
        address: Address | None = None, stage: str | None = None,
    ) -> "VerificationResult":
        """An UNKNOWN outcome: no verdict, with a recorded ``reason``
        from :data:`UNKNOWN_REASONS` (and optional free-form detail);
        ``stats["stage"]`` is where it gave up (default: the open span)."""
        if reason not in UNKNOWN_REASONS:
            raise ValueError(
                f"unknown reason {reason!r}; expected one of {UNKNOWN_REASONS}"
            )
        text = f"{reason}: {detail}" if detail else reason
        return cls(
            holds=False, method=method, reason=text, address=address,
            unknown=True, stats={"stage": stage or obs.stage()},
        )

    @property
    def unknown_reason(self) -> str:
        """The :data:`UNKNOWN_REASONS` tag of an unknown result, else ''."""
        if not self.unknown:
            return ""
        return self.reason.split(":", 1)[0]

    @property
    def violated(self) -> bool:
        """Provably violated — decided false, not merely undecided."""
        return not self.holds and not self.unknown

    def __bool__(self) -> bool:
        return self.holds

    def witness_str(self) -> str:
        return schedule_str(self.schedule) if self.schedule else "<none>"

    def __repr__(self) -> str:
        verdict = (
            "UNKNOWN" if self.unknown else "holds" if self.holds else "violated"
        )
        loc = f", addr={self.address!r}" if self.address is not None else ""
        return f"VerificationResult({verdict}, method={self.method!r}{loc})"
