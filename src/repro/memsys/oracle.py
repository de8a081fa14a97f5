"""The latency oracle: is an injected fault architecturally *visible*?

A fault campaign needs ground truth.  "We injected a fault" is not the
same as "the trace is incoherent": a dropped invalidation whose stale
copy is never read again, a delayed message the protocol absorbs, even
a stale value that a read *did* return can leave the execution
perfectly schedulable (coherence only constrains per-address orders,
not timing).  Demanding that the verifier flag every injection would
demand false positives; excusing every miss would excuse real ones.

This module classifies every :class:`~repro.memsys.faults.FaultEvent`
of a run, with evidence:

* **latent** — the fault provably did not make the trace incoherent.
  Two proofs are possible: *no escape* (the recorder's golden replay
  saw no divergence on the fault's line, so the commit order itself
  schedules every operation — the run is coherent with the fault
  sealed inside the machine), or *escaped but schedulable* (a faulty
  value did reach a committed read, yet the independent checker below
  still finds a legal order — e.g. a single stale read that can be
  scheduled before the racing write).
* **visible** — the faulty value/state escaped into the committed
  trace (a golden-replay divergence on the fault's line at or after
  the injection, a corrupted final memory image, or — for
  ``REORDERED_SERIALIZATION`` — the exported write-order itself) *and*
  the checker proves the resulting (execution, write-order) pair
  incoherent.  A sound and complete verifier **must** answer VIOLATED.

The checker here is an independent reimplementation of the Section 5.2
write-order decision procedure (gap placement with a per-process
greedy), deliberately sharing no code with
:mod:`repro.core.writeorder`: the campaign contract "visible ⇒
certified VIOLATED, latent ⇒ certified HOLDS" is then a differential
test between two implementations of the same decision problem, not a
tautology.  With the write-order supplied the procedure is complete
per address, so the visible/latent split is a true dichotomy.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field

from repro import obs
from repro.core.types import Execution, OpKind, Operation
from repro.memsys.faults import FaultEvent, FaultKind
from repro.memsys.recorder import Divergence, RunResult

VISIBLE = "visible"
LATENT = "latent"


@dataclass(frozen=True)
class Classification:
    """One fault event's verdict plus the evidence for it."""

    event: FaultEvent
    visible: bool
    evidence: str

    @property
    def label(self) -> str:
        return VISIBLE if self.visible else LATENT


@dataclass
class OracleReport:
    """The oracle's view of one run."""

    classifications: list[Classification] = field(default_factory=list)
    #: Addresses the independent checker proves unschedulable, with the
    #: reason.  Empty iff the run is coherent under its write-order.
    violations: dict[int, str] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    #: The checker found a violation but no fault was ever injected —
    #: a simulator bug (or a contract breach), never expected.
    spontaneous: bool = False

    @property
    def expected_verdict(self) -> str:
        """What a sound *and complete* verifier must say for this run."""
        return "VIOLATED" if self.violations else "HOLDS"

    @property
    def visible_events(self) -> list[Classification]:
        return [c for c in self.classifications if c.visible]

    @property
    def latent_events(self) -> list[Classification]:
        return [c for c in self.classifications if not c.visible]

    def row(self) -> dict:
        return {
            "expected": self.expected_verdict,
            "visible": len(self.visible_events),
            "latent": len(self.latent_events),
            "violating_addresses": sorted(self.violations),
            "divergences": len(self.divergences),
            "spontaneous": self.spontaneous,
        }


# ----------------------------------------------------------------------
# Independent Section 5.2 checker (per address, complete)
# ----------------------------------------------------------------------
def check_address(
    execution: Execution, addr: int, write_order: list[Operation]
) -> str | None:
    """Decide coherence of one address under its write-order.

    Returns ``None`` when an order of all operations exists (the
    instance is coherent at ``addr``), else a human-readable reason.
    Complete: with the write skeleton fixed, placing every read in its
    earliest value-matching gap at/after its program-order predecessor
    succeeds iff any placement does.
    """
    d_init = execution.initial_value(addr)
    d_final = execution.final_value(addr)

    per_proc: list[list[Operation]] = []
    writes: list[Operation] = []
    for h in execution.histories:
        ops = [o for o in h if o.addr == addr and not o.kind.is_sync]
        per_proc.append(ops)
        writes.extend(o for o in ops if o.kind.writes)

    if sorted(o.uid for o in write_order) != sorted(o.uid for o in writes):
        return "write-order is not a permutation of the writes"

    slot = {o.uid: i for i, o in enumerate(write_order)}
    for ops in per_proc:
        idx = [slot[o.uid] for o in ops if o.kind.writes]
        if any(a >= b for a, b in zip(idx, idx[1:])):
            return "write-order contradicts program order"

    values = [d_init] + [w.value_written for w in write_order]
    slots_of = defaultdict(list)
    for g, v in enumerate(values):
        slots_of[v].append(g)

    for j, w in enumerate(write_order):
        if w.kind is OpKind.RMW and w.value_read != values[j]:
            return (
                f"RMW {w.uid} at slot {j} reads {w.value_read!r} "
                f"but the pre-state there is {values[j]!r}"
            )

    if d_final is not None and values[-1] != d_final:
        return (
            f"final memory holds {d_final!r} but the last write "
            f"leaves {values[-1]!r}"
        )

    for ops in per_proc:
        cursor = 0
        placed: list[tuple[Operation, int]] = []
        for o in ops:
            if o.kind.writes:
                cursor = max(cursor, slot[o.uid] + 1)
                continue
            gaps = slots_of.get(o.value_read)
            if not gaps:
                return f"read {o.uid} returns {o.value_read!r}: never written"
            i = bisect_left(gaps, cursor)
            if i == len(gaps):
                return (
                    f"read {o.uid} returns {o.value_read!r}: no such value "
                    f"after its program-order predecessors"
                )
            cursor = gaps[i]
            placed.append((o, cursor))
        # Pair each read with the slot of its next po write: a read
        # greedily pushed past that write has no admissible gap.
        next_write_slot: dict[tuple[int, int], int] = {}
        bound = len(write_order)
        for o in reversed(ops):
            if o.kind.writes:
                bound = slot[o.uid]
            else:
                next_write_slot[o.uid] = bound
        for o, g in placed:
            if g > next_write_slot[o.uid]:
                return (
                    f"read {o.uid} cannot be served before its next "
                    f"program-order write"
                )
    return None


def check_run(
    execution: Execution, write_orders: dict[int, list[Operation]]
) -> dict[int, str]:
    """Checker verdict for every address of a run; empty dict = coherent."""
    addrs = set(write_orders)
    for h in execution.histories:
        for o in h:
            addrs.add(o.addr)
    out: dict[int, str] = {}
    for addr in sorted(addrs):
        reason = check_address(execution, addr, write_orders.get(addr, []))
        if reason is not None:
            out[addr] = reason
    return out


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
@obs.timed("oracle")
def classify_run(run: RunResult, line_words: int = 4) -> OracleReport:
    """Classify every injection of a run as visible or latent.

    ``line_words`` is the cache-line width: a fault's blast radius is
    its line, so escapes are attributed line-wise.
    """
    violations = check_run(run.execution, run.write_orders)
    report = OracleReport(
        violations=violations, divergences=list(run.divergences)
    )
    if violations and not run.fault_events:
        report.spontaneous = True

    def line(addr: int) -> int:
        return addr // line_words

    div_by_line: dict[int, list[Divergence]] = defaultdict(list)
    for d in run.divergences:
        div_by_line[line(d.addr)].append(d)
    violating_lines = {line(a) for a in violations}

    for ev in run.fault_events:
        ev_line = line(ev.addr)
        if ev.kind is FaultKind.REORDERED_SERIALIZATION:
            escape = "perturbed the exported write-order"
        else:
            hits = [
                d for d in div_by_line.get(ev_line, []) if d.tick >= ev.step
            ]
            escape = (
                f"divergence at tick {hits[0].tick} on addr {hits[0].addr} "
                f"(expected {hits[0].expected!r}, observed "
                f"{hits[0].observed!r})"
                if hits
                else None
            )
        if escape is None:
            report.classifications.append(
                Classification(
                    ev, False,
                    "latent: no escape — commit-order replay is clean on "
                    "this line, so the commit order itself schedules the "
                    "run",
                )
            )
        elif ev_line not in violating_lines:
            report.classifications.append(
                Classification(
                    ev, False,
                    f"latent: {escape}, but the checker still finds a "
                    f"legal order (escaped-but-schedulable)",
                )
            )
        else:
            reason = violations[
                min(a for a in violations if line(a) == ev_line)
            ]
            report.classifications.append(
                Classification(
                    ev, True, f"visible: {escape}; checker: {reason}"
                )
            )

    # Safety net: the checker proved incoherence but no single event
    # was implicated (e.g. the divergence chain crossed lines).  The
    # contract "visible => VIOLATED" must stay sound, so every
    # injection of the run is conservatively marked visible.
    if violations and run.fault_events and not any(
        c.visible for c in report.classifications
    ):
        report.classifications = [
            Classification(
                c.event, True,
                "visible (unattributed): the run is provably incoherent "
                "and this injection cannot be ruled out; " + c.evidence,
            )
            for c in report.classifications
        ]
    return report
