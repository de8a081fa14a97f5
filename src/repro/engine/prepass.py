"""The polynomial pre-pass pipeline.

The planner runs this on every task that would otherwise go to the
exponential tail of the backend ladder (``exact`` / ``sat-*``).  Three
passes, all polynomial and all sound (verdicts with the pre-pass on are
identical to verdicts with it off — see ``tests/engine/test_prepass.py``
for the differential proof obligation):

1. **read elimination** (:func:`repro.core.infer.eliminate_reads`) —
   reads whose placement is decided by a neighbouring operation leave
   the instance; a :class:`~repro.core.infer.ReinsertionPlan` splices
   them back into any residual witness;
2. **happens-before inference** (:func:`repro.core.infer.infer_order`)
   — saturating the necessary ordering edges either decides the task
   (a cycle is an incoherence proof; for VSC a cross-address cycle
   refutes SC), forces a total write order (downgrading the task to the
   O(n log n) Section 5.2 ``write-order`` backend), or at least
   produces ordering *hints* the exact/SAT backends use to prune;
3. **kernel extraction** — the residual instance (fewer ops, plus
   hints) replaces the original as the unit the backend actually runs;
   the cache still keys on the *original* instance so hits are
   independent of pre-pass settings.

For VSC the same machinery runs per address; when every address's write
order is forced, the per-address Section 5.2 schedules are merged with
Section 6.3's VSC-Conflict — a successful merge decides SC outright
(the merge is sound-positive; a failed merge only means "fall through
to the search with hints", respecting the paper's incompleteness
result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core import writeorder
from repro.core.conflict import vsc_conflict
from repro.core.infer import Inference, ReinsertionPlan, eliminate_reads, infer_order
from repro.core.result import Certificate, VerificationResult
from repro.core.types import Execution
from repro.engine.backend import Instance
from repro.util.digraph import CycleError, Digraph

@dataclass
class PrepassInfo:
    """What the pre-pass did to one task (picklable; rides inside the
    :class:`~repro.engine.planner.PlannedTask` into pool workers)."""

    #: Early verdict — the task never reaches a backend.
    decided: VerificationResult | None = None
    #: Witness splice plan for eliminated reads (None = nothing removed).
    plan: ReinsertionPlan | None = None
    #: The shrunk instance the backend actually runs (None when decided).
    residual: Instance | None = None
    ops_before: int = 0
    ops_after: int = 0
    edges_inferred: int = 0
    #: True when a forced total write order downgraded the task to the
    #: ``write-order`` backend.
    downgraded: bool = False

    @property
    def ops_eliminated(self) -> int:
        return self.ops_before - self.ops_after

    def detail(self) -> dict[str, Any]:
        """Scalar counters merged into the task's result stats."""
        d: dict[str, Any] = {
            "pp_ops_eliminated": self.ops_eliminated,
            "pp_edges": self.edges_inferred,
        }
        if self.decided is not None:
            d["pp_decided"] = True
        if self.downgraded:
            d["pp_downgraded"] = True
        return d

    def finish(self, result: VerificationResult) -> VerificationResult:
        """Post-process a backend result on the residual instance:
        splice eliminated reads back into the witness and merge the
        pre-pass counters into the result stats."""
        if (
            result.holds
            and result.schedule is not None
            and self.plan is not None
            and self.plan.eliminated
        ):
            result.schedule = self.plan.rematerialize(result.schedule)
        result.stats.update(self.detail())
        return result


def _decide(info: PrepassInfo, result: VerificationResult) -> PrepassInfo:
    """Mark ``info`` as decided, finishing the result first."""
    info.decided = info.finish(result)
    info.residual = None
    return info


# ---------------------------------------------------------------------
# VMC
# ---------------------------------------------------------------------
def prepass_vmc(instance: Instance) -> PrepassInfo | None:
    """Run the pipeline on one per-address VMC task.

    Returns None when the pre-pass does not apply (sync operations, or
    a write order already supplied — Section 5.2 is already engaged).
    """
    ex = instance.execution
    if instance.write_order is not None:
        return None
    if any(op.kind.is_sync for op in ex.all_ops()):
        return None
    info = PrepassInfo(ops_before=ex.num_ops)

    residual_ex, plan = eliminate_reads(ex)
    info.plan = plan
    info.ops_after = residual_ex.num_ops

    if residual_ex.num_ops == 0:
        return _decide(info, _trivial_verdict(residual_ex, instance))

    inf = infer_order(residual_ex)
    info.edges_inferred = inf.edge_count
    if inf.decided is not None:
        return _decide(info, inf.decided)

    if not any(op.kind.writes for op in residual_ex.all_ops()):
        # No writes survive: every remaining read must read the initial
        # value (anything else was decided infeasible above), so any
        # program-order interleaving is a witness.
        sched = [op for h in residual_ex.histories for op in h]
        return _decide(
            info,
            VerificationResult(
                holds=True, method="prepass", schedule=sched,
                address=instance.address,
            ),
        )

    if inf.write_order is not None:
        info.downgraded = True
        info.residual = Instance(
            residual_ex,
            address=instance.address,
            write_order=inf.write_order,
            problem="vmc",
        )
    else:
        info.residual = Instance(
            residual_ex,
            address=instance.address,
            problem="vmc",
            order_hints=tuple((u, v) for u, v, _why in inf.edges),
        )
    return info


def _trivial_verdict(ex: Execution, instance: Instance) -> VerificationResult:
    """Verdict for an empty residual: only final values can object."""
    for a in ex.final:
        if ex.final[a] != ex.initial_value(a):
            return VerificationResult(
                holds=False,
                method="prepass",
                reason=(
                    f"no writes to {a!r} but final {ex.final[a]!r} != "
                    f"initial {ex.initial_value(a)!r}"
                ),
                address=instance.address,
                certificate=Certificate(
                    "infeasible", ("final-vs-initial", a)
                ),
            )
    return VerificationResult(
        holds=True, method="prepass", schedule=[], address=instance.address
    )


# ---------------------------------------------------------------------
# VSC
# ---------------------------------------------------------------------
def prepass_vsc(instance: Instance) -> PrepassInfo | None:
    """Run the pipeline on a whole-execution VSC task.

    Per-address inference runs on the eliminated residual; the union of
    all necessary per-address edges with global program order must be
    acyclic in any SC schedule, so a cycle refutes SC polynomially
    (this decides the classic store-buffering litmus without search).
    When every address's write order is forced, the per-address
    Section 5.2 schedules are merged via Section 6.3's conflict check —
    success decides SC; failure falls through to the search, because a
    failed merge of *chosen* read placements proves nothing (the
    paper's incompleteness point).
    """
    ex = instance.execution
    if any(op.kind.is_sync for op in ex.all_ops()):
        return None
    info = PrepassInfo(ops_before=ex.num_ops)

    residual_ex, plan = eliminate_reads(ex)
    info.plan = plan
    info.ops_after = residual_ex.num_ops

    if residual_ex.num_ops == 0:
        return _decide(info, _trivial_verdict(residual_ex, instance))

    per_addr: dict[Any, Inference] = {}
    for addr in residual_ex.constrained_addresses():
        sub = residual_ex.restrict_to_address(addr)
        inf = infer_order(sub)
        if inf.decided is not None:
            # An incoherent address refutes SC (SC implies coherence).
            verdict = inf.decided
            verdict.reason = (
                f"address {addr!r} cannot be coherent, so no SC schedule "
                f"exists: {verdict.reason}"
            )
            verdict.address = None
            return _decide(info, verdict)
        per_addr[addr] = inf
        info.edges_inferred += inf.edge_count

    # Cross-address cycle check: global program order plus every
    # necessary per-address edge must embed into a single total order.
    ops = [op for h in residual_ex.histories for op in h]
    node = {op.uid: i for i, op in enumerate(ops)}
    g = Digraph(len(ops))
    reasons: dict[tuple[int, int], str] = {}
    for h in residual_ex.histories:
        for o1, o2 in zip(h.operations, h.operations[1:]):
            g.add_edge(node[o1.uid], node[o2.uid])
    for inf in per_addr.values():
        for u, v, why in inf.edges:
            if g.add_edge(node[u], node[v]):
                reasons[(node[u], node[v])] = why
    try:
        g.topological_order()
    except CycleError as e:
        steps = []
        # Certificate step log: the cycle's program-order edges, then
        # per address the slice of its derivation log that derives the
        # cycle's edges there.  Each slice only cites edges earlier in
        # itself, and prepending more edges can only make the checker's
        # reachability test more permissive, never less, so the
        # concatenation stays replayable.
        cert_steps = []
        inferred: dict[Any, list] = {}
        for u, v in zip(e.cycle, e.cycle[1:] + e.cycle[:1]):
            why = reasons.get((u, v), "program order")
            steps.append(f"{ops[u]} -> {ops[v]} [{why}]")
            if (u, v) not in reasons:
                cert_steps.append((ops[u].uid, ops[v].uid, "po", None))
            else:
                inferred.setdefault(ops[u].addr, []).append(
                    (ops[u].uid, ops[v].uid)
                )
        for addr, edges in inferred.items():
            cert_steps.extend(per_addr[addr].sliced_steps(edges))
        return _decide(
            info,
            VerificationResult(
                holds=False,
                method="prepass",
                reason=(
                    "program order and necessary per-address ordering "
                    "form a cycle: " + "; ".join(steps)
                ),
                stats={"cycle_length": len(e.cycle)},
                certificate=Certificate(
                    "cycle",
                    (
                        tuple(cert_steps),
                        tuple(ops[u].uid for u in e.cycle),
                    ),
                ),
            ),
        )

    if per_addr and all(
        inf.write_order is not None for inf in per_addr.values()
    ):
        # Section 5.2 per address, then the Section 6.3 merge.
        schedules = {}
        for addr, inf in per_addr.items():
            sub = residual_ex.restrict_to_address(addr)
            r = writeorder.writeorder_vmc(sub, inf.write_order)
            if not r.holds:
                # The forced order is necessary, so this address is
                # simply incoherent — SC is refuted, not merely unmerged.
                return _decide(
                    info,
                    VerificationResult(
                        holds=False,
                        method="prepass",
                        reason=(
                            f"address {addr!r} is incoherent under its "
                            f"forced write order: {r.reason}"
                        ),
                    ),
                )
            schedules[addr] = r.schedule
        merged = vsc_conflict(
            residual_ex, schedules, validate_inputs=False
        )
        if merged.holds:
            merged.method = "prepass"
            merged.stats.setdefault("via", "vsc-conflict")
            return _decide(info, merged)
        # A failed merge is *not* a negative verdict; fall through.

    hints = tuple(
        (u, v) for inf in per_addr.values() for u, v, _why in inf.edges
    )
    info.residual = Instance(
        residual_ex, address=None, problem="vsc", order_hints=hints or None
    )
    return info
