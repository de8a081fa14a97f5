"""Polynomial happens-before inference and read elimination.

The core of the engine's pre-pass pipeline (``repro.engine.prepass``).
The paper proves the general problems NP-complete (Theorems 4.2, 6.1),
but — as Roy et al.'s industrial checkers exploit — most constraints of
a realistic instance are *forced*: program order, uniquely-written read
values, and the required final value pin down most of the schedule
before any search starts.  This module computes those forced facts in
polynomial time:

* :func:`eliminate_reads` removes reads whose placement is decided by a
  neighbouring operation (a generalization of Figure 5.3's read-map
  row) and returns a :class:`ReinsertionPlan` that splices them back
  into any witness schedule of the residual execution;
* :func:`infer_order` saturates the *necessary* happens-before edges of
  a single-address instance (reads-from where the source is unique,
  coherence/from-read closure, final-write-last) — a cycle decides the
  instance incoherent with an explainable witness, and a forced total
  write order downgrades it to the O(n log n) Section 5.2 algorithm.

Soundness contract: every edge emitted by :func:`infer_order` holds in
*every* coherent schedule of the instance, and every read eliminated by
:func:`eliminate_reads` can be re-inserted into *any* coherent schedule
of the residual (so residual-coherent ⇔ original-coherent).

The inner loops — the covered-read scan, the reachability closure and
the wr/fr rule application — live in :mod:`repro.core.kernels`; this
module is the driver: it reads the columnar view, picks the kernel for
each saturation (:data:`NUMPY_MIN_FORCED`), seeds the base edges,
interprets the saturation outcome and materializes human-readable
reasons, step logs and hint edges *lazily* (an inferred chain with half
a million implied edges costs nothing unless somebody actually asks for
the proof).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core import kernels
from repro.core.kernels import (
    RULE_FIN,
    RULE_FINR,
    RULE_FR,
    RULE_INIT,
    RULE_NAMES,
    RULE_PO,
    RULE_RF,
    RULE_WR,
)
from repro.core.result import Certificate, VerificationResult
from repro.core.types import Execution, OpKind, Operation, ProcessHistory

Uid = tuple[int, int]

#: Forced reads-from pairs (reads with exactly one possible writer) from
#: which the numpy saturation beats the int-bitset one, when numpy is
#: installed: the measured crossover (docs/engine.md, "Kernels").  Below
#: it the python kernel runs and numpy is never imported.
NUMPY_MIN_FORCED = 72

#: One certificate proof step: ``(u_uid, v_uid, rule, aux)`` asserting
#: the necessary edge u -> v.  Rules ``po``/``rf``/``init``/``fin``/
#: ``finr`` are axioms a checker verifies directly against the trace;
#: ``wr``/``fr`` are closure steps whose ``aux`` is the forced
#: reads-from pair ``(w_uid, r_uid)`` that, combined with reachability
#: over *earlier* steps, forces the edge.
Step = tuple[Uid, Uid, str, tuple | None]


# ---------------------------------------------------------------------
# Read elimination
# ---------------------------------------------------------------------
@dataclass
class ReinsertionPlan:
    """How to splice eliminated reads back into a residual witness.

    Three placement classes, each trivially sound:

    * ``front`` — reads of the initial value that lead their process's
      history; at the very start of any schedule every address still
      holds its initial value, and nothing of the same process precedes
      them.
    * ``attached[uid]`` — reads whose value is determined by the
      surviving operation ``uid`` immediately preceding them in program
      order (at the same address): inserted directly after it, the
      address value cannot have changed in between.
    * ``tail`` — reads of the required final value that end their
      process's history; at the very end of any schedule satisfying the
      final-value constraint the address holds exactly that value.

    Everything here is plain data (operations and uid keys), so plans
    pickle cleanly into process-pool workers.
    """

    front: list[Operation] = field(default_factory=list)
    attached: dict[Uid, list[Operation]] = field(default_factory=dict)
    tail: list[Operation] = field(default_factory=list)

    @property
    def eliminated(self) -> int:
        return (
            len(self.front)
            + len(self.tail)
            + sum(len(v) for v in self.attached.values())
        )

    def rematerialize(self, schedule: Sequence[Operation]) -> list[Operation]:
        """Splice the eliminated reads into a residual witness.

        ``schedule`` may contain value-equal copies of the residual's
        operations (e.g. unpickled from a worker); attachment is by uid.
        """
        out: list[Operation] = list(self.front)
        for op in schedule:
            out.append(op)
            out.extend(self.attached.get(op.uid, ()))
        out.extend(self.tail)
        return out


def _determined_value(op: Operation):
    """The value an operation guarantees the address holds just after
    it executes (None when it guarantees nothing — sync ops)."""
    if op.kind.writes:
        return op.value_written
    if op.kind is OpKind.READ:
        return op.value_read
    return None


def _gappy_execution(
    histories: list[tuple[int, tuple[Operation, ...]]],
    initial,
    final,
) -> Execution:
    """Build an execution whose histories keep original (gappy) program
    order indices, like :meth:`Execution.restrict_to_address`."""
    phs = []
    for proc, ops in histories:
        ph = object.__new__(ProcessHistory)
        object.__setattr__(ph, "proc", proc)
        object.__setattr__(ph, "operations", ops)
        phs.append(ph)
    ex = object.__new__(Execution)
    ex.histories = tuple(phs)
    ex.initial = dict(initial)
    ex.final = dict(final)
    return ex


def eliminate_reads(execution: Execution) -> tuple[Execution, ReinsertionPlan]:
    """Drop reads whose placement is forced; return (residual, plan).

    Works on a single-address sub-execution (VMC tasks) or a whole
    execution (VSC): the rules only ever consult an operation's
    *immediate* program-order neighbour at the same address, which in
    the restricted case is the same thing.

    Executions containing sync operations are returned unchanged (the
    sync semantics live outside this module's model).

    The covered/front/tail decisions come from
    :func:`~repro.core.kernels.eliminate_scan` over the columnar view.
    """
    plan = ReinsertionPlan()
    if any(op.kind.is_sync for op in execution.all_ops()):
        return execution, plan

    view = execution.columnar()
    scan = kernels.eliminate_scan(view)
    if scan is None or scan.total == 0:
        return execution, plan

    eliminated = set(scan.eliminated)
    tail_set = set(scan.tails)
    anchor_of = dict(zip(scan.eliminated, scan.anchors))
    residual_histories: list[tuple[int, tuple[Operation, ...]]] = []
    for p in range(view.n_procs):
        start, stop = view.proc_offsets[p], view.proc_offsets[p + 1]
        kept: list[Operation] = []
        for i in range(start, stop):
            op = view.op_at(i)
            if i in eliminated:
                a = anchor_of[i]
                if a < 0:
                    plan.front.append(op)
                else:
                    plan.attached.setdefault(
                        view.op_at(a).uid, []
                    ).append(op)
            elif i in tail_set:
                plan.tail.append(op)
            else:
                kept.append(op)
        residual_histories.append((p, tuple(kept)))

    if plan.eliminated == 0:
        return execution, plan
    residual = _gappy_execution(
        residual_histories, execution.initial, execution.final
    )
    return residual, plan


# ---------------------------------------------------------------------
# Necessary happens-before inference (single address)
# ---------------------------------------------------------------------
class Inference:
    """Outcome of the happens-before saturation at one address.

    ``edges`` and ``steps`` are *lazy*: the saturation records compact
    step rows (node ids + rule codes), and the uid/reason form is only
    materialized when accessed — the downgrade path (forced write
    order) never pays for a proof log nobody reads.
    """

    def __init__(self):
        #: Early verdict: a cycle in the necessary edges (incoherent)
        #: or a read of a never-written value.  None when undecided.
        self.decided: VerificationResult | None = None
        #: All writes in a forced total order, when the necessary edges
        #: order them completely (downgrades the task to Section 5.2).
        self.write_order: list[Operation] | None = None
        #: Saturation rounds until fixpoint.
        self.rounds: int = 0
        self._edges: list[tuple[Uid, Uid, str]] | None = []
        self._steps: list[Step] | None = []
        self._sat = None
        self._ops: list[Operation] | None = None
        self._d_f = None

    def _attach(self, sat, ops: list[Operation], d_f) -> None:
        """Defer edge/step materialization to the saturation state."""
        self._sat = sat
        self._ops = ops
        self._d_f = d_f
        self._edges = None
        self._steps = None

    @property
    def edge_count(self) -> int:
        """Number of inferred (non-program-order) edges, without
        materializing them."""
        if self._sat is not None:
            return self._sat.non_po_edges
        return len(self._edges or ())

    @property
    def edges(self) -> list[tuple[Uid, Uid, str]]:
        """Inferred non-program-order edges as (uid, uid, reason)
        triples — necessary in every coherent schedule, usable as
        search hints."""
        if self._edges is None:
            ops = self._ops
            self._edges = [
                (
                    ops[u].uid,
                    ops[v].uid,
                    _why(rule, u, v, aw, ar, ops, self._d_f),
                )
                for u, v, rule, aw, ar in self._sat.steps()
                if rule != RULE_PO
            ]
        return self._edges

    @edges.setter
    def edges(self, value) -> None:
        self._edges = value

    @property
    def steps(self) -> list[Step]:
        """Every edge in derivation order as structured proof steps
        (see :data:`Step`) — the raw material of ``cycle``
        certificates."""
        if self._steps is None:
            self._steps = _materialize_steps(self._sat.steps(), self._ops)
        return self._steps

    @steps.setter
    def steps(self, value) -> None:
        self._steps = value


def _materialize_steps(rows, ops: list[Operation]) -> list[Step]:
    return [
        (
            ops[u].uid,
            ops[v].uid,
            RULE_NAMES[rule],
            (ops[aw].uid, ops[ar].uid) if aw >= 0 else None,
        )
        for u, v, rule, aw, ar in rows
    ]


def _cycle_slice(
    rows: list[tuple[int, int, int, int, int]],
    first: dict[tuple[int, int], int],
    cycle: list[int],
) -> list[int]:
    """The log positions a ``cycle`` certificate needs: a backward slice
    of the saturation log from the cycle's edges.

    A cycle edge needs the first step that derived it.  A ``wr``/``fr``
    closure step needs the ``rf`` step of the pair it cites, and one
    path of *earlier* steps that the checker's reachability test walks
    (``wr u -> w`` citing ``(w, r)``: from ``u`` to ``r``; ``fr r -> v``:
    from ``w`` to ``v``) — the fewest steps, by breadth-first search.
    Every needed step is added with its own needs, transitively, and
    the slice keeps log order, so a checker replaying it validates each
    step from steps it has already validated."""
    out: dict[int, list[tuple[int, int]]] = {}
    rf_step: dict[tuple[int, int], int] = {}
    for k, (u, v, rule, _aw, _ar) in enumerate(rows):
        out.setdefault(u, []).append((v, k))
        if rule == RULE_RF:
            rf_step.setdefault((u, v), k)

    def path(src: int, dst: int, before: int) -> list[int]:
        parent: dict[int, int] = {src: -1}  # node -> step that reached it
        frontier = [src]
        while frontier and dst not in parent:
            nxt = []
            for u in frontier:
                for v, k in out.get(u, ()):
                    if k < before and v not in parent:
                        parent[v] = k
                        nxt.append(v)
            frontier = nxt
        if dst not in parent:
            return []  # the checker will reject the step, as it should
        ks = []
        while dst != src:
            k = parent[dst]
            ks.append(k)
            dst = rows[k][0]
        return ks

    todo = [
        first[e] for e in zip(cycle, cycle[1:] + cycle[:1]) if e in first
    ]
    keep: set[int] = set()
    while todo:
        k = todo.pop()
        if k in keep:
            continue
        keep.add(k)
        u, v, rule, aw, ar = rows[k]
        if rule == RULE_WR or rule == RULE_FR:
            if (aw, ar) in rf_step:
                todo.append(rf_step[(aw, ar)])
            todo += path(u, ar, k) if rule == RULE_WR else path(aw, v, k)
    return sorted(keep)


def _why(
    rule: int, u: int, v: int, aux_w: int, aux_r: int,
    ops: list[Operation], d_f,
) -> str:
    """The human-readable reason for one recorded edge, reproduced
    exactly as the eager implementation used to phrase it."""
    if rule == RULE_PO:
        return "program order"
    if rule == RULE_RF:
        return f"{ops[v]} must read from {ops[u]} (unique writer)"
    if rule == RULE_INIT:
        return f"{ops[u]} reads the initial value, never re-written"
    if rule == RULE_FIN:
        return f"{ops[v]} uniquely writes the final value {d_f!r}"
    if rule == RULE_FINR:
        return (
            f"{ops[u]} reads {ops[u].value_read!r}, stale after the "
            f"final write {ops[v]}"
        )
    if rule == RULE_WR:
        return (
            f"{ops[u]} precedes {ops[aux_r]}, which reads from "
            f"{ops[aux_w]}"
        )
    return f"{ops[v]} follows {ops[aux_w]}, the source of {ops[u]}"


def infer_order(execution: Execution) -> Inference:
    """Saturate the necessary happens-before edges of a single-address
    execution (no sync ops).

    Rules — each provably holds in every coherent schedule:

    * program order;
    * *forced reads-from*: a read of a value written by exactly one
      other operation follows that write (RF); a read of the initial
      value when no write re-creates it precedes every write (INIT);
    * *coherence closure* for a forced pair ``w → r``: any other write
      ordered before ``r`` must precede ``w`` (WR), and any write
      ordered after ``w`` must follow ``r`` (FR) — otherwise it would
      sit between the source and the read;
    * *final write last*: when ``d_F`` is written by exactly one
      operation, every other write precedes it (FIN), and every read of
      a different value precedes it too (FINR).

    A cycle among these edges is a polynomial *incoherence proof*; the
    returned reason walks the cycle edge by edge with the rule that
    produced each edge.

    The saturation runs on the numpy kernel when the instance has at
    least :data:`NUMPY_MIN_FORCED` forced reads-from pairs and numpy is
    installed, on the python kernel otherwise; both derive the same
    edges, steps and verdict.
    """
    ops = [op for h in execution.histories for op in h]
    n = len(ops)
    inf = Inference()
    if n == 0:
        return inf
    addrs = execution.addresses()
    if len(addrs) > 1:
        raise ValueError(f"infer_order is per-address; got {addrs}")
    addr = addrs[0]
    d_i = execution.initial_value(addr)
    d_f = execution.final_value(addr)

    view = execution.columnar()
    kinds = view.kinds
    rvs = view.read_vids
    wvs = view.write_vids
    d_i_vid = view.initial_ids[0]
    d_f_vid = view.final_ids[0]

    writes = [i for i in range(n) if wvs[i] >= 0]
    reads = [i for i in range(n) if rvs[i] >= 0]
    writers_of: dict[int, list[int]] = {}
    for w in writes:
        writers_of.setdefault(wvs[w], []).append(w)

    # Infeasible reads / final values decide outright (mirrors encode).
    for r in reads:
        v_id = rvs[r]
        if v_id != d_i_vid and not any(
            w != r for w in writers_of.get(v_id, ())
        ):
            inf.decided = VerificationResult(
                holds=False,
                method="prepass",
                reason=(
                    f"{ops[r]} reads {ops[r].value_read!r}, which is "
                    f"never written to {addr!r} and is not its initial "
                    f"value {d_i!r}"
                ),
                address=addr,
                certificate=Certificate(
                    "infeasible", ("read-impossible", ops[r].uid)
                ),
            )
            return inf
    if d_f is not None:
        if not writes:
            if d_f_vid != d_i_vid:
                inf.decided = VerificationResult(
                    holds=False,
                    method="prepass",
                    reason=f"no writes to {addr!r} but final {d_f!r} != initial",
                    address=addr,
                    certificate=Certificate(
                        "infeasible", ("final-vs-initial", addr)
                    ),
                )
                return inf
        elif not writers_of.get(d_f_vid):
            inf.decided = VerificationResult(
                holds=False,
                method="prepass",
                reason=(
                    f"required final value {d_f!r} of {addr!r} is never written"
                ),
                address=addr,
                certificate=Certificate(
                    "infeasible", ("final-unwritten", addr)
                ),
            )
            return inf

    # Forced reads-from sources.
    forced_rf: list[tuple[int, int]] = []  # (write, read)
    init_readers: list[int] = []
    for r in reads:
        v_id = rvs[r]
        cands = [w for w in writers_of.get(v_id, ()) if w != r]
        if v_id == d_i_vid:
            if not cands:
                init_readers.append(r)
        elif len(cands) == 1:
            forced_rf.append((cands[0], r))

    use_numpy = len(forced_rf) >= NUMPY_MIN_FORCED and kernels.NumpyKernel.is_available()
    g = kernels.backend("numpy" if use_numpy else "python").saturation(n)
    for p in range(view.n_procs):
        start, stop = view.proc_offsets[p], view.proc_offsets[p + 1]
        for i in range(start, stop - 1):
            g.add(i, i + 1, RULE_PO)

    for w, r in forced_rf:
        # force_step: even when program order already supplies the
        # edge, the rf step must enter the log — wr/fr closure steps
        # cite the pair, and the certificate checker only accepts
        # pairs validated by their own rf step.
        g.add(w, r, RULE_RF, force_step=True)
    for r in init_readers:
        for w in writes:
            g.add(r, w, RULE_INIT)
    if d_f is not None and len(writers_of.get(d_f_vid, ())) == 1:
        wf = writers_of[d_f_vid][0]
        for w in writes:
            g.add(w, wf, RULE_FIN)
        for r in reads:
            if r != wf and rvs[r] != d_f_vid:
                g.add(r, wf, RULE_FINR)

    cycle = g.saturate(forced_rf, writes)
    inf.rounds = g.rounds
    if cycle is not None:
        rows = list(g.steps())
        first: dict[tuple[int, int], int] = {}
        for k, (u, v, _rule, _aw, _ar) in enumerate(rows):
            first.setdefault((u, v), k)
        steps = []
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            k = first.get((u, v))
            rule, aw, ar = rows[k][2:] if k is not None else (RULE_PO, -1, -1)
            steps.append(
                f"{ops[u]} -> {ops[v]} [{_why(rule, u, v, aw, ar, ops, d_f)}]"
            )
        inf.decided = VerificationResult(
            holds=False,
            method="prepass",
            reason=(
                "necessary happens-before edges form a cycle: "
                + "; ".join(steps)
            ),
            address=addr,
            stats={"cycle_length": len(cycle)},
            certificate=Certificate(
                "cycle",
                (
                    tuple(_materialize_steps(
                        [rows[k] for k in _cycle_slice(rows, first, cycle)],
                        ops,
                    )),
                    tuple(ops[u].uid for u in cycle),
                ),
            ),
        )
        return inf

    inf._attach(g, ops, d_f)

    # Forced total write order?
    order = g.write_order(writes)
    if order is not None:
        inf.write_order = [ops[w] for w in order]
    return inf
