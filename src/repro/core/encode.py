"""CNF encodings of VMC and VSC.

The practical counterpart of the paper's NP-membership proof: a legal
schedule is a total order of the operations, so we encode

* an ordering variable ``before[i][j]`` per operation pair (with
  ``before[j][i] = ¬before[i][j]``), totality implicit;
* transitivity clauses over all ordered triples (O(n³));
* unit clauses fixing program order;
* per read, a *reads-from* selector over the candidate writes of the
  same address and value: the chosen write precedes the read and every
  other same-address write lies outside the (write, read) interval;
  reading the initial value means every same-address write follows;
* per address with a required final value, a *last-write* selector.

An RMW participates as both: its write component is a candidate for
other reads; its read component constrains its own position.  Atomicity
is automatic — an RMW is a single node of the order.

This encoding is what "verifying coherence with a SAT solver" looks like
in practice, and the benchmark harness uses it to contrast CDCL against
exhaustive interleaving search on the NP-complete cells of Figure 5.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.columnar import KINDS_BY_CODE
from repro.core.types import (
    Address,
    Execution,
    Operation,
)
from repro.core.result import Certificate, VerificationResult
from repro.sat.cdcl import solve_cdcl
from repro.sat.cnf import CNF
from repro.util.control import Cancelled, StopCheck

#: Above this clause count the pre-solve :func:`repro.sat.simplify`
#: pass is skipped — scanning every clause per propagated unit would
#: cost more than it saves on the O(n^3)-clause encodings; the hints
#: then reach CDCL as root assumptions instead.
SIMPLIFY_CLAUSE_LIMIT = 20_000


@dataclass
class ScheduleEncoding:
    """A CNF plus the mapping back from models to schedules."""

    cnf: CNF
    ops: list[Operation]
    before: dict[tuple[int, int], int]  # (i, j) i<j -> var: op_i before op_j
    feasible: bool = True  # False when a read has no possible source
    infeasible_reason: str = ""
    #: Structured counterpart of ``infeasible_reason``: a claim tuple a
    #: trusted checker can re-verify by scanning the raw trace (see
    #: :class:`repro.core.result.Certificate`, kind ``infeasible``).
    infeasible_claim: tuple | None = None
    #: Pre-pass order hints as ``before`` literals (filled instead of
    #: unit clauses when ``hints_as_units=False``); the CDCL path feeds
    #: them to the preprocessor / solver as assumptions.
    hint_lits: list[int] = field(default_factory=list)

    def lit_before(self, i: int, j: int) -> int:
        """Literal asserting ops[i] precedes ops[j]."""
        if i == j:
            raise ValueError("an operation does not precede itself")
        if i < j:
            return self.before[(i, j)]
        return -self.before[(j, i)]

    def decode(self, model: dict[int, bool]) -> list[Operation]:
        """Turn a satisfying assignment into the witness schedule."""
        n = len(self.ops)
        rank = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j:
                    lit = self.lit_before(j, i)
                    val = model.get(abs(lit), False)
                    if (lit > 0) == val:
                        rank[i] += 1
        order = sorted(range(n), key=lambda i: rank[i])
        return [self.ops[i] for i in order]


def encode_legal_schedule(
    execution: Execution,
    order_hints: Sequence[tuple[tuple[int, int], tuple[int, int]]] | None = None,
    hints_as_units: bool = True,
    should_stop: StopCheck = None,
) -> ScheduleEncoding:
    """Encode "a legal (per-address value-correct) schedule exists".

    For a single-address execution this is exactly VMC; for a
    multi-address execution it is VSC.  ``order_hints`` are (uid, uid)
    pairs known to hold in every legal schedule (the engine pre-pass's
    inferred edges); with ``hints_as_units`` they become unit clauses,
    which cannot change satisfiability but let unit propagation fix
    ordering variables before the solver searches; otherwise they are
    collected into ``enc.hint_lits`` for the caller to assert as solver
    assumptions.  ``should_stop`` aborts the O(n^3) clause generation
    (the encoding itself is the SAT leg's startup cost, so the
    portfolio must be able to cancel it too).
    """
    ops = [op for h in execution.histories for op in h if not op.kind.is_sync]
    n = len(ops)
    cnf = CNF()
    before: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            before[(i, j)] = cnf.new_var()

    enc = ScheduleEncoding(cnf=cnf, ops=ops, before=before)

    # Transitivity: before(i,j) & before(j,k) -> before(i,k).
    for i in range(n):
        if should_stop is not None and should_stop():
            raise Cancelled("sat encoding", i * n * n)
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                cnf.add_clause(
                    [
                        -enc.lit_before(i, j),
                        -enc.lit_before(j, k),
                        enc.lit_before(i, k),
                    ]
                )

    # Program order.
    index_of = {op.uid: i for i, op in enumerate(ops)}
    for h in execution.histories:
        hist_ops = [op for op in h if not op.kind.is_sync]
        for o1, o2 in zip(hist_ops, hist_ops[1:]):
            cnf.add_clause([enc.lit_before(index_of[o1.uid], index_of[o2.uid])])

    # Pre-pass ordering hints (implied by the constraints below; units
    # only help propagation).
    if order_hints:
        for u, v in order_hints:
            iu, iv = index_of.get(u), index_of.get(v)
            if iu is not None and iv is not None and iu != iv:
                if hints_as_units:
                    cnf.add_clause([enc.lit_before(iu, iv)])
                else:
                    enc.hint_lits.append(enc.lit_before(iu, iv))

    # Reads-from, over the columnar view's per-address slices.  Value
    # comparisons become vid comparisons (interning uses the same
    # hash/== the old object walk applied); diagnostics still quote the
    # caller's own objects, not the interned representatives.
    view = execution.columnar()
    col_rv = view.read_vids
    col_wv = view.write_vids
    # Flat column position -> encoding index (sync ops are stripped
    # from the encoding, so positions shift).
    pos2enc = []
    nxt = 0
    for pos in range(view.n_ops):
        if KINDS_BY_CODE[view.kinds[pos]].is_sync:
            pos2enc.append(-1)
        else:
            pos2enc.append(nxt)
            nxt += 1
    for ai in range(view.n_constrained):
        a = view.addrs[ai]
        positions = [p for p in view.ops_at_id(ai) if pos2enc[p] >= 0]
        writes = [pos2enc[p] for p in positions if col_wv[p] >= 0]
        wvid = {pos2enc[p]: col_wv[p] for p in positions if col_wv[p] >= 0}
        d_i = execution.initial_value(a)
        d_i_vid = view.initial_ids[ai]
        for p in positions:
            if col_rv[p] < 0:
                continue
            r = pos2enc[p]
            want_vid = col_rv[p]
            want = ops[r].value_read
            candidates = [
                w for w in writes if w != r and wvid[w] == want_vid
            ]
            selectors: list[int] = []
            if want_vid == d_i_vid:
                s_init = cnf.new_var()
                selectors.append(s_init)
                # Reading the initial value: every write follows r.
                for w in writes:
                    if w != r:
                        cnf.add_clause([-s_init, enc.lit_before(r, w)])
                    else:
                        # An RMW reading the initial value is fine; its own
                        # write is at the same position (not "before").
                        pass
            for w in candidates:
                s = cnf.new_var()
                selectors.append(s)
                cnf.add_clause([-s, enc.lit_before(w, r)])
                for w2 in writes:
                    if w2 == w or w2 == r:
                        continue
                    # No write strictly between w and r.
                    cnf.add_clause(
                        [-s, enc.lit_before(w2, w), enc.lit_before(r, w2)]
                    )
            if not selectors:
                enc.feasible = False
                enc.infeasible_reason = (
                    f"{ops[r]} reads {want!r}, which is never written to "
                    f"{a!r} and is not its initial value {d_i!r}"
                )
                enc.infeasible_claim = ("read-impossible", ops[r].uid)
                cnf.add_clause([])  # formula is UNSAT
                continue
            cnf.add_clause(selectors)  # at least one source
        # Final value.
        d_f = execution.final_value(a)
        if d_f is not None:
            d_f_vid = view.final_ids[ai]
            finals = [w for w in writes if wvid[w] == d_f_vid]
            if not writes:
                if d_f != d_i:
                    enc.feasible = False
                    enc.infeasible_reason = (
                        f"no writes to {a!r} but final {d_f!r} != initial"
                    )
                    enc.infeasible_claim = ("final-vs-initial", a)
                    cnf.add_clause([])
            elif not finals:
                enc.feasible = False
                enc.infeasible_reason = (
                    f"required final value {d_f!r} of {a!r} is never written"
                )
                enc.infeasible_claim = ("final-unwritten", a)
                cnf.add_clause([])
            else:
                selectors = []
                for f in finals:
                    s = cnf.new_var()
                    selectors.append(s)
                    for w in writes:
                        if w != f:
                            cnf.add_clause([-s, enc.lit_before(w, f)])
                cnf.add_clause(selectors)
    return enc


def sat_vmc(
    execution: Execution,
    addr: Address | None = None,
    solver: str = "cdcl",
    max_conflicts: int | None = None,
    order_hints: Sequence[tuple[tuple[int, int], tuple[int, int]]] | None = None,
    should_stop: StopCheck = None,
    certify: bool = False,
) -> VerificationResult:
    """Decide VMC by CNF encoding + SAT solving."""
    if addr is not None:
        execution = execution.restrict_to_address(addr)
    addrs = execution.addresses()
    if len(addrs) > 1:
        raise ValueError(f"VMC is per-address; execution touches {addrs}")
    result = _solve_encoding(
        execution, solver, max_conflicts, order_hints, should_stop, certify
    )
    result.address = addrs[0] if addrs else addr
    return result


def sat_vsc(
    execution: Execution,
    solver: str = "cdcl",
    max_conflicts: int | None = None,
    order_hints: Sequence[tuple[tuple[int, int], tuple[int, int]]] | None = None,
    should_stop: StopCheck = None,
    certify: bool = False,
) -> VerificationResult:
    """Decide VSC by CNF encoding + SAT solving."""
    return _solve_encoding(
        execution, solver, max_conflicts, order_hints, should_stop, certify
    )


def _solve_encoding(
    execution: Execution,
    solver: str,
    max_conflicts: int | None,
    order_hints: Sequence[tuple[tuple[int, int], tuple[int, int]]] | None = None,
    should_stop: StopCheck = None,
    certify: bool = False,
) -> VerificationResult:
    """Encode, preprocess, solve, decode.

    The CDCL route gets the constant-factor treatment the portfolio's
    SAT leg needs: small formulas run the :mod:`repro.sat.simplify`
    unit/pure-literal pass seeded with the pre-pass order hints
    (everything the preprocessor forces never reaches the solver);
    formulas past :data:`SIMPLIFY_CLAUSE_LIMIT` skip preprocessing and
    assert the hints as root-level solver assumptions instead.  Other
    solvers keep the plain encoding with hints as unit clauses.

    With ``certify`` the CDCL route instead solves the *plain* encoding
    (no hints, no preprocessing: a refutation must be checkable against
    a CNF an auditor re-derives from the trace alone, and pre-pass
    hints are untrusted solver-side input) with DRAT proof logging, and
    an UNSAT verdict carries the proof as a ``rup`` certificate.
    Infeasible encodings carry the structured claim instead; a SAT
    verdict's witness schedule is its own certificate.
    """
    use_cdcl = solver == "cdcl"
    if certify:
        order_hints = None
    enc = encode_legal_schedule(
        execution,
        order_hints=order_hints,
        hints_as_units=not use_cdcl,
        should_stop=should_stop,
    )
    stats: dict = {"vars": enc.cnf.num_vars, "clauses": enc.cnf.num_clauses}
    if not enc.feasible:
        return VerificationResult(
            holds=False,
            method=f"sat-{solver}",
            reason=enc.infeasible_reason,
            stats=stats,
            certificate=(
                Certificate("infeasible", enc.infeasible_claim)
                if certify else None
            ),
        )
    proof = None
    if use_cdcl:
        if certify:
            from repro.sat.drat import ProofLog

            proof = ProofLog()
            model = solve_cdcl(
                enc.cnf,
                max_conflicts=max_conflicts,
                should_stop=should_stop,
                proof=proof,
            )
        elif enc.cnf.num_clauses <= SIMPLIFY_CLAUSE_LIMIT:
            from repro.sat.simplify import simplify

            pre = simplify(enc.cnf, assume=enc.hint_lits)
            stats["pp_forced"] = len(pre.forced)
            stats["pp_clauses"] = pre.cnf.num_clauses
            if pre.unsat:
                return VerificationResult(
                    holds=False,
                    method=f"sat-{solver}",
                    reason=(
                        "the CNF encoding of a legal schedule is "
                        "unsatisfiable (refuted by unit propagation)"
                    ),
                    stats=stats,
                )
            model = pre.extend_model(
                solve_cdcl(
                    pre.cnf,
                    max_conflicts=max_conflicts,
                    should_stop=should_stop,
                )
            )
        else:
            model = solve_cdcl(
                enc.cnf,
                max_conflicts=max_conflicts,
                should_stop=should_stop,
                assumptions=enc.hint_lits,
            )
    else:
        from repro.sat import solve

        model = solve(enc.cnf, solver=solver)
    if model is None:
        certificate = None
        if proof is not None:
            stats["proof_lines"] = len(proof)
            certificate = Certificate("rup", tuple(proof.lines))
        return VerificationResult(
            holds=False,
            method=f"sat-{solver}",
            reason="the CNF encoding of a legal schedule is unsatisfiable",
            stats=stats,
            certificate=certificate,
        )
    schedule = enc.decode(model)
    # Sync ops were stripped for the encoding; reinsert them respecting
    # program order (they carry no value constraints).
    schedule = _reinsert_sync(execution, schedule)
    return VerificationResult(
        holds=True,
        method=f"sat-{solver}",
        schedule=schedule,
        stats=stats,
        certificate=Certificate("witness") if certify else None,
    )


def _reinsert_sync(
    execution: Execution, schedule: list[Operation]
) -> list[Operation]:
    """Weave ACQUIRE/RELEASE ops back into a schedule of data ops."""
    if not any(op.kind.is_sync for op in execution.all_ops()):
        return schedule
    out: list[Operation] = []
    cursors = {h.proc: 0 for h in execution.histories}

    def flush_until(proc: int, stop_index: int | None) -> None:
        h = execution.histories[proc]
        i = cursors[proc]
        while i < len(h) and (stop_index is None or h[i].index < stop_index):
            if h[i].kind.is_sync:
                out.append(h[i])
                i += 1
            elif stop_index is not None and h[i].index < stop_index:
                # A data op that should already have been emitted; skip
                # cursor past it (it is in `schedule`).
                i += 1
            else:
                break
        cursors[proc] = i

    for op in schedule:
        flush_until(op.proc, op.index)
        out.append(op)
        cursors[op.proc] = max(cursors[op.proc], op.index + 1)
    for h in execution.histories:
        flush_until(h.proc, None)
    return out
