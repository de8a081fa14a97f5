"""The trusted certificate checker: independent validation of verdicts.

The paper's §4 NP-membership argument gives HOLDS verdicts a natural
certificate — the witness schedule, replayed op-by-op by
:mod:`repro.core.checker`.  This module closes the *no*-side gap: every
VIOLATED verdict can carry one of three refutation certificates
(:class:`repro.core.result.Certificate`), and :func:`validate_result`
checks any of them against the **raw trace alone**, sharing no state
with the solver stack that produced the verdict:

``witness``
    Replay the schedule (program order, exact op multiset, value trace).
``infeasible``
    Re-scan the trace for the claimed value-level impossibility (a read
    of a never-written value, a final value nobody writes, …).
``cycle``
    Replay a happens-before derivation: each axiom step (``po``, ``rf``,
    ``init``, ``fin``, ``finr``) is re-proved directly from the trace;
    each closure step (``wr``, ``fr``) must cite a previously validated
    forced reads-from pair and a reachability fact over previously
    validated edges; finally the claimed cycle must consist of validated
    edges.  Every validated edge holds in every coherent (and hence
    every SC) schedule, so a validated cycle is a refutation.
``rup``
    Re-derive the CNF encoding from the trace (the *encoding audit*:
    a proof can only refute the formula the trace actually induces,
    never a stale or doctored one) and check the DRAT-style proof with
    :func:`repro.sat.drat.check_rup`.
``order``
    A Section 5.2 refutation: the trace is unschedulable *under the
    supplied write-order* (the raw trace alone may be coherent, so
    none of the trace-only kinds can exist).  The checker demands the
    certificate name exactly the order the instance supplies, then
    re-decides the augmented instance with an independent
    gap-placement pass (:func:`_order_infeasible`) — a from-scratch
    reimplementation of the decision procedure, sharing no code with
    :mod:`repro.core.writeorder`, so producer and checker agreeing is
    a differential test, not a tautology.  Symmetrically, when an
    instance supplies a write-order, a HOLDS witness must *respect*
    it: a schedule whose writes deviate from the reported
    serialization does not witness the augmented instance.

The checker is deliberately conservative: anything malformed,
truncated, mismatched, or merely *unproven* fails closed.  The engine
maps a failure to a loud :class:`CertificationError` (``--certify on``)
or a sound UNKNOWN(uncertified) downgrade (``--certify strict``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.checker import is_coherent_schedule, is_sc_schedule
from repro.core.encode import encode_legal_schedule
from repro.core.infer import infer_order
from repro.core.result import Certificate, CertificationError, VerificationResult
from repro.core.types import Execution, Operation
from repro.sat.drat import check_rup
from repro.util.control import StopCheck


@dataclass(frozen=True)
class CertCheck:
    """Outcome of a certificate validation — truthy iff it passed."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> CertCheck:
    return CertCheck(False, reason)


_OK = CertCheck(True)


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------
def validate_result(
    execution: Execution,
    result: VerificationResult,
    problem: str = "vmc",
    write_order=None,
) -> CertCheck:
    """Validate ``result``'s verdict against the raw ``execution``.

    UNKNOWN results assert nothing and pass vacuously.  HOLDS results
    must carry a witness schedule that replays; VIOLATED results must
    carry a certificate whose kind-specific check succeeds.  The
    checker never consults the producing backend.

    ``write_order`` is the instance's supplied write serialization
    when it is an order-augmented (Section 5.2) instance: ``order``
    certificates are checked against it, and a HOLDS witness must
    respect it.
    """
    if result.unknown:
        return _OK
    if result.holds:
        if result.certificate is not None and result.certificate.kind != "witness":
            return _fail(
                f"holds verdict carries a {result.certificate.kind!r} "
                f"certificate; expected a witness schedule"
            )
        if result.schedule is None:
            return _fail("holds verdict carries no witness schedule")
        check = (
            is_sc_schedule(execution, result.schedule)
            if problem == "vsc"
            else is_coherent_schedule(execution, result.schedule)
        )
        if not check:
            return _fail(f"witness schedule rejected: {check.reason}")
        if write_order is not None:
            want = tuple(op.uid for op in write_order)
            got = tuple(
                op.uid for op in result.schedule if op.kind.writes
            )
            if got != want:
                return _fail(
                    "witness schedule does not respect the supplied "
                    "write-order"
                )
        return _OK
    cert = result.certificate
    if cert is None:
        return _fail("violated verdict carries no certificate")
    if not isinstance(cert, Certificate):
        return _fail(f"certificate is not a Certificate: {cert!r}")
    if cert.kind == "witness":
        return _fail("witness certificate on a violated verdict")
    if cert.kind == "infeasible":
        return _check_infeasible(execution, cert.payload)
    if cert.kind == "cycle":
        return _check_cycle(execution, cert.payload)
    if cert.kind == "rup":
        return _check_rup_certificate(execution, cert.payload)
    if cert.kind == "order":
        return _check_order(execution, cert.payload, write_order)
    return _fail(f"unknown certificate kind {cert.kind!r}")


def ensure_certificate(
    execution: Execution,
    result: VerificationResult,
    problem: str = "vmc",
    should_stop: StopCheck = None,
) -> VerificationResult:
    """Producer-side: attach a certificate to a decided result lacking one.

    HOLDS results get the ``witness`` marker (the schedule is already
    the certificate).  A VIOLATED VMC result without a certificate —
    the read-map and single-op rows, exact search — is re-refuted
    on the *original* execution, cheapest route first:

    1. the happens-before closure (:func:`repro.core.infer.infer_order`)
       on a sync-free single-address execution — forced reads-from
       saturation that, when it decides, yields a ``cycle`` or
       ``infeasible`` certificate in polynomial time;
    2. otherwise the certified SAT route, whose DRAT proof certifies
       the verdict (the only route for VSC, e.g. a failed merge).

    ``stats["certificate_via"]`` records the route (``"closure"`` or
    the SAT method).  (The §5.2 write-order route certifies itself at
    the producer with an ``order`` certificate: its refutations are
    relative to the supplied order, which a trace-only re-solve cannot
    reproduce.)  If the re-solve finds a schedule instead, the two
    engines disagree; no certificate is attached and validation will
    fail closed.
    """
    if result.unknown:
        return result
    if result.holds:
        if result.certificate is None and result.schedule is not None:
            result.certificate = Certificate("witness")
        return result
    if result.certificate is not None:
        return result
    if problem == "vmc":
        closure = _closure_certificate(execution)
        if closure is not None:
            result.certificate = closure
            result.stats["certificate_via"] = "closure"
            return result
    from repro.core.encode import sat_vmc, sat_vsc

    if problem == "vsc":
        recheck = sat_vsc(execution, certify=True, should_stop=should_stop)
    else:
        recheck = sat_vmc(execution, certify=True, should_stop=should_stop)
    if recheck.violated and recheck.certificate is not None:
        result.certificate = recheck.certificate
        result.stats["certificate_via"] = recheck.method
    return result


def recertify(
    execution: Execution,
    result: VerificationResult,
    problem: str = "vmc",
    write_order=None,
) -> CertCheck:
    """Re-derive the ``rup`` proof of a VIOLATED ``result`` for
    ``execution`` itself and check it: a DRAT proof numbers the CNF
    variables of the execution it refutes, so no relabeling maps it.
    Any other kind fails, since those map through every isomorphism."""
    cert = result.certificate
    if not result.violated or cert is None or cert.kind != "rup":
        return _fail("only a refutation's rup proof is re-derived")
    result.certificate = None
    ensure_certificate(execution, result, problem)
    return validate_result(execution, result, problem, write_order)


def refuse(
    result: VerificationResult, check: CertCheck, certify: str, where: str
) -> VerificationResult:
    """A ``certify`` mode's answer to a verdict that failed ``check``:
    UNKNOWN(uncertified) under ``strict``, :class:`CertificationError`
    under ``on`` (producer or checker is wrong; no side is picked)."""
    if certify != "strict":
        raise CertificationError(f"{where} failed certification: {check.reason}")
    return VerificationResult.make_unknown(
        method=result.method, reason="uncertified", detail=check.reason,
        address=result.address,
    )


def _closure_certificate(execution: Execution) -> Certificate | None:
    """The ``cycle``/``infeasible`` certificate the happens-before
    closure derives for a sync-free single-address execution, or None
    when the closure does not apply or leaves the execution undecided."""
    if len(execution.addresses()) > 1 or any(
        op.kind.is_sync for op in execution.all_ops()
    ):
        return None
    decided = infer_order(execution).decided
    return decided.certificate if decided is not None else None


# ---------------------------------------------------------------------
# Infeasibility claims
# ---------------------------------------------------------------------
def _ops_by_uid(execution: Execution) -> dict[tuple[int, int], Operation]:
    return {op.uid: op for op in execution.all_ops()}


def _check_infeasible(execution: Execution, claim) -> CertCheck:
    if not (isinstance(claim, tuple) and len(claim) == 2):
        return _fail(f"malformed infeasibility claim {claim!r}")
    tag, arg = claim
    if tag == "read-impossible":
        try:
            uid = tuple(arg)
        except TypeError:
            return _fail(f"malformed operation uid {arg!r}")
        op = _ops_by_uid(execution).get(uid)
        if op is None:
            return _fail(f"claimed reader {uid!r} is not in the execution")
        if not op.kind.reads:
            return _fail(f"claimed reader {op} does not read")
        want, addr = op.value_read, op.addr
        if want == execution.initial_value(addr):
            return _fail(f"{op} reads the initial value of {addr!r}")
        for other in execution.all_ops():
            if (
                other.uid != op.uid
                and other.kind.writes
                and other.addr == addr
                and other.value_written == want
            ):
                return _fail(f"{want!r} is written to {addr!r} by {other}")
        return _OK
    if tag == "final-vs-initial":
        d_f = execution.final_value(arg)
        if d_f is None:
            return _fail(f"no final value is required of {arg!r}")
        if d_f == execution.initial_value(arg):
            return _fail(f"final value of {arg!r} equals its initial value")
        for op in execution.all_ops():
            if op.kind.writes and op.addr == arg:
                return _fail(f"{arg!r} is written by {op}")
        return _OK
    if tag == "final-unwritten":
        d_f = execution.final_value(arg)
        if d_f is None:
            return _fail(f"no final value is required of {arg!r}")
        wrote_any = False
        for op in execution.all_ops():
            if op.kind.writes and op.addr == arg:
                wrote_any = True
                if op.value_written == d_f:
                    return _fail(f"final value {d_f!r} is written by {op}")
        if not wrote_any and d_f == execution.initial_value(arg):
            return _fail(
                f"{arg!r} is never written and already holds {d_f!r}"
            )
        return _OK
    return _fail(f"unknown infeasibility claim {tag!r}")


# ---------------------------------------------------------------------
# Happens-before cycle certificates
# ---------------------------------------------------------------------
def _writers_index(execution: Execution) -> dict[tuple, list[Operation]]:
    """``(addr, value) -> writers`` in execution order, built once per
    validation so no proof step rescans the trace."""
    writers: dict[tuple, list[Operation]] = {}
    for op in execution.all_ops():
        if op.kind.writes:
            writers.setdefault((op.addr, op.value_written), []).append(op)
    return writers


def _unique_writer(
    writers: dict[tuple, list[Operation]], addr, value,
    excluding: tuple[int, int],
) -> Operation | None:
    """The single op writing ``value`` to ``addr`` (ignoring
    ``excluding``), or None when absent or ambiguous."""
    found = [op for op in writers.get((addr, value), ()) if op.uid != excluding]
    return found[0] if len(found) == 1 else None


def _reaches(
    edges: dict[tuple[int, int], set[tuple[int, int]]],
    src: tuple[int, int],
    dst: tuple[int, int],
) -> bool:
    """DFS reachability over the validated edge set."""
    if src == dst:
        return True
    stack = [src]
    seen = {src}
    while stack:
        u = stack.pop()
        for v in edges.get(u, ()):
            if v == dst:
                return True
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def _check_cycle(execution: Execution, payload) -> CertCheck:
    try:
        steps, cycle = payload
        steps = tuple(steps)
        cycle = tuple(tuple(u) for u in cycle)
    except (TypeError, ValueError):
        return _fail(f"malformed cycle certificate payload {payload!r}")
    ops = _ops_by_uid(execution)
    writers = _writers_index(execution)
    edges: dict[tuple[int, int], set[tuple[int, int]]] = {}
    rf_pairs: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for i, step in enumerate(steps):
        try:
            u_uid, v_uid, rule, aux = step
            u_uid, v_uid = tuple(u_uid), tuple(v_uid)
        except (TypeError, ValueError):
            return _fail(f"malformed proof step {i}: {step!r}")
        u, v = ops.get(u_uid), ops.get(v_uid)
        if u is None or v is None or u_uid == v_uid:
            return _fail(f"proof step {i} names unknown operations: {step!r}")
        verdict = _check_step(
            execution, writers, u, v, rule, aux, edges, rf_pairs
        )
        if not verdict:
            return _fail(f"proof step {i} ({rule} {u} -> {v}): {verdict.reason}")
        edges.setdefault(u_uid, set()).add(v_uid)
        if rule == "rf":
            rf_pairs.add((u_uid, v_uid))
    if len(cycle) < 2:
        return _fail(f"claimed cycle {cycle!r} is too short to be a cycle")
    for u_uid, v_uid in zip(cycle, cycle[1:] + cycle[:1]):
        if v_uid not in edges.get(u_uid, ()):
            return _fail(
                f"cycle edge {u_uid!r} -> {v_uid!r} was never established "
                f"by a proof step"
            )
    return _OK


def _check_step(
    execution: Execution,
    writers: dict[tuple, list[Operation]],
    u: Operation,
    v: Operation,
    rule: str,
    aux,
    edges: dict[tuple[int, int], set[tuple[int, int]]],
    rf_pairs: set[tuple[tuple[int, int], tuple[int, int]]],
) -> CertCheck:
    """Re-prove one happens-before step directly from the trace (axiom
    rules) or from previously validated steps (closure rules)."""
    if rule == "po":
        if u.proc != v.proc or u.index >= v.index:
            return _fail("not in program order")
        return _OK
    if rule == "rf":
        # v is forced to read from u: same address, matching non-initial
        # value, and u is the *only* candidate writer.
        if not (v.kind.reads and u.kind.writes and u.addr == v.addr):
            return _fail("not a write/read pair at one address")
        if u.value_written != v.value_read:
            return _fail("written and read values differ")
        if v.value_read == execution.initial_value(v.addr):
            return _fail("the read value equals the initial value, so the "
                         "source is not forced")
        writer = _unique_writer(writers, v.addr, v.value_read, v.uid)
        if writer is None or writer.uid != u.uid:
            return _fail("the claimed source is not the unique writer")
        return _OK
    if rule == "init":
        # u reads the never-rewritten initial value, so it precedes
        # every write v to its address.
        if not u.kind.reads:
            return _fail("source does not read")
        if u.value_read != execution.initial_value(u.addr):
            return _fail("source does not read the initial value")
        if not (v.kind.writes and v.addr == u.addr):
            return _fail("target is not a write to the same address")
        for op in writers.get((u.addr, u.value_read), ()):
            if op.uid != u.uid:
                return _fail(f"the initial value is re-written by {op}")
        return _OK
    if rule in ("fin", "finr"):
        # v uniquely writes the required final value, so every other
        # write (fin) / stale read (finr) precedes it.
        d_f = execution.final_value(v.addr)
        if d_f is None:
            return _fail(f"no final value is required of {v.addr!r}")
        if not (v.kind.writes and v.value_written == d_f):
            return _fail("target does not write the final value")
        if _unique_writer(writers, v.addr, d_f, (-1, -1)) is None:
            return _fail("the final value's writer is not unique")
        if u.addr != v.addr:
            return _fail("addresses differ")
        if rule == "fin":
            if not u.kind.writes:
                return _fail("source is not a write")
        else:
            if not u.kind.reads or u.value_read == d_f:
                return _fail("source is not a stale read")
        return _OK
    if rule in ("wr", "fr"):
        try:
            w_uid, r_uid = tuple(aux[0]), tuple(aux[1])
        except (TypeError, IndexError):
            return _fail(f"malformed closure aux {aux!r}")
        if (w_uid, r_uid) not in rf_pairs:
            return _fail("cited reads-from pair was never validated")
        if rule == "wr":
            # u is a write necessarily before r, so it precedes r's
            # source w (= v): otherwise it would land between them.
            if v.uid != w_uid or u.uid in (w_uid, r_uid):
                return _fail("edge does not target the cited source write")
            if not (u.kind.writes and u.addr == v.addr):
                return _fail("source is not a write to the same address")
            if not _reaches(edges, u.uid, r_uid):
                return _fail("no validated path orders the write before "
                             "the reader")
            return _OK
        # fr: v is a write necessarily after r's source w, so the read
        # u (= r) precedes it.
        if u.uid != r_uid or v.uid in (w_uid, r_uid):
            return _fail("edge does not start at the cited reader")
        if not (v.kind.writes and v.addr == u.addr):
            return _fail("target is not a write to the same address")
        if not _reaches(edges, w_uid, v.uid):
            return _fail("no validated path orders the source before the "
                         "later write")
        return _OK
    return _fail(f"unknown proof rule {rule!r}")


# ---------------------------------------------------------------------
# RUP refutation certificates
# ---------------------------------------------------------------------
def _check_rup_certificate(execution: Execution, payload) -> CertCheck:
    lines = []
    try:
        for line in payload:
            kind, lits = line
            lits = tuple(lits)
            if kind not in ("a", "d") or not all(
                isinstance(l, int) and l != 0 for l in lits
            ):
                return _fail(f"malformed proof line {line!r}")
            lines.append((kind, lits))
    except (TypeError, ValueError):
        return _fail(f"malformed rup certificate payload {payload!r}")
    # The encoding audit: the proof must refute the CNF this trace
    # induces *today* — re-derived here, plain (no solver-side hints).
    enc = encode_legal_schedule(execution)
    verdict = check_rup(enc.cnf, lines)
    if not verdict:
        return _fail(f"rup proof rejected: {verdict.reason}")
    return _OK


# ---------------------------------------------------------------------
# Order-augmented (Section 5.2) refutation certificates
# ---------------------------------------------------------------------
def _check_order(execution: Execution, payload, write_order) -> CertCheck:
    if write_order is None:
        return _fail(
            "order certificate, but the instance supplies no write-order"
        )
    try:
        claimed = tuple(tuple(u) for u in payload)
    except TypeError:
        return _fail(f"malformed order certificate payload {payload!r}")
    supplied = tuple(op.uid for op in write_order)
    if claimed != supplied:
        return _fail(
            "order certificate refutes a different write-order than the "
            "instance supplies"
        )
    reason = _order_infeasible(execution, tuple(write_order))
    if reason is None:
        return _fail(
            "the execution is schedulable under the supplied write-order"
        )
    return _OK


def _order_infeasible(execution: Execution, order) -> str | None:
    """Independent re-decision of the order-augmented instance.

    Returns a reason when no schedule consistent with ``order`` exists,
    ``None`` when one does.  Gap ``g`` (``0..W``) sits just after the
    ``g``-th write and holds its value (gap 0 holds the initial value);
    per process, every read goes into the earliest value-matching gap
    at/after its program-order predecessors, which by the standard
    exchange argument succeeds iff any placement does.  Deliberately a
    from-scratch reimplementation — the producing solver is never
    consulted.
    """
    from bisect import bisect_left

    addrs = execution.constrained_addresses()
    addr = addrs[0] if addrs else None
    writes = [op for op in execution.all_ops() if op.kind.writes]
    if sorted(op.uid for op in order) != sorted(op.uid for op in writes):
        return "the order is not a permutation of the trace's writes"
    slot = {op.uid: j for j, op in enumerate(order)}
    for h in execution.histories:
        js = [slot[op.uid] for op in h if op.kind.writes]
        if any(a >= b for a, b in zip(js, js[1:])):
            return "the order contradicts a process's program order"
    values = [execution.initial_value(addr)] + [
        w.value_written for w in order
    ]
    for j, w in enumerate(order):
        if w.kind.reads and w.value_read != values[j]:
            return f"RMW at slot {j} reads {w.value_read!r}, not {values[j]!r}"
    d_f = execution.final_value(addr) if addr is not None else None
    if d_f is not None and values[-1] != d_f:
        return f"the last write leaves {values[-1]!r}, not the final {d_f!r}"
    gaps: dict = {}
    for g, v in enumerate(values):
        gaps.setdefault(v, []).append(g)
    for h in execution.histories:
        cursor = 0
        limits: list[tuple[int, int]] = []  # (placed gap, next-po-write slot)
        for op in h:
            if op.kind.is_sync:
                continue
            if op.kind.writes:
                cursor = max(cursor, slot[op.uid] + 1)
                continue
            cand = gaps.get(op.value_read)
            if not cand:
                return f"{op} reads a value nobody writes"
            i = bisect_left(cand, cursor)
            if i == len(cand):
                return f"{op} has no admissible gap after its predecessors"
            cursor = cand[i]
            limits.append((cursor, op.uid))  # resolved in the reverse pass
        bound = len(order)
        placed = dict((uid, g) for g, uid in limits)
        for op in reversed(list(h)):
            if op.kind.is_sync:
                continue
            if op.kind.writes:
                bound = slot[op.uid]
            elif placed[op.uid] > bound:
                return f"{op} is pushed past its next program-order write"
    return None
