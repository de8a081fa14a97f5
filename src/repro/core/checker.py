"""Certificate checkers (Theorem 4.2, membership in NP).

A schedule is the polynomial-size certificate for VMC/VSC: these
functions decide in linear time whether a proposed schedule really is a
coherent (single-address) or sequentially consistent (multi-address)
interleaving of an execution's operations.

Every solver in this library funnels its witness through these checkers
in the test suite, so a bug in a solver cannot silently produce a bogus
"coherent" verdict with an invalid schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.types import (
    INITIAL,
    Address,
    Execution,
    OpKind,
    Operation,
    Value,
)


@dataclass(frozen=True)
class CheckOutcome:
    """Result of a certificate check.

    ``ok`` is the verdict; on failure ``position`` is the index of the
    offending operation in the schedule (or -1 for structural problems)
    and ``reason`` is a human-readable explanation.  A check of several
    per-address schedules also names the ``address`` whose schedule (or
    final value) failed.
    """

    ok: bool
    position: int = -1
    reason: str = ""
    address: Address | None = None

    def __bool__(self) -> bool:
        return self.ok


_OK = CheckOutcome(True)


def _check_value_trace(
    schedule: Sequence[Operation],
    initial: Mapping[Address, Value],
    final: Mapping[Address, Value] | None,
) -> CheckOutcome:
    """Core value check: every read returns the immediately preceding
    write's value for its address (or the initial value), and the last
    write per address produces the required final value."""
    current: dict[Address, Value] = {}
    for i, op in enumerate(schedule):
        if op.kind.is_sync:
            continue
        if op.kind.reads:
            expected = current.get(op.addr, initial.get(op.addr, INITIAL))
            if op.value_read != expected:
                return CheckOutcome(
                    False,
                    i,
                    f"{op} reads {op.value_read!r} but the current value of "
                    f"{op.addr!r} is {expected!r}",
                )
        if op.kind.writes:
            current[op.addr] = op.value_written
    if final:
        for addr, want in final.items():
            got = current.get(addr, initial.get(addr, INITIAL))
            if got != want:
                return CheckOutcome(
                    False,
                    len(schedule) - 1 if schedule else -1,
                    f"final value of {addr!r} is {got!r}, required {want!r}",
                )
    return _OK


def schedule_respects_program_order(
    execution: Execution, schedule: Sequence[Operation]
) -> CheckOutcome:
    """Whether ``schedule`` contains exactly the execution's operations,
    each exactly once, with every process's operations in program order."""
    expected = {op.uid: op for op in execution.all_ops()}
    next_index: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    for i, op in enumerate(schedule):
        uid = op.uid
        want = expected.get(uid)
        if want is None:
            return CheckOutcome(False, i, f"{op} is not part of the execution")
        if uid in seen:
            return CheckOutcome(False, i, f"{op} appears twice in the schedule")
        if want is not op and want != op:
            return CheckOutcome(
                False, i, f"{op} differs from the execution's operation {want}"
            )
        seen.add(uid)
        # Program order within the process must be preserved.  The
        # sub-execution case (restrict_to_address) keeps original po
        # indices, so we compare indices monotonically rather than
        # requiring consecutive values.
        prev = next_index.get(op.proc, -1)
        if op.index <= prev:
            return CheckOutcome(
                False,
                i,
                f"{op} violates program order of process {op.proc} "
                f"(a later operation of that process already appeared)",
            )
        next_index[op.proc] = op.index
    if len(seen) != len(expected):
        missing = next(uid for uid in expected if uid not in seen)
        return CheckOutcome(
            False, -1, f"schedule is missing operation {expected[missing]}"
        )
    return _OK


def check_coherence_witnesses(
    execution: Execution,
    witnesses: Mapping[Address, Sequence[Operation]],
) -> CheckOutcome:
    """Full VMC certificate check of one witness schedule per address
    against one (possibly multi-address) execution, in a single pass.

    ``witnesses[a]`` must hold exactly the execution's operations at
    ``a``, each once and equal to the execution's own, in each
    process's program order, with every read returning the current
    value of ``a`` (the initial value before the first write).  Every
    operation of the execution must appear in its address's witness,
    and every ``final`` entry must be the last value written (the
    initial one for an address no witness writes).  Program-order
    indices are compared monotonically, so sub-executions with gappy
    indices check as they are.
    """
    expected = {
        (op.proc, op.index): op
        for h in execution.histories
        for op in h.operations
    }
    unseen = dict(expected)
    initial = execution.initial
    last_value: dict[Address, Value] = {}
    for addr, schedule in witnesses.items():
        current = initial.get(addr, INITIAL)
        last_index: dict[int, int] = {}
        for i, op in enumerate(schedule):
            uid = (op.proc, op.index)
            want = unseen.pop(uid, None)
            if want is None:
                why = "appears twice in the schedule" if uid in expected else (
                    "is not part of the execution"
                )
                return CheckOutcome(False, i, f"{op} {why}", addr)
            if want is not op and want != op:
                return CheckOutcome(
                    False, i,
                    f"{op} differs from the execution's operation {want}",
                    addr,
                )
            if op.addr != addr:
                return CheckOutcome(
                    False, i, f"{op} is not an operation at {addr!r}", addr
                )
            if op.index <= last_index.get(op.proc, -1):
                return CheckOutcome(
                    False,
                    i,
                    f"{op} violates program order of process {op.proc} "
                    f"(a later operation of that process already appeared)",
                    addr,
                )
            last_index[op.proc] = op.index
            kind = op.kind
            if kind.reads and op.value_read != current:
                return CheckOutcome(
                    False,
                    i,
                    f"{op} reads {op.value_read!r} but the current value of "
                    f"{addr!r} is {current!r}",
                    addr,
                )
            if kind.writes:
                current = op.value_written
        last_value[addr] = current
    if unseen:
        missing = next(iter(unseen.values()))
        return CheckOutcome(
            False, -1, f"schedule is missing operation {missing}",
            missing.addr,
        )
    for addr, want in execution.final.items():
        got = (
            last_value[addr]
            if addr in last_value
            else initial.get(addr, INITIAL)
        )
        if got != want:
            schedule = witnesses.get(addr)
            return CheckOutcome(
                False,
                len(schedule) - 1 if schedule else -1,
                f"final value of {addr!r} is {got!r}, required {want!r}",
                addr,
            )
    return _OK


def is_coherent_schedule(
    execution: Execution,
    schedule: Sequence[Operation],
    addr: Address | None = None,
) -> CheckOutcome:
    """Full VMC certificate check for a single-address execution: the
    one-address case of :func:`check_coherence_witnesses`.

    If the execution touches several addresses, pass ``addr`` and the
    check applies to ``execution.restrict_to_address(addr)``.

    Linear in the execution plus the schedule: the address check is
    one pass over the histories (every operation's address counts,
    sync operations' too), so no columnar view is built.
    """
    if addr is not None:
        execution = execution.restrict_to_address(addr)
    addrs = list(dict.fromkeys(op.addr for op in execution.all_ops()))
    if len(addrs) > 1:
        return CheckOutcome(
            False,
            -1,
            f"coherence is per-address but the execution touches {addrs}; "
            f"pass addr= to select one",
        )
    if not schedule:
        return check_coherence_witnesses(execution, {})
    key = addrs[0] if addrs else schedule[0].addr
    return check_coherence_witnesses(execution, {key: schedule})


def is_sc_schedule(
    execution: Execution, schedule: Sequence[Operation]
) -> CheckOutcome:
    """Full VSC certificate check (all addresses at once)."""
    po = schedule_respects_program_order(execution, schedule)
    if not po:
        return po
    return _check_value_trace(schedule, execution.initial, execution.final)


def value_trace_ok(
    schedule: Sequence[Operation],
    initial: Mapping[Address, Value] | None = None,
    final: Mapping[Address, Value] | None = None,
) -> CheckOutcome:
    """Check only the read-values property of an arbitrary op sequence
    (no membership/program-order validation) — used by generators that
    construct executions *from* schedules."""
    return _check_value_trace(schedule, initial or {}, final)


def execution_from_schedule(
    schedule: Sequence[Operation],
    num_processes: int,
    initial: Mapping[Address, Value] | None = None,
    record_final: bool = True,
) -> Execution:
    """Slice a (legal) schedule back into an execution.

    The inverse of scheduling: distribute operations to their processes
    preserving order of appearance.  Used heavily by property tests —
    an execution built this way is coherent/SC *by construction*, with
    the input schedule as witness.  ``record_final`` captures the last
    written value per address as the required ``d_F``.
    """
    per_proc: list[list[Operation]] = [[] for _ in range(num_processes)]
    current: dict[Address, Value] = {}
    for op in schedule:
        if not (0 <= op.proc < num_processes):
            raise ValueError(f"{op} names process outside 0..{num_processes - 1}")
        per_proc[op.proc].append(op)
        if op.kind.writes:
            current[op.addr] = op.value_written
    final = dict(current) if record_final else None
    return Execution.from_ops(per_proc, initial=initial, final=final)
