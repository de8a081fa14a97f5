"""Online coherence monitoring (the paper's Section 1 motivation).

The offline verifiers take a complete execution.  For *online error
detection* a monitor must consume operations as they commit and flag
the first violation immediately.  In general that is hopeless (VMC is
NP-complete and reads may be served by many writes), but with the
memory system announcing its write serialization — the Section 5.2
augmentation, which the bus of :mod:`repro.memsys` provides naturally —
an incremental check runs in amortized O(log g) per operation (``g`` =
live write-order gaps; the binary search over a value's gap list is
the only super-constant step).

The real engine now lives in :mod:`repro.engine.streaming`: a
windowed, evicting, certificate-producing :class:`AddressMonitor`
driven by :class:`~repro.engine.streaming.StreamingVerifier` (the
``repro monitor`` CLI fast path).  This module keeps the original
value-level surface as thin compatibility shims:

* :class:`CoherenceMonitor` — a lossless (non-evicting, windowless)
  :class:`~repro.engine.streaming.AddressMonitor`;
* :class:`SystemMonitor` — a lazy per-address bank of them;
* :func:`monitor_run` — replays a recorded
  :class:`repro.memsys.recorder.RunResult` through a bank.

The monitor is *eager-greedy*: it places each read at the earliest
legal gap, which is complete for the same exchange-argument reason the
offline Section 5.2 algorithm is — with one genuine loss: the offline
algorithm sees the whole write-order up front, while the monitor only
knows the serialization so far, so a read that could be served by a
*future* write of the same value must be rejected... which is correct,
because coherence forbids reading a value before any write of it
anyway (values written later in the serialization cannot have been the
source of an earlier-committed read **if reads commit after their
source**; the monitor assumes the memory system commits a read after
the write that sourced it, true of real hardware and of the simulator).
"""

from __future__ import annotations

from repro.core.types import Address, Value
from repro.engine.streaming import AddressMonitor, CoherenceViolation

__all__ = [
    "CoherenceMonitor",
    "CoherenceViolation",
    "SystemMonitor",
    "monitor_run",
]


class CoherenceMonitor(AddressMonitor):
    """Back-compat per-address monitor: a lossless (windowless)
    :class:`repro.engine.streaming.AddressMonitor`.

    Feed :meth:`commit_write`, :meth:`commit_read`, :meth:`commit_rmw`
    in the memory system's serialization order.  Each returns ``None``
    on success or a violation message; with ``strict=True`` a violation
    raises :class:`CoherenceViolation` instead.  ``final(expected)``
    checks the end-of-run value.
    """

    def __init__(self, addr: Address, initial: Value, strict: bool = False):
        super().__init__(addr, initial, strict=strict)


class SystemMonitor:
    """A bank of per-address monitors with a single event interface."""

    def __init__(
        self,
        initial: dict[Address, Value] | None = None,
        strict: bool = False,
    ):
        self._initial = dict(initial or {})
        self._strict = strict
        self.monitors: dict[Address, CoherenceMonitor] = {}
        self.violations: list[str] = []

    def _monitor(self, addr: Address) -> CoherenceMonitor:
        mon = self.monitors.get(addr)
        if mon is None:
            from repro.core.types import INITIAL

            mon = CoherenceMonitor(
                addr, self._initial.get(addr, INITIAL), strict=self._strict
            )
            self.monitors[addr] = mon
        return mon

    def _note(self, outcome: str | None) -> str | None:
        if outcome is not None:
            self.violations.append(outcome)
        return outcome

    def write(self, proc: int, addr: Address, value: Value) -> str | None:
        return self._note(self._monitor(addr).commit_write(proc, value))

    def read(self, proc: int, addr: Address, value: Value) -> str | None:
        return self._note(self._monitor(addr).commit_read(proc, value))

    def rmw(
        self, proc: int, addr: Address, value_read: Value, value_written: Value
    ) -> str | None:
        return self._note(
            self._monitor(addr).commit_rmw(proc, value_read, value_written)
        )

    @property
    def ok(self) -> bool:
        return not self.violations


def monitor_run(
    run_result, strict: bool = False, use_commit_log: bool = False
) -> SystemMonitor:
    """Replay a :class:`repro.memsys.recorder.RunResult` through monitors.

    By default events are reconstructed per address: writes in the
    announced write-order, each process's reads flushed before its next
    write — the most permissive placement consistent with program
    order, which is what the offline write-order verifier also allows
    (so the two arms agree even when ``write_orders`` were corrupted
    post-run by a fault).  With ``use_commit_log=True`` the replay is
    the recorder's actual global commit stream instead — strictly
    faithful to *when* each read committed, hence possibly stricter
    than the offline check (a read served by a write serialized after
    it is flagged).
    """
    execution = run_result.execution
    monitors = SystemMonitor(initial=execution.initial, strict=strict)
    commit_log = getattr(run_result, "commit_log", None)
    if use_commit_log and commit_log:
        for op in commit_log:
            if op.kind.is_sync:
                continue
            if op.kind.writes:
                if op.kind.reads:
                    monitors.rmw(
                        op.proc, op.addr, op.value_read, op.value_written
                    )
                else:
                    monitors.write(op.proc, op.addr, op.value_written)
            else:
                monitors.read(op.proc, op.addr, op.value_read)
    else:
        # Reconstructed replay: walk each address's write order as the
        # clock; between write commits, flush each process's pending
        # reads that precede its next write in program order.
        for addr, order in sorted(
            run_result.write_orders.items(), key=lambda kv: str(kv[0])
        ):
            sub = execution.restrict_to_address(addr)
            pending = {h.proc: list(h.operations) for h in sub.histories}

            def flush_reads_before(proc: int, stop_uid) -> None:
                ops = pending[proc]
                while ops and ops[0].kind.reads and not ops[0].kind.writes:
                    if stop_uid is not None and ops[0].index >= stop_uid[1]:
                        break
                    op = ops.pop(0)
                    monitors.read(proc, addr, op.value_read)

            for w in order:
                flush_reads_before(w.proc, w.uid)
                ops = pending[w.proc]
                assert ops and ops[0].uid == w.uid, "write order out of sync"
                ops.pop(0)
                if w.kind.writes and w.kind.reads:
                    monitors.rmw(w.proc, addr, w.value_read, w.value_written)
                else:
                    monitors.write(w.proc, addr, w.value_written)
            for proc in pending:
                flush_reads_before(proc, None)
        # Addresses with reads but no writes at all:
        for addr in execution.addresses():
            if addr in run_result.write_orders:
                continue
            for h in execution.restrict_to_address(addr).histories:
                for op in h:
                    if op.kind.reads:
                        monitors.read(op.proc, addr, op.value_read)
    # End-of-run check against the machine's reported final values —
    # this is what catches silently dropped writes online.
    for addr, expected in execution.final.items():
        outcome = monitors._monitor(addr).final(expected)
        if outcome is not None:
            monitors.violations.append(outcome)
    return monitors
