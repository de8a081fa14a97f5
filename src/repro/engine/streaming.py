"""Streaming incremental coherence verification — the online fast path.

The offline engine re-verifies a complete execution from scratch; a
monitor must keep up with a *growing* commit stream.  With the memory
system announcing its write serialization (the Section 5.2
augmentation, which the bus of :mod:`repro.memsys` provides naturally)
each appended operation costs amortized O(log g) in the number of live
write-order gaps — no re-saturation, no re-parse:

* per address, a **gap frontier**: gap ``g`` holds the value after the
  ``g``-th serialized write, with per-value sorted gap lists and
  monotone per-process cursors (a read of ``v`` is legal iff some gap
  at or after its process's cursor holds ``v``);
* a bounded **certificate window** of recently committed operations.
  Decided prefixes are evicted and summarized into the frontier: the
  window base gap, the value at that gap, the per-process cursors and
  the live gap lists are all that survive.

Eviction soundness: let ``C`` be the minimum cursor over *all declared
processes*.  Every future read selects a gap ``>= C`` (cursors are
monotone), so gaps below ``C`` — and the operations that produced or
consumed them — can never participate in a future placement decision.
Conversely nothing below ``C`` may be dropped earlier: a process that
has not yet committed at an address holds its cursor at 0 and may still
legally read the oldest live value, so a silent process pins the
window (this is the honest cost of sound eviction; see
``docs/engine.md``).

Verdicts stay *certified*.  A frontier-detected violation is refuted on
the retained window rebuilt as a standalone execution (initial value =
the value at the window base gap, reads placed below the base dropped
— both only relax constraints), and the resulting HB-cycle /
infeasibility / RUP certificate is checked by the independent trusted
checker against that window execution.  Violations of the announced
serialization whose window is nevertheless coherent as a raw trace
(e.g. a stale read another write order could serve) carry no
trace-level certificate and fail closed under ``--certify on|strict``,
exactly like the offline write-order backend.  Clean windows emit
periodic HOLDS-so-far heartbeats whose witness schedule is the gap
placement itself.

:class:`AddressMonitor` is the per-address engine (and the
implementation behind the :class:`repro.core.online.CoherenceMonitor`
compatibility shim); :class:`StreamingVerifier` routes a multi-address
commit stream, enforces per-process program order, and emits
:class:`StreamVerdict` objects.  ``repro monitor`` drives it over the
framed REPROSTM format of :mod:`repro.core.serialize_bin`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, Mapping

from repro import obs
from repro.core.result import Certificate, VerificationResult
from repro.core.types import INITIAL, Address, Execution, Operation, Value
from repro.engine.certify import CertificationError, validate_result

__all__ = [
    "DEFAULT_WINDOW",
    "AddressMonitor",
    "CoherenceViolation",
    "StreamVerdict",
    "StreamingVerifier",
    "monitor_execution",
]

#: Default certificate-window size (retained ops per address).
DEFAULT_WINDOW = 4096


class CoherenceViolation(Exception):
    """Raised by strict-mode monitors on the first detected violation."""

    def __init__(self, message: str, op_index: int):
        super().__init__(message)
        self.op_index = op_index


class AddressMonitor:
    """Incremental per-address coherence checker fed by commit events.

    Feed :meth:`commit_write`, :meth:`commit_read`, :meth:`commit_rmw`
    in the memory system's serialization order.  Each returns ``None``
    on success or a violation message; with ``strict=True`` a violation
    raises :class:`CoherenceViolation` instead.  ``final(expected)``
    checks the end-of-run value.

    With ``window`` set (and ``n_procs`` declared), each event may also
    carry its :class:`Operation`; the monitor then retains a bounded
    certificate window with sound prefix eviction and can build
    checkable refutations (:meth:`refute`) and HOLDS witnesses
    (:meth:`window_schedule`).  Without a window (the compatibility
    shim) it is a pure value-level frontier.

    ``writes``, ``reads``, ``rmws`` and ``violations`` count the events
    committed so far (plain ints: the hot path records nothing else).
    """

    __slots__ = (
        "addr", "strict", "writes", "reads", "rmws", "violations",
        "window_limit", "n_procs", "evicted",
        "_gap_values", "_gap_base", "_gaps_of_value", "_stored_gaps",
        "_cursors", "_events", "_window", "_win_base_gap", "_trimmed",
    )

    def __init__(
        self,
        addr: Address,
        initial: Value,
        strict: bool = False,
        n_procs: int | None = None,
        window: int | None = None,
    ):
        if window is not None and n_procs is None:
            raise ValueError(
                "windowed eviction needs n_procs: the eviction horizon "
                "is the minimum cursor over all declared processes"
            )
        self.addr = addr
        self.strict = strict
        self.writes = self.reads = self.rmws = self.violations = 0
        self.window_limit = window
        self.n_procs = n_procs
        self.evicted = 0
        # Gap g holds the value after the g-th write; gap 0 = initial.
        # _gap_values[g - _gap_base] is gap g's value (prefix trimmed).
        self._gap_values: list[Value] = [initial]
        self._gap_base = 0
        self._gaps_of_value: dict[Value, list[int]] = {initial: [0]}
        self._stored_gaps = 1
        self._cursors: dict[int, int] = {}
        self._events = 0
        #: Certificate window: (gap, op) in commit order.
        self._window: deque[tuple[int, Operation]] = deque()
        #: Number of evicted writes == the window's base gap.
        self._win_base_gap = 0
        self._trimmed = False

    # -- helpers -----------------------------------------------------------
    @property
    def now(self) -> int:
        """Current gap index (number of writes committed so far)."""
        return self._gap_base + len(self._gap_values) - 1

    @property
    def window_size(self) -> int:
        return len(self._window)

    def _fail(self, message: str) -> str:
        self.violations += 1
        if self.strict:
            raise CoherenceViolation(message, self._events)
        return message

    def _push_gap(self, value: Value) -> int:
        g = self._gap_base + len(self._gap_values)
        self._gap_values.append(value)
        lst = self._gaps_of_value.get(value)
        if lst is None:
            self._gaps_of_value[value] = [g]
        else:
            lst.append(g)
        self._stored_gaps += 1
        return g

    # -- event interface ---------------------------------------------------
    def commit_write(
        self, proc: int, value: Value, op: Operation | None = None
    ) -> str | None:
        """A write by ``proc`` of ``value`` was serialized now."""
        self._events += 1
        self.writes += 1
        g = self._push_gap(value)
        # Program order: the writer's later reads come after this write.
        if g > self._cursors.get(proc, 0):
            self._cursors[proc] = g
        if op is not None and self.window_limit is not None:
            self._window.append((g, op))
            if len(self._window) > self.window_limit:
                self._evict()
        return None

    def commit_read(
        self, proc: int, value: Value, op: Operation | None = None
    ) -> str | None:
        """A read by ``proc`` returning ``value`` committed now."""
        self._events += 1
        self.reads += 1
        cur = self._cursors.get(proc, 0)
        gaps = self._gaps_of_value.get(value)
        placed = -1
        if gaps:
            i = bisect_left(gaps, cur)
            if i < len(gaps):
                placed = gaps[i]
        if placed >= 0:
            self._cursors[proc] = placed
            if op is not None and self.window_limit is not None:
                self._window.append((placed, op))
                if len(self._window) > self.window_limit:
                    self._evict()
            return None
        if op is not None and self.window_limit is not None:
            # Retain the failing read (at the frontier, never evicted
            # before the refutation runs).
            self._window.append((self.now, op))
        if gaps is None and not self._trimmed:
            return self._fail(
                f"P{proc} read {value!r} from {self.addr!r}, which no "
                f"committed write produced (and it is not the initial value)"
            )
        return self._fail(
            f"P{proc} read stale value {value!r} from {self.addr!r}: "
            f"its most recent source was overwritten before the "
            f"process's own program-order position (gap {cur})"
        )

    def commit_rmw(
        self,
        proc: int,
        value_read: Value,
        value_written: Value,
        op: Operation | None = None,
    ) -> str | None:
        """An atomic RMW serialized now: its read component must see the
        value at the current end of the write-order."""
        self._events += 1
        self.rmws += 1
        current = self._gap_values[-1]
        result: str | None = None
        if value_read != current:
            if op is not None and self.window_limit is not None:
                self._window.append((self.now, op))
            result = self._fail(
                f"P{proc}'s atomic RMW on {self.addr!r} read "
                f"{value_read!r} but the serialized value is {current!r}"
            )
        # Commit the write component either way so monitoring continues.
        self.writes += 1
        g = self._push_gap(value_written)
        if g > self._cursors.get(proc, 0):
            self._cursors[proc] = g
        if result is None and op is not None and self.window_limit is not None:
            self._window.append((g, op))
            if len(self._window) > self.window_limit:
                self._evict()
        return result

    def peek_read(self, proc: int, value: Value) -> bool:
        """Would :meth:`commit_read` succeed right now?  (No mutation.)"""
        gaps = self._gaps_of_value.get(value)
        if not gaps:
            return False
        return bisect_left(gaps, self._cursors.get(proc, 0)) < len(gaps)

    def peek_rmw(self, value_read: Value) -> bool:
        """Would :meth:`commit_rmw`'s read component succeed right now?"""
        return self._gap_values[-1] == value_read

    def final(self, expected: Value) -> str | None:
        """End-of-run check: the last serialized value must be ``expected``."""
        got = self._gap_values[-1]
        if got != expected:
            return self._fail(
                f"final value of {self.addr!r} is {got!r}, expected "
                f"{expected!r}"
            )
        return None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    # -- windowed eviction -------------------------------------------------
    def _evict(self) -> None:
        """Evict the decided prefix below ``C`` = min cursor over all
        declared processes, then summarize it into the frontier."""
        if len(self._cursors) < self.n_procs:
            return  # an untouched process still pins gap 0
        c = min(self._cursors.values())
        w = self._window
        popped = False
        while w and w[0][0] < c:
            g, op = w.popleft()
            self.evicted += 1
            if op.kind.writes:
                self._win_base_gap = g
            popped = True
        if not popped:
            return
        # Trim the gap frontier itself (amortized: only on doubling).
        keep = self._win_base_gap
        drop = keep - self._gap_base
        if drop > 0 and drop * 2 >= len(self._gap_values):
            del self._gap_values[:drop]
            self._gap_base = keep
            self._trimmed = True
        live = len(self._gap_values)
        if self._stored_gaps > 2 * live + 64:
            fresh: dict[Value, list[int]] = {}
            total = 0
            for v, lst in self._gaps_of_value.items():
                i = bisect_left(lst, keep)
                if i < len(lst):
                    kept = lst[i:]
                    fresh[v] = kept
                    total += len(kept)
            self._gaps_of_value = fresh
            self._stored_gaps = total
            self._trimmed = True

    # -- certification support --------------------------------------------
    def window_execution(
        self, final: Mapping[Address, Value] | None = None
    ) -> Execution:
        """The retained window as a standalone execution.

        Initial value = the value at the window base gap; reads placed
        below the base (transient stragglers behind a high-gap head)
        are dropped.  Both are pure relaxations, so any refutation of
        this execution refutes the full stream.
        """
        from repro.core.infer import _gappy_execution

        base = self._win_base_gap
        base_value = self._gap_values[base - self._gap_base]
        per_proc: list[list[Operation]] = [
            [] for _ in range(self.n_procs or 0)
        ]
        for g, op in self._window:
            if g < base and not op.kind.writes:
                continue
            while op.proc >= len(per_proc):  # open-world shims
                per_proc.append([])
            per_proc[op.proc].append(op)
        histories = [(p, tuple(ops)) for p, ops in enumerate(per_proc)]
        initial = {} if base_value is INITIAL else {self.addr: base_value}
        return _gappy_execution(histories, initial, dict(final or {}))

    def window_schedule(self) -> list[Operation]:
        """The gap placement as a witness schedule for
        :meth:`window_execution`: writes at their gap, reads right
        after the write that serves them (ties keep commit order)."""
        base = self._win_base_gap
        rows = [
            (g, 0 if op.kind.writes else 1, op)
            for g, op in self._window
            if op.kind.writes or g >= base
        ]
        rows.sort(key=lambda t: (t[0], t[1]))
        return [op for _, _, op in rows]

    def refute(
        self,
        message: str,
        final: Mapping[Address, Value] | None = None,
        certify: str = "off",
    ) -> tuple[VerificationResult, Execution]:
        """Turn a frontier-detected violation into a (certified where
        possible) VIOLATED result over the window execution.

        The window is re-verified by the offline engine; a VIOLATED
        outcome donates its checked certificate.  A window that is
        coherent as a raw trace means the stream only violates the
        *announced serialization* — that verdict is real but carries no
        trace-level certificate (the caller fails closed under
        ``certify on|strict``).
        """
        ex = self.window_execution(final)
        from repro.engine import verify_vmc_at

        # Certification is always *attempted* (violations are rare and
        # windows small); ``certify`` only controls how the caller
        # reacts to an uncertifiable verdict.  The engine certifies a
        # violation through the polynomial happens-before closure
        # first, which decides the frontier's violation shapes
        # (impossible read, forced cycle), so the SAT re-refutation —
        # cubic in the window — is left to the closure's residue.
        try:
            deep = verify_vmc_at(ex, self.addr, certify="on")
        except CertificationError:
            deep = (
                None
                if certify != "off"
                else verify_vmc_at(ex, self.addr, certify="off")
            )
        if deep is not None and deep.violated:
            out = VerificationResult(
                holds=False,
                method="streaming",
                reason=message,
                address=self.addr,
                certificate=deep.certificate,
            )
            out.stats["refutation"] = deep.method
            return out, ex
        if deep is not None and deep.holds:
            note = (
                " [violates the announced write serialization; the "
                "retained window is coherent as a raw trace, so no "
                "trace-level certificate exists]"
            )
        else:
            note = " [window refutation unavailable]"
        out = VerificationResult(
            holds=False,
            method="streaming",
            reason=message + note,
            address=self.addr,
        )
        return out, ex


# ---------------------------------------------------------------------
# Multi-address stream verification
# ---------------------------------------------------------------------
#: ``sv.stats``; the hot path counts in plain ints, folded in at snapshots.
MONITOR_COUNTERS = (
    "ops syncs violations heartbeats evicted peak_window peak_addresses"
)


@dataclass
class StreamVerdict:
    """One emitted monitor verdict.

    ``kind`` is ``"violation"`` (monitoring tripped; ``result`` is
    VIOLATED and, when certified, ``result.certificate`` validates
    against ``execution``), ``"heartbeat"`` (periodic HOLDS-so-far),
    ``"final"`` (end-of-stream HOLDS), or ``"unknown"`` (a strict-mode
    certification downgrade).  ``op_index`` is the 0-based stream
    position of the offending operation (== ops consumed for
    heartbeats/final).
    """

    kind: str
    op_index: int
    result: VerificationResult
    execution: Execution | None = None
    stats: dict = field(default_factory=dict)


class StreamingVerifier:
    """Routes a commit-ordered multi-address operation stream through
    per-address :class:`AddressMonitor` frontiers.

    ``feed_op`` consumes one committed operation (enforcing per-process
    program order — an out-of-order index is malformed input and raises
    ``ValueError``) and returns a :class:`StreamVerdict` on violation
    or heartbeat, else ``None``.  ``feed`` consumes decoded
    :class:`repro.core.serialize_bin.FrameReader` events.  After a
    violation the verifier is *tripped* (``stop_on_violation=True``,
    the default) and ignores further input; pass
    ``stop_on_violation=False`` to keep monitoring through violations
    (each still yields a verdict).
    """

    def __init__(
        self,
        n_procs: int,
        initial: Mapping[Address, Value] | None = None,
        window: int = DEFAULT_WINDOW,
        certify: str = "off",
        heartbeat: int = 0,
        stop_on_violation: bool = True,
    ):
        if n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {n_procs}")
        self.n_procs = n_procs
        self.window = max(1, window)
        self.certify = certify
        self.heartbeat = max(0, heartbeat)
        self.stop_on_violation = stop_on_violation
        self.monitors: dict[Address, AddressMonitor] = {}
        self.stats = obs.Counters("monitor", MONITOR_COUNTERS)
        self._ops = 0
        self._syncs = 0
        self._peak_window = 0
        self.tripped: StreamVerdict | None = None
        self._initial: dict[Address, Value] = dict(initial or {})
        self._final: dict[Address, Value] = {}
        self._next_index = [0] * n_procs
        self._window_total = 0
        self._t0 = perf_counter()

    # -- plumbing ----------------------------------------------------------
    def _monitor(self, addr: Address) -> AddressMonitor:
        mon = self.monitors.get(addr)
        if mon is None:
            mon = AddressMonitor(
                addr,
                self._initial.get(addr, INITIAL),
                n_procs=self.n_procs,
                window=self.window,
            )
            self.monitors[addr] = mon
        return mon

    def set_initial(self, initial: Mapping[Address, Value]) -> None:
        for addr, value in initial.items():
            if addr in self.monitors:
                raise ValueError(
                    f"initial value for {addr!r} arrived after its "
                    f"first operation"
                )
            self._initial[addr] = value

    def snapshot(self) -> dict:
        """Current throughput and window (the heartbeat line), folding
        the hot path's counts into :attr:`stats`."""
        elapsed = perf_counter() - self._t0
        evicted = sum(m.evicted for m in self.monitors.values())
        st = self.stats
        st.add("ops", self._ops - st.ops)
        st.add("syncs", self._syncs - st.syncs)
        st.add("evicted", evicted - st.evicted)
        st.peak("peak_window", self._peak_window)
        st.peak("peak_addresses", len(self.monitors))
        return {
            "ops": self._ops,
            "addresses": len(self.monitors),
            "window": self._window_total,
            "peak_window": self._peak_window,
            "evicted": evicted,
            "ops_per_s": self._ops / elapsed if elapsed > 0 else 0.0,
        }

    # -- the hot path ------------------------------------------------------
    def feed_op(self, op: Operation) -> StreamVerdict | None:
        """Consume one committed operation (the stream's next event)."""
        if self.tripped is not None:
            return None
        proc = op.proc
        if not (0 <= proc < self.n_procs):
            raise ValueError(
                f"op {op} names process {proc}, outside the declared "
                f"0..{self.n_procs - 1}"
            )
        expected = self._next_index[proc]
        if op.index != expected:
            raise ValueError(
                f"malformed stream: P{proc} committed index {op.index} "
                f"but index {expected} is next in program order"
            )
        self._next_index[proc] = expected + 1
        self._ops += 1
        kind = op.kind
        if kind.is_sync:
            self._syncs += 1
            message = None
        else:
            mon = self._monitor(op.addr)
            before = len(mon._window)
            if kind.writes:
                if kind.reads:
                    message = mon.commit_rmw(
                        proc, op.value_read, op.value_written, op
                    )
                else:
                    message = mon.commit_write(proc, op.value_written, op)
            else:
                message = mon.commit_read(proc, op.value_read, op)
            self._window_total += len(mon._window) - before
            if self._window_total > self._peak_window:
                self._peak_window = self._window_total
        if message is not None:
            return self._violation(op.addr, message, offending_op=op)
        if self.heartbeat and self._ops % self.heartbeat == 0:
            return self.checkpoint()
        return None

    def feed(self, events: Iterable[tuple]) -> Iterator[StreamVerdict]:
        """Consume decoded stream events (see
        :class:`~repro.core.serialize_bin.FrameReader`), yielding every
        verdict.  Ends after an END frame or a tripping violation."""
        for tag, payload in events:
            if tag == "op":
                verdict = self.feed_op(payload)
                if verdict is not None:
                    yield verdict
                    if self.tripped is not None:
                        return
            elif tag == "initial":
                self.set_initial(payload)
            elif tag == "final":
                self._final.update(payload)
            elif tag == "end":
                yield self.finalize()
                return
            else:
                raise ValueError(f"unknown stream event {tag!r}")

    # -- verdicts ----------------------------------------------------------
    def _violation(
        self,
        addr: Address,
        message: str,
        offending_op: Operation | None = None,
        final: Mapping[Address, Value] | None = None,
    ) -> StreamVerdict:
        self.stats.add("violations")
        index = self._ops - (1 if offending_op is not None else 0)
        mon = self.monitors[addr]
        result, ex = mon.refute(message, final=final, certify=self.certify)
        result.stats["op_index"] = index
        if self.certify != "off":
            with obs.span("certify"):
                check = (
                    None if result.certificate is None
                    else validate_result(ex, result)
                )
            if not check:
                problem = (
                    "carries no certificate" if check is None
                    else f"certificate rejected: {check.reason}"
                )
                result = self._uncertified(
                    f"streaming violation at op {index} {problem}: "
                    f"{result.reason}", addr,
                )
        verdict = StreamVerdict(
            "violation" if result.violated else "unknown",
            index,
            result,
            ex,
            self.snapshot(),
        )
        if self.stop_on_violation:
            self.tripped = verdict
        return verdict

    def _uncertified(
        self, detail: str, address: Address | None = None
    ) -> VerificationResult:
        """A verdict the trusted checker rejects: ``on`` fails loudly,
        ``strict`` answers a counted UNKNOWN(uncertified)."""
        if self.certify == "on":
            raise CertificationError(detail)
        result = VerificationResult.make_unknown(
            method="streaming", reason="uncertified", detail=detail,
            address=address, stage="certify",
        )
        obs.count_unknown(result)
        return result

    def checkpoint(self, kind: str = "heartbeat") -> StreamVerdict:
        """A HOLDS-so-far verdict over everything consumed.  Under
        certification every address's window witness is replayed by the
        trusted checker."""
        if kind == "heartbeat":
            self.stats.add("heartbeats")
        snap = self.snapshot()
        result = VerificationResult(
            holds=True, method="streaming", reason=""
        )
        result.stats.update(snap)
        if self.certify != "off":
            with obs.span("certify"):
                for addr, mon in self.monitors.items():
                    fin = (
                        {addr: self._final[addr]}
                        if kind == "final" and addr in self._final
                        else None
                    )
                    ex = mon.window_execution(fin)
                    witness = VerificationResult(
                        holds=True,
                        method="streaming",
                        schedule=mon.window_schedule(),
                        certificate=Certificate("witness"),
                    )
                    check = validate_result(ex, witness)
                    if not check.ok:
                        result = self._uncertified(
                            f"{kind} witness rejected for {addr!r}: "
                            f"{check.reason}"
                        )
                        return StreamVerdict(
                            "unknown", self._ops, result, ex, snap
                        )
            result.stats["certified"] = True
        return StreamVerdict(kind, self._ops, result, None, snap)

    def finalize(
        self, final: Mapping[Address, Value] | None = None
    ) -> StreamVerdict:
        """End of stream: check final-value constraints (from FINAL
        frames plus ``final``) and emit the closing verdict."""
        if self.tripped is not None:
            return self.tripped
        if final:
            self._final.update(final)
        for addr in sorted(self._final, key=str):
            expected = self._final[addr]
            message = self._monitor(addr).final(expected)
            if message is not None:
                return self._violation(
                    addr, message, final={addr: expected}
                )
        return self.checkpoint(kind="final")


# ---------------------------------------------------------------------
# Monitoring a complete execution (no announced commit order)
# ---------------------------------------------------------------------
def _escalate(
    execution: Execution,
    certify: str,
    sv: StreamingVerifier,
    why: str,
) -> StreamVerdict:
    """Hand the whole execution to the offline engine and wrap its
    (certified where possible) verdict as a stream verdict."""
    from repro.engine import verify_vmc

    try:
        deep = verify_vmc(
            execution, certify="on" if certify == "off" else certify
        )
    except CertificationError:
        if certify != "off":
            raise
        deep = verify_vmc(execution, certify="off")
    if deep.violated:
        kind = "violation"
    elif deep.holds:
        kind = "final"
    else:
        kind = "unknown"
    verdict = StreamVerdict(
        kind,
        -1,  # no stream position: the offline engine decided the trace
        deep,
        execution if deep.violated else None,
        sv.snapshot(),
    )
    verdict.stats["escalated"] = why
    return verdict


def monitor_execution(
    execution: Execution,
    window: int = DEFAULT_WINDOW,
    certify: str = "off",
    heartbeat: int = 0,
    on_heartbeat=None,
) -> StreamVerdict:
    """Monitor a complete execution that carries no commit order.

    Without an announced serialization the monitor must *choose* one.
    A greedy feasible merge commits sync operations and currently-legal
    reads/RMWs eagerly and otherwise serializes a write that some
    blocked head-of-queue read demands.  If the merge consumes every
    operation, the chosen interleaving is itself a coherent commit
    order, so the stream verdict (heartbeats included, via
    ``on_heartbeat``) is exact.  If the merge gets stuck — or trips,
    which might be an artifact of the chosen interleaving rather than
    of the trace — the execution is escalated to the offline engine and
    its certified verdict is returned (``stats["escalated"]`` names the
    reason, ``op_index`` is ``-1``)."""
    n_procs = max(1, execution.num_processes)
    sv = StreamingVerifier(
        n_procs,
        initial=execution.initial,
        window=window,
        certify=certify,
        heartbeat=heartbeat,
    )
    pending = [deque(h.operations) for h in execution.histories]
    remaining = sum(len(q) for q in pending)

    def feed(op: Operation) -> StreamVerdict | None:
        nonlocal remaining
        remaining -= 1
        verdict = sv.feed_op(op)
        if verdict is None:
            return None
        if verdict.kind == "heartbeat":
            if on_heartbeat is not None:
                on_heartbeat(verdict)
            return None
        return verdict

    while remaining:
        progressed = True
        while progressed:
            progressed = False
            for proc, q in enumerate(pending):
                while q:
                    op = q[0]
                    kind = op.kind
                    if kind.is_sync:
                        ok = True
                    elif kind.reads and kind.writes:
                        ok = sv._monitor(op.addr).peek_rmw(op.value_read)
                    elif kind.reads:
                        ok = sv._monitor(op.addr).peek_read(
                            proc, op.value_read
                        )
                    else:
                        break  # plain writes are serialized on demand
                    if not ok:
                        break
                    q.popleft()
                    if feed(op) is not None:  # unreachable after peek
                        return _escalate(
                            execution, certify, sv, "greedy violation"
                        )
                    progressed = True
        if not remaining:
            break
        # Serialize a write; prefer one producing a demanded value.
        demanded = {
            (q[0].addr, q[0].value_read)
            for q in pending
            if q and q[0].kind.reads
        }
        choice = None
        for proc, q in enumerate(pending):
            head = q[0] if q else None
            if head is None or not head.kind.writes or head.kind.reads:
                continue
            if choice is None:
                choice = q
            if (head.addr, head.value_written) in demanded:
                choice = q
                break
        if choice is None:
            return _escalate(
                execution, certify, sv, "no feasible next operation"
            )
        op = choice.popleft()
        if feed(op) is not None:
            return _escalate(execution, certify, sv, "greedy violation")
    try:
        verdict = sv.finalize(execution.final)
    except CertificationError:
        verdict = None
    if verdict is None or verdict.kind != "final":
        # A final-value mismatch may blame the greedy write order, not
        # the trace; let the offline engine decide.
        return _escalate(execution, certify, sv, "greedy final mismatch")
    return verdict
