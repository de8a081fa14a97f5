"""Data model for shared-memory executions.

Terminology follows Section 3 of the paper:

* an :class:`Operation` is a read ``R(a, d)``, a write ``W(a, d)``, an
  atomic read-modify-write ``RW(a, d_r, d_w)``, or a synchronization
  operation (acquire/release, used by the Figure 6.1 construction);
* a :class:`ProcessHistory` is the sequence of operations one process
  executed, in program order, with the values each observed;
* an :class:`Execution` is the set of process histories plus the initial
  value ``d_I[a]`` and (optionally) the final value ``d_F[a]`` of every
  location;
* a *schedule* is a plain sequence of operations — an interleaving —
  checked for coherence / sequential consistency by
  :mod:`repro.core.checker`.

Values are arbitrary hashable objects.  The distinguished
:data:`INITIAL` sentinel is the default initial value of every location;
a read returning it can only be scheduled before the first write.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

Value = Hashable
Address = Hashable


class _InitialValue:
    """Singleton sentinel: the pre-execution state of a location."""

    _instance: "_InitialValue | None" = None

    def __new__(cls) -> "_InitialValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INITIAL"

    def __reduce__(self):  # keep singleton identity across pickling
        return (_InitialValue, ())


INITIAL: Value = _InitialValue()


class OpKind(enum.Enum):
    """Operation kinds.  ``RMW`` is atomic (its read and write occupy a
    single schedule slot); ``ACQUIRE``/``RELEASE`` are the
    synchronization primitives of Section 6.2's weak-model argument.

    ``reads``, ``writes`` and ``is_sync`` are plain member attributes,
    fixed from the kind's code when the enum is built: every hot loop
    asks them, so they cost one attribute load each.
    """

    READ = "R"
    WRITE = "W"
    RMW = "RW"
    ACQUIRE = "ACQ"
    RELEASE = "REL"

    reads: bool
    writes: bool
    is_sync: bool

    def __init__(self, code: str) -> None:
        self.reads = code in ("R", "RW")
        self.writes = code in ("W", "RW")
        self.is_sync = code in ("ACQ", "REL")


@dataclass(frozen=True, slots=True)
class Operation:
    """One memory operation, identified by ``(proc, index)``.

    ``index`` is the operation's position in its process history
    (program order).  ``value_read`` is meaningful for READ/RMW,
    ``value_written`` for WRITE/RMW; both are ``None`` for sync ops.

    Operations are slotted (no per-instance ``__dict__``) and frozen;
    the constructor validates the values against the kind, then sets
    each field once through its slot.
    """

    kind: OpKind
    addr: Address
    proc: int
    index: int
    value_read: Value = None
    value_written: Value = None

    def __init__(
        self,
        kind: OpKind,
        addr: Address,
        proc: int,
        index: int,
        value_read: Value = None,
        value_written: Value = None,
    ) -> None:
        if kind is OpKind.READ and value_written is not None:
            raise ValueError("a READ has no written value")
        if kind is OpKind.WRITE and value_read is not None:
            raise ValueError("a WRITE has no read value")
        if kind is OpKind.RMW and value_read is None and value_written is None:
            raise ValueError("an RMW must carry read and written values")
        _set_kind(self, kind)
        _set_addr(self, addr)
        _set_proc(self, proc)
        _set_index(self, index)
        _set_value_read(self, value_read)
        _set_value_written(self, value_written)

    @property
    def uid(self) -> tuple[int, int]:
        """Globally unique id within an execution: (process, po index)."""
        return (self.proc, self.index)

    def __str__(self) -> str:
        if self.kind is OpKind.READ:
            return f"P{self.proc}.R({self.addr},{self.value_read})"
        if self.kind is OpKind.WRITE:
            return f"P{self.proc}.W({self.addr},{self.value_written})"
        if self.kind is OpKind.RMW:
            return (
                f"P{self.proc}.RW({self.addr},{self.value_read},"
                f"{self.value_written})"
            )
        return f"P{self.proc}.{self.kind.value}({self.addr})"


# The slots' own descriptors: a frozen class's fields are written once,
# in ``__init__``, past the ``__setattr__`` that forbids it afterwards.
(
    _set_kind,
    _set_addr,
    _set_proc,
    _set_index,
    _set_value_read,
    _set_value_written,
) = (
    vars(Operation)[name].__set__
    for name in ("kind", "addr", "proc", "index", "value_read", "value_written")
)


# The frozen ``__setattr__``/``__delattr__`` that ``dataclass`` generates
# for a slotted class reach ``super()`` with the pre-slots class on
# CPython before 3.12, so a name that is not a field raised TypeError
# there.  Every name is refused alike on every version.
def _refuse_set(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Operation.__setattr__ = _refuse_set
Operation.__delattr__ = _refuse_del


class _OperationTwin:
    """Mutable twin of :class:`Operation` with the same slot layout, so
    an instance can be filled by plain slot stores and then re-classed."""

    __slots__ = Operation.__slots__


def _trusted_operation(
    kind: OpKind,
    addr: Address,
    proc: int,
    index: int,
    value_read: Value,
    value_written: Value,
) -> Operation:
    """An :class:`Operation` built without the constructor's shape
    checks, for decoders whose columns already passed them (a read value
    exactly for reading kinds, a written value exactly for writing
    kinds, and no RMW with both values ``None``).  The result is an
    ordinary, frozen ``Operation``: equal, hashing and pickling alike to
    the one the public constructor builds from the same fields."""
    op = _OperationTwin()
    op.kind = kind
    op.addr = addr
    op.proc = proc
    op.index = index
    op.value_read = value_read
    op.value_written = value_written
    op.__class__ = Operation
    return op


def read(addr: Address, value: Value, proc: int = 0, index: int = 0) -> Operation:
    """Convenience constructor for ``R(addr, value)``."""
    return Operation(OpKind.READ, addr, proc, index, value_read=value)


def write(addr: Address, value: Value, proc: int = 0, index: int = 0) -> Operation:
    """Convenience constructor for ``W(addr, value)``."""
    return Operation(OpKind.WRITE, addr, proc, index, value_written=value)


def rmw(
    addr: Address,
    value_read: Value,
    value_written: Value,
    proc: int = 0,
    index: int = 0,
) -> Operation:
    """Convenience constructor for ``RW(addr, d_r, d_w)``."""
    return Operation(
        OpKind.RMW, addr, proc, index, value_read=value_read, value_written=value_written
    )


@dataclass(frozen=True)
class ProcessHistory:
    """A process's memory operations in program order."""

    proc: int
    operations: tuple[Operation, ...]

    def __post_init__(self) -> None:
        for i, op in enumerate(self.operations):
            if op.proc != self.proc or op.index != i:
                raise ValueError(
                    f"operation {op} at position {i} is mislabelled for "
                    f"process {self.proc}; use Execution.from_ops or the "
                    f"builder to get ids assigned automatically"
                )

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __getitem__(self, i: int) -> Operation:
        return self.operations[i]

    def ops_at(self, addr: Address) -> list[Operation]:
        return [op for op in self.operations if op.addr == addr]


class Execution:
    """A multiprocessor execution: histories + initial/final values.

    ``initial`` maps addresses to their pre-execution values; addresses
    absent from the mapping default to :data:`INITIAL`.  ``final`` (the
    ``d_F`` of Section 3) is optional: when provided for an address, a
    coherent schedule's last write to that address must write it.
    """

    def __init__(
        self,
        histories: Sequence[ProcessHistory],
        initial: Mapping[Address, Value] | None = None,
        final: Mapping[Address, Value] | None = None,
    ):
        procs = [h.proc for h in histories]
        if procs != list(range(len(histories))):
            raise ValueError(
                f"histories must be numbered 0..k-1 in order, got {procs}"
            )
        self.histories: tuple[ProcessHistory, ...] = tuple(histories)
        self.initial: dict[Address, Value] = dict(initial or {})
        self.final: dict[Address, Value] = dict(final or {})

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_ops(
        per_process_ops: Sequence[Sequence[Operation]],
        initial: Mapping[Address, Value] | None = None,
        final: Mapping[Address, Value] | None = None,
    ) -> "Execution":
        """Build an execution relabelling (proc, index) automatically.

        Accepts operations created with any proc/index (e.g. the module
        level :func:`read`/:func:`write` helpers) and renumbers them.
        """
        histories = []
        for p, ops in enumerate(per_process_ops):
            relabelled = tuple(
                Operation(
                    op.kind,
                    op.addr,
                    p,
                    i,
                    value_read=op.value_read,
                    value_written=op.value_written,
                )
                for i, op in enumerate(ops)
            )
            histories.append(ProcessHistory(p, relabelled))
        return Execution(histories, initial=initial, final=final)

    # -- columnar view ----------------------------------------------------
    def columnar(self):
        """The cached :class:`~repro.core.columnar.ColumnarTrace` view.

        Built on first use and memoized — executions are immutable
        after construction, so the view never goes stale.  The cache is
        dropped from pickles (see ``__getstate__``): process-pool
        workers rebuild it on demand rather than paying to ship it.
        """
        view = getattr(self, "_columnar", None)
        if view is None:
            from repro.core.columnar import ColumnarTrace

            view = ColumnarTrace.from_execution(self)
            self._columnar = view
        return view

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_columnar", None)
        return state

    # -- queries ----------------------------------------------------------
    @property
    def num_processes(self) -> int:
        return len(self.histories)

    @property
    def num_ops(self) -> int:
        return sum(len(h) for h in self.histories)

    def all_ops(self) -> Iterator[Operation]:
        for h in self.histories:
            yield from h

    def addresses(self) -> list[Address]:
        """Distinct addresses touched, in first-appearance order."""
        view = self.columnar()
        return list(view.addrs[: view.n_touched])

    def constrained_addresses(self) -> list[Address]:
        """Touched addresses plus any address with a final-value
        constraint (an untouched address with ``d_F != d_I`` makes the
        execution trivially incoherent — solvers must see it)."""
        view = self.columnar()
        return list(view.addrs[: view.n_constrained])

    def initial_value(self, addr: Address) -> Value:
        return self.initial.get(addr, INITIAL)

    def final_value(self, addr: Address) -> Value | None:
        """The required final value, or None when unconstrained."""
        return self.final.get(addr)

    def ops_at(self, addr: Address) -> list[Operation]:
        return [op for op in self.all_ops() if op.addr == addr]

    def restrict_to_address(self, addr: Address) -> "Execution":
        """Sub-execution containing only operations at ``addr``.

        Process histories are filtered but keep their process numbering;
        the per-op ``index`` keeps its original value so operations can
        be matched back to the parent execution, hence the histories are
        rebuilt through ``object.__new__`` rather than the validating
        constructor.  The filtering itself runs over the columnar
        view's per-address slices — one shared index instead of a full
        re-scan per address.
        """
        view = self.columnar()
        try:
            ai = view.addr_index(addr)
        except KeyError:
            # An address nowhere in the trace or its constraints: the
            # sub-execution is empty and wholly unconstrained.
            histories = []
            for h in self.histories:
                ph = object.__new__(ProcessHistory)
                object.__setattr__(ph, "proc", h.proc)
                object.__setattr__(ph, "operations", ())
                histories.append(ph)
            ex = object.__new__(Execution)
            ex.histories = tuple(histories)
            ex.initial = {addr: self.initial_value(addr)}
            ex.final = {}
            return ex
        return view.restrict_to_address_id(ai)

    def drop_sync_ops(self) -> "Execution":
        """Copy without ACQUIRE/RELEASE operations (renumbered)."""
        return Execution.from_ops(
            [[op for op in h if not op.kind.is_sync] for h in self.histories],
            initial=self.initial,
            final=self.final,
        )

    def max_ops_per_process(self) -> int:
        return max((len(h) for h in self.histories), default=0)

    def max_writes_per_value(self, addr: Address | None = None) -> int:
        """Largest number of writes of any single (addr, value) pair."""
        view = self.columnar()
        if addr is None:
            return view.routing.max_writes_per_value
        try:
            positions = view.addr_ops[view.addr_index(addr)]
        except KeyError:
            return 0
        wvs = view.write_vids
        counts = Counter(wvs[i] for i in positions)
        counts.pop(-1, None)
        return max(counts.values(), default=0)

    def kinds_used(self) -> set[OpKind]:
        from repro.core.columnar import KINDS_BY_CODE

        return {KINDS_BY_CODE[k] for k in self.columnar().routing.kind_codes}

    def is_rmw_only(self) -> bool:
        kinds = self.kinds_used()
        return bool(kinds) and kinds <= {OpKind.RMW}

    def is_single_address(self) -> bool:
        return len(self.addresses()) <= 1

    def __repr__(self) -> str:
        return (
            f"Execution(processes={self.num_processes}, ops={self.num_ops}, "
            f"addresses={len(self.addresses())})"
        )

    def pretty(self) -> str:
        """Multi-line rendering, histories as columns (paper style)."""
        cols = [
            [f"h{h.proc}"] + [str(op).split(".", 1)[1] for op in h]
            for h in self.histories
        ]
        height = max(len(c) for c in cols) if cols else 0
        widths = [max(len(s) for s in c) for c in cols]
        lines = []
        for r in range(height):
            cells = [
                (c[r] if r < len(c) else "").ljust(w)
                for c, w in zip(cols, widths)
            ]
            lines.append("  ".join(cells).rstrip())
        return "\n".join(lines)


Schedule = Sequence[Operation]


def schedule_str(schedule: Iterable[Operation]) -> str:
    """One-line rendering of a schedule (for witnesses in messages)."""
    return " ; ".join(str(op) for op in schedule)
