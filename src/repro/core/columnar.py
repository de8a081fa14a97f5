"""Columnar (structure-of-arrays) view of an execution.

The object model in :mod:`repro.core.types` is the right interface for
building and inspecting traces, but the polynomial hot paths — read
elimination, happens-before saturation, frontier packing, CNF layout,
cache fingerprinting — only ever need *codes*: which kind, which
process, which address, which value.  Re-deriving those codes by
walking ``Operation`` dataclasses was duplicated across ``infer.py``,
``exact.py``, ``encode.py`` and ``engine/cache.py``; this module
computes them once per execution and shares the result.

A :class:`ColumnarTrace` holds parallel columns over the flat,
process-major operation sequence (process 0's history first, in
program order, then process 1's, ...):

* ``kinds[i]`` — the operation kind as a small integer code;
* ``procs[i]`` / ``indices[i]`` — the operation's uid, preserving
  *gappy* program-order indices of sub-executions;
* ``addr_ids[i]`` — index into the interned ``addrs`` table;
* ``read_vids[i]`` / ``write_vids[i]`` — indices into the interned
  ``values`` table, ``-1`` when the kind does not read / write.

plus per-process (``proc_slice``) and per-address (``addr_ops``) index
slices, and the initial/final constraints as value ids per address.
``initial_ids[ai]`` is always a valid value id — the *effective*
initial value, interning the :data:`~repro.core.types.INITIAL` default
for addresses absent from the ``initial`` mapping — so consumers can
compare read value ids against it directly; ``implicit_initial[ai]``
records which entries were defaulted, keeping the round-trip to
``Execution`` lossless.

Address table ordering is load-bearing: the first ``n_touched``
entries are the touched addresses in first-appearance order (exactly
``Execution.addresses()``), the first ``n_constrained`` entries add
the final-only addresses (exactly ``Execution.constrained_addresses()``),
and any remaining entries are addresses appearing only in ``initial``.

Columns are stdlib ``array`` arrays with fixed little-endian-friendly
type codes, so the binary trace format (:mod:`repro.core.serialize_bin`)
can dump and load them as raw blobs, and the numpy kernels
(:mod:`repro.core.kernels`) can wrap them zero-copy via
``np.frombuffer``.

Value interning uses dictionary (``hash``/``==``) semantics — the same
equality every verifier already applies when it groups writers by
value — so two values receive the same id exactly when the verifiers
would treat them as the same value.

The view is immutable and cached: :meth:`Execution.columnar` builds it
on first use and memoizes it on the instance (executions are never
mutated after construction).  The cache is excluded from pickling so
process-pool tasks do not ship redundant columns.
"""

from __future__ import annotations

from array import array
from typing import Hashable

from repro.core.types import (
    Address,
    Execution,
    OpKind,
    Operation,
    ProcessHistory,
    Value,
    _trusted_operation,
)

#: Kind codes, stable across releases (the binary format stores them).
KIND_CODES: dict[OpKind, int] = {
    OpKind.READ: 0,
    OpKind.WRITE: 1,
    OpKind.RMW: 2,
    OpKind.ACQUIRE: 3,
    OpKind.RELEASE: 4,
}
KINDS_BY_CODE: tuple[OpKind, ...] = tuple(
    k for k, _ in sorted(KIND_CODES.items(), key=lambda kv: kv[1])
)

#: ``array`` type codes per column — fixed sizes, so the binary format
#: can compute blob lengths from the header alone.
COLUMN_TYPECODES = {
    "kinds": "B",       # u8
    "procs": "I",       # u32
    "indices": "I",     # u32
    "addr_ids": "I",    # u32
    "read_vids": "i",   # i32 (-1 = kind does not read)
    "write_vids": "i",  # i32 (-1 = kind does not write)
}
#: The per-op columns in their canonical (binary-format) order.
OP_COLUMNS = tuple(COLUMN_TYPECODES)


class ColumnarTrace:
    """Immutable structure-of-arrays view of one :class:`Execution`."""

    __slots__ = (
        "n_ops",
        "n_procs",
        "kinds",
        "procs",
        "indices",
        "addr_ids",
        "read_vids",
        "write_vids",
        "proc_offsets",
        "addrs",
        "values",
        "n_touched",
        "n_constrained",
        "initial_ids",
        "implicit_initial",
        "final_ids",
        "_addr_ops",
        "_uid_pos",
        "_addr_id_of",
        "_source_ops",
    )

    def __init__(
        self,
        *,
        kinds: array,
        procs: array,
        indices: array,
        addr_ids: array,
        read_vids: array,
        write_vids: array,
        proc_offsets: array,
        addrs: tuple[Address, ...],
        values: tuple[Value, ...],
        n_touched: int,
        n_constrained: int,
        initial_ids: array,
        implicit_initial: array,
        final_ids: array,
    ):
        self.n_ops = len(kinds)
        self.n_procs = len(proc_offsets) - 1
        self.kinds = kinds
        self.procs = procs
        self.indices = indices
        self.addr_ids = addr_ids
        self.read_vids = read_vids
        self.write_vids = write_vids
        self.proc_offsets = proc_offsets
        self.addrs = addrs
        self.values = values
        self.n_touched = n_touched
        self.n_constrained = n_constrained
        self.initial_ids = initial_ids
        self.implicit_initial = implicit_initial
        self.final_ids = final_ids
        self._addr_ops: list[array] | None = None
        self._uid_pos: dict[tuple[int, int], int] | None = None
        self._addr_id_of: dict[Address, int] | None = None
        #: Original Operation objects in flat order when the view was
        #: built from an Execution (None for views loaded from the
        #: binary format); lets op_at/restricted views hand back the
        #: *same* objects the caller already holds.
        self._source_ops: tuple[Operation, ...] | None = None

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_execution(execution: Execution) -> "ColumnarTrace":
        """Build the columnar view (one O(n) walk of the object model)."""
        addr_id: dict[Hashable, int] = {}
        value_id: dict[Hashable, int] = {}
        addrs: list[Address] = []
        values: list[Value] = []

        def aid(a: Address) -> int:
            i = addr_id.get(a)
            if i is None:
                i = addr_id[a] = len(addrs)
                addrs.append(a)
            return i

        def vid(v: Value) -> int:
            i = value_id.get(v)
            if i is None:
                i = value_id[v] = len(values)
                values.append(v)
            return i

        kinds = array(COLUMN_TYPECODES["kinds"])
        procs = array(COLUMN_TYPECODES["procs"])
        indices = array(COLUMN_TYPECODES["indices"])
        addr_ids = array(COLUMN_TYPECODES["addr_ids"])
        read_vids = array(COLUMN_TYPECODES["read_vids"])
        write_vids = array(COLUMN_TYPECODES["write_vids"])
        proc_offsets = array("Q", [0])
        for h in execution.histories:
            for op in h:
                kinds.append(KIND_CODES[op.kind])
                procs.append(op.proc)
                indices.append(op.index)
                addr_ids.append(aid(op.addr))
                read_vids.append(vid(op.value_read) if op.kind.reads else -1)
                write_vids.append(
                    vid(op.value_written) if op.kind.writes else -1
                )
            proc_offsets.append(len(kinds))
        n_touched = len(addrs)
        for a in execution.final:
            aid(a)
        n_constrained = len(addrs)
        for a in execution.initial:
            aid(a)

        initial_ids = array("i")
        implicit_initial = array("B")
        final_ids = array("i")
        for a in addrs:
            initial_ids.append(vid(execution.initial_value(a)))
            implicit_initial.append(0 if a in execution.initial else 1)
            final_ids.append(
                vid(execution.final[a]) if a in execution.final else -1
            )
        view = ColumnarTrace(
            kinds=kinds,
            procs=procs,
            indices=indices,
            addr_ids=addr_ids,
            read_vids=read_vids,
            write_vids=write_vids,
            proc_offsets=proc_offsets,
            addrs=tuple(addrs),
            values=tuple(values),
            n_touched=n_touched,
            n_constrained=n_constrained,
            initial_ids=initial_ids,
            implicit_initial=implicit_initial,
            final_ids=final_ids,
        )
        view._source_ops = tuple(
            op for h in execution.histories for op in h
        )
        return view

    # -- slices -----------------------------------------------------------
    def proc_slice(self, p: int) -> slice:
        """Flat-position slice of process ``p``'s operations."""
        return slice(self.proc_offsets[p], self.proc_offsets[p + 1])

    @property
    def addr_ops(self) -> list[array]:
        """Per-address flat positions, process-major program order.

        ``addr_ops[ai]`` lists every flat position whose operation
        touches ``addrs[ai]`` — the shared replacement for the ad-hoc
        address→ops maps the verifiers used to rebuild individually.
        """
        if self._addr_ops is None:
            per = [array("I") for _ in self.addrs]
            for i, ai in enumerate(self.addr_ids):
                per[ai].append(i)
            self._addr_ops = per
        return self._addr_ops

    def ops_at_id(self, ai: int) -> array:
        """Flat positions of the operations at address id ``ai``."""
        return self.addr_ops[ai]

    @property
    def uid_pos(self) -> dict[tuple[int, int], int]:
        """uid ``(proc, index)`` → flat position."""
        if self._uid_pos is None:
            self._uid_pos = {
                (self.procs[i], self.indices[i]): i
                for i in range(self.n_ops)
            }
        return self._uid_pos

    # -- conversion back --------------------------------------------------
    def to_execution(self) -> Execution:
        """Materialize an equal :class:`Execution` from the columns.

        Gappy program-order indices (sub-executions) are preserved, so
        the histories are rebuilt through ``object.__new__`` exactly
        like :meth:`Execution.restrict_to_address` does.
        """
        histories = []
        for p in range(self.n_procs):
            s = self.proc_slice(p)
            ops = tuple(self.op_at(i) for i in range(s.start, s.stop))
            ph = object.__new__(ProcessHistory)
            object.__setattr__(ph, "proc", p)
            object.__setattr__(ph, "operations", ops)
            histories.append(ph)
        initial = {
            a: self.values[vi]
            for a, vi, imp in zip(
                self.addrs, self.initial_ids, self.implicit_initial
            )
            if not imp
        }
        final = {
            a: self.values[vi]
            for a, vi in zip(self.addrs, self.final_ids)
            if vi >= 0
        }
        return Execution(histories, initial=initial, final=final)

    def op_at(self, i: int) -> Operation:
        """The :class:`Operation` at flat position ``i`` — the original
        object when the view came from an Execution, a freshly (and
        equally) materialized one when it was loaded from bytes or
        built by :class:`ColumnarBuilder`.  Both sources check every
        row's shape, so the fresh one skips the constructor's checks."""
        if self._source_ops is not None:
            return self._source_ops[i]
        rv = self.read_vids[i]
        wv = self.write_vids[i]
        return _trusted_operation(
            KINDS_BY_CODE[self.kinds[i]],
            self.addrs[self.addr_ids[i]],
            self.procs[i],
            self.indices[i],
            self.values[rv] if rv >= 0 else None,
            self.values[wv] if wv >= 0 else None,
        )

    # -- address-restricted views -----------------------------------------
    def restrict_to_address_id(self, ai: int) -> Execution:
        """Single-address sub-execution for ``addrs[ai]`` (the engine's
        per-address VMC task unit), built from the column slices."""
        addr = self.addrs[ai]
        positions = self.addr_ops[ai]
        per_proc: list[list[Operation]] = [[] for _ in range(self.n_procs)]
        for i in positions:
            per_proc[self.procs[i]].append(self.op_at(i))
        histories = []
        for p in range(self.n_procs):
            ph = object.__new__(ProcessHistory)
            object.__setattr__(ph, "proc", p)
            object.__setattr__(ph, "operations", tuple(per_proc[p]))
            histories.append(ph)
        ex = object.__new__(Execution)
        ex.histories = tuple(histories)
        ex.initial = {addr: self.values[self.initial_ids[ai]]}
        fi = self.final_ids[ai]
        ex.final = {addr: self.values[fi]} if fi >= 0 else {}
        return ex

    def addr_index(self, addr: Address) -> int:
        """Address → id (cached dict; KeyError for unknown addresses)."""
        if self._addr_id_of is None:
            self._addr_id_of = {a: i for i, a in enumerate(self.addrs)}
        return self._addr_id_of[addr]

    # -- misc -------------------------------------------------------------
    def column_bytes(self) -> dict[str, bytes]:
        """Raw little-endian bytes of every per-op column (plus the
        offsets and constraint columns), the payload of the binary
        trace format."""
        import sys

        def raw(a: array) -> bytes:
            if sys.byteorder == "big":  # pragma: no cover
                a = array(a.typecode, a)
                a.byteswap()
            return a.tobytes()

        out = {name: raw(getattr(self, name)) for name in OP_COLUMNS}
        out["proc_offsets"] = raw(self.proc_offsets)
        out["initial_ids"] = raw(self.initial_ids)
        out["implicit_initial"] = raw(self.implicit_initial)
        out["final_ids"] = raw(self.final_ids)
        return out

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(ops={self.n_ops}, procs={self.n_procs}, "
            f"addrs={len(self.addrs)}, values={len(self.values)})"
        )


class ColumnarBuilder:
    """Append-friendly accumulator producing a :class:`ColumnarTrace`.

    :meth:`ColumnarTrace.from_execution` needs the whole object model up
    front; a *stream* — the framed binary format, the online monitor's
    retained window, a simulator feeding commits live — only ever sees
    one operation at a time, usually in **commit order** (interleaved
    across processes).  The builder interns addresses and values as they
    appear, appends one row per operation, and :meth:`build` reorders
    the rows process-major and re-interns the tables in the canonical
    first-appearance order, so the result is indistinguishable from
    ``ColumnarTrace.from_execution`` of the same trace (including the
    binary round-trip bytes).

    Appends are O(1); ``build()`` is one O(n) pass.  Program-order
    indices may be supplied explicitly (gappy sub-traces) or left to the
    per-process counters (``index=None``); within each process they must
    be strictly increasing — arrival order *is* program order.
    """

    __slots__ = (
        "_addr_id", "_value_id", "_addrs", "_values",
        "_kinds", "_procs", "_indices", "_addr_ids",
        "_read_vids", "_write_vids",
        "_next_index", "_initial", "_final",
    )

    def __init__(self) -> None:
        self._addr_id: dict[Hashable, int] = {}
        self._value_id: dict[Hashable, int] = {}
        self._addrs: list[Address] = []
        self._values: list[Value] = []
        self._kinds = array(COLUMN_TYPECODES["kinds"])
        self._procs = array(COLUMN_TYPECODES["procs"])
        self._indices = array(COLUMN_TYPECODES["indices"])
        self._addr_ids = array(COLUMN_TYPECODES["addr_ids"])
        self._read_vids = array(COLUMN_TYPECODES["read_vids"])
        self._write_vids = array(COLUMN_TYPECODES["write_vids"])
        self._next_index: dict[int, int] = {}
        self._initial: dict[int, int] = {}  # addr id -> value id
        self._final: dict[int, int] = {}

    # -- interning --------------------------------------------------------
    def intern_addr(self, a: Address) -> int:
        i = self._addr_id.get(a)
        if i is None:
            i = self._addr_id[a] = len(self._addrs)
            self._addrs.append(a)
        return i

    def intern_value(self, v: Value) -> int:
        i = self._value_id.get(v)
        if i is None:
            i = self._value_id[v] = len(self._values)
            self._values.append(v)
        return i

    @property
    def addrs(self) -> tuple[Address, ...]:
        return tuple(self._addrs)

    @property
    def values(self) -> tuple[Value, ...]:
        return tuple(self._values)

    @property
    def n_ops(self) -> int:
        return len(self._kinds)

    @property
    def n_procs(self) -> int:
        return max(self._next_index, default=-1) + 1

    # -- appends ----------------------------------------------------------
    def append(
        self,
        kind: OpKind,
        proc: int,
        addr: Address,
        value_read: Value = None,
        value_written: Value = None,
        index: int | None = None,
    ) -> int:
        """Append one operation in arrival order; returns its arrival
        position.  ``index=None`` assigns the next program-order index
        of ``proc``."""
        return self.append_codes(
            KIND_CODES[kind],
            proc,
            self.intern_addr(addr),
            self.intern_value(value_read) if kind.reads else -1,
            self.intern_value(value_written) if kind.writes else -1,
            index,
        )

    def append_op(self, op: Operation) -> int:
        """Append an existing :class:`Operation` (keeps its index)."""
        return self.append(
            op.kind, op.proc, op.addr,
            value_read=op.value_read,
            value_written=op.value_written,
            index=op.index,
        )

    def append_codes(
        self,
        kind_code: int,
        proc: int,
        addr_id: int,
        read_vid: int,
        write_vid: int,
        index: int | None = None,
    ) -> int:
        """Append one pre-interned row.  Its value ids must match the
        kind (a read id exactly when it reads, a write id exactly when
        it writes, never an RMW of None to None), as the public
        ``Operation`` constructor demands: the built view's operations
        are made without its checks."""
        kind = KINDS_BY_CODE[kind_code]
        if (read_vid >= 0) != kind.reads or (write_vid >= 0) != kind.writes:
            raise ValueError(f"value ids disagree with kind {kind.value!r}")
        if (
            kind is OpKind.RMW
            and self._values[read_vid] is None
            and self._values[write_vid] is None
        ):
            raise ValueError("an RMW must carry read and written values")
        nxt = self._next_index.get(proc, 0)
        if index is None:
            index = nxt
        elif index < nxt:
            raise ValueError(
                f"program-order index {index} of P{proc} is not "
                f"increasing (next expected >= {nxt})"
            )
        self._next_index[proc] = index + 1
        pos = len(self._kinds)
        self._kinds.append(kind_code)
        self._procs.append(proc)
        self._indices.append(index)
        self._addr_ids.append(addr_id)
        self._read_vids.append(read_vid)
        self._write_vids.append(write_vid)
        return pos

    def set_initial(self, addr: Address, value: Value) -> None:
        self._initial[self.intern_addr(addr)] = self.intern_value(value)

    def set_final(self, addr: Address, value: Value) -> None:
        self._final[self.intern_addr(addr)] = self.intern_value(value)

    # -- finishing --------------------------------------------------------
    def build(self, n_procs: int | None = None) -> ColumnarTrace:
        """One O(n) pass: bucket rows process-major (stable, so arrival
        order within a process is preserved as program order), re-intern
        addresses and values in the canonical first-appearance order,
        and assemble the immutable view."""
        from repro.core.types import INITIAL

        if n_procs is None:
            n_procs = self.n_procs
        by_proc: list[list[int]] = [[] for _ in range(n_procs)]
        for pos, p in enumerate(self._procs):
            by_proc[p].append(pos)

        # Canonical tables: touched addresses in process-major
        # first-appearance order, then final-only, then initial-only —
        # matching ColumnarTrace.from_execution exactly.
        addr_map: dict[int, int] = {}
        value_map: dict[int, int] = {}
        addrs: list[Address] = []
        values: list[Value] = []

        def remap_addr(old: int) -> int:
            new = addr_map.get(old)
            if new is None:
                new = addr_map[old] = len(addrs)
                addrs.append(self._addrs[old])
            return new

        def remap_vid(old: int) -> int:
            if old < 0:
                return -1
            new = value_map.get(old)
            if new is None:
                new = value_map[old] = len(values)
                values.append(self._values[old])
            return new

        kinds = array(COLUMN_TYPECODES["kinds"])
        procs = array(COLUMN_TYPECODES["procs"])
        indices = array(COLUMN_TYPECODES["indices"])
        addr_ids = array(COLUMN_TYPECODES["addr_ids"])
        read_vids = array(COLUMN_TYPECODES["read_vids"])
        write_vids = array(COLUMN_TYPECODES["write_vids"])
        proc_offsets = array("Q", [0])
        for p in range(n_procs):
            for pos in by_proc[p]:
                kinds.append(self._kinds[pos])
                procs.append(p)
                indices.append(self._indices[pos])
                addr_ids.append(remap_addr(self._addr_ids[pos]))
                read_vids.append(remap_vid(self._read_vids[pos]))
                write_vids.append(remap_vid(self._write_vids[pos]))
            proc_offsets.append(len(kinds))
        n_touched = len(addrs)
        for old in self._final:
            remap_addr(old)
        n_constrained = len(addrs)
        for old in self._initial:
            remap_addr(old)

        initial_ids = array("i")
        implicit_initial = array("B")
        final_ids = array("i")
        inv_addr = {new: old for old, new in addr_map.items()}
        default_vid: int | None = None
        for new in range(len(addrs)):
            old = inv_addr[new]
            vi = self._initial.get(old)
            if vi is not None:
                initial_ids.append(remap_vid(vi))
                implicit_initial.append(0)
            else:
                if default_vid is None:
                    default_vid = remap_vid(self.intern_value(INITIAL))
                initial_ids.append(default_vid)
                implicit_initial.append(1)
            fi = self._final.get(old)
            final_ids.append(remap_vid(fi) if fi is not None else -1)

        return ColumnarTrace(
            kinds=kinds,
            procs=procs,
            indices=indices,
            addr_ids=addr_ids,
            read_vids=read_vids,
            write_vids=write_vids,
            proc_offsets=proc_offsets,
            addrs=tuple(addrs),
            values=tuple(values),
            n_touched=n_touched,
            n_constrained=n_constrained,
            initial_ids=initial_ids,
            implicit_initial=implicit_initial,
            final_ids=final_ids,
        )

    def to_execution(self, n_procs: int | None = None) -> Execution:
        """Materialize the accumulated trace as an :class:`Execution`
        carrying its columns as the cached view."""
        view = self.build(n_procs)
        ex = view.to_execution()
        view._source_ops = tuple(op for h in ex.histories for op in h)
        ex._columnar = view
        return ex


def columnar(execution: Execution) -> ColumnarTrace:
    """The cached columnar view of ``execution`` (module-level alias of
    :meth:`Execution.columnar` for call sites that prefer a function)."""
    return execution.columnar()
