"""Binary trace format: the columnar view serialized as raw blobs.

JSON (:mod:`repro.core.serialize`) stays the interchange format, but a
million-op corpus spends more time in ``json.loads`` and ``Operation``
construction than the polynomial verifier spends deciding it.  This
module stores a :class:`~repro.core.columnar.ColumnarTrace` directly:

.. code-block:: text

    offset  size  field
    0       8     magic  b"REPROBIN"
    8       2     version (u16 LE) — currently 1
    10      2     reserved (must be 0)
    12      4     n_procs (u32)
    16      8     n_ops (u64)
    24      4     n_addrs (u32)
    28      4     n_values (u32)
    32      4     n_touched (u32)
    36      4     n_constrained (u32)
    40      8     intern_len (u64) — length of the intern-table blob
    48      -     intern tables: UTF-8 JSON ``{"addrs": [...],
                  "values": [...]}`` using the JSON format's value
                  encoding ({"$initial": true}, {"$tuple": [...]}),
                  zero-padded to an 8-byte boundary
    ...     -     column blobs, little-endian, in fixed order:
                  proc_offsets  (n_procs+1) × u64
                  procs         n_ops × u32
                  indices       n_ops × u32
                  addr_ids      n_ops × u32
                  read_vids     n_ops × i32
                  write_vids    n_ops × i32
                  initial_ids   n_addrs × i32
                  final_ids     n_addrs × i32
                  kinds         n_ops × u8
                  implicit_initial  n_addrs × u8

Every blob's offset and length are computable from the header alone,
wider columns come first so each stays naturally aligned, and the
payload bytes are exactly the stdlib-``array`` memory of the columns —
a loader (or the numpy kernels) can map them zero-copy.  Malformed or
truncated input raises :class:`BinaryFormatError` carrying the byte
offset of the problem, mirroring the JSON loader's ``json.loads``
diagnostics.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import count, repeat
from pathlib import Path

from repro.core.columnar import KIND_CODES, KINDS_BY_CODE, ColumnarTrace
from repro.core.serialize import _decode_value, _encode_value
from repro.core.types import Execution, Operation, OpKind, _trusted_operation

MAGIC = b"REPROBIN"
VERSION = 1

_HEADER = struct.Struct("<8sHHIQIIIIQ")
HEADER_SIZE = _HEADER.size  # 48

#: (name, typecode, item size, count source) in on-disk order.
_BLOBS = (
    ("proc_offsets", "Q", 8, "procs+1"),
    ("procs", "I", 4, "ops"),
    ("indices", "I", 4, "ops"),
    ("addr_ids", "I", 4, "ops"),
    ("read_vids", "i", 4, "ops"),
    ("write_vids", "i", 4, "ops"),
    ("initial_ids", "i", 4, "addrs"),
    ("final_ids", "i", 4, "addrs"),
    ("kinds", "B", 1, "ops"),
    ("implicit_initial", "B", 1, "addrs"),
)


class BinaryFormatError(ValueError):
    """Malformed or truncated binary trace; ``offset`` is the byte
    position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


def dumps_bin(execution: Execution) -> bytes:
    """Serialize an execution to the binary trace format."""
    view = execution.columnar()
    intern = json.dumps(
        {
            "addrs": [_encode_value(a) for a in view.addrs],
            "values": [_encode_value(v) for v in view.values],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        0,
        view.n_procs,
        view.n_ops,
        len(view.addrs),
        len(view.values),
        view.n_touched,
        view.n_constrained,
        len(intern),
    )
    blobs = view.column_bytes()
    parts = [header, intern, b"\x00" * _pad8(len(intern))]
    parts.extend(blobs[name] for name, _tc, _sz, _cnt in _BLOBS)
    return b"".join(parts)


def _counts(n_ops: int, n_procs: int, n_addrs: int) -> dict[str, int]:
    return {"ops": n_ops, "procs+1": n_procs + 1, "addrs": n_addrs}


def loads_bin(data: bytes) -> Execution:
    """Parse an execution from binary trace bytes.

    The returned execution carries the loaded columns as its cached
    :meth:`~repro.core.types.Execution.columnar` view, so the engine's
    hot paths never re-derive them.
    """
    view = loads_bin_view(data)
    ex = view.to_execution()
    # Share the freshly materialized operations both ways: the columns
    # become the execution's cached view, and op_at hands back the same
    # objects the histories hold.
    view._source_ops = tuple(op for h in ex.histories for op in h)
    ex._columnar = view
    return ex


def loads_bin_view(data: bytes) -> ColumnarTrace:
    """Parse binary trace bytes into a bare :class:`ColumnarTrace`."""
    if len(data) < HEADER_SIZE:
        raise BinaryFormatError("truncated header", len(data))
    (
        magic,
        version,
        reserved,
        n_procs,
        n_ops,
        n_addrs,
        n_values,
        n_touched,
        n_constrained,
        intern_len,
    ) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BinaryFormatError(
            f"bad magic {magic!r} (expected {MAGIC!r})", 0
        )
    if version != VERSION:
        raise BinaryFormatError(f"unsupported version {version}", 8)
    if reserved != 0:
        raise BinaryFormatError("nonzero reserved field", 10)
    if not (n_touched <= n_constrained <= n_addrs):
        raise BinaryFormatError(
            f"inconsistent address counts {n_touched}/{n_constrained}"
            f"/{n_addrs}",
            24,
        )

    pos = HEADER_SIZE
    if len(data) < pos + intern_len:
        raise BinaryFormatError("truncated intern tables", len(data))
    intern_raw = data[pos : pos + intern_len]
    try:
        intern = json.loads(intern_raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise BinaryFormatError(
            "intern tables are not UTF-8", pos + e.start
        ) from e
    except json.JSONDecodeError as e:
        raise BinaryFormatError(
            f"malformed intern JSON: {e.msg}", pos + e.pos
        ) from e
    if (
        not isinstance(intern, dict)
        or not isinstance(intern.get("addrs"), list)
        or not isinstance(intern.get("values"), list)
    ):
        raise BinaryFormatError("intern tables must be lists", pos)
    try:
        addrs = tuple(_decode_value(a) for a in intern["addrs"])
        values = tuple(_decode_value(v) for v in intern["values"])
    except ValueError as e:
        raise BinaryFormatError(f"bad interned value: {e}", pos) from e
    if len(addrs) != n_addrs or len(values) != n_values:
        raise BinaryFormatError(
            f"intern tables hold {len(addrs)} addrs/{len(values)} values, "
            f"header says {n_addrs}/{n_values}",
            pos,
        )
    pos += intern_len + _pad8(intern_len)

    counts = _counts(n_ops, n_procs, n_addrs)
    columns: dict[str, array] = {}
    for name, typecode, item, cnt in _BLOBS:
        length = counts[cnt] * item
        if len(data) < pos + length:
            raise BinaryFormatError(
                f"truncated column {name!r}", len(data)
            )
        col = array(typecode)
        col.frombytes(data[pos : pos + length])
        if sys.byteorder == "big":  # pragma: no cover
            col.byteswap()
        columns[name] = col
        pos += length
    if pos != len(data):
        raise BinaryFormatError("trailing data", pos)

    _validate_columns(columns, n_ops, n_addrs, values, pos)
    return ColumnarTrace(
        n_touched=n_touched,
        n_constrained=n_constrained,
        addrs=addrs,
        values=values,
        **{name: columns[name] for name, _t, _s, _c in _BLOBS},
    )


def _validate_columns(columns, n_ops, n_addrs, values, end) -> None:
    """Range and shape checks so a corrupt file fails here, not as an
    IndexError deep inside a kernel or a ValueError from ``Operation``:
    the loaded operations are then built without the constructor's
    checks (:meth:`ColumnarTrace.op_at`)."""
    n_values = len(values)
    off = columns["proc_offsets"]
    prev = 0
    for o in off:
        if o < prev:
            raise BinaryFormatError("proc_offsets not monotonic", end)
        prev = o
    if off[0] != 0 or off[-1] != n_ops:
        raise BinaryFormatError(
            f"proc_offsets must span 0..{n_ops}", end
        )
    if n_ops:
        if max(columns["kinds"]) >= len(KINDS_BY_CODE):
            raise BinaryFormatError("unknown kind code", end)
        if max(columns["addr_ids"]) >= n_addrs:
            raise BinaryFormatError("addr_id out of range", end)
        for name in ("read_vids", "write_vids"):
            col = columns[name]
            if col and (max(col) >= n_values or min(col) < -1):
                raise BinaryFormatError(f"{name} out of range", end)
        bad = _misshapen_op(
            columns["kinds"], columns["read_vids"], columns["write_vids"],
            values,
        )
        if bad is not None:
            i, why = bad
            raise BinaryFormatError(f"op {i}: {why}", end)
    for name in ("initial_ids", "final_ids"):
        col = columns[name]
        if col and (max(col) >= n_values or min(col) < -1):
            raise BinaryFormatError(f"{name} out of range", end)
    if any(v < 0 for v in columns["initial_ids"]):
        raise BinaryFormatError("initial_ids must be valid", end)


# -- operation shape, checked over whole columns -----------------------
#: Kind code -> 1 if the kind reads (writes), else 0; codes past the
#: table map to 2, which matches no id flag.
_READS_BY_CODE = bytes(k.reads for k in KINDS_BY_CODE).ljust(256, b"\x02")
_WRITES_BY_CODE = bytes(k.writes for k in KINDS_BY_CODE).ljust(256, b"\x02")
#: Top byte of a little-endian i32 value id -> 1 if the id names a
#: value, 0 for the -1 of "no value" (once ids are known to be >= -1,
#: the top byte is 0xff exactly for -1).
_NAMES_VALUE = b"\x01" * 255 + b"\x00"
_RMW = KIND_CODES[OpKind.RMW]
_SUCC = (1).__add__


def _shapes_agree(kinds: bytes, read_le: bytes, write_le: bytes) -> bool:
    """Whether every op carries a read id exactly when its kind reads
    and a write id exactly when it writes: two table lookups over the
    whole columns (``kinds`` one byte per op, the ids as little-endian
    i32 bytes, every id already checked to be >= -1)."""
    return kinds.translate(_READS_BY_CODE) == read_le[3::4].translate(
        _NAMES_VALUE
    ) and kinds.translate(_WRITES_BY_CODE) == write_le[3::4].translate(
        _NAMES_VALUE
    )


def _misshapen_op(kinds, read_vids, write_vids, values):
    """``(position, reason)`` of the first op the public ``Operation``
    constructor would refuse, or a kind whose value ids disagree with
    it; None when every op is well-shaped.  Ids are range-checked."""
    if _shapes_agree(kinds.tobytes(), _le(read_vids), _le(write_vids)):
        if _RMW not in kinds or None not in values:
            return None
    for i, (kc, rv, wv) in enumerate(zip(kinds, read_vids, write_vids)):
        kind = KINDS_BY_CODE[kc]
        if (rv >= 0) != kind.reads or (wv >= 0) != kind.writes:
            return i, f"value ids disagree with kind {kind.value!r}"
        if kc == _RMW and values[rv] is None and values[wv] is None:
            return i, "an RMW must carry read and written values"
    return None


def sniff(data: bytes) -> bool:
    """True when ``data`` starts with the binary trace magic."""
    return data[: len(MAGIC)] == MAGIC


# ---------------------------------------------------------------------
# Framed commit-order stream (the online monitor's wire format)
# ---------------------------------------------------------------------
# The REPROBIN format above is a snapshot: every blob's offset is
# computed from the header, so nothing can be decoded until the trace
# is complete.  A *monitor* needs the opposite: a growing file (or
# pipe) decodable frame by frame, in commit order, without re-parsing
# what it already consumed.  The stream format is:
#
# .. code-block:: text
#
#     offset  size  field
#     0       8     magic  b"REPROSTM"
#     8       2     version (u16 LE) — currently 1
#     10      2     reserved (must be 0)
#     12      4     n_procs (u32)
#     16      -     frames
#
# Each frame is a 5-byte header ``<type u8, payload_len u32>`` followed
# by the payload:
#
# ``INTERN``   UTF-8 JSON ``{"addrs": [...], "values": [...]}`` —
#              entries *appended* to the reader's intern tables (the
#              JSON format's value encoding).
# ``OPS``      ``count u32``, then columns back-to-back, each ``count``
#              long, in commit order: kinds (u8), procs (u32), addr_ids
#              (u32), read_vids (i32), write_vids (i32).  Program-order
#              indices are implicit: arrival order per process.
# ``INITIAL``  ``count u32`` + count × (addr_id u32, value_id i32).
# ``FINAL``    same layout; usually the second-to-last frame.
# ``END``      empty payload; the stream is complete.
#
# A reader can always make progress on any prefix: a trailing partial
# frame simply stays buffered until more bytes arrive — that is what
# lets ``repro monitor`` tail a growing file.

STREAM_MAGIC = b"REPROSTM"
STREAM_VERSION = 1

_STREAM_HEADER = struct.Struct("<8sHHI")
STREAM_HEADER_SIZE = _STREAM_HEADER.size  # 16
_FRAME_HEADER = struct.Struct("<BI")

FRAME_INTERN = 1
FRAME_OPS = 2
FRAME_INITIAL = 3
FRAME_FINAL = 4
FRAME_END = 5

#: Sanity cap on a single frame's payload (a corrupt length field must
#: not make a tailing monitor buffer gigabytes before erroring).
MAX_FRAME_PAYLOAD = 1 << 28


def sniff_stream(data: bytes) -> bool:
    """True when ``data`` starts with the framed-stream magic."""
    return data[: len(STREAM_MAGIC)] == STREAM_MAGIC


def _le(a: "array") -> bytes:
    if sys.byteorder == "big":  # pragma: no cover
        a = array(a.typecode, a)
        a.byteswap()
    return a.tobytes()


class StreamWriter:
    """Encode a commit-ordered operation stream as framed chunks.

    ``out`` is any binary file-like object with ``write``.  Appended
    operations are buffered and flushed as one OPS frame per ``chunk``
    operations (plus an INTERN delta frame for any addresses/values
    first seen since the previous flush).  :meth:`finish` flushes,
    writes the FINAL constraints (if any) and the END frame.
    """

    def __init__(self, out, n_procs: int, chunk: int = 1024):
        if n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {n_procs}")
        self._out = out
        self.n_procs = n_procs
        self.chunk = max(1, chunk)
        self._addr_id: dict = {}
        self._value_id: dict = {}
        self._sent_addrs = 0
        self._sent_values = 0
        self._new_addrs: list = []
        self._new_values: list = []
        self._kinds = array("B")
        self._procs = array("I")
        self._addr_ids = array("I")
        self._read_vids = array("i")
        self._write_vids = array("i")
        self._finished = False
        out.write(
            _STREAM_HEADER.pack(STREAM_MAGIC, STREAM_VERSION, 0, n_procs)
        )

    # -- interning --------------------------------------------------------
    def _aid(self, a) -> int:
        i = self._addr_id.get(a)
        if i is None:
            i = self._addr_id[a] = self._sent_addrs + len(self._new_addrs)
            self._new_addrs.append(a)
        return i

    def _vid(self, v) -> int:
        i = self._value_id.get(v)
        if i is None:
            i = self._value_id[v] = self._sent_values + len(self._new_values)
            self._new_values.append(v)
        return i

    def _frame(self, ftype: int, payload: bytes) -> None:
        self._out.write(_FRAME_HEADER.pack(ftype, len(payload)))
        self._out.write(payload)

    def _flush_intern(self) -> None:
        if not self._new_addrs and not self._new_values:
            return
        payload = json.dumps(
            {
                "addrs": [_encode_value(a) for a in self._new_addrs],
                "values": [_encode_value(v) for v in self._new_values],
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._frame(FRAME_INTERN, payload)
        self._sent_addrs += len(self._new_addrs)
        self._sent_values += len(self._new_values)
        self._new_addrs = []
        self._new_values = []

    def _constraints(self, ftype: int, mapping) -> None:
        if not mapping:
            return
        pairs = [(self._aid(a), self._vid(v)) for a, v in mapping.items()]
        self._flush_intern()
        payload = struct.pack("<I", len(pairs)) + b"".join(
            struct.pack("<Ii", ai, vi) for ai, vi in pairs
        )
        self._frame(ftype, payload)

    # -- public API -------------------------------------------------------
    def set_initial(self, initial) -> None:
        """Emit the INITIAL constraints (call before any appends)."""
        self._constraints(FRAME_INITIAL, initial)

    def append(
        self, kind, proc: int, addr, value_read=None, value_written=None
    ) -> None:
        """Buffer one committed operation (kind is an
        :class:`~repro.core.types.OpKind`)."""
        from repro.core.columnar import KIND_CODES

        if self._finished:
            raise ValueError("stream already finished")
        if not (0 <= proc < self.n_procs):
            raise ValueError(
                f"proc {proc} outside the declared 0..{self.n_procs - 1}"
            )
        self._kinds.append(KIND_CODES[kind])
        self._procs.append(proc)
        self._addr_ids.append(self._aid(addr))
        self._read_vids.append(self._vid(value_read) if kind.reads else -1)
        self._write_vids.append(
            self._vid(value_written) if kind.writes else -1
        )
        if len(self._kinds) >= self.chunk:
            self.flush()

    def append_op(self, op) -> None:
        self.append(
            op.kind, op.proc, op.addr,
            value_read=op.value_read, value_written=op.value_written,
        )

    def flush(self) -> None:
        """Emit buffered operations as an OPS frame (preceded by the
        INTERN delta naming anything they reference)."""
        if not self._kinds:
            return
        self._flush_intern()
        n = len(self._kinds)
        payload = b"".join(
            (
                struct.pack("<I", n),
                _le(self._kinds),
                _le(self._procs),
                _le(self._addr_ids),
                _le(self._read_vids),
                _le(self._write_vids),
            )
        )
        self._frame(FRAME_OPS, payload)
        self._kinds = array("B")
        self._procs = array("I")
        self._addr_ids = array("I")
        self._read_vids = array("i")
        self._write_vids = array("i")

    def finish(self, final=None) -> None:
        """Flush, write FINAL constraints (if given) and the END frame."""
        if self._finished:
            return
        self.flush()
        self._constraints(FRAME_FINAL, final or {})
        self._frame(FRAME_END, b"")
        self._finished = True


def dump_stream(out, schedule, n_procs: int, initial=None, final=None,
                chunk: int = 1024) -> None:
    """Write a complete commit-ordered stream in one call.

    ``schedule`` is the commit order — any iterable of operations
    interleaved across processes (each process's subsequence in program
    order)."""
    w = StreamWriter(out, n_procs, chunk=chunk)
    w.set_initial(initial or {})
    for op in schedule:
        w.append_op(op)
    w.finish(final or {})


class FrameReader:
    """Incremental decoder for the framed stream format.

    Feed raw bytes as they arrive (:meth:`feed`), then drain decoded
    events (:meth:`events`).  A trailing partial frame stays buffered —
    feeding more bytes later resumes exactly where decoding stopped, so
    a monitor can tail a growing file without re-parsing.  Events:

    * ``("initial", {addr: value})``
    * ``("op", Operation)`` — program-order index assigned per process
      in arrival order
    * ``("final", {addr: value})``
    * ``("end", None)``

    Malformed input raises :class:`BinaryFormatError` with the absolute
    byte offset of the problem.

    An OPS frame is checked once, as columns; a well-formed frame's
    operations are then built lazily, as the events are drawn, through
    the trusted constructor.  A frame that fails the column check is
    decoded op by op instead, so it yields every operation before the
    first bad one and then raises.
    """

    def __init__(self):
        self._buf = bytearray()
        self._consumed = 0  # absolute offset of _buf[0] in the stream
        self._header_done = False
        self.n_procs: int | None = None
        self.addrs: list = []
        self.values: list = []
        #: None, then ``values`` (append-only): value id ``v`` sits at
        #: ``v + 1``, so the -1 of "no value" maps to None.
        self._none_then_values: list = [None]
        #: Whether ``values`` holds None (an RMW may not read and write
        #: it both, so such a frame takes the checked path).
        self._none_interned = False
        #: Per process, the next program-order index to assign.
        self._next_index: list = []
        self.ended = False

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decodable (partial frame)."""
        return len(self._buf)

    @property
    def bytes_consumed(self) -> int:
        """Absolute stream offset decoded so far — the byte position a
        truncation diagnostic should point at when the producer dies
        mid-frame (``repro monitor --follow`` on a pipe, the service's
        ingestion front-end)."""
        return self._consumed

    def _error(self, message: str, rel: int = 0) -> BinaryFormatError:
        return BinaryFormatError(message, self._consumed + rel)

    def _parse_header(self) -> bool:
        if len(self._buf) < STREAM_HEADER_SIZE:
            return False
        magic, version, reserved, n_procs = _STREAM_HEADER.unpack_from(
            self._buf, 0
        )
        if magic != STREAM_MAGIC:
            raise self._error(
                f"bad stream magic {bytes(magic)!r} "
                f"(expected {STREAM_MAGIC!r})"
            )
        if version != STREAM_VERSION:
            raise self._error(f"unsupported stream version {version}", 8)
        if reserved != 0:
            raise self._error("nonzero reserved field", 10)
        if n_procs < 1:
            raise self._error("n_procs must be >= 1", 12)
        self.n_procs = n_procs
        self._next_index = [count() for _ in range(n_procs)]
        del self._buf[:STREAM_HEADER_SIZE]
        self._consumed += STREAM_HEADER_SIZE
        self._header_done = True
        return True

    def events(self):
        """Yield every event decodable from the buffered bytes."""
        if not self._header_done and not self._parse_header():
            return
        hdr = _FRAME_HEADER
        while True:
            if len(self._buf) < hdr.size:
                return
            ftype, length = hdr.unpack_from(self._buf, 0)
            if length > MAX_FRAME_PAYLOAD:
                raise self._error(
                    f"frame payload length {length} exceeds the "
                    f"{MAX_FRAME_PAYLOAD}-byte cap", 1
                )
            if self.ended:
                raise self._error("data after the END frame")
            total = hdr.size + length
            if len(self._buf) < total:
                return
            payload = bytes(self._buf[hdr.size:total])
            del self._buf[:total]
            start = self._consumed + hdr.size
            self._consumed += total
            yield from self._decode(ftype, payload, start)

    def _decode(self, ftype: int, payload: bytes, start: int):
        """One frame's events, as an iterable."""
        if ftype == FRAME_OPS:
            return self._decode_ops(payload, start)
        if ftype == FRAME_INTERN:
            self._decode_intern(payload, start)
            return ()
        if ftype in (FRAME_INITIAL, FRAME_FINAL):
            tag = "initial" if ftype == FRAME_INITIAL else "final"
            return ((tag, self._decode_constraints(payload, start)),)
        if ftype == FRAME_END:
            if payload:
                raise BinaryFormatError("END frame carries a payload", start)
            self.ended = True
            return (("end", None),)
        raise BinaryFormatError(f"unknown frame type {ftype}", start - 5)

    def _decode_intern(self, payload: bytes, start: int) -> None:
        try:
            intern = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise BinaryFormatError(
                f"malformed intern frame: {e}", start
            ) from e
        if (
            not isinstance(intern, dict)
            or not isinstance(intern.get("addrs"), list)
            or not isinstance(intern.get("values"), list)
        ):
            raise BinaryFormatError("intern tables must be lists", start)
        try:
            addrs = [_decode_value(a) for a in intern["addrs"]]
            values = [_decode_value(v) for v in intern["values"]]
        except ValueError as e:
            raise BinaryFormatError(
                f"bad interned value: {e}", start
            ) from e
        self.addrs.extend(addrs)
        self.values.extend(values)
        self._none_then_values.extend(values)
        if None in values:
            self._none_interned = True

    def _decode_ops(self, payload: bytes, start: int):
        if len(payload) < 4:
            raise BinaryFormatError("truncated OPS frame", start)
        (n,) = struct.unpack_from("<I", payload, 0)
        expect = 4 + n * (1 + 4 + 4 + 4 + 4)
        if len(payload) != expect:
            raise BinaryFormatError(
                f"OPS frame declares {n} ops but carries "
                f"{len(payload)} payload bytes (expected {expect})",
                start,
            )
        cols = []
        pos = 4
        for typecode, size in (("B", 1), ("I", 4), ("I", 4), ("i", 4), ("i", 4)):
            col = array(typecode)
            col.frombytes(payload[pos:pos + n * size])
            if sys.byteorder == "big":  # pragma: no cover
                col.byteswap()
            cols.append(col)
            pos += n * size
        if not n:
            return ()
        kinds, procs, addr_ids, read_vids, write_vids = cols
        n_values = len(self.values)
        reads_at, writes_at = 4 + 9 * n, 4 + 13 * n
        if not (
            max(kinds) < len(KINDS_BY_CODE)
            and max(procs) < self.n_procs
            and max(addr_ids) < len(self.addrs)
            and min(read_vids) >= -1 and max(read_vids) < n_values
            and min(write_vids) >= -1 and max(write_vids) < n_values
            and _shapes_agree(
                payload[4:4 + n],
                payload[reads_at:writes_at],
                payload[writes_at:],
            )
            and not (self._none_interned and _RMW in kinds)
        ):
            return self._decode_ops_checked(cols, start)
        # Every op is well-formed: build them as the events are drawn.
        value = self._none_then_values.__getitem__
        return zip(
            repeat("op"),
            map(
                _trusted_operation,
                map(KINDS_BY_CODE.__getitem__, kinds),
                map(self.addrs.__getitem__, addr_ids),
                procs,
                map(next, map(self._next_index.__getitem__, procs)),
                map(value, map(_SUCC, read_vids)),
                map(value, map(_SUCC, write_vids)),
            ),
        )

    def _decode_ops_checked(self, cols, start: int):
        """An OPS frame that failed the column check, op by op: every
        operation before the first bad one, then the error."""
        kinds, procs, addr_ids, read_vids, write_vids = cols
        n_addrs, n_values = len(self.addrs), len(self.values)
        for i in range(len(kinds)):
            kc = kinds[i]
            if kc >= len(KINDS_BY_CODE):
                raise BinaryFormatError(f"unknown kind code {kc}", start)
            p = procs[i]
            if p >= self.n_procs:
                raise BinaryFormatError(
                    f"proc {p} outside the declared 0..{self.n_procs - 1}",
                    start,
                )
            ai, rv, wv = addr_ids[i], read_vids[i], write_vids[i]
            if ai >= n_addrs or rv >= n_values or wv >= n_values:
                raise BinaryFormatError(
                    "op references an unseen intern id", start
                )
            kind = KINDS_BY_CODE[kc]
            if (rv >= 0) != kind.reads or (wv >= 0) != kind.writes:
                raise BinaryFormatError(
                    f"value ids disagree with kind {kind.value!r}", start
                )
            yield (
                "op",
                Operation(
                    kind,
                    self.addrs[ai],
                    p,
                    next(self._next_index[p]),
                    value_read=self.values[rv] if rv >= 0 else None,
                    value_written=self.values[wv] if wv >= 0 else None,
                ),
            )

    def _decode_constraints(self, payload: bytes, start: int) -> dict:
        if len(payload) < 4:
            raise BinaryFormatError("truncated constraints frame", start)
        (n,) = struct.unpack_from("<I", payload, 0)
        if len(payload) != 4 + n * 8:
            raise BinaryFormatError(
                f"constraints frame declares {n} pairs but carries "
                f"{len(payload)} payload bytes", start
            )
        out = {}
        for i in range(n):
            ai, vi = struct.unpack_from("<Ii", payload, 4 + i * 8)
            if ai >= len(self.addrs) or not (0 <= vi < len(self.values)):
                raise BinaryFormatError(
                    "constraint references an unseen intern id", start
                )
            out[self.addrs[ai]] = self.values[vi]
        return out


def loads_stream(data: bytes):
    """Decode one *complete* REPROSTM stream into ``(execution,
    commit_order)`` — the batch counterpart of :class:`FrameReader`,
    used when a finished stream file is handed to an offline command
    (``repro verify``)."""
    reader = FrameReader()
    reader.feed(data)
    initial: dict = {}
    final: dict = {}
    commit_order = []
    for tag, payload in reader.events():
        if tag == "op":
            commit_order.append(payload)
        elif tag == "initial":
            initial.update(payload)
        elif tag == "final":
            final.update(payload)
    if not reader.ended:
        raise BinaryFormatError(
            "stream is incomplete (no END frame; "
            f"{reader.pending_bytes} bytes still buffered)",
            reader._consumed,
        )
    if reader.pending_bytes:
        raise BinaryFormatError(
            f"{reader.pending_bytes} trailing bytes after the END frame",
            reader._consumed,
        )
    histories = [[] for _ in range(reader.n_procs)]
    for op in commit_order:
        histories[op.proc].append(op)
    execution = Execution.from_ops(histories, initial=initial, final=final)
    return execution, commit_order


def save_bin(execution: Execution, path) -> None:
    """Write an execution to ``path`` in the binary trace format."""
    Path(path).write_bytes(dumps_bin(execution))


def load_bin(path) -> Execution:
    """Read an execution from a binary trace file."""
    return loads_bin(Path(path).read_bytes())
