"""The binary trace format: round-trips, rejection, CLI sniffing.

``serialize_bin`` is the columnar on-disk format — a fixed header,
JSON-interned address/value tables, then the raw column blobs.  The
contract under test: lossless against both the object model and the
JSON format, deterministic (re-serialization is byte-identical), and
*loudly* rejecting of malformed input — every failure is a
:class:`BinaryFormatError` naming a byte offset, never a silent
mis-parse or an uncaught struct/JSON error.
"""

import pytest

from repro.cli import main
from repro.core import serialize_bin
from repro.core.serialize import dumps, load, loads
from repro.core.serialize_bin import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    BinaryFormatError,
    dumps_bin,
    load_bin,
    loads_bin,
    loads_bin_view,
    save_bin,
    sniff,
)
from repro.core.types import INITIAL, Execution, OpKind, Operation

from tests.conftest import make_arbitrary_execution
from tests.core.test_columnar import assert_same_execution


def sample_execution() -> Execution:
    return Execution.from_ops(
        [
            [
                Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
                Operation(OpKind.READ, "x", 0, 1, value_read=1),
                Operation(OpKind.ACQUIRE, "l", 0, 2),
            ],
            [
                Operation(OpKind.RMW, "x", 1, 0, value_read=1,
                          value_written=2),
                Operation(OpKind.READ, "y", 1, 1, value_read=INITIAL),
            ],
        ],
        initial={"x": 0},
        final={"x": 2},
    )


class TestRoundTrip:
    def test_sample(self):
        ex = sample_execution()
        assert_same_execution(ex, loads_bin(dumps_bin(ex)))

    def test_seeded_fuzz_binary_and_json_agree(self):
        """150 arbitrary traces: binary and JSON round-trips coincide."""
        for seed in range(150):
            ex = make_arbitrary_execution(
                seed,
                addresses=("x", 3, ("seg", 1)),
                values=(0, 1, None, True, ("t", 2)),
                sync_locks=("l",),
            )
            via_bin = loads_bin(dumps_bin(ex))
            via_json = loads(dumps(ex))
            assert_same_execution(ex, via_bin)
            assert_same_execution(via_bin, via_json)

    def test_reserialization_is_byte_identical(self):
        for seed in range(30):
            ex = make_arbitrary_execution(seed)
            blob = dumps_bin(ex)
            assert dumps_bin(loads_bin(blob)) == blob

    def test_gappy_subexecution(self):
        ex = make_arbitrary_execution(5, addresses=("x", "y"))
        sub = ex.restrict_to_address("x")
        assert_same_execution(sub, loads_bin(dumps_bin(sub)))

    def test_empty_execution(self):
        ex = Execution.from_ops([])
        assert_same_execution(ex, loads_bin(dumps_bin(ex)))

    def test_loaded_execution_reuses_view(self):
        """loads_bin wires the parsed view straight into the cache —
        verifying a binary trace never rebuilds the columns."""
        ex = loads_bin(dumps_bin(sample_execution()))
        view = ex.columnar()
        assert view.op_at(0) is ex.histories[0][0]

    def test_save_load_paths(self, tmp_path):
        ex = sample_execution()
        path = tmp_path / "trace.bin"
        save_bin(ex, path)
        assert_same_execution(ex, load_bin(path))
        # serialize.load sniffs the binary magic under any suffix.
        assert_same_execution(ex, load(path))


class TestSniff:
    def test_binary_recognized(self):
        assert sniff(dumps_bin(sample_execution()))

    def test_json_and_text_not_recognized(self):
        assert not sniff(dumps(sample_execution()).encode())
        assert not sniff(b"P0: W(x,1)\n")
        assert not sniff(b"")
        assert not sniff(MAGIC[:4])


class TestRejection:
    def test_every_truncation_is_rejected_with_offset(self):
        blob = dumps_bin(sample_execution())
        for cut in range(len(blob)):
            with pytest.raises(BinaryFormatError) as exc:
                loads_bin(blob[:cut])
            assert "at byte" in str(exc.value)
            assert 0 <= exc.value.offset <= len(blob)

    def test_bad_magic(self):
        blob = bytearray(dumps_bin(sample_execution()))
        blob[0] ^= 0xFF
        with pytest.raises(BinaryFormatError, match="magic"):
            loads_bin(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(dumps_bin(sample_execution()))
        blob[8] = VERSION + 1  # little-endian u16 at offset 8
        with pytest.raises(BinaryFormatError, match="version"):
            loads_bin(bytes(blob))

    def test_trailing_garbage(self):
        blob = dumps_bin(sample_execution()) + b"\x00garbage"
        with pytest.raises(BinaryFormatError, match="trailing"):
            loads_bin(blob)

    def test_corrupt_intern_table(self):
        blob = bytearray(dumps_bin(sample_execution()))
        blob[HEADER_SIZE] = 0xFF  # first byte of the intern JSON
        with pytest.raises(BinaryFormatError) as exc:
            loads_bin(bytes(blob))
        assert "at byte" in str(exc.value)

    def test_out_of_range_ids_rejected(self):
        """Column validation: a kind code past the enum is refused."""
        ex = sample_execution()
        blob = bytearray(dumps_bin(ex))
        view = loads_bin_view(bytes(blob))
        assert view.n_ops > 0
        # The kinds column is the first u8 blob; find it by locating
        # the serialized kind bytes and stamping an invalid code.
        kinds = bytes(view.kinds)
        at = bytes(blob).rindex(kinds)
        blob[at] = 0xEE
        with pytest.raises(BinaryFormatError):
            loads_bin(bytes(blob))


class TestCli:
    def test_verify_binary_trace(self, tmp_path, capsys):
        path = tmp_path / "ok.bin"
        save_bin(sample_execution(), path)
        assert main(["verify", str(path)]) == 0
        assert "holds" in capsys.readouterr().out

    def test_verify_binary_violation(self, tmp_path, capsys):
        ex = Execution.from_ops(
            [[Operation(OpKind.READ, "x", 0, 0, value_read=9)]],
            initial={"x": 0},
        )
        path = tmp_path / "bad.bin"
        save_bin(ex, path)
        assert main(["verify", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_truncated_binary_exits_2_with_offset(self, tmp_path, capsys):
        blob = dumps_bin(sample_execution())
        path = tmp_path / "cut.bin"
        path.write_bytes(blob[: len(blob) // 2])
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed binary trace" in err
        assert "at byte" in err

    def test_non_utf8_non_binary_exits_2(self, tmp_path, capsys):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\xff\xfe\x00\x01 not a trace")
        assert main(["verify", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err


# -- the framed stream format (REPROSTM) --------------------------------------


class TestStream:
    """The append-only framed stream: lossless, incrementally
    decodable from arbitrary byte chunks, and loud about truncation."""

    def _coherent(self, seed=7, n_ops=120, nproc=3):
        from tests.conftest import make_coherent_execution

        return make_coherent_execution(n_ops, nproc, seed, num_values=5)

    def test_round_trip_preserves_ops_and_order(self):
        import io

        from repro.core.serialize_bin import dump_stream, loads_stream

        ex, schedule = self._coherent()
        buf = io.BytesIO()
        dump_stream(
            buf, schedule, len(ex.histories), initial=ex.initial,
            final=ex.final, chunk=17,
        )
        decoded, order = loads_stream(buf.getvalue())
        assert_same_execution(decoded, ex)
        assert [
            (o.kind, o.proc, o.addr, o.value_read, o.value_written)
            for o in order
        ] == [
            (o.kind, o.proc, o.addr, o.value_read, o.value_written)
            for o in schedule
        ]

    def test_chunked_feed_equals_one_shot(self):
        import io
        import random

        from repro.core.serialize_bin import FrameReader, dump_stream

        ex, schedule = self._coherent(seed=11)
        buf = io.BytesIO()
        dump_stream(buf, schedule, len(ex.histories), initial=ex.initial, chunk=8)
        blob = buf.getvalue()

        whole = FrameReader()
        whole.feed(blob)
        expect = list(whole.events())

        rng = random.Random(99)
        piecewise = FrameReader()
        got = []
        i = 0
        while i < len(blob):
            j = min(len(blob), i + rng.randint(1, 23))
            piecewise.feed(blob[i:j])
            got.extend(piecewise.events())
            i = j
        assert piecewise.ended
        assert [t for t, _ in got] == [t for t, _ in expect]
        for (tag, a), (_, b) in zip(got, expect):
            if tag == "op":
                assert (a.kind, a.proc, a.addr) == (b.kind, b.proc, b.addr)
            else:
                assert a == b

    def test_partial_frame_stays_buffered(self):
        import io

        from repro.core.serialize_bin import FrameReader, dump_stream

        ex, schedule = self._coherent(seed=3, n_ops=40)
        buf = io.BytesIO()
        dump_stream(buf, schedule, len(ex.histories), chunk=10)
        blob = buf.getvalue()

        reader = FrameReader()
        reader.feed(blob[:-3])
        list(reader.events())
        assert not reader.ended
        assert reader.pending_bytes > 0
        reader.feed(blob[-3:])
        list(reader.events())
        assert reader.ended
        assert reader.pending_bytes == 0

    def test_loads_stream_rejects_missing_end(self):
        import io

        from repro.core.serialize_bin import dump_stream, loads_stream

        ex, schedule = self._coherent(seed=5, n_ops=30)
        buf = io.BytesIO()
        dump_stream(buf, schedule, len(ex.histories))
        with pytest.raises(BinaryFormatError, match="incomplete"):
            loads_stream(buf.getvalue()[:-1])

    def test_loads_stream_rejects_trailing_bytes(self):
        import io

        from repro.core.serialize_bin import dump_stream, loads_stream

        ex, schedule = self._coherent(seed=5, n_ops=30)
        buf = io.BytesIO()
        dump_stream(buf, schedule, len(ex.histories))
        with pytest.raises(BinaryFormatError, match="trailing"):
            loads_stream(buf.getvalue() + b"junk")

    def test_sniff_stream(self):
        import io

        from repro.core.serialize_bin import (
            dump_stream,
            sniff_stream,
        )

        ex, schedule = self._coherent(seed=5, n_ops=10)
        buf = io.BytesIO()
        dump_stream(buf, schedule, len(ex.histories))
        assert sniff_stream(buf.getvalue())
        assert not sniff_stream(dumps_bin(ex))
        assert not sniff_stream(b"{}")

    def test_bad_magic_and_version_rejected(self):
        from repro.core.serialize_bin import (
            _STREAM_HEADER,
            STREAM_MAGIC,
            STREAM_VERSION,
            FrameReader,
        )

        reader = FrameReader()
        with pytest.raises(BinaryFormatError, match="magic"):
            reader.feed(b"NOTMAGIC" + b"\0" * 8)
            list(reader.events())
        reader = FrameReader()
        with pytest.raises(BinaryFormatError, match="version"):
            reader.feed(
                _STREAM_HEADER.pack(STREAM_MAGIC, STREAM_VERSION + 9, 0, 1)
            )
            list(reader.events())

    def test_writer_guards(self):
        import io

        from repro.core.serialize_bin import StreamWriter

        with pytest.raises(ValueError, match="n_procs"):
            StreamWriter(io.BytesIO(), 0)
        w = StreamWriter(io.BytesIO(), 2)
        with pytest.raises(ValueError, match="outside the declared"):
            w.append(OpKind.WRITE, 5, "x", value_written=1)
        w.finish()
        with pytest.raises(ValueError, match="finished"):
            w.append(OpKind.WRITE, 0, "x", value_written=1)


# ---------------------------------------------------------------------
# Kind/value-id shape and malformed OPS frames
# ---------------------------------------------------------------------
def _bin_column_offset(blob: bytes, name: str) -> int:
    """Byte offset of column ``name`` in a REPROBIN blob (every blob's
    offset follows from the header)."""
    from repro.core.serialize_bin import _BLOBS, _HEADER

    fields = _HEADER.unpack_from(blob, 0)
    n_procs, n_ops, n_addrs, intern_len = (
        fields[3], fields[4], fields[5], fields[9]
    )
    counts = {"ops": n_ops, "procs+1": n_procs + 1, "addrs": n_addrs}
    pos = HEADER_SIZE + intern_len + (8 - intern_len % 8) % 8
    for col, _tc, size, cnt in _BLOBS:
        if col == name:
            return pos
        pos += counts[cnt] * size
    raise KeyError(name)


def _stamp_i32(blob: bytearray, at: int, value: int) -> None:
    import struct

    struct.pack_into("<i", blob, at, value)


class TestShapeRejection:
    """REPROBIN checks each op's value ids against its kind: loading
    builds operations without the constructor's checks, so a mismatch
    must fail as a BinaryFormatError, never load or escape as a bare
    ValueError."""

    # sample_execution, process-major: W(x,1) R(x,1) ACQ(l) | RW(x,1,2) R(y,init)
    def _stamped(self, ex, column: str, op: int, value: int) -> bytes:
        blob = bytearray(dumps_bin(ex))
        _stamp_i32(blob, _bin_column_offset(blob, column) + 4 * op, value)
        return bytes(blob)

    def test_read_without_read_id_rejected(self):
        blob = self._stamped(sample_execution(), "read_vids", 1, -1)
        with pytest.raises(BinaryFormatError, match="op 1: value ids disagree "
                           "with kind 'R'"):
            loads_bin(blob)

    def test_write_with_read_id_rejected(self):
        blob = self._stamped(sample_execution(), "read_vids", 0, 0)
        with pytest.raises(ValueError) as exc:
            loads_bin(blob)
        assert type(exc.value) is BinaryFormatError
        assert "op 0: value ids disagree with kind 'W'" in str(exc.value)

    def test_sync_op_with_a_value_rejected(self):
        blob = self._stamped(sample_execution(), "write_vids", 2, 0)
        with pytest.raises(BinaryFormatError, match="kind 'ACQ'"):
            loads_bin_view(blob)

    def test_rmw_of_none_to_none_rejected(self):
        ex = Execution.from_ops([[
            Operation(OpKind.RMW, "x", 0, 0, value_read=1, value_written=2),
            Operation(OpKind.WRITE, "y", 0, 1, value_written=None),
        ]])
        none_id = ex.columnar().values.index(None)
        blob = bytearray(dumps_bin(ex))
        for column in ("read_vids", "write_vids"):
            _stamp_i32(blob, _bin_column_offset(blob, column), none_id)
        with pytest.raises(BinaryFormatError, match="op 0: an RMW must carry"):
            loads_bin(bytes(blob))

    def test_a_lone_none_value_still_loads(self):
        ex = Execution.from_ops([[
            Operation(OpKind.RMW, "x", 0, 0, value_read=None, value_written=2),
            Operation(OpKind.WRITE, "y", 0, 1, value_written=None),
            Operation(OpKind.READ, "y", 0, 2, value_read=None),
        ]])
        assert_same_execution(loads_bin(dumps_bin(ex)), ex)


class TestMalformedOpsFrame:
    """A bad op at position k of an OPS frame: the reader yields ops
    0..k-1, then raises the BinaryFormatError it always raised for that
    op, at the frame payload's offset.  A frame is checked once, as
    columns; only a frame that fails that check is decoded op by op."""

    N_PROCS = 3

    def _stream(self):
        import io

        from repro.core.serialize_bin import dump_stream
        from tests.conftest import make_coherent_execution

        ex, schedule = make_coherent_execution(
            40, self.N_PROCS, 17, addresses=("x", "y"), num_values=4,
            rmw_fraction=0.2,
        )
        buf = io.BytesIO()
        dump_stream(buf, schedule, self.N_PROCS, chunk=1000)
        return bytearray(buf.getvalue()), schedule

    @staticmethod
    def _ops_frame(blob: bytes) -> tuple[int, int]:
        """(payload offset, op count) of the stream's one OPS frame."""
        from repro.core.serialize_bin import (
            _FRAME_HEADER,
            FRAME_OPS,
            STREAM_HEADER_SIZE,
        )

        pos = STREAM_HEADER_SIZE
        while True:
            ftype, length = _FRAME_HEADER.unpack_from(blob, pos)
            pos += _FRAME_HEADER.size
            if ftype == FRAME_OPS:
                return pos, int.from_bytes(blob[pos:pos + 4], "little")
            pos += length

    @staticmethod
    def _decode(blob: bytes):
        """Every op decoded before the first error, and the error."""
        from repro.core.serialize_bin import FrameReader

        reader = FrameReader()
        reader.feed(bytes(blob))
        ops = []
        try:
            for tag, payload in reader.events():
                if tag == "op":
                    ops.append(payload)
        except ValueError as err:
            return ops, err
        return ops, None

    def _stamp(self, blob, column: str, k: int, value: int) -> int:
        """Overwrite op ``k``'s entry of ``column``; returns the
        payload offset."""
        import struct

        at, n = self._ops_frame(blob)
        col_at = {
            "kinds": (4, "<B", 1), "procs": (4 + n, "<I", 4),
            "addr_ids": (4 + 5 * n, "<I", 4),
            "read_vids": (4 + 9 * n, "<i", 4),
            "write_vids": (4 + 13 * n, "<i", 4),
        }
        base, fmt, size = col_at[column]
        struct.pack_into(fmt, blob, at + base + k * size, value)
        return at

    def _position(self, schedule, kind: OpKind, nth: int) -> int:
        return [i for i, op in enumerate(schedule) if op.kind is kind][nth]

    CASES = [
        # (kind of the op stamped, column, value, the op-by-op decoder's message)
        (OpKind.WRITE, "kinds", 9, "unknown kind code 9"),
        (OpKind.READ, "procs", 3, "proc 3 outside the declared 0..2"),
        (OpKind.READ, "addr_ids", 7, "op references an unseen intern id"),
        (OpKind.READ, "read_vids", 99, "op references an unseen intern id"),
        (OpKind.RMW, "write_vids", 99, "op references an unseen intern id"),
        (OpKind.READ, "read_vids", -1, "value ids disagree with kind 'R'"),
        (OpKind.WRITE, "read_vids", 0, "value ids disagree with kind 'W'"),
        (OpKind.RMW, "write_vids", -1, "value ids disagree with kind 'RW'"),
        (OpKind.WRITE, "kinds", 3, "value ids disagree with kind 'ACQ'"),
    ]

    @pytest.mark.parametrize("nth", [0, 1, -1])
    @pytest.mark.parametrize(
        "kind,column,value,message", CASES,
        ids=[f"{c[0].value}-{c[1]}={c[2]}" for c in CASES],
    )
    def test_prefix_then_the_same_error(self, kind, column, value, message,
                                        nth):
        clean, schedule = self._stream()
        good, err = self._decode(clean)
        assert err is None and len(good) == len(schedule)
        k = self._position(schedule, kind, nth)
        blob = bytearray(clean)
        at = self._stamp(blob, column, k, value)
        ops, err = self._decode(blob)
        assert ops == good[:k]
        assert type(err) is BinaryFormatError
        assert str(err) == f"{message} at byte {at}"
        assert err.offset == at

    def test_ids_below_minus_one_decode_as_before(self):
        """A kind that carries no read value ignores its read id unless
        it names a value: -5 on a WRITE decodes like -1 (the op-by-op
        path's rule), so the frame yields every op unchanged."""
        clean, schedule = self._stream()
        good, _ = self._decode(clean)
        blob = bytearray(clean)
        self._stamp(blob, "read_vids", self._position(schedule, OpKind.WRITE, 2), -5)
        ops, err = self._decode(blob)
        assert err is None and ops == good

    def test_rmw_of_none_to_none_fails_in_the_constructor(self):
        """The column check sends a frame with an RMW and an interned
        None down the op-by-op path, where the public constructor still
        refuses an RMW of None to None."""
        import io

        from repro.core.serialize_bin import StreamWriter

        buf = io.BytesIO()
        w = StreamWriter(buf, 1)
        w.append(OpKind.WRITE, 0, "x", value_written=None)
        w.append(OpKind.RMW, 0, "x", value_read=None, value_written=1)
        w.append(OpKind.RMW, 0, "x", value_read=None, value_written=None)
        w.finish()
        ops, err = self._decode(buf.getvalue())
        assert [op.kind for op in ops] == [OpKind.WRITE, OpKind.RMW]
        assert type(err) is ValueError
        assert "an RMW must carry read and written values" in str(err)

    def test_fast_path_builds_the_public_constructors_operations(self):
        clean, schedule = self._stream()
        ops, err = self._decode(clean)
        assert err is None
        assert ops == schedule
        assert all(type(op) is Operation for op in ops)
