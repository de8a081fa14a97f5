"""Unit tests for the execution data model."""

import pickle

import pytest

from repro.core.types import (
    INITIAL,
    Execution,
    OpKind,
    Operation,
    ProcessHistory,
    read,
    rmw,
    schedule_str,
    write,
)


class TestOperation:
    def test_read_constructor(self):
        op = read("x", 5, proc=1, index=2)
        assert op.kind is OpKind.READ
        assert op.value_read == 5 and op.value_written is None
        assert op.uid == (1, 2)

    def test_write_constructor(self):
        op = write("x", 7)
        assert op.kind.writes and not op.kind.reads

    def test_rmw_reads_and_writes(self):
        op = rmw("x", 1, 2)
        assert op.kind.reads and op.kind.writes

    def test_invalid_read_with_written_value(self):
        with pytest.raises(ValueError, match="^a READ has no written value$"):
            Operation(OpKind.READ, "x", 0, 0, value_written=1)

    def test_invalid_write_with_read_value(self):
        with pytest.raises(ValueError, match="^a WRITE has no read value$"):
            Operation(OpKind.WRITE, "x", 0, 0, value_read=1)

    def test_rmw_requires_values(self):
        with pytest.raises(
            ValueError, match="^an RMW must carry read and written values$"
        ):
            Operation(OpKind.RMW, "x", 0, 0)

    def test_str_forms(self):
        assert str(read("x", 1, 0, 0)) == "P0.R(x,1)"
        assert str(write("x", 2, 1, 0)) == "P1.W(x,2)"
        assert str(rmw("x", 1, 2, 2, 3)) == "P2.RW(x,1,2)"

    def test_sync_kinds(self):
        acq = Operation(OpKind.ACQUIRE, "l", 0, 0)
        assert acq.kind.is_sync and not acq.kind.reads and not acq.kind.writes


class TestOpKindFlags:
    @pytest.mark.parametrize(
        "kind, reads, writes, is_sync",
        [
            (OpKind.READ, True, False, False),
            (OpKind.WRITE, False, True, False),
            (OpKind.RMW, True, True, False),
            (OpKind.ACQUIRE, False, False, True),
            (OpKind.RELEASE, False, False, True),
        ],
    )
    def test_flag_table(self, kind, reads, writes, is_sync):
        assert (kind.reads, kind.writes, kind.is_sync) == (reads, writes, is_sync)

    def test_table_covers_every_kind(self):
        assert [k.value for k in OpKind] == ["R", "W", "RW", "ACQ", "REL"]

    def test_members_survive_pickling(self):
        for kind in OpKind:
            again = pickle.loads(pickle.dumps(kind))
            assert again is kind and again.reads is kind.reads


class TestOperationModel:
    """``Operation`` is a slotted frozen dataclass with a hand-written,
    validating ``__init__``."""

    OPS = [
        read("x", 5, proc=1, index=2),
        write("y", INITIAL, proc=0, index=3),
        rmw("z", 1, 2, proc=2, index=0),
        Operation(OpKind.ACQUIRE, "l", 3, 4),
        Operation(OpKind.RELEASE, ("a", 1), 3, 5),
    ]

    def test_rmw_with_one_value_is_accepted(self):
        assert Operation(OpKind.RMW, "x", 0, 0, value_read=1).value_written is None

    def test_frozen_and_slotted(self):
        import dataclasses

        op = read("x", 1)
        # Fields and other names alike, on set and on delete, on every
        # supported version.
        for name in ("value_read", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=name):
                setattr(op, name, 2)
            with pytest.raises(dataclasses.FrozenInstanceError, match=name):
                delattr(op, name)
        assert op == read("x", 1)
        assert not hasattr(op, "__dict__")
        assert Operation.__slots__ == (
            "kind", "addr", "proc", "index", "value_read", "value_written"
        )

    def test_fields_in_order(self):
        import dataclasses

        op = rmw("z", 1, 2, proc=2, index=7)
        assert [f.name for f in dataclasses.fields(op)] == list(Operation.__slots__)
        assert dataclasses.astuple(op) == (OpKind.RMW, "z", 2, 7, 1, 2)

    @pytest.mark.parametrize("op", OPS, ids=str)
    def test_equality_and_hash(self, op):
        twin = Operation(
            op.kind, op.addr, op.proc, op.index, op.value_read, op.value_written
        )
        assert twin == op and twin is not op and hash(twin) == hash(op)
        assert op != Operation(
            op.kind, op.addr, op.proc, op.index + 1, op.value_read,
            op.value_written,
        )
        assert len({op, twin}) == 1

    @pytest.mark.parametrize("op", OPS, ids=str)
    def test_pickle_round_trip(self, op):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(op, protocol=protocol))
            assert again == op and hash(again) == hash(op)
            assert again.kind is op.kind

    def test_initial_value_keeps_identity_through_pickle(self):
        op = pickle.loads(pickle.dumps(read("x", INITIAL)))
        assert op.value_read is INITIAL

    @pytest.mark.parametrize("op", OPS, ids=str)
    def test_deepcopy_and_copy(self, op):
        import copy

        assert copy.deepcopy(op) == op and copy.copy(op) == op

    def test_replace_revalidates(self):
        import dataclasses

        op = read("x", 1, proc=1, index=2)
        moved = dataclasses.replace(op, proc=3, index=0)
        assert moved == read("x", 1, proc=3, index=0)
        with pytest.raises(ValueError, match="a READ has no written value"):
            dataclasses.replace(op, value_written=2)

    def test_repr(self):
        assert repr(read("x", 1, proc=1, index=2)) == (
            "Operation(kind=<OpKind.READ: 'R'>, addr='x', proc=1, index=2, "
            "value_read=1, value_written=None)"
        )


class TestTrustedConstruction:
    """Decoders build operations through ``_trusted_operation``, which
    skips the shape checks; what it builds must be indistinguishable
    from the public constructor's operation."""

    @staticmethod
    def trusted(op):
        from repro.core.types import _trusted_operation

        return _trusted_operation(
            op.kind, op.addr, op.proc, op.index, op.value_read, op.value_written
        )

    @pytest.mark.parametrize("op", TestOperationModel.OPS, ids=str)
    def test_same_operation_as_the_public_constructor(self, op):
        made = self.trusted(op)
        assert type(made) is Operation
        assert made == op and op == made and made is not op
        assert hash(made) == hash(op)
        assert repr(made) == repr(op) and str(made) == str(op)
        assert made.uid == op.uid
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(made, protocol=protocol) == pickle.dumps(
                op, protocol=protocol
            )
            assert pickle.loads(pickle.dumps(made, protocol=protocol)) == op

    def test_every_kind_is_covered(self):
        assert {op.kind for op in TestOperationModel.OPS} == set(OpKind)

    def test_frozen_and_slotted(self):
        import dataclasses

        made = self.trusted(read("x", 1))
        for name in ("value_read", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=name):
                setattr(made, name, 2)
            with pytest.raises(dataclasses.FrozenInstanceError, match=name):
                delattr(made, name)
        assert not hasattr(made, "__dict__")
        assert dataclasses.replace(made, index=4) == read("x", 1, index=4)


class TestInitialSentinel:
    def test_singleton(self):
        from repro.core.types import _InitialValue

        assert _InitialValue() is INITIAL

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(INITIAL)) is INITIAL

    def test_repr(self):
        assert repr(INITIAL) == "INITIAL"


class TestProcessHistory:
    def test_mislabelled_ops_rejected(self):
        with pytest.raises(ValueError):
            ProcessHistory(0, (read("x", 1, proc=1, index=0),))
        with pytest.raises(ValueError):
            ProcessHistory(0, (read("x", 1, proc=0, index=5),))

    def test_iteration_and_indexing(self):
        h = ProcessHistory(0, (write("x", 1, 0, 0), read("x", 1, 0, 1)))
        assert len(h) == 2
        assert h[1].kind is OpKind.READ
        assert [op.index for op in h] == [0, 1]

    def test_ops_at(self):
        h = ProcessHistory(
            0, (write("x", 1, 0, 0), write("y", 2, 0, 1), read("x", 1, 0, 2))
        )
        assert len(h.ops_at("x")) == 2


class TestExecution:
    def make(self):
        return Execution.from_ops(
            [
                [write("x", 1), read("y", 0)],
                [read("x", 1)],
            ],
            initial={"x": 0, "y": 0},
            final={"x": 1},
        )

    def test_from_ops_relabels(self):
        ex = self.make()
        assert [op.uid for op in ex.histories[0]] == [(0, 0), (0, 1)]
        assert ex.histories[1][0].uid == (1, 0)

    def test_misnumbered_histories_rejected(self):
        h = ProcessHistory(1, (write("x", 1, 1, 0),))
        with pytest.raises(ValueError):
            Execution([h])

    def test_counts(self):
        ex = self.make()
        assert ex.num_processes == 2
        assert ex.num_ops == 3
        assert set(ex.addresses()) == {"x", "y"}

    def test_initial_and_final_values(self):
        ex = self.make()
        assert ex.initial_value("x") == 0
        assert ex.initial_value("unknown") is INITIAL
        assert ex.final_value("x") == 1
        assert ex.final_value("y") is None

    def test_restrict_to_address(self):
        ex = self.make()
        sub = ex.restrict_to_address("x")
        assert sub.num_ops == 2
        assert sub.addresses() == ["x"]
        # Original po indices preserved for matching back.
        assert sub.histories[0][0].index == 0
        assert sub.final == {"x": 1}

    def test_restrict_keeps_empty_histories(self):
        ex = self.make()
        sub = ex.restrict_to_address("y")
        assert sub.num_processes == 2
        assert len(sub.histories[1]) == 0

    def test_max_ops_per_process(self):
        assert self.make().max_ops_per_process() == 2

    def test_max_writes_per_value(self):
        ex = Execution.from_ops(
            [[write("x", 1), write("x", 1), write("x", 2)]]
        )
        assert ex.max_writes_per_value() == 2
        assert ex.max_writes_per_value("y") == 0

    def test_rmw_only(self):
        ex = Execution.from_ops([[rmw("x", 0, 1)], [rmw("x", 1, 2)]])
        assert ex.is_rmw_only()
        assert not self.make().is_rmw_only()

    def test_drop_sync_ops(self):
        ex = Execution.from_ops(
            [[Operation(OpKind.ACQUIRE, "l", 0, 0), write("x", 1, 0, 1)]]
        )
        stripped = ex.drop_sync_ops()
        assert stripped.num_ops == 1
        assert stripped.histories[0][0].index == 0  # renumbered

    def test_pretty_renders_columns(self):
        text = self.make().pretty()
        assert "h0" in text and "h1" in text and "W(x,1)" in text

    def test_single_address_predicate(self):
        assert not self.make().is_single_address()
        ex = Execution.from_ops([[write("x", 1)]])
        assert ex.is_single_address()


def test_schedule_str():
    ops = [write("x", 1, 0, 0), read("x", 1, 1, 0)]
    assert schedule_str(ops) == "P0.W(x,1) ; P1.R(x,1)"
