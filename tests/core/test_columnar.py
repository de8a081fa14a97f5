"""The columnar data plane: structure-of-arrays views of executions.

:class:`~repro.core.columnar.ColumnarTrace` is the engine's internal
representation — every index the pre-pass, exact search and CNF encoder
consume is a slice of its parallel arrays — so the conversion must be
lossless in both directions, including the gappy program-order indices
of sub-executions.
"""

import random

import pytest

from repro.core.columnar import (
    COLUMN_TYPECODES,
    KIND_CODES,
    KINDS_BY_CODE,
    ColumnarTrace,
)
from repro.core.types import INITIAL, Execution, OpKind, Operation

from tests.conftest import make_arbitrary_execution


def ops_tuple(execution: Execution):
    return tuple(tuple(h.operations) for h in execution.histories)


def assert_same_execution(a: Execution, b: Execution) -> None:
    assert ops_tuple(a) == ops_tuple(b)
    assert a.initial == b.initial
    assert a.final == b.final


class TestRoundTrip:
    def test_seeded_fuzz(self):
        """200 arbitrary executions survive ex -> columnar -> ex."""
        for seed in range(200):
            ex = make_arbitrary_execution(
                seed,
                addresses=("x", "y", 7, ("seg", 3)),
                values=(0, 1, None, True, ("t", 1), INITIAL),
                sync_locks=("l",),
            )
            view = ColumnarTrace.from_execution(ex)
            assert_same_execution(ex, view.to_execution())

    def test_empty_execution(self):
        ex = Execution.from_ops([])
        assert_same_execution(ex, ex.columnar().to_execution())

    def test_final_only_and_initial_only_addresses(self):
        """Constraints on addresses no operation touches survive."""
        ex = Execution.from_ops(
            [[Operation(OpKind.WRITE, "x", 0, 0, value_written=1)]],
            initial={"x": 0, "ghost": 9},
            final={"x": 1, "phantom": 3},
        )
        rt = ex.columnar().to_execution()
        assert_same_execution(ex, rt)
        view = ex.columnar()
        # x is touched; phantom is final-constrained; ghost is neither.
        assert view.n_touched == 1
        assert view.n_constrained == 2
        assert set(view.addrs) == {"x", "phantom", "ghost"}

    def test_gappy_subexecution(self):
        """restrict_to_address keeps parent po indices; so must we."""
        for seed in range(40):
            ex = make_arbitrary_execution(seed, addresses=("x", "y", "z"))
            for addr in ("x", "y", "z"):
                sub = ex.restrict_to_address(addr)
                view = ColumnarTrace.from_execution(sub)
                rt = view.to_execution()
                assert_same_execution(sub, rt)
                # Indices really are the parent's (gappy) ones.
                for h in rt.histories:
                    for op in h.operations:
                        assert op.addr == addr
                        assert ex.histories[op.proc][op.index] == op

    def test_initial_sentinel_survives(self):
        """INITIAL-valued reads and defaults stay INITIAL, not None."""
        ex = Execution.from_ops(
            [[Operation(OpKind.READ, "x", 0, 0, value_read=INITIAL)]]
        )
        rt = ex.columnar().to_execution()
        assert rt.histories[0][0].value_read is INITIAL
        assert rt.initial_value("x") is INITIAL


class TestViewInvariants:
    @pytest.fixture
    def view(self):
        ex = make_arbitrary_execution(
            11, addresses=("x", "y"), sync_locks=("l",)
        )
        return ex.columnar()

    def test_execution_caches_view(self):
        ex = make_arbitrary_execution(3)
        assert ex.columnar() is ex.columnar()

    def test_view_not_pickled(self):
        """The cached view must not ride into process-pool workers."""
        import pickle

        ex = make_arbitrary_execution(3)
        ex.columnar()
        clone = pickle.loads(pickle.dumps(ex))
        assert getattr(clone, "_columnar", None) is None
        assert_same_execution(ex, clone)

    def test_proc_slices_partition_ops(self, view):
        positions = []
        for p in range(view.n_procs):
            s = view.proc_slice(p)
            positions.extend(range(s.start, s.stop))
            for pos in range(s.start, s.stop):
                assert view.procs[pos] == p
        assert positions == list(range(view.n_ops))

    def test_addr_ops_cover_every_position(self, view):
        seen = sorted(pos for col in view.addr_ops for pos in col)
        assert seen == list(range(view.n_ops))
        for ai, col in enumerate(view.addr_ops):
            for pos in col:
                assert view.addr_ids[pos] == ai

    def test_op_at_returns_source_operations(self, view):
        for pos in range(view.n_ops):
            op = view.op_at(pos)
            assert op.uid == (view.procs[pos], view.indices[pos])
            assert view.uid_pos[op.uid] == pos

    def test_kind_codes_consistent(self, view):
        for pos in range(view.n_ops):
            kind = KINDS_BY_CODE[view.kinds[pos]]
            assert KIND_CODES[kind] == view.kinds[pos]
            op = view.op_at(pos)
            assert op.kind is kind
            # Value columns mirror the kind's read/write capability.
            assert (view.read_vids[pos] >= 0) == kind.reads
            assert (view.write_vids[pos] >= 0) == kind.writes

    def test_values_interned(self):
        ex = Execution.from_ops(
            [
                [
                    Operation(OpKind.WRITE, "x", 0, 0, value_written=5),
                    Operation(OpKind.READ, "x", 0, 1, value_read=5),
                    Operation(OpKind.WRITE, "y", 0, 2, value_written=5),
                ]
            ]
        )
        view = ex.columnar()
        assert view.write_vids[0] == view.read_vids[1] == view.write_vids[2]

    def test_column_bytes_sizes(self, view):
        blobs = view.column_bytes()
        for name, typecode in COLUMN_TYPECODES.items():
            itemsize = {"B": 1, "i": 4, "I": 4, "q": 8, "Q": 8}[typecode]
            assert len(blobs[name]) == itemsize * view.n_ops, name

    def test_restrict_to_address_id_matches_object_path(self):
        ex = make_arbitrary_execution(29, addresses=("x", "y"))
        view = ex.columnar()
        for addr in ("x", "y"):
            ai = view.addr_index(addr)
            assert_same_execution(
                ex.restrict_to_address(addr), view.restrict_to_address_id(ai)
            )

    def test_restrict_on_a_view_without_source_operations(self):
        """A view decoded from bytes holds no Operation objects; its
        sub-executions are built from the columns alone, and match."""
        from repro.core.serialize_bin import dumps_bin, loads_bin_view

        for seed in range(30):
            ex = make_arbitrary_execution(
                seed, addresses=("x", "y"), sync_locks=("l",)
            )
            bare = loads_bin_view(dumps_bin(ex))
            assert bare._source_ops is None
            for ai, addr in enumerate(bare.addrs):
                sub = bare.restrict_to_address_id(ai)
                assert_same_execution(ex.restrict_to_address(addr), sub)
                built = ColumnarTrace.from_execution(sub)
                assert sub.columnar().column_bytes() == built.column_bytes()


class TestExecutionIntegration:
    def test_addresses_and_constrained_addresses_via_view(self):
        ex = Execution.from_ops(
            [[Operation(OpKind.WRITE, "b", 0, 0, value_written=1),
              Operation(OpKind.WRITE, "a", 0, 1, value_written=1)]],
            initial={"z": 0},
            final={"c": 2},
        )
        assert ex.addresses() == ["b", "a"]
        assert ex.constrained_addresses() == ["b", "a", "c"]

    def test_random_interleavings_round_trip(self):
        """Histories with wildly unequal lengths keep proc numbering."""
        rng = random.Random(7)
        lengths = [0, 5, 0, 1, 3]
        histories = []
        for p, n in enumerate(lengths):
            histories.append(
                [
                    Operation(OpKind.WRITE, "x", p, i,
                              value_written=rng.randrange(3))
                    for i in range(n)
                ]
            )
        ex = Execution.from_ops(histories, initial={"x": 0})
        view = ex.columnar()
        assert view.n_procs == 5
        assert view.proc_slice(0) == slice(0, 0)
        assert view.proc_slice(2) == slice(5, 5)
        assert_same_execution(ex, view.to_execution())


class TestColumnarBuilder:
    """The append-friendly builder: commit-order appends must build a
    trace indistinguishable from ``from_execution`` of the same
    history."""

    @staticmethod
    def _round_robin(execution: Execution):
        queues = [list(h.operations) for h in execution.histories]
        while any(queues):
            for q in queues:
                if q:
                    yield q.pop(0)

    def test_commit_order_build_matches_from_execution(self):
        from repro.core.columnar import ColumnarBuilder

        for seed in range(10):
            ex = make_arbitrary_execution(seed)
            direct = ColumnarTrace.from_execution(ex)
            b = ColumnarBuilder()
            for a, v in (ex.initial or {}).items():
                b.set_initial(a, v)
            for op in self._round_robin(ex):
                b.append_op(op)
            for a, v in (ex.final or {}).items():
                b.set_final(a, v)
            built = b.build(n_procs=len(ex.histories))
            assert_same_execution(built.to_execution(), ex)
            assert tuple(built.kinds) == tuple(direct.kinds)
            assert tuple(built.procs) == tuple(direct.procs)
            assert tuple(built.indices) == tuple(direct.indices)
            assert tuple(built.addr_ids) == tuple(direct.addr_ids)
            assert tuple(built.read_vids) == tuple(direct.read_vids)
            assert tuple(built.write_vids) == tuple(direct.write_vids)
            assert built.addrs == direct.addrs
            assert built.values == direct.values

    def test_non_increasing_index_rejected(self):
        from repro.core.columnar import ColumnarBuilder

        b = ColumnarBuilder()
        b.append(OpKind.WRITE, 0, "x", value_written=1, index=4)
        with pytest.raises(ValueError, match="not\\s+increasing"):
            b.append(OpKind.WRITE, 0, "x", value_written=2, index=4)

    def test_gappy_indices_accepted(self):
        from repro.core.columnar import ColumnarBuilder

        b = ColumnarBuilder()
        b.append(OpKind.WRITE, 0, "x", value_written=1, index=2)
        b.append(OpKind.READ, 0, "x", value_read=1, index=9)
        ex = b.build().to_execution()
        assert [op.index for op in ex.histories[0].operations] == [2, 9]

    def test_silent_trailing_process(self):
        from repro.core.columnar import ColumnarBuilder

        b = ColumnarBuilder()
        b.append(OpKind.WRITE, 0, "x", value_written=1)
        ex = b.build(n_procs=3).to_execution()
        assert len(ex.histories) == 3
        assert not ex.histories[2].operations
