"""Certificate checkers (the NP-membership side of Theorem 4.2)."""

from hypothesis import given, settings

from repro.core.builder import ExecutionBuilder, parse_trace
from repro.core.checker import (
    execution_from_schedule,
    is_coherent_schedule,
    is_sc_schedule,
    schedule_respects_program_order,
    value_trace_ok,
)
from repro.core.types import Execution, OpKind, Operation, read, write

from tests.conftest import coherent_executions


def simple_execution():
    b = ExecutionBuilder(initial={"x": 0})
    b.process().write("x", 1).read("x", 1)
    b.process().read("x", 0)
    return b.build()


class TestProgramOrder:
    def test_valid_schedule(self):
        ex = simple_execution()
        sched = [ex.histories[1][0], ex.histories[0][0], ex.histories[0][1]]
        assert schedule_respects_program_order(ex, sched)

    def test_po_violation_detected(self):
        ex = simple_execution()
        sched = [ex.histories[0][1], ex.histories[0][0], ex.histories[1][0]]
        outcome = schedule_respects_program_order(ex, sched)
        assert not outcome and "program order" in outcome.reason

    def test_missing_op_detected(self):
        ex = simple_execution()
        outcome = schedule_respects_program_order(ex, [ex.histories[0][0]])
        assert not outcome and "missing" in outcome.reason

    def test_duplicate_op_detected(self):
        ex = simple_execution()
        op = ex.histories[0][0]
        sched = [op, op, ex.histories[0][1], ex.histories[1][0]]
        outcome = schedule_respects_program_order(ex, sched)
        assert not outcome and "twice" in outcome.reason

    def test_foreign_op_detected(self):
        ex = simple_execution()
        alien = write("x", 9, proc=5, index=0)
        outcome = schedule_respects_program_order(ex, [alien])
        assert not outcome and "not part" in outcome.reason


class TestCoherentSchedule:
    def test_good_schedule_accepted(self):
        ex = simple_execution()
        sched = [ex.histories[1][0], ex.histories[0][0], ex.histories[0][1]]
        assert is_coherent_schedule(ex, sched)

    def test_wrong_read_value_rejected_with_position(self):
        ex = simple_execution()
        sched = [ex.histories[0][0], ex.histories[1][0], ex.histories[0][1]]
        outcome = is_coherent_schedule(ex, sched)
        assert not outcome
        assert outcome.position == 1  # the R(x,0) after W(x,1)

    def test_initial_value_read(self):
        ex = parse_trace("P0: R(x,init)")
        assert is_coherent_schedule(ex, list(ex.all_ops()))

    def test_final_value_enforced(self):
        b = ExecutionBuilder(initial={"x": 0})
        b.process().write("x", 1).write("x", 2)
        ex = b.build(final={"x": 1})
        sched = list(ex.all_ops())
        outcome = is_coherent_schedule(ex, sched)
        assert not outcome and "final" in outcome.reason

    def test_final_value_satisfied(self):
        b = ExecutionBuilder(initial={"x": 0})
        b.process().write("x", 2)
        ex = b.build(final={"x": 2})
        assert is_coherent_schedule(ex, list(ex.all_ops()))

    def test_multi_address_requires_addr_argument(self):
        ex = parse_trace("P0: W(x,1) W(y,1)")
        outcome = is_coherent_schedule(ex, list(ex.all_ops()))
        assert not outcome and "per-address" in outcome.reason

    def test_second_address_on_a_sync_op_rejected(self):
        """Every operation's address counts, a sync op's too."""
        ex = Execution.from_ops(
            [[write("x", 1), Operation(OpKind.ACQUIRE, "l", 0, 0)]]
        )
        outcome = is_coherent_schedule(ex, list(ex.all_ops()))
        assert not outcome and outcome.position == -1
        assert outcome.reason == (
            "coherence is per-address but the execution touches "
            "['x', 'l']; pass addr= to select one"
        )

    def test_multi_address_reason_lists_addresses_in_order(self):
        ex = parse_trace("P0: W(y,1) W(x,1)\nP1: R(z,1) R(y,1)")
        outcome = is_coherent_schedule(ex, list(ex.all_ops()))
        assert not outcome
        assert "touches ['y', 'x', 'z']" in outcome.reason

    def test_builds_no_columnar_view(self):
        ex = simple_execution()
        sched = [ex.histories[1][0], ex.histories[0][0], ex.histories[0][1]]
        assert is_coherent_schedule(ex, sched)
        assert getattr(ex, "_columnar", None) is None
        bad = parse_trace("P0: W(x,1) W(y,1)")
        assert not is_coherent_schedule(bad, list(bad.all_ops()))
        assert getattr(bad, "_columnar", None) is None

    def test_equal_copy_of_an_operation_accepted(self):
        """Membership compares by value: a schedule of equal copies
        (e.g. a witness that crossed a pickle) passes like the
        execution's own objects."""
        import pickle

        ex = simple_execution()
        sched = [ex.histories[1][0], ex.histories[0][0], ex.histories[0][1]]
        copies = pickle.loads(pickle.dumps(sched))
        assert copies[0] is not sched[0]
        assert is_coherent_schedule(ex, copies)

    def test_addr_argument_restricts(self):
        ex = parse_trace("P0: W(x,1) W(y,1)\nP1: R(x,1)")
        x_ops = [op for op in ex.all_ops() if op.addr == "x"]
        assert is_coherent_schedule(ex, x_ops, addr="x")

    def test_rmw_atomicity(self):
        b = ExecutionBuilder(initial={"x": 0})
        b.process().rmw("x", 0, 1)
        b.process().rmw("x", 0, 2)  # both claim to read 0: impossible
        ex = b.build()
        h0, h1 = ex.histories[0][0], ex.histories[1][0]
        assert not is_coherent_schedule(ex, [h0, h1])
        assert not is_coherent_schedule(ex, [h1, h0])


class TestScSchedule:
    def test_multi_address_value_tracking(self):
        ex = parse_trace(
            "P0: W(x,1) R(y,0)\nP1: W(y,1) R(x,1)", initial={"x": 0, "y": 0}
        )
        h0, h1 = ex.histories
        good = [h0[0], h0[1], h1[0], h1[1]]
        assert is_sc_schedule(ex, good)
        bad = [h1[0], h0[0], h0[1], h1[1]]  # R(y,0) after W(y,1)
        assert not is_sc_schedule(ex, bad)

    def test_sync_ops_ignored_by_value_check(self):
        ex = parse_trace("P0: ACQ(l) W(x,1) REL(l)\nP1: R(x,1)")
        sched = list(ex.histories[0]) + list(ex.histories[1])
        assert is_sc_schedule(ex, sched)


class TestExecutionFromSchedule:
    @given(coherent_executions())
    @settings(max_examples=80, deadline=None)
    def test_generated_executions_accept_their_witness(self, pair):
        execution, witness = pair
        assert is_coherent_schedule(execution, witness)

    @given(coherent_executions(addresses=("x", "y"), max_procs=3))
    @settings(max_examples=60, deadline=None)
    def test_multi_address_witness_is_sc(self, pair):
        execution, witness = pair
        assert is_sc_schedule(execution, witness)

    def test_bad_proc_id_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            execution_from_schedule([write("x", 1, proc=3, index=0)], 2)

    def test_record_final_captures_last_write(self):
        sched = [write("x", 1, 0, 0), write("x", 2, 1, 0)]
        ex = execution_from_schedule(sched, 2, initial={"x": 0})
        assert ex.final_value("x") == 2


def test_value_trace_ok_standalone():
    ops = [write("x", 1, 0, 0), read("x", 1, 1, 0)]
    assert value_trace_ok(ops)
    assert not value_trace_ok(list(reversed(ops)), initial={"x": 0})
