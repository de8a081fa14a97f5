"""The polynomial inference/elimination module behind the pre-pass."""

import pytest
from hypothesis import given, settings

from repro.core.builder import parse_trace
from repro.core.checker import is_coherent_schedule
from repro.core.exact import exact_vmc
from repro.core.encode import sat_vmc
from repro.core.infer import eliminate_reads, infer_order
from repro.core.vmc import verify_coherence

from tests.conftest import coherent_executions


class TestEliminateReads:
    def test_covered_read_attached_to_write(self):
        ex = parse_trace("P0: W(x,1) R(x,1) W(x,2)", initial={"x": 0})
        residual, plan = eliminate_reads(ex)
        assert plan.eliminated == 1
        assert residual.num_ops == 2
        w1 = ex.histories[0][0]
        assert [op.value_read for op in plan.attached[w1.uid]] == [1]

    def test_read_read_chain_shares_anchor(self):
        # Both reads are covered; the second anchors to the *write*,
        # because its covering read was itself eliminated.
        ex = parse_trace("P0: W(x,1) R(x,1) R(x,1)", initial={"x": 0})
        residual, plan = eliminate_reads(ex)
        assert plan.eliminated == 2
        assert residual.num_ops == 1
        w1 = ex.histories[0][0]
        assert len(plan.attached[w1.uid]) == 2

    def test_leading_initial_read_goes_front(self):
        ex = parse_trace("P0: R(x,0) W(x,1)\nP1: W(x,2)", initial={"x": 0})
        residual, plan = eliminate_reads(ex)
        assert len(plan.front) == 1
        assert residual.num_ops == 2

    def test_trailing_final_read_goes_tail(self):
        ex = parse_trace(
            "P0: W(x,1) W(x,2)\nP1: R(x,2)",
            initial={"x": 0},
            final={"x": 2},
        )
        residual, plan = eliminate_reads(ex)
        assert len(plan.tail) == 1
        assert residual.num_ops == 2

    def test_uncovered_read_survives(self):
        # R(x,2) follows a W(x,1): not covered, not initial, not final.
        ex = parse_trace("P0: W(x,1) R(x,2)\nP1: W(x,2)", initial={"x": 0})
        residual, plan = eliminate_reads(ex)
        assert plan.eliminated == 0
        assert residual is ex

    def test_sync_ops_disable_elimination(self):
        from repro.core.types import OpKind, Operation, Execution

        ops = [
            [
                Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
                Operation(OpKind.READ, "x", 0, 1, value_read=1),
                Operation(OpKind.ACQUIRE, "x", 0, 2),
            ]
        ]
        ex = Execution.from_ops(ops, initial={"x": 0})
        residual, plan = eliminate_reads(ex)
        assert plan.eliminated == 0
        assert residual is ex

    def test_rematerialize_roundtrip(self):
        ex = parse_trace(
            "P0: R(x,0) W(x,1) R(x,1) W(x,2)\nP1: R(x,2)",
            initial={"x": 0},
            final={"x": 2},
        )
        residual, plan = eliminate_reads(ex)
        assert plan.eliminated == 3
        r = verify_coherence(residual, method="exact")
        assert r and r.schedule is not None
        full = plan.rematerialize(r.schedule)
        assert len(full) == ex.num_ops
        assert is_coherent_schedule(ex, full)

    @given(coherent_executions(max_ops=12))
    @settings(max_examples=60, deadline=None)
    def test_elimination_preserves_verdict_and_witness(self, pair):
        execution, _ = pair
        residual, plan = eliminate_reads(execution)
        assert residual.num_ops + plan.eliminated == execution.num_ops
        r = verify_coherence(residual, method="exact")
        assert r  # known coherent by construction
        if r.schedule is not None:
            full = plan.rematerialize(r.schedule)
            assert is_coherent_schedule(execution, full)


class TestInferOrder:
    def test_multi_address_rejected(self):
        ex = parse_trace("P0: W(x,1) W(y,1)")
        with pytest.raises(ValueError):
            infer_order(ex)

    def test_infeasible_read_decided(self):
        ex = parse_trace("P0: W(x,1)\nP1: R(x,7)", initial={"x": 0})
        inf = infer_order(ex)
        assert inf.decided is not None and not inf.decided.holds
        assert "never written" in inf.decided.reason

    def test_infeasible_final_decided(self):
        ex = parse_trace("P0: W(x,1)", initial={"x": 0}, final={"x": 9})
        inf = infer_order(ex)
        assert inf.decided is not None and not inf.decided.holds

    def test_forced_rf_cycle_is_explained(self):
        # P0 must read 2 after its own write of 1; P1 must read 1 after
        # its own write of 2 — the unique reads-from edges close a cycle.
        ex = parse_trace(
            "P0: W(x,1) R(x,2)\nP1: W(x,2) R(x,1)", initial={"x": 0}
        )
        inf = infer_order(ex)
        assert inf.decided is not None and not inf.decided.holds
        reason = inf.decided.reason
        assert "cycle" in reason
        # Every step of the cycle names an edge and its rule.
        assert "->" in reason and "[" in reason
        assert inf.decided.stats.get("cycle_length", 0) >= 2
        # The polynomial verdict agrees with the search.
        assert not verify_coherence(ex, method="exact")

    def test_program_order_forces_total_order(self):
        ex = parse_trace("P0: W(x,1) W(x,2) W(x,3)", initial={"x": 0})
        inf = infer_order(ex)
        assert inf.write_order is not None
        assert [op.value_written for op in inf.write_order] == [1, 2, 3]

    def test_message_passing_forces_cross_process_order(self):
        # P1 reads P0's value then overwrites: the reads-from plus the
        # from-read rule order the two writes totally.
        ex = parse_trace(
            "P0: W(x,1)\nP1: R(x,1) W(x,2) R(x,2)", initial={"x": 0}
        )
        inf = infer_order(ex)
        assert inf.decided is None
        assert inf.write_order is not None
        assert [op.value_written for op in inf.write_order] == [1, 2]
        assert inf.edges  # the RF edge is not program order

    def test_unordered_writes_yield_no_total_order(self):
        ex = parse_trace("P0: W(x,1)\nP1: W(x,2)", initial={"x": 0})
        inf = infer_order(ex)
        assert inf.decided is None
        assert inf.write_order is None

    def test_final_write_last_rule(self):
        ex = parse_trace(
            "P0: W(x,1)\nP1: W(x,2)", initial={"x": 0}, final={"x": 2}
        )
        inf = infer_order(ex)
        assert inf.write_order is not None
        assert [op.value_written for op in inf.write_order] == [1, 2]

    @given(coherent_executions(max_ops=12))
    @settings(max_examples=60, deadline=None)
    def test_never_decides_coherent_incoherent(self, pair):
        execution, _ = pair
        inf = infer_order(execution)
        assert inf.decided is None or inf.decided.holds
        if inf.write_order is not None:
            from repro.core.writeorder import writeorder_vmc

            assert writeorder_vmc(execution, inf.write_order).holds


class TestOrderHints:
    def _hinted_instance(self):
        # Residual with a forced RF edge but no total write order.
        ex = parse_trace(
            "P0: W(x,1) R(x,2)\nP1: W(x,2)\nP2: W(x,1)", initial={"x": 0}
        )
        inf = infer_order(ex)
        assert inf.decided is None and inf.write_order is None
        hints = tuple((u, v) for u, v, _ in inf.edges)
        assert hints
        return ex, hints

    def test_exact_agrees_with_hints(self):
        ex, hints = self._hinted_instance()
        plain = exact_vmc(ex)
        hinted = exact_vmc(ex, order_hints=hints)
        assert plain.holds == hinted.holds
        if hinted.holds:
            assert is_coherent_schedule(ex, hinted.schedule)
        # Hints prune: the hinted search expands no more states.
        assert hinted.stats["states"] <= plain.stats["states"]

    def test_sat_agrees_with_hints(self):
        ex, hints = self._hinted_instance()
        plain = sat_vmc(ex)
        hinted = sat_vmc(ex, order_hints=hints)
        assert plain.holds == hinted.holds
        if hinted.holds:
            assert is_coherent_schedule(ex, hinted.schedule)
