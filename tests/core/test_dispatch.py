"""The verify_coherence / verify_sequential_consistency dispatchers."""

import pytest
from hypothesis import given, settings

from repro.core.builder import ExecutionBuilder, parse_trace
from repro.core.checker import is_coherent_schedule
from repro.core.types import Execution
from repro import (
    verify_coherence,
    verify_coherence_at,
    verify_sequential_consistency,
)

from repro.engine import LADDERS, Instance

from tests.conftest import coherent_executions, make_coherent_execution


def _routed(ex: Execution) -> str:
    """The backend the Figure 5.3 router picks, before the pre-pass."""
    return LADDERS["vmc"].select(Instance(ex, problem="vmc")).name


class TestRouting:
    def test_write_order_route(self):
        execution, witness = make_coherent_execution(10, 2, seed=1)
        order = [op for op in witness if op.kind.writes]
        r = verify_coherence_at(execution, "x", write_order=order)
        assert r and r.method == "write-order"

    def test_single_op_route(self):
        from repro.core.types import read, write

        ex = Execution.from_ops([[write("x", 1)], [read("x", 1)]])
        r = verify_coherence(ex)
        assert r.method.startswith("single-op")

    def test_readmap_route(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1) W(x,2)", initial={"x": 0})
        r = verify_coherence(ex)
        assert r and r.method == "readmap"

    def test_exact_route_for_repeated_values(self):
        # Repeated values defeat readmap; the instance routes to exact,
        # but the pre-pass notices program order forces the write order
        # and downgrades to the Section 5.2 algorithm.
        ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1)", initial={"x": 0})
        r = verify_coherence(ex)
        assert r and r.method == "write-order"
        assert _routed(ex) == "exact"

    def test_readmap_avoided_when_write_recreates_initial(self):
        ex = parse_trace("P0: W(x,0) R(x,0)\nP1: R(x,0)", initial={"x": 0})
        r = verify_coherence(ex)
        assert r and r.method == "write-order"
        assert _routed(ex) == "exact"

    def test_explicit_methods(self):
        ex = parse_trace("P0: W(x,1)\nP1: R(x,1)")
        for method in ("readmap", "exact", "sat", "sat-cdcl"):
            r = verify_coherence(ex, method=method)
            assert r, method

    def test_unknown_method(self):
        ex = parse_trace("P0: W(x,1)")
        with pytest.raises(ValueError):
            verify_coherence(ex, method="oracle")

    def test_write_order_method_requires_order(self):
        ex = parse_trace("P0: W(x,1)")
        with pytest.raises(ValueError):
            verify_coherence_at(ex, "x", method="write-order")


class TestMultiAddress:
    def test_per_address_results(self):
        ex = parse_trace(
            "P0: W(x,1) W(y,1)\nP1: R(x,1) R(y,1)", initial={"x": 0, "y": 0}
        )
        r = verify_coherence(ex)
        assert r
        assert set(r.per_address) == {"x", "y"}
        for addr, sub in r.per_address.items():
            assert sub
            assert is_coherent_schedule(ex, sub.schedule, addr=addr)

    def test_one_bad_address_fails_aggregate(self):
        ex = parse_trace(
            "P0: W(x,1) W(y,1) R(y,1)\nP1: R(y,1) R(y,0)",
            initial={"x": 0, "y": 0},
        )
        r = verify_coherence(ex)
        assert not r
        assert r.per_address["x"]
        assert not r.per_address["y"]
        assert "y" in r.reason

    def test_coherent_but_not_sc(self):
        ex = parse_trace(
            "P0: W(x,1) R(y,0)\nP1: W(y,1) R(x,0)", initial={"x": 0, "y": 0}
        )
        assert verify_coherence(ex)
        assert not verify_sequential_consistency(ex)

    def test_empty_execution(self):
        assert verify_coherence(Execution.from_ops([]))

    def test_write_orders_mapping(self):
        execution, witness = make_coherent_execution(
            12, 2, seed=3, addresses=("x", "y")
        )
        orders = {}
        for a in ("x", "y"):
            orders[a] = [
                op for op in witness if op.kind.writes and op.addr == a
            ]
        r = verify_coherence(execution, write_orders=orders)
        assert r
        assert all(
            sub.method == "write-order" for sub in r.per_address.values()
        )


class TestVscDispatch:
    def test_methods(self):
        ex = parse_trace(
            "P0: W(x,1) W(y,1)\nP1: R(y,1) R(x,1)", initial={"x": 0, "y": 0}
        )
        for method in ("auto", "exact", "sat", "sat-cdcl"):
            assert verify_sequential_consistency(ex, method=method), method

    def test_unknown_method(self):
        ex = parse_trace("P0: W(x,1)")
        with pytest.raises(ValueError):
            verify_sequential_consistency(ex, method="psychic")

    @given(coherent_executions(addresses=("x", "y"), max_ops=10))
    @settings(max_examples=40, deadline=None)
    def test_auto_on_generated_sc_traces(self, pair):
        execution, _ = pair
        assert verify_sequential_consistency(execution)
