"""The Figure 5.3 ladders: routing and lookup."""

import pytest

from repro.core.builder import ExecutionBuilder, parse_trace
from repro.engine import LADDERS, Instance


def _instance(ex, addr="x", write_order=None):
    return Instance(
        ex.restrict_to_address(addr), address=addr, write_order=write_order
    )


class TestLadder:
    """select() reproduces the Figure 5.3 if-chain top to bottom."""

    def test_write_order_wins_when_supplied(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        writes = [op for op in ex.all_ops() if op.kind.writes]
        reg = LADDERS["vmc"]
        assert reg.select(_instance(ex, write_order=writes)).name == "write-order"
        assert reg.select(_instance(ex)).name != "write-order"

    def test_single_op(self):
        ex = parse_trace("P0: W(x,1)\nP1: R(x,1)")
        assert LADDERS["vmc"].select(_instance(ex)).name == "single-op"

    def test_readmap(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        assert LADDERS["vmc"].select(_instance(ex)).name == "readmap"

    def test_readmap_skipped_when_write_recreates_initial(self):
        # Value 0 is both the initial value and re-written: initial-value
        # reads have two sources and the read-map is not forced.
        b = ExecutionBuilder(initial={"x": 0})
        b.process().write("x", 1).write("x", 0)
        b.process().read("x", 0)
        assert LADDERS["vmc"].select(_instance(b.build())).name == "exact"

    def test_exact_for_repeated_values(self):
        ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1) R(x,1)")
        assert LADDERS["vmc"].select(_instance(ex)).name == "exact"

    def test_sat_when_state_space_is_large(self):
        # 8 processes x 7 ops -> 8^8 ~ 16.7M frontier states, over the
        # exact budget; value 1 is written 8 times so readmap is out.
        b = ExecutionBuilder(initial={"x": 0})
        for _ in range(8):
            p = b.process().write("x", 1)
            for _ in range(6):
                p.read("x", 1)
        assert LADDERS["vmc"].select(_instance(b.build())).name == "sat-cdcl"

    def test_vsc_ladder(self):
        ex = parse_trace("P0: W(x,1)\nP1: R(x,1)")
        inst = Instance(ex, problem="vsc")
        assert LADDERS["vsc"].select(inst).name == "exact"


class TestLookup:
    def test_alias_resolves(self):
        assert LADDERS["vmc"].get("sat").name == "sat-cdcl"
        assert LADDERS["vsc"].get("sat").name == "sat-cdcl"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown method"):
            LADDERS["vmc"].get("bogus")

    def test_names_in_tier_order(self):
        assert LADDERS["vmc"].names() == [
            "write-order", "single-op", "readmap", "exact", "sat-cdcl",
        ]

    def test_applicable_list(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        names = [b.name for b in LADDERS["vmc"].applicable(_instance(ex))]
        assert names == ["readmap", "exact", "sat-cdcl"]
