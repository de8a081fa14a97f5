"""Backend registry: routing, lookup, and extensibility."""

import pytest

from repro.core.builder import ExecutionBuilder, parse_trace
from repro.core.result import VerificationResult
from repro.engine import (
    Backend,
    BackendRegistry,
    Instance,
    build_vmc_registry,
    verify_vmc,
    vmc_registry,
    vsc_registry,
)


def _instance(ex, addr="x", write_order=None):
    return Instance(
        ex.restrict_to_address(addr), address=addr, write_order=write_order
    )


class TestLadder:
    """select() reproduces the Figure 5.3 if-chain top to bottom."""

    def test_write_order_wins_when_supplied(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        writes = [op for op in ex.all_ops() if op.kind.writes]
        reg = vmc_registry()
        assert reg.select(_instance(ex, write_order=writes)).name == "write-order"
        assert reg.select(_instance(ex)).name != "write-order"

    def test_single_op(self):
        ex = parse_trace("P0: W(x,1)\nP1: R(x,1)")
        assert vmc_registry().select(_instance(ex)).name == "single-op"

    def test_readmap(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        assert vmc_registry().select(_instance(ex)).name == "readmap"

    def test_readmap_skipped_when_write_recreates_initial(self):
        # Value 0 is both the initial value and re-written: initial-value
        # reads have two sources and the read-map is not forced.
        b = ExecutionBuilder(initial={"x": 0})
        b.process().write("x", 1).write("x", 0)
        b.process().read("x", 0)
        assert vmc_registry().select(_instance(b.build())).name == "exact"

    def test_exact_for_repeated_values(self):
        ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1) R(x,1)")
        assert vmc_registry().select(_instance(ex)).name == "exact"

    def test_sat_when_state_space_is_large(self):
        # 8 processes x 7 ops -> 8^8 ~ 16.7M frontier states, over the
        # exact budget; value 1 is written 8 times so readmap is out.
        b = ExecutionBuilder(initial={"x": 0})
        for _ in range(8):
            p = b.process().write("x", 1)
            for _ in range(6):
                p.read("x", 1)
        assert vmc_registry().select(_instance(b.build())).name == "sat-cdcl"

    def test_vsc_ladder(self):
        ex = parse_trace("P0: W(x,1)\nP1: R(x,1)")
        inst = Instance(ex, problem="vsc")
        assert vsc_registry().select(inst).name == "exact"


class TestLookup:
    def test_alias_resolves(self):
        assert vmc_registry().get("sat").name == "sat-cdcl"
        assert vsc_registry().get("sat").name == "sat-cdcl"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown method"):
            vmc_registry().get("bogus")

    def test_names_in_tier_order(self):
        assert vmc_registry().names() == [
            "write-order", "single-op", "readmap", "exact", "sat-cdcl",
        ]

    def test_applicable_list(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        names = [b.name for b in vmc_registry().applicable(_instance(ex))]
        assert names == ["readmap", "exact", "sat-cdcl"]

    def test_duplicate_registration_rejected(self):
        reg = build_vmc_registry()
        with pytest.raises(ValueError, match="already registered"):
            reg.register(vmc_registry().get("exact").__class__())

    def test_wrong_problem_rejected(self):
        reg = BackendRegistry("vsc")
        with pytest.raises(ValueError, match="routes 'vsc'"):
            reg.register(vmc_registry().get("exact").__class__())


class _AlwaysHolds(Backend):
    """A toy decider that front-runs the whole ladder."""

    name = "always-holds"
    problem = "vmc"
    tier = -1

    def applicable(self, instance):
        return True

    def cost_estimate(self, instance):
        return 0.0

    def run(self, instance):
        return VerificationResult(holds=True, method=self.name, schedule=[])


class TestExtensibility:
    def test_custom_backend_routes_without_dispatch_changes(self):
        reg = build_vmc_registry()
        reg.register(_AlwaysHolds())
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        assert reg.select(_instance(ex)).name == "always-holds"
        result = verify_vmc(ex, registry=reg)
        assert result.holds and result.method == "always-holds"

    def test_custom_backend_forcible_by_name(self):
        reg = build_vmc_registry()
        reg.register(_AlwaysHolds())
        ex = parse_trace("P0: W(x,1)\nP1: R(x,1)")
        result = verify_vmc(ex, method="always-holds", registry=reg)
        assert result.method == "always-holds"

    def test_default_registry_unaffected(self):
        with pytest.raises(ValueError):
            vmc_registry().get("always-holds")
