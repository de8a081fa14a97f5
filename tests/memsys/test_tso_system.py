"""The store-buffered (TSO) machine: weaker than SC, never weaker than TSO."""

import pytest

from repro.consistency.pso import pso_holds
from repro.consistency.tso import tso_holds
from repro import verify_sequential_consistency
from repro.memsys.processor import load, rmw, store
from repro.memsys.tso_system import TsoConfig, TsoSystem


def run_tso(scripts, initial=None, seed=0, drain_probability=0.35):
    cfg = TsoConfig(
        num_processors=len(scripts), seed=seed, drain_probability=drain_probability
    )
    return TsoSystem(cfg, scripts, initial_memory=initial).run()


class TestMechanics:
    def test_script_count_checked(self):
        with pytest.raises(ValueError):
            TsoSystem(TsoConfig(num_processors=2), [[]])

    def test_forwarding_from_own_buffer(self):
        # With drain probability 0, the store sits in the buffer; the
        # load must still see it (forwarding).
        res = run_tso([[store(0, 7), load(0)]], initial={0: 0}, drain_probability=0.0)
        ops = list(res.execution.all_ops())
        assert ops[1].value_read == 7

    def test_other_processor_sees_memory_until_drain(self):
        # Deterministic-ish: with drain probability 0, P1 issues before
        # any drain can happen only if scheduled first; instead assert
        # via the recorded trace that TSO accepts whatever happened.
        res = run_tso(
            [[store(0, 1)], [load(0), load(0)]], initial={0: 0}, seed=4
        )
        assert tso_holds(res.execution)

    def test_rmw_drains_buffer_first(self):
        res = run_tso(
            [[store(0, 1), rmw(0, 5)]], initial={0: 0}, drain_probability=0.0
        )
        ops = list(res.execution.all_ops())
        # The RMW must have observed its own (drained) store.
        assert ops[1].value_read == 1 and ops[1].value_written == 5
        assert res.execution.final_value(0) == 5

    def test_conditional_rmw(self):
        res = run_tso(
            [[rmw(0, 1, expect=0), rmw(0, 9, expect=0)]],
            initial={0: 0},
            drain_probability=0.0,
        )
        ops = list(res.execution.all_ops())
        assert ops[0].value_written == 1
        assert ops[1].value_read == 1 and ops[1].value_written == 1

    def test_all_stores_eventually_drain(self):
        res = run_tso(
            [[store(0, i) for i in range(10)]], initial={0: 0}, seed=1
        )
        assert res.bus_traffic["drains"] >= 10
        assert len(res.write_orders[0]) == 10

    def test_buffer_capacity_stall_forces_drain(self):
        cfg = TsoConfig(num_processors=1, seed=0, drain_probability=0.0, max_buffer=2)
        res = TsoSystem(
            cfg, [[store(0, i) for i in range(6)]], initial_memory={0: 0}
        ).run()
        assert len(res.write_orders[0]) == 6


class TestModelHierarchy:
    def test_every_run_is_tso_consistent(self):
        for seed in range(15):
            scripts = [
                [store(0, 1), load(1), load(0)],
                [store(1, 1), load(0), load(1)],
            ]
            res = run_tso(scripts, initial={0: 0, 1: 0}, seed=seed)
            r = tso_holds(res.execution)
            assert r, (seed, r.reason)

    def test_every_run_is_pso_consistent(self):
        # TSO ⊆ PSO.
        for seed in range(10):
            scripts = [
                [store(0, 1), store(1, 2), load(0)],
                [load(1), load(0)],
            ]
            res = run_tso(scripts, initial={0: 0, 1: 0}, seed=seed)
            assert pso_holds(res.execution)

    def test_store_buffering_outcome_appears(self):
        """Across seeds the machine must exhibit a non-SC (SB) outcome —
        the whole point of having buffers."""
        saw_non_sc = False
        for seed in range(40):
            scripts = [
                [store(0, 1), load(1)],
                [store(1, 1), load(0)],
            ]
            res = run_tso(
                scripts, initial={0: 0, 1: 0}, seed=seed, drain_probability=0.1
            )
            if not verify_sequential_consistency(res.execution):
                saw_non_sc = True
                # But it must still be TSO.
                assert tso_holds(res.execution)
                break
        assert saw_non_sc

    def test_rmw_heavy_runs_are_sc(self):
        """Atomics drain buffers, so an all-RMW program is SC."""
        for seed in range(5):
            scripts = [
                [rmw(0, 10 + i) for i in range(4)],
                [rmw(0, 20 + i) for i in range(4)],
            ]
            res = run_tso(scripts, initial={0: 0}, seed=seed)
            assert verify_sequential_consistency(res.execution)
