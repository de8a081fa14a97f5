"""The multiprocessor simulator: correctness of fault-free runs and
precision of the recorded artifacts."""

import pytest

from repro.core.checker import is_sc_schedule
from repro.core.types import INITIAL, OpKind
from repro import verify_coherence, verify_sequential_consistency
from repro.memsys.processor import load, rmw, store
from repro.memsys.system import MultiprocessorSystem, SystemConfig


def run(scripts, initial=None, **cfg_kwargs):
    cfg = SystemConfig(num_processors=len(scripts), **cfg_kwargs)
    return MultiprocessorSystem(cfg, scripts, initial_memory=initial).run()


class TestBasics:
    def test_script_count_must_match(self):
        with pytest.raises(ValueError):
            MultiprocessorSystem(SystemConfig(num_processors=2), [[]])

    def test_single_processor_load_store(self):
        res = run([[store(0, 42), load(0)]], initial={0: 0})
        ops = list(res.execution.all_ops())
        assert ops[0].value_written == 42
        assert ops[1].value_read == 42

    def test_uninitialized_memory_reads_initial_sentinel(self):
        res = run([[load(9)]])
        assert list(res.execution.all_ops())[0].value_read is INITIAL

    def test_cache_hit_after_fill(self):
        res = run([[load(0), load(0), load(0)]], initial={0: 7})
        sys_stats = res.cache_stats[0]
        assert sys_stats["misses"] == 1
        assert sys_stats["hits"] == 2

    def test_final_values_recorded(self):
        res = run([[store(0, 5)], [store(0, 6)]], initial={0: 0}, seed=3)
        assert res.execution.final_value(0) in (5, 6)

    def test_round_robin_scheduler_deterministic(self):
        scripts = [[store(0, 1), load(0)], [load(0), load(0)]]
        a = run(scripts, initial={0: 0}, scheduler="round-robin")
        b = run(scripts, initial={0: 0}, scheduler="round-robin")
        assert [str(op) for op in a.execution.all_ops()] == [
            str(op) for op in b.execution.all_ops()
        ]


class TestCoherenceTraffic:
    def test_store_invalidates_sharers(self):
        # P0 and P1 read line 0 (both S); P0's store upgrades & invalidates.
        scripts = [
            [load(0), store(0, 1)],
            [load(0), load(0)],
        ]
        res = run(scripts, initial={0: 0}, scheduler="round-robin", protocol="MSI")
        assert "BusUpgr" in res.bus_traffic or "BusRdX" in res.bus_traffic
        assert verify_coherence(res.execution, write_orders=res.write_orders)

    def test_mesi_silent_upgrade_from_exclusive(self):
        # Single processor: read (E), then write: no upgrade transaction.
        res = run([[load(0), store(0, 1)]], initial={0: 0}, protocol="MESI")
        assert "BusUpgr" not in res.bus_traffic
        res_msi = run([[load(0), store(0, 1)]], initial={0: 0}, protocol="MSI")
        assert "BusUpgr" in res_msi.bus_traffic

    def test_dirty_intervention_supplies_data(self):
        scripts = [
            [store(0, 99)],
            [load(0)],
        ]
        res = run(scripts, initial={0: 0}, scheduler="round-robin")
        reads = [op for op in res.execution.all_ops() if op.kind is OpKind.READ]
        assert reads[0].value_read == 99
        interventions = sum(s["interventions"] for s in res.cache_stats)
        assert interventions == 1

    def test_writeback_on_dirty_eviction(self):
        # 1 set, 1 way: two conflicting dirty lines force a write-back.
        scripts = [[store(0, 1), store(4, 2), load(0)]]
        res = run(scripts, initial={0: 0, 4: 0}, num_sets=1, ways=1, line_words=4)
        assert res.cache_stats[0]["writebacks"] >= 1
        reads = [op for op in res.execution.all_ops() if op.kind is OpKind.READ]
        assert reads[0].value_read == 1  # written-back value survives


class TestRmw:
    def test_unconditional_rmw(self):
        res = run([[rmw(0, 10)]], initial={0: 3})
        op = list(res.execution.all_ops())[0]
        assert op.kind is OpKind.RMW
        assert op.value_read == 3 and op.value_written == 10

    def test_conditional_rmw_success_and_failure(self):
        res = run([[rmw(0, 1, expect=0), rmw(0, 1, expect=0)]], initial={0: 0})
        ops = list(res.execution.all_ops())
        assert ops[0].value_read == 0 and ops[0].value_written == 1
        # Second attempt fails: records the observed value as a no-op.
        assert ops[1].value_read == 1 and ops[1].value_written == 1


class TestSequentialConsistency:
    def test_fault_free_runs_are_sc(self):
        for seed in range(6):
            scripts = [
                [store(0, 1), load(1), store(1, 10 + seed), load(0)],
                [store(1, 2), load(0), store(0, 20 + seed), load(1)],
            ]
            res = run(scripts, initial={0: 0, 1: 0}, seed=seed)
            r = verify_sequential_consistency(res.execution)
            assert r, (seed, r.reason)

    def test_write_order_matches_an_sc_witness(self):
        scripts = [
            [store(0, 1), load(0)],
            [store(0, 2), load(0)],
        ]
        res = run(scripts, initial={0: 0}, seed=1)
        r = verify_coherence(res.execution, write_orders=res.write_orders)
        assert r
        sub = r.per_address[0]
        assert is_sc_schedule(res.execution.restrict_to_address(0), sub.schedule)


class TestRunResult:
    def test_summary_and_counts(self):
        res = run([[store(0, 1)], [load(0)]], initial={0: 0})
        assert res.num_ops == 2
        assert res.steps == 2
        assert "2 ops" in res.summary()
        assert res.faults_injected == 0

    def test_max_steps_cutoff(self):
        cfg = SystemConfig(num_processors=1)
        sys_ = MultiprocessorSystem(cfg, [[load(0)] * 50])
        res = sys_.run(max_steps=10)
        assert res.steps == 10
        assert res.num_ops == 10
