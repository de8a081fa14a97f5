"""The online coherence monitor."""

import pytest

from repro.core.online import (
    CoherenceMonitor,
    CoherenceViolation,
    SystemMonitor,
    monitor_run,
)
from repro.core.vmc import verify_coherence
from repro.memsys import (
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    random_shared_workload,
)


class TestMonitorBasics:
    def test_initial_value_read(self):
        mon = CoherenceMonitor("x", initial=0)
        assert mon.commit_read(0, 0) is None
        assert mon.ok

    def test_unknown_value_read(self):
        mon = CoherenceMonitor("x", initial=0)
        msg = mon.commit_read(0, 42)
        assert msg and "no committed write" in msg
        assert not mon.ok

    def test_write_then_read(self):
        mon = CoherenceMonitor("x", initial=0)
        mon.commit_write(0, 5)
        assert mon.commit_read(1, 5) is None
        assert mon.commit_read(1, 0) is not None  # stale after advancing

    def test_read_before_write_window(self):
        # Another process may still read the initial value as long as
        # its own cursor hasn't passed the write.
        mon = CoherenceMonitor("x", initial=0)
        mon.commit_write(0, 5)
        assert mon.commit_read(1, 0) is None  # P1 lags: schedulable
        assert mon.commit_read(1, 5) is None  # then catches up
        assert mon.commit_read(1, 0) is not None  # but cannot go back

    def test_writer_own_reads_see_own_write(self):
        mon = CoherenceMonitor("x", initial=0)
        mon.commit_write(0, 1)
        # The writer itself can no longer read the initial value.
        assert mon.commit_read(0, 0) is not None

    def test_strict_mode_raises(self):
        mon = CoherenceMonitor("x", initial=0, strict=True)
        with pytest.raises(CoherenceViolation):
            mon.commit_read(0, 99)

    def test_rmw_chain(self):
        mon = CoherenceMonitor("x", initial=0)
        assert mon.commit_rmw(0, 0, 1) is None
        assert mon.commit_rmw(1, 1, 2) is None
        assert mon.commit_rmw(0, 1, 3) is not None  # must read 2

    def test_final_check(self):
        mon = CoherenceMonitor("x", initial=0)
        mon.commit_write(0, 7)
        assert mon.final(7) is None
        assert mon.final(0) is not None

    def test_stats(self):
        mon = CoherenceMonitor("x", initial=0)
        mon.commit_write(0, 1)
        mon.commit_read(1, 1)
        mon.commit_rmw(1, 1, 2)
        assert mon.writes == 2  # plain + RMW's write component
        assert mon.reads == 1
        assert mon.rmws == 1


class TestSystemMonitor:
    def test_independent_addresses(self):
        sm = SystemMonitor(initial={"x": 0, "y": 0})
        sm.write(0, "x", 1)
        assert sm.read(1, "y", 0) is None
        assert sm.read(1, "x", 1) is None
        assert sm.ok

    def test_violations_collected(self):
        sm = SystemMonitor(initial={"x": 0})
        sm.read(0, "x", 9)
        sm.read(0, "x", 8)
        assert len(sm.violations) == 2
        assert not sm.ok


class TestMonitorRun:
    def test_fault_free_runs_pass(self):
        for seed in range(8):
            scripts, init = random_shared_workload(
                num_processors=4, ops_per_processor=40,
                num_addresses=3, seed=seed,
            )
            cfg = SystemConfig(num_processors=4, seed=seed)
            res = MultiprocessorSystem(cfg, scripts, initial_memory=init).run()
            sm = monitor_run(res)
            assert sm.ok, (seed, sm.violations[:1])

    def test_agrees_with_offline_on_faulty_runs(self):
        """Monitor verdicts must match the offline write-order verifier."""
        agree = checked = 0
        for seed in range(25):
            scripts, init = random_shared_workload(
                num_processors=4, ops_per_processor=40,
                num_addresses=2, write_fraction=0.35, seed=seed,
            )
            cfg = SystemConfig(num_processors=4, seed=seed)
            res = MultiprocessorSystem(
                cfg, scripts, initial_memory=init,
                faults=FaultConfig.single(
                    FaultKind.CORRUPTED_VALUE, seed=seed, rate=0.15
                ),
            ).run()
            # The replay ends with the machine's reported final values,
            # so it must agree with the full offline write-order check.
            offline = verify_coherence(
                res.execution, write_orders=res.write_orders
            )
            online = monitor_run(res)
            checked += 1
            if bool(offline) == online.ok:
                agree += 1
        assert agree == checked

    def test_detects_injected_corruption_sometimes(self):
        detected = 0
        for seed in range(25):
            scripts, init = random_shared_workload(
                num_processors=4, ops_per_processor=50,
                num_addresses=2, write_fraction=0.3, seed=seed,
            )
            cfg = SystemConfig(num_processors=4, seed=seed)
            res = MultiprocessorSystem(
                cfg, scripts, initial_memory=init,
                faults=FaultConfig.single(
                    FaultKind.CORRUPTED_VALUE, seed=seed, rate=0.2
                ),
            ).run()
            if res.faults_injected and not monitor_run(res).ok:
                detected += 1
        assert detected >= 3
