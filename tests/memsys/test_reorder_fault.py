"""The reporting-path fault: a lying write-order (Section 5.2's helper
itself failing) must be caught by the write-order verifier."""

from repro import verify_coherence, verify_coherence_at
from repro.memsys.faults import FaultConfig, FaultKind
from repro.memsys.processor import load, store
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import random_shared_workload


def run_with_reorder(scripts, initial, seed=0, rate=1.0, max_events=1):
    cfg = SystemConfig(
        num_processors=len(scripts), seed=seed, scheduler="round-robin"
    )
    faults = FaultConfig(
        kinds=frozenset([FaultKind.REORDERED_SERIALIZATION]),
        rate=rate,
        max_events=max_events,
        seed=seed,
    )
    return MultiprocessorSystem(
        cfg, scripts, initial_memory=initial, faults=faults
    ).run()


class TestLyingWriteOrder:
    def test_swapped_same_process_writes_contradict_po(self):
        # Two writes by the same processor: swapping them in the
        # reported order contradicts program order — always caught.
        res = run_with_reorder([[store(0, 1), store(0, 2)]], {0: 0})
        assert res.faults_injected == 1
        r = verify_coherence_at(
            res.execution, 0, method="write-order", write_order=res.write_orders[0]
        )
        assert not r and "program order" in r.reason

    def test_swap_with_observing_reader_detected(self):
        # P0 writes 1 and reads it back; P1 writes 2 afterwards.  The
        # lying order claims 2 was serialized before 1 — but then P0's
        # read of 1 is fine... choose a reader that pins the order:
        # P1 reads 2 then P0 writes 1?  Use: P0: W1, R1; P1: W2, R2 with
        # the true order [1, 2]: swapped order [2, 1] makes P1's R(2)
        # unservable after its own W(2)... it reads gap of value 1.
        scripts = [
            [store(0, 1), load(0)],
            [store(0, 2), load(0)],
        ]
        res = run_with_reorder(scripts, {0: 0}, seed=1)
        assert res.faults_injected == 1
        r = verify_coherence_at(
            res.execution, 0, method="write-order", write_order=res.write_orders[0]
        )
        # The data path was healthy: the plain verifier still accepts...
        plain = verify_coherence(res.execution)
        assert plain
        # ...but the lying order must be rejected.
        assert not r

    def test_data_path_remains_coherent(self):
        # The fault only affects reporting: auto verification (no order
        # supplied) always passes.
        for seed in range(6):
            scripts, init = random_shared_workload(
                num_processors=3, ops_per_processor=20, num_addresses=2,
                seed=seed,
            )
            cfg = SystemConfig(num_processors=3, seed=seed)
            faults = FaultConfig(
                kinds=frozenset([FaultKind.REORDERED_SERIALIZATION]),
                rate=0.3,
                max_events=2,
                seed=seed,
            )
            res = MultiprocessorSystem(
                cfg, scripts, initial_memory=init, faults=faults
            ).run()
            assert verify_coherence(res.execution)

    def test_detection_rate_nontrivial(self):
        injected = detected = 0
        for seed in range(20):
            scripts, init = random_shared_workload(
                num_processors=4, ops_per_processor=30, num_addresses=2,
                write_fraction=0.5, seed=seed,
            )
            cfg = SystemConfig(num_processors=4, seed=seed)
            faults = FaultConfig(
                kinds=frozenset([FaultKind.REORDERED_SERIALIZATION]),
                rate=0.1,
                max_events=1,
                seed=seed,
            )
            res = MultiprocessorSystem(
                cfg, scripts, initial_memory=init, faults=faults
            ).run()
            if not res.faults_injected:
                continue
            injected += 1
            ok = verify_coherence(res.execution, write_orders=res.write_orders)
            if not ok:
                detected += 1
        assert injected >= 10
        # Swaps between different processes' writes of different values
        # are often caught by read placements or final values; same-
        # process swaps always are.
        assert detected >= 3
