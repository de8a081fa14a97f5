"""EMS — the motivating application: dynamic error detection.

Not a table in the paper, but its Section 1 premise: run a simulated
multiprocessor, verify the observed execution.  Regenerates

* the healthy-machine baseline (all workloads verify, via the
  polynomial write-order route — the paper's practical recommendation);
* a fault-injection campaign with per-fault detection rates;
* the verification-throughput benchmark (ops/second of the write-order
  checker on large traces).
"""

from repro import verify_coherence
from repro.memsys import (
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    false_sharing_workload,
    lock_contention_workload,
    producer_consumer_workload,
    random_shared_workload,
)

from benchmarks.conftest import report


def test_healthy_machine_baseline(benchmark):
    workloads = {
        "random-sharing": random_shared_workload(
            num_processors=4, ops_per_processor=100, num_addresses=4, seed=1
        ),
        "producer-consumer": producer_consumer_workload(items=40, num_consumers=2),
        "false-sharing": false_sharing_workload(num_processors=4, seed=1),
        "lock-contention": lock_contention_workload(num_processors=4),
    }

    def verify_all() -> list[str]:
        rows = [f"{'workload':<18} {'ops':>5} {'bus txns':>9} verdict"]
        for name, (scripts, init) in workloads.items():
            cfg = SystemConfig(num_processors=len(scripts), seed=1)
            res = MultiprocessorSystem(cfg, scripts, initial_memory=init).run()
            verdict = verify_coherence(
                res.execution, write_orders=res.write_orders
            )
            assert verdict, (name, verdict.reason)
            rows.append(
                f"{name:<18} {res.num_ops:>5} {res.bus_transactions:>9} coherent"
            )
        return rows

    rows = benchmark.pedantic(verify_all, rounds=1, iterations=1)
    report("Error detection — healthy machine baseline", "\n".join(rows))


def test_fault_detection_campaign(benchmark):
    def campaign() -> list[str]:
        rows = [f"{'fault kind':<20} {'injected':>9} {'detected':>9} {'rate':>6}"]
        for kind in FaultKind:
            injected = detected = 0
            for seed in range(15):
                scripts, init = random_shared_workload(
                    num_processors=4,
                    ops_per_processor=40,
                    num_addresses=3,
                    write_fraction=0.35,
                    seed=seed,
                )
                cfg = SystemConfig(num_processors=4, seed=seed)
                res = MultiprocessorSystem(
                    cfg,
                    scripts,
                    initial_memory=init,
                    faults=FaultConfig.single(kind, seed=seed, rate=0.1),
                ).run()
                if not res.faults_injected:
                    continue
                injected += 1
                if not verify_coherence(
                    res.execution, write_orders=res.write_orders
                ):
                    detected += 1
            rate = f"{detected / injected:.0%}" if injected else "n/a"
            rows.append(f"{kind.value:<20} {injected:>9} {detected:>9} {rate:>6}")
        return rows

    rows = benchmark.pedantic(campaign, rounds=1, iterations=1)
    report(
        "Error detection — fault-injection campaign (15 runs/kind)",
        "\n".join(rows)
        + "\n(sub-100% rates are inherent: only observable violations "
        "can be caught)",
    )


def test_verification_throughput(benchmark):
    scripts, init = random_shared_workload(
        num_processors=8, ops_per_processor=500, num_addresses=8, seed=2
    )
    cfg = SystemConfig(num_processors=8, seed=2)
    res = MultiprocessorSystem(cfg, scripts, initial_memory=init).run()

    result = benchmark(
        lambda: verify_coherence(res.execution, write_orders=res.write_orders)
    )
    assert result
    report(
        "Error detection — verification throughput",
        f"{res.num_ops} operations over {len(res.execution.addresses())} "
        f"addresses verified via bus write-orders",
    )
