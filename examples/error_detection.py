#!/usr/bin/env python
"""Dynamic coherence-error detection on a simulated multiprocessor.

The motivating use case of the paper: run workloads on a cache-coherent
system, record every processor's observed values plus the bus's write
serialization, and check the trace.  A healthy machine always passes;
injected protocol faults (lost invalidations, stale memory responses,
dropped writes) produce the incoherent histories the verifier catches.

Run:  python examples/error_detection.py
"""

from repro import verify_coherence
from repro.memsys import (
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    false_sharing_workload,
    producer_consumer_workload,
    random_shared_workload,
)


def run_once(workload, config, faults=None):
    scripts, initial = workload
    system = MultiprocessorSystem(config, scripts, initial_memory=initial, faults=faults)
    return system.run()


def main() -> None:
    # ------------------------------------------------------------------
    # A healthy machine: every workload verifies, using the bus-supplied
    # write-order (the polynomial Section 5.2 algorithm).
    # ------------------------------------------------------------------
    print("== healthy machine ==")
    workloads = {
        "random sharing": random_shared_workload(
            num_processors=4, ops_per_processor=60, num_addresses=4, seed=7
        ),
        "producer/consumer": producer_consumer_workload(items=25, num_consumers=2),
        "false sharing": false_sharing_workload(num_processors=4, seed=7),
    }
    for name, wl in workloads.items():
        cfg = SystemConfig(num_processors=len(wl[0]), protocol="MESI", seed=7)
        res = run_once(wl, cfg)
        verdict = verify_coherence(res.execution, write_orders=res.write_orders)
        print(
            f"  {name:<18} {res.num_ops:>4} ops, "
            f"{res.bus_transactions:>4} bus txns -> "
            f"{'coherent' if verdict else 'VIOLATION'}"
        )

    # ------------------------------------------------------------------
    # Fault injection campaign: how often does each fault kind produce a
    # *detectable* coherence violation?
    # ------------------------------------------------------------------
    print("\n== fault injection campaign (30 runs per fault kind) ==")
    print(f"{'fault kind':<20} {'injected':>9} {'detected':>9} {'rate':>7}")
    for kind in FaultKind:
        injected = detected = 0
        for seed in range(30):
            wl = random_shared_workload(
                num_processors=4,
                ops_per_processor=50,
                num_addresses=3,
                values="unique",
                seed=seed,
            )
            cfg = SystemConfig(num_processors=4, protocol="MESI", seed=seed)
            res = run_once(wl, cfg, faults=FaultConfig.single(kind, seed=seed, rate=0.1))
            if not res.faults_injected:
                continue
            injected += 1
            verdict = verify_coherence(res.execution, write_orders=res.write_orders)
            if not verdict:
                detected += 1
        rate = f"{detected / injected:.0%}" if injected else "n/a"
        print(f"{kind.value:<20} {injected:>9} {detected:>9} {rate:>7}")

    print(
        "\nNote: detection below 100% is expected — a fault is only\n"
        "observable if some later read exposes the inconsistency, which\n"
        "is exactly why the paper studies *verification* of what was\n"
        "observed rather than of what happened."
    )


if __name__ == "__main__":
    main()
