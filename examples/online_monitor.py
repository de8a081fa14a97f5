#!/usr/bin/env python
"""Online coherence monitoring: catching protocol errors as they commit.

The offline verifiers need the whole trace; a deployed checker wants to
flag the *first* incoherent event.  With the memory system announcing
its write serialization (Section 5.2's augmentation — the bus provides
it naturally), the :mod:`repro.engine.streaming` monitor checks each
commit in amortized O(log g) (g = live write-order gaps).

Run:  python examples/online_monitor.py
"""

from repro.core.types import read, rmw, write
from repro.engine.streaming import AddressMonitor, StreamingVerifier, monitor_run
from repro.memsys import (
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    random_shared_workload,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Hand-fed events: the monitor as a protocol watchdog.
    # ------------------------------------------------------------------
    print("== 1. hand-fed commit stream ==")
    mon = AddressMonitor("x", initial=0)
    mon.commit_write(proc=0, value=1)
    print("P1 reads 1:", mon.commit_read(proc=1, value=1) or "ok")
    print("P1 reads 0:", mon.commit_read(proc=1, value=0) or "ok")
    print(f"monitor verdict: {'clean' if mon.ok else 'VIOLATION'}")

    # ------------------------------------------------------------------
    # 2. Replaying simulator runs, healthy and faulty.
    # ------------------------------------------------------------------
    print("\n== 2. replaying simulator runs ==")
    scripts, init = random_shared_workload(
        num_processors=4, ops_per_processor=60, num_addresses=3, seed=5
    )
    healthy = MultiprocessorSystem(
        SystemConfig(num_processors=4, seed=5), scripts, initial_memory=init
    ).run()
    violations = monitor_run(healthy)
    print(f"healthy run: {healthy.num_ops} ops -> "
          f"{'VIOLATION' if violations else 'clean'}")

    detected = injected = 0
    first_message = None
    for seed in range(25):
        scripts, init = random_shared_workload(
            num_processors=4, ops_per_processor=50,
            num_addresses=2, write_fraction=0.3, seed=seed,
        )
        res = MultiprocessorSystem(
            SystemConfig(num_processors=4, seed=seed),
            scripts,
            initial_memory=init,
            faults=FaultConfig.single(FaultKind.CORRUPTED_VALUE, seed=seed, rate=0.2),
        ).run()
        if not res.faults_injected:
            continue
        injected += 1
        violations = monitor_run(res)
        if violations:
            detected += 1
            if first_message is None:
                first_message = violations[0]
    print(f"corrupted-value campaign: {detected}/{injected} detected online")
    if first_message:
        print(f"example violation report:\n  {first_message}")

    # ------------------------------------------------------------------
    # 3. Monitoring several addresses at once.
    # ------------------------------------------------------------------
    # Each operation names its process and its program-order index.
    print("\n== 3. a multi-address StreamingVerifier ==")
    sv = StreamingVerifier(2, initial={"x": 0, "y": 0})
    for op in (
        write("x", 1, proc=0, index=0),
        write("y", 1, proc=1, index=0),
        rmw("y", 1, 2, proc=0, index=1),
        read("x", 1, proc=1, index=1),
    ):
        verdict = sv.feed_op(op)
        if verdict is not None:
            print(f"violation: {verdict.result.reason}")
    verdict = sv.finalize()
    print(f"verdict: {'clean' if verdict.kind == 'final' else 'VIOLATION'} "
          f"({len(sv.monitors)} monitored addresses)")


if __name__ == "__main__":
    main()
