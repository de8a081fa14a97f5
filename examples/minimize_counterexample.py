#!/usr/bin/env python
"""From "the machine is broken" to a three-operation repro.

A fault-injection run produces hundreds of operations and a bare
"no coherent schedule exists".  The minimizer shrinks the trace to a
tiny core that still violates coherence — the repro you would attach to
a hardware bug report.

Run:  python examples/minimize_counterexample.py
"""

from repro.core.explain import minimize_violation
from repro import verify_coherence
from repro.memsys import (
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    random_shared_workload,
)


def main() -> None:
    # Find a failing run (corrupted datapath somewhere in the machine).
    failing = None
    for seed in range(60):
        scripts, init = random_shared_workload(
            num_processors=4,
            ops_per_processor=60,
            num_addresses=3,
            write_fraction=0.3,
            seed=seed,
        )
        cfg = SystemConfig(num_processors=4, seed=seed)
        res = MultiprocessorSystem(
            cfg,
            scripts,
            initial_memory=init,
            faults=FaultConfig.single(FaultKind.CORRUPTED_VALUE, seed=seed, rate=0.1),
        ).run()
        verdict = verify_coherence(res.execution, write_orders=res.write_orders)
        if res.faults_injected and not verdict:
            failing = (seed, res, verdict)
            break
    assert failing is not None, "no detectable fault in 60 seeds?"
    seed, res, verdict = failing

    print(f"seed {seed}: {res.num_ops} operations, verdict: VIOLATION")
    print(f"raw reason: {verdict.reason}\n")

    # Which address failed?
    bad_addr = next(a for a, r in verdict.per_address.items() if not r)
    sub = res.execution.restrict_to_address(bad_addr)
    print(f"address {bad_addr}: {sub.num_ops} operations involved")

    # Shrink.  Renumber the sub-execution so the minimizer's oracle
    # (exact search) sees a standalone instance.
    from repro.core.types import Execution

    standalone = Execution.from_ops(
        [list(h.operations) for h in sub.histories],
        initial=sub.initial,
        final=sub.final,
    )
    mv = minimize_violation(standalone)
    print(f"\n== minimal repro ({mv.core_ops} ops) ==")
    print(mv.narrative())

    # Ground truth: the actual injected fault.
    ev = res.fault_events[0]
    print(
        f"\ninjected fault was: {ev.kind.value} at step {ev.step}, "
        f"P{ev.proc}, address {ev.addr}"
    )


if __name__ == "__main__":
    main()
