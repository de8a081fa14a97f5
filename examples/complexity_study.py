#!/usr/bin/env python
"""A miniature of the Figure 5.3 complexity landscape.

Times the polynomial special-case verifiers across input sizes and
fits empirical exponents, then shows exhaustive search blowing up on
reduction-generated hard instances while the certificate checker stays
linear.  The full version (every table cell, more sizes) lives in
``benchmarks/test_fig5_3_summary_table.py``.

Run:  python examples/complexity_study.py
"""

import random
import time

from repro.core.checker import execution_from_schedule, is_coherent_schedule
from repro.core.exact import SearchBudgetExceeded, exact_vmc
from repro.core.types import Operation, OpKind
from repro import verify_coherence_at
from repro.memsys import MultiprocessorSystem, SystemConfig, random_shared_workload
from repro.reductions.sat_to_vmc import SatToVmc
from repro.sat.random_sat import random_ksat
from repro.util.timing import RepeatTimer


def coherent_trace(n_ops: int, nproc: int, seed: int):
    """A random coherent single-address trace, by generating a schedule."""
    rng = random.Random(seed)
    schedule = []
    current = 0
    for _ in range(n_ops):
        p = rng.randrange(nproc)
        if rng.random() < 0.5:
            current = rng.randrange(1_000_000)
            schedule.append(
                Operation(OpKind.WRITE, "x", p, 0, value_written=current)
            )
        else:
            schedule.append(Operation(OpKind.READ, "x", p, 0, value_read=current))
    return execution_from_schedule(schedule, nproc, initial={"x": 0}), schedule


def main() -> None:
    print("== polynomial cells: measured scaling ==")
    # Write-order supplied (Section 5.2): expect near-linear slope.
    timer = RepeatTimer()
    for n in (500, 1000, 2000, 4000, 8000):
        scripts, init = random_shared_workload(
            num_processors=4,
            ops_per_processor=n // 4,
            num_addresses=1,
            values="unique",
            seed=n,
        )
        res = MultiprocessorSystem(
            SystemConfig(num_processors=4, seed=n), scripts, initial_memory=init
        ).run()
        timer.measure(
            n,
            lambda: verify_coherence_at(
                res.execution, 0, method="write-order", write_order=res.write_orders[0]
            ),
        )
    print(f"write-order given:   fitted exponent {timer.slope():.2f} "
          f"(paper: O(n^2) upper bound; ours is O(n log n))")

    # Certificate checking (membership in NP): linear.
    timer = RepeatTimer()
    for n in (1000, 2000, 4000, 8000):
        ex, schedule = coherent_trace(n, 4, seed=n)
        timer.measure(n, lambda: is_coherent_schedule(ex, schedule))
    print(f"certificate check:   fitted exponent {timer.slope():.2f} (O(n))")

    print("\n== the NP-complete cell: exact search on SAT-reduction instances ==")
    print(f"{'vars':>5} {'ops':>5} {'states':>10} {'seconds':>9}")
    for m in (2, 3, 4, 5, 6):
        cnf = random_ksat(m, max(2, int(m * 1.5)), k=min(3, m), seed=m)
        red = SatToVmc(cnf)
        t0 = time.perf_counter()
        try:
            result = exact_vmc(red.execution, max_states=3_000_000)
            states = result.stats["states"]
        except SearchBudgetExceeded as e:
            states = e.states
        dt = time.perf_counter() - t0
        print(f"{m:>5} {red.num_operations:>5} {states:>10} {dt:>9.3f}")
    print("(state counts grow super-polynomially with formula size — the\n"
          " certificate stays linear to check: that asymmetry is NP.)")


if __name__ == "__main__":
    main()
