"""E6.2 / E6.3 — Figure 6.2: SAT → VSCC, coherent by construction.

Regenerates the construction-size claims (2m+3 processes, m+n+1
addresses), verifies the Figure 6.3 property — every address has an
explicitly constructible coherent schedule, checkable in polynomial
time — and re-proves that deciding sequential consistency of these
*coherent* executions still decides SAT.
"""

from repro.core.checker import is_coherent_schedule, is_sc_schedule
from repro.core.exact import exact_vsc
from repro import verify_coherence
from repro.reductions.sat_to_vscc import SatToVscc
from repro.sat.enumerate_models import brute_force_satisfiable
from repro.sat.random_sat import random_ksat

from benchmarks.conftest import report


def test_fig6_2_construction_sizes(benchmark):
    rows = ["   m    n  processes  2m+3  addresses  m+n+1"]
    for m, n in [(1, 1), (2, 3), (4, 4), (8, 10), (16, 24)]:
        cnf = random_ksat(m, n, k=min(3, m), seed=m)
        red = SatToVscc(cnf)
        assert red.num_processes == 2 * m + 3
        assert red.num_addresses == m + n + 1
        rows.append(
            f"{m:>4} {n:>4} {red.num_processes:>10} {2*m+3:>5} "
            f"{red.num_addresses:>10} {m+n+1:>6}"
        )
    report("Figure 6.2 — construction sizes", "\n".join(rows))
    benchmark(lambda: SatToVscc(random_ksat(16, 24, k=3, seed=0)))


def test_fig6_3_per_address_coherent(benchmark):
    """Every address of the VSCC instance has a coherent schedule,
    verifiable in polynomial time — the promise of Definition 6.2."""
    cnf = random_ksat(6, 8, k=3, seed=3)
    red = SatToVscc(cnf)

    def check_promise() -> int:
        schedules = red.per_address_schedules()
        for addr, sched in schedules.items():
            outcome = is_coherent_schedule(red.execution, sched, addr=addr)
            assert outcome, (addr, outcome.reason)
        return len(schedules)

    count = benchmark(check_promise)
    assert count == red.num_addresses
    # The dispatcher (polynomial routes) agrees.
    assert verify_coherence(red.execution)
    report(
        "Figure 6.3 — coherence by construction",
        f"all {count} addresses of a (m=6, n=8) instance have explicit "
        f"coherent schedules accepted by the certificate checker",
    )


def test_fig6_2_equivalence_sweep(benchmark):
    def sweep() -> tuple[int, int]:
        agree = total = 0
        for seed in range(10):
            m = 1 + seed % 2
            cnf = random_ksat(m, 1 + seed % 3, k=min(2, m), seed=seed)
            red = SatToVscc(cnf)
            sat = brute_force_satisfiable(cnf) is not None
            vsc = exact_vsc(red.execution)
            total += 1
            if bool(vsc) == sat:
                agree += 1
            if vsc:
                assert is_sc_schedule(red.execution, vsc.schedule)
                assert cnf.evaluate(red.decode_assignment(vsc.schedule))
        return agree, total

    agree, total = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert agree == total
    report(
        "Figure 6.2 — SAT ⇔ VSC-of-coherent-execution equivalence",
        f"{agree}/{total} random formulas agree (witnesses decoded and "
        f"validated) — the coherence promise does not help",
    )
