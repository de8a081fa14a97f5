"""E6.1 — Figure 6.1: acquire/release wrapping for coherence-relaxing
models (LRC).

Regenerates the wrapped instance and shows the hardness transfer:
checking LRC-adherence of the wrapped trace decides coherence of the
original, hence SAT of the source formula.
"""

from repro.consistency.lrc import lrc_holds
from repro import verify_coherence
from repro.reductions.sat_to_vmc import SatToVmc, fig_4_2_example
from repro.reductions.sync_wrap import critical_sections, wrap_with_sync
from repro.sat.enumerate_models import brute_force_satisfiable
from repro.sat.random_sat import random_ksat, random_unsat_core

from benchmarks.conftest import report


def test_fig6_1_wrapping_shape(benchmark):
    red = fig_4_2_example()
    wrapped = benchmark(lambda: wrap_with_sync(red.execution))
    assert wrapped.num_ops == 3 * red.execution.num_ops
    sections = critical_sections(wrapped, "lock")
    assert len(sections) == red.execution.num_ops
    assert all(len(s) == 1 for s in sections)
    report(
        "Figure 6.1 — wrapping the Figure 4.2 instance",
        f"{red.execution.num_ops} data ops -> {wrapped.num_ops} ops "
        f"({len(sections)} single-op critical sections of one lock)",
    )


def test_fig6_1_lrc_decides_sat(benchmark):
    def sweep() -> tuple[int, int]:
        agree = total = 0
        cases = [random_ksat(2 + s % 2, 2 + s % 3, k=2, seed=s) for s in range(6)]
        cases.append(random_unsat_core(seed=0))
        for cnf in cases:
            red = SatToVmc(cnf)
            wrapped = wrap_with_sync(red.execution)
            sat = brute_force_satisfiable(cnf) is not None
            lrc = bool(lrc_holds(wrapped))
            vmc = bool(verify_coherence(red.execution))
            total += 1
            if lrc == sat == vmc:
                agree += 1
        return agree, total

    agree, total = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert agree == total
    report(
        "Figure 6.1 — LRC(wrapped) == VMC(original) == SAT(φ)",
        f"{agree}/{total} formulas (including an UNSAT core): verifying "
        f"LRC on the locked trace decides satisfiability",
    )
