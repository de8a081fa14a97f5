#!/usr/bin/env python
"""Solving SAT through the paper's reductions — Figure 4.1/4.2 live.

Verifying memory coherence is NP-Complete because SAT hides inside it;
this example makes the hiding concrete: a formula becomes process
histories, a coherence verifier schedules them, and the interleaving
of two writes *is* the satisfying assignment.

Run:  python examples/sat_via_coherence.py
"""

from repro.core.types import schedule_str
from repro import verify_coherence
from repro.reductions.decode import solve_sat_via_vmc, solve_sat_via_vscc
from repro.reductions.sat_to_vmc import SatToVmc, fig_4_2_example
from repro.sat.cnf import CNF
from repro.sat.random_sat import random_unsat_core


def main() -> None:
    # ------------------------------------------------------------------
    # The worked example of Figure 4.2: the formula Q = u.
    # ------------------------------------------------------------------
    print("== Figure 4.2: the formula Q = u as a VMC instance ==")
    reduction = fig_4_2_example()
    print(reduction.describe())
    print(reduction.execution.pretty())
    result = verify_coherence(reduction.execution)
    print(f"\ncoherent: {bool(result)}  (method: {result.method})")
    print(f"witness:  {schedule_str(result.schedule)}")
    print(f"decoded assignment: {reduction.decode_assignment(result.schedule)}")

    # ------------------------------------------------------------------
    # A real formula: (a ∨ b) ∧ (¬a ∨ c) ∧ (¬b ∨ ¬c) ∧ (a ∨ c)
    # ------------------------------------------------------------------
    print("\n== solving a 3-variable formula via coherence ==")
    cnf = CNF(num_vars=3)
    cnf.add_clauses([[1, 2], [-1, 3], [-2, -3], [1, 3]])
    reduction = SatToVmc(cnf)
    print(reduction.describe())
    model = solve_sat_via_vmc(cnf)
    print(f"satisfying assignment via VMC: {model}")
    assert model is not None and cnf.evaluate(model)

    # ------------------------------------------------------------------
    # The same formula through the VSCC reduction (Figure 6.2): the
    # instance is coherent by construction, yet deciding sequential
    # consistency still solves SAT.
    # ------------------------------------------------------------------
    print("\n== the same formula via VSCC (Figure 6.2) ==")
    model = solve_sat_via_vscc(cnf)
    print(f"satisfying assignment via VSCC: {model}")

    # ------------------------------------------------------------------
    # An unsatisfiable formula maps to an incoherent execution.
    # ------------------------------------------------------------------
    print("\n== an UNSAT formula ==")
    cnf = random_unsat_core(seed=3)
    print(f"formula: all 8 clauses over 3 variables (UNSAT by construction)")
    model = solve_sat_via_vmc(cnf)
    print(f"via VMC: {model}  (None == no coherent schedule == UNSAT)")
    assert model is None


if __name__ == "__main__":
    main()
