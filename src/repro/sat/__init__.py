"""A self-contained SAT substrate.

The paper's reductions run from SAT/3SAT *to* coherence problems, and our
practical VMC/VSC verifiers run the other way, encoding trace-verification
questions *into* CNF.  Both directions need a SAT toolkit; no solver
package is available offline, so this subpackage provides one from
scratch:

* :mod:`repro.sat.cnf` — formula representation, assignments, evaluation;
* :mod:`repro.sat.dimacs` — DIMACS CNF reader/writer;
* :mod:`repro.sat.dpll` — classic DPLL with unit propagation and pure
  literals (reference solver, easy to audit);
* :mod:`repro.sat.cdcl` — conflict-driven clause learning with
  two-watched-literal propagation, first-UIP learning, VSIDS branching,
  and Luby restarts (the production solver);
* :mod:`repro.sat.random_sat` — uniform random k-SAT, planted instances,
  and the standard SAT-to-3SAT clause splitting;
* :mod:`repro.sat.enumerate_models` — brute-force enumeration, used as a
  ground-truth oracle in tests;
* :mod:`repro.sat.simplify` — cheap preprocessing.
"""

from repro import _lazy

__all__ = _lazy(globals(), {
    "CNF": "repro.sat.cnf",
    "Assignment": "repro.sat.cnf",
    "Lit": "repro.sat.cnf",
    "neg": "repro.sat.cnf",
    "var_of": "repro.sat.cnf",
    "is_pos": "repro.sat.cnf",
    "solve_dpll": "repro.sat.dpll",
    "CDCLSolver": "repro.sat.cdcl",
    "solve_cdcl": "repro.sat.cdcl",
    "random_ksat": "repro.sat.random_sat",
    "planted_ksat": "repro.sat.random_sat",
    "to_3sat": "repro.sat.random_sat",
    "brute_force_satisfiable": "repro.sat.enumerate_models",
    "enumerate_models": "repro.sat.enumerate_models",
    "parse_dimacs": "repro.sat.dimacs",
    "write_dimacs": "repro.sat.dimacs",
})


def solve(cnf, solver: str = "cdcl"):
    """Solve ``cnf``; return a satisfying assignment or ``None`` (UNSAT).

    ``solver`` selects the backend: ``"cdcl"`` (default), ``"dpll"``, or
    ``"brute"`` (exponential enumeration, only for tiny formulas).
    """
    if solver == "cdcl":
        from repro.sat.cdcl import solve_cdcl as run
    elif solver == "dpll":
        from repro.sat.dpll import solve_dpll as run
    elif solver == "brute":
        from repro.sat.enumerate_models import brute_force_satisfiable as run
    else:
        raise ValueError(f"unknown SAT backend {solver!r}")
    return run(cnf)
