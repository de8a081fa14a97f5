"""Solving SAT *through* the reductions (round-trip utilities).

Mostly a demonstration vehicle: ``solve_sat_via_vmc`` reduces a formula
to a VMC instance (Figure 4.1), decides it with a coherence verifier,
and decodes the witness schedule back into a satisfying assignment.
Used by ``examples/sat_via_coherence.py`` and the equivalence tests —
an end-to-end proof that the reductions are faithful.
"""

from __future__ import annotations

from repro.engine import verify_vmc, verify_vsc
from repro.reductions.sat_to_vmc import SatToVmc
from repro.reductions.sat_to_vscc import SatToVscc
from repro.sat.cnf import CNF, Assignment


def solve_sat_via_vmc(cnf: CNF, method: str = "auto") -> Assignment | None:
    """Decide ``cnf`` by reducing to VMC and verifying coherence.

    Returns a satisfying assignment decoded from the witness schedule,
    or ``None`` when the formula is unsatisfiable (the VMC instance has
    no coherent schedule).
    """
    reduction = SatToVmc(cnf)
    result = verify_vmc(reduction.execution, method=method)
    if not result:
        return None
    if result.schedule is None:
        raise RuntimeError(
            f"verifier ({result.method}) said coherent but gave no witness"
        )
    assignment = reduction.decode_assignment(result.schedule)
    if not cnf.evaluate(assignment):
        raise RuntimeError(
            "decoded assignment does not satisfy the formula — the "
            "reduction or the verifier is broken"
        )
    return assignment


def solve_sat_via_vscc(cnf: CNF, method: str = "auto") -> Assignment | None:
    """Decide ``cnf`` by reducing to VSCC and verifying SC.

    The constructed execution is coherent by construction (Figure 6.3),
    so this exercises the paper's point that the NP-hardness survives
    the coherence promise.
    """
    reduction = SatToVscc(cnf)
    result = verify_vsc(reduction.execution, method=method)
    if not result:
        return None
    if result.schedule is None:
        raise RuntimeError(
            f"verifier ({result.method}) said SC but gave no witness"
        )
    assignment = reduction.decode_assignment(result.schedule)
    if not cnf.evaluate(assignment):
        raise RuntimeError(
            "decoded assignment does not satisfy the formula — the "
            "reduction or the verifier is broken"
        )
    return assignment
