"""repro — verifying memory coherence and consistency from traces.

A production-quality reproduction of Cantin, Lipasti & Smith,
*The Complexity of Verifying Memory Coherence and Consistency*
(SPAA 2003 / UW-Madison TR ECE-03-01).

Subpackages:

* :mod:`repro.core` — the verifiers (VMC, VSC, VSCC) with the paper's
  polynomial special cases and NP-complete general-case backends;
* :mod:`repro.engine` — the unified verification engine: pluggable
  backend registry (Figure 5.3 as data), per-address planner, parallel
  executor, and canonical-fingerprint result cache;
* :mod:`repro.sat` — a from-scratch SAT toolkit (DPLL + CDCL);
* :mod:`repro.reductions` — the paper's reductions (Figures 4.1, 5.1,
  5.2, 6.1, 6.2);
* :mod:`repro.memsys` — a bus-based MSI/MESI multiprocessor simulator
  with fault injection, used to generate executions and write-orders;
* :mod:`repro.consistency` — memory consistency models (SC, TSO, PSO,
  RMO, ...), operational checkers, and a litmus-test library;
* :mod:`repro.util` — digraphs, timing, seeded RNG.

Quick start::

    from repro import ExecutionBuilder, verify_coherence

    b = ExecutionBuilder(initial={"x": 0})
    b.process().write("x", 1).read("x", 1)
    b.process().read("x", 1).read("x", 0)
    result = verify_coherence(b.build())
    assert not result  # P1 saw the new value, then the old one

See ``examples/quickstart.py`` for a guided tour.
"""

from repro.core import (
    INITIAL,
    Execution,
    ExecutionBuilder,
    OpKind,
    Operation,
    ProcessHistory,
    VerificationResult,
    execution_from_schedule,
    is_coherent_schedule,
    is_sc_schedule,
    parse_trace,
    read,
    rmw,
    verify_coherence,
    verify_coherence_at,
    verify_sequential_consistency,
    verify_vscc,
    vsc_via_conflict,
    write,
)
from repro.engine import ResultCache
from repro.obs import Record

__version__ = "1.0.0"

__all__ = [
    "INITIAL",
    "Execution",
    "ExecutionBuilder",
    "ResultCache",
    "OpKind",
    "Operation",
    "ProcessHistory",
    "Record",
    "VerificationResult",
    "execution_from_schedule",
    "is_coherent_schedule",
    "is_sc_schedule",
    "parse_trace",
    "read",
    "rmw",
    "write",
    "verify_coherence",
    "verify_coherence_at",
    "verify_sequential_consistency",
    "verify_vscc",
    "vsc_via_conflict",
    "__version__",
]
