"""The paper's contribution: verifiers for memory coherence/consistency.

Public surface:

* data model — :class:`Operation`, :class:`ProcessHistory`,
  :class:`Execution`, :data:`INITIAL`;
* construction — :class:`ExecutionBuilder`, :func:`parse_trace`;
* certificate checking — :func:`is_coherent_schedule`,
  :func:`check_coherence_witnesses`, :func:`is_sc_schedule`;
* decision procedures — :func:`verify_coherence`,
  :func:`verify_coherence_at`, :func:`verify_sequential_consistency`,
  :func:`verify_vscc`, :func:`vsc_via_conflict`, :func:`vsc_conflict`.
"""

from repro.core.types import (
    INITIAL,
    Address,
    Execution,
    OpKind,
    Operation,
    ProcessHistory,
    Value,
    read,
    rmw,
    schedule_str,
    write,
)
from repro.core.builder import ExecutionBuilder, ProcessBuilder, parse_trace
from repro.core.checker import (
    CheckOutcome,
    check_coherence_witnesses,
    execution_from_schedule,
    is_coherent_schedule,
    is_sc_schedule,
    schedule_respects_program_order,
    value_trace_ok,
)
from repro.core.result import VerificationResult
from repro.core.exact import SearchBudgetExceeded, exact_vmc, exact_vsc
from repro.core.vmc import verify_coherence, verify_coherence_at
from repro.core.vsc import verify_sequential_consistency
from repro.core.vscc import verify_vscc, vsc_via_conflict
from repro.core.conflict import vsc_conflict
from repro.core.encode import encode_legal_schedule, sat_vmc, sat_vsc
from repro.core.explain import MinimalViolation, minimize_violation
from repro.core.online import CoherenceMonitor, SystemMonitor, monitor_run
from repro.core.serialize import dumps as execution_dumps, loads as execution_loads

__all__ = [
    "INITIAL",
    "Address",
    "Execution",
    "OpKind",
    "Operation",
    "ProcessHistory",
    "Value",
    "read",
    "rmw",
    "write",
    "schedule_str",
    "ExecutionBuilder",
    "ProcessBuilder",
    "parse_trace",
    "CheckOutcome",
    "check_coherence_witnesses",
    "execution_from_schedule",
    "is_coherent_schedule",
    "is_sc_schedule",
    "schedule_respects_program_order",
    "value_trace_ok",
    "VerificationResult",
    "SearchBudgetExceeded",
    "exact_vmc",
    "exact_vsc",
    "verify_coherence",
    "verify_coherence_at",
    "verify_sequential_consistency",
    "verify_vscc",
    "vsc_via_conflict",
    "vsc_conflict",
    "encode_legal_schedule",
    "sat_vmc",
    "sat_vsc",
    "MinimalViolation",
    "minimize_violation",
    "CoherenceMonitor",
    "SystemMonitor",
    "monitor_run",
    "execution_dumps",
    "execution_loads",
]
