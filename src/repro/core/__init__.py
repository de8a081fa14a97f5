"""The paper's contribution: the data model, the certificate checker,
and the deciders for memory coherence/consistency.

Public surface:

* data model — :class:`Operation`, :class:`ProcessHistory`,
  :class:`Execution`, :data:`INITIAL`;
* construction — :class:`ExecutionBuilder`, :func:`parse_trace`;
* certificate checking — :func:`is_coherent_schedule`,
  :func:`check_coherence_witnesses`, :func:`is_sc_schedule`;
* deciders — :func:`exact_vmc`, :func:`exact_vsc`, :func:`sat_vmc`,
  :func:`sat_vsc`, :func:`vsc_conflict`.

This package imports nothing above it.  The public verifiers that
route between the deciders (Definitions 4.1, 6.1 and 6.2) are the
engine's: ``from repro import verify_coherence``, or
:func:`repro.engine.verify_vmc`.  Names load on first use.
"""

from repro import _lazy

__all__ = _lazy(globals(), {
    "INITIAL": "repro.core.types",
    "Address": "repro.core.types",
    "Execution": "repro.core.types",
    "OpKind": "repro.core.types",
    "Operation": "repro.core.types",
    "ProcessHistory": "repro.core.types",
    "Value": "repro.core.types",
    "read": "repro.core.types",
    "rmw": "repro.core.types",
    "write": "repro.core.types",
    "schedule_str": "repro.core.types",
    "ExecutionBuilder": "repro.core.builder",
    "ProcessBuilder": "repro.core.builder",
    "parse_trace": "repro.core.builder",
    "CheckOutcome": "repro.core.checker",
    "check_coherence_witnesses": "repro.core.checker",
    "execution_from_schedule": "repro.core.checker",
    "is_coherent_schedule": "repro.core.checker",
    "is_sc_schedule": "repro.core.checker",
    "schedule_respects_program_order": "repro.core.checker",
    "value_trace_ok": "repro.core.checker",
    "VerificationResult": "repro.core.result",
    "SearchBudgetExceeded": "repro.core.exact",
    "exact_vmc": "repro.core.exact",
    "exact_vsc": "repro.core.exact",
    "vsc_conflict": "repro.core.conflict",
    "encode_legal_schedule": "repro.core.encode",
    "sat_vmc": "repro.core.encode",
    "sat_vsc": "repro.core.encode",
    "MinimalViolation": "repro.core.explain",
    "minimize_violation": "repro.core.explain",
    "execution_dumps": "repro.core.serialize:dumps",
    "execution_loads": "repro.core.serialize:loads",
})
