"""The unified verification engine.

This package turns the paper's Figure 5.3 dispatch ladder into an
extensible pipeline:

* :mod:`repro.engine.backend` — the :class:`Backend` interface and the
  built-in deciders (write-order, single-op, readmap, exact, CNF+SAT);
* :mod:`repro.engine.registry` — named, tier-ordered backend
  registries; routing is data, and new deciders register without
  touching any dispatch code;
* :mod:`repro.engine.planner` — decomposes a multi-address execution
  into independent per-address tasks, ordered cheapest-first, and is
  the one place a task is served from the cache;
* :mod:`repro.engine.executor` — runs the plan serially, or on the
  process pool of :mod:`repro.engine.pool` when ``jobs=N`` meets heavy
  tasks, early-exiting on the first violation; its
  :func:`verify_vmc`, :func:`verify_vmc_at` and :func:`verify_vsc` are
  the public verifiers;
* :mod:`repro.engine.cache` — canonical-fingerprint result cache so
  isomorphic sub-executions are decided once;
* :mod:`repro.engine.vscc` — VSCC (Definition 6.2) and the §6.3
  conflict pipeline, on top of the verifiers;
* :mod:`repro.engine.streaming` — the online monitor.

Every run keeps its accounting in one :class:`repro.obs.Record`
(``result.report``): spans, counters and the per-task rows the CLI's
``--stats`` prints.

``repro`` exports the verifiers under their paper names
(``verify_coherence``, ``verify_sequential_consistency``, ...).  Names
load on first use, so ``import repro.engine.streaming`` loads no
offline engine.  See ``docs/engine.md``.
"""

from repro import _lazy

__all__ = _lazy(globals(), {
    "EXACT_STATE_BUDGET": "repro.engine.backend",
    "Backend": "repro.engine.backend",
    "BackendInapplicableError": "repro.engine.backend",
    "Instance": "repro.engine.backend",
    "estimated_states": "repro.engine.backend",
    "ResultCache": "repro.engine.cache",
    "canonicalize": "repro.engine.cache",
    "fingerprint": "repro.engine.cache",
    "Certificate": "repro.core.result",
    "CertificationError": "repro.core.result",
    "CERTIFY_MODES": "repro.engine.certify",
    "CertCheck": "repro.engine.certify",
    "ensure_certificate": "repro.engine.certify",
    "validate_result": "repro.engine.certify",
    "CHAOS_ENV": "repro.engine.chaos",
    "ChaosCrash": "repro.engine.chaos",
    "ChaosSpec": "repro.engine.chaos",
    "ResiliencePolicy": "repro.engine.executor",
    "execute_plan": "repro.engine.executor",
    "execute_tasks": "repro.engine.executor",
    "verify_vmc": "repro.engine.executor",
    "verify_vmc_at": "repro.engine.executor",
    "verify_vsc": "repro.engine.executor",
    "PlannedTask": "repro.engine.planner",
    "plan_task": "repro.engine.planner",
    "plan_vmc": "repro.engine.planner",
    "plan_vsc": "repro.engine.planner",
    "PORTFOLIO_MIN_STATES": "repro.engine.portfolio",
    "RACE_STATE_BUDGET": "repro.engine.portfolio",
    "PortfolioBackend": "repro.engine.portfolio",
    "EXPONENTIAL_TIER": "repro.engine.prepass",
    "PrepassInfo": "repro.engine.prepass",
    "prepass_vmc": "repro.engine.prepass",
    "prepass_vsc": "repro.engine.prepass",
    "BackendRegistry": "repro.engine.registry",
    "build_vmc_registry": "repro.engine.registry",
    "build_vsc_registry": "repro.engine.registry",
    "vmc_registry": "repro.engine.registry",
    "vsc_registry": "repro.engine.registry",
    "BatchPlan": "repro.engine.batch",
    "SourceOutcome": "repro.engine.batch",
    "batch_exit_code": "repro.engine.batch",
    "plan_batch": "repro.engine.batch",
    "run_batch": "repro.engine.batch",
    "verify_many": "repro.engine.batch",
    "ResultStore": "repro.engine.store",
    "fingerprint_key": "repro.engine.store",
    "DEFAULT_WINDOW": "repro.engine.streaming",
    "AddressMonitor": "repro.engine.streaming",
    "StreamingVerifier": "repro.engine.streaming",
    "StreamVerdict": "repro.engine.streaming",
    "monitor_execution": "repro.engine.streaming",
})
