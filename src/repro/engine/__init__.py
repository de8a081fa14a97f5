"""The unified verification engine.

This package runs the paper's Figure 5.3 dispatch ladder as a
pipeline:

* :mod:`repro.engine.backend` — the :class:`Backend` interface (one
  entry point, ``run(instance, should_stop=None)``) and the deciders
  (write-order, single-op, readmap, exact, CNF+SAT) with their state
  budgets;
* :mod:`repro.engine.registry` — Figure 5.3's ladder as data: one
  fixed, named backend ladder per problem;
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
    "PORTFOLIO_MIN_STATES": "repro.engine.backend",
    "RACE_STATE_BUDGET": "repro.engine.backend",
    "Backend": "repro.engine.backend",
    "BackendInapplicableError": "repro.engine.backend",
    "Instance": "repro.engine.backend",
    "estimated_states": "repro.engine.backend",
    "ResultCache": "repro.engine.cache",
    "canonicalize": "repro.engine.cache",
    "fingerprint": "repro.engine.cache",
    "Certificate": "repro.core.result",
    "CertificationError": "repro.core.result",
    "CERTIFY_MODES": "repro.core.result",
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
    "PortfolioBackend": "repro.engine.portfolio",
    "PrepassInfo": "repro.engine.prepass",
    "prepass_vmc": "repro.engine.prepass",
    "prepass_vsc": "repro.engine.prepass",
    "BackendRegistry": "repro.engine.registry",
    "LADDERS": "repro.engine.registry",
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
