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
  tasks, early-exiting on the first violation;
* :mod:`repro.engine.cache` — canonical-fingerprint result cache so
  isomorphic sub-executions are decided once;

Every run keeps its accounting in one :class:`repro.obs.Record`
(``result.report``): spans, counters and the per-task rows the CLI's
``--stats`` prints.

The public verifiers in :mod:`repro.core.vmc` / :mod:`repro.core.vsc`
are re-exports of :func:`verify_vmc` / :func:`verify_vsc`.  See
``docs/engine.md``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro import obs
from repro.core.result import Certificate, VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.backend import (
    EXACT_STATE_BUDGET,
    Backend,
    BackendInapplicableError,
    Instance,
    estimated_states,
)
from repro.engine.cache import ResultCache, canonicalize, fingerprint
from repro.engine.certify import (
    CERTIFY_MODES,
    CertCheck,
    CertificationError,
    ensure_certificate,
    validate_result,
)
from repro.engine.chaos import CHAOS_ENV, ChaosCrash, ChaosSpec
from repro.engine.executor import ResiliencePolicy, execute_plan, execute_tasks
from repro.engine.planner import PlannedTask, plan_task, plan_vmc, plan_vsc
from repro.engine.portfolio import (
    PORTFOLIO_MIN_STATES,
    RACE_STATE_BUDGET,
    PortfolioBackend,
)
from repro.engine.prepass import (
    EXPONENTIAL_TIER,
    PrepassInfo,
    prepass_vmc,
    prepass_vsc,
)
from repro.engine.registry import (
    BackendRegistry,
    build_vmc_registry,
    build_vsc_registry,
    vmc_registry,
    vsc_registry,
)
from repro.engine.batch import (
    BatchPlan,
    SourceOutcome,
    batch_exit_code,
    plan_batch,
    run_batch,
    verify_many,
)
from repro.engine.store import ResultStore, fingerprint_key
from repro.engine.streaming import (
    DEFAULT_WINDOW,
    AddressMonitor,
    StreamingVerifier,
    StreamVerdict,
    monitor_execution,
)

__all__ = [
    "CERTIFY_MODES",
    "CHAOS_ENV",
    "DEFAULT_WINDOW",
    "EXACT_STATE_BUDGET",
    "EXPONENTIAL_TIER",
    "PORTFOLIO_MIN_STATES",
    "RACE_STATE_BUDGET",
    "AddressMonitor",
    "Backend",
    "BackendInapplicableError",
    "BackendRegistry",
    "BatchPlan",
    "CertCheck",
    "Certificate",
    "CertificationError",
    "ChaosCrash",
    "ChaosSpec",
    "Instance",
    "PlannedTask",
    "PortfolioBackend",
    "PrepassInfo",
    "ResiliencePolicy",
    "ResultCache",
    "ResultStore",
    "SourceOutcome",
    "StreamVerdict",
    "StreamingVerifier",
    "batch_exit_code",
    "build_vmc_registry",
    "build_vsc_registry",
    "canonicalize",
    "ensure_certificate",
    "estimated_states",
    "execute_plan",
    "execute_tasks",
    "fingerprint",
    "fingerprint_key",
    "monitor_execution",
    "plan_batch",
    "plan_task",
    "plan_vmc",
    "plan_vsc",
    "run_batch",
    "verify_many",
    "prepass_vmc",
    "prepass_vsc",
    "validate_result",
    "verify_vmc",
    "verify_vmc_at",
    "verify_vsc",
    "vmc_registry",
    "vsc_registry",
]


def _resolve_cache(cache: "ResultCache | bool | None") -> ResultCache | None:
    """``None`` → fresh per-call cache (dedupes identical sub-executions
    within one verification); ``False`` → caching disabled; a
    :class:`ResultCache` → shared across calls (campaigns, sweeps)."""
    if cache is None:
        return ResultCache()
    if cache is False:
        return None
    return cache


def _run(plan, cache, answer, **kwargs) -> VerificationResult:
    """One engine run in its own record: ``plan(cache)`` under the
    ``plan`` span (lookups and pre-pass included), :func:`execute_plan`,
    then ``answer(results)``, which carries the record and counts once
    if UNKNOWN."""
    with obs.opened(obs.Record(rows=True)) as rec:
        with obs.span("plan"):
            tasks = plan(cache)
        result = answer(execute_plan(tasks, cache=cache, **kwargs)[0])
        obs.count_unknown(result)
    result.report = rec
    return result


def verify_vmc(
    execution: Execution,
    method: str = "auto",
    write_orders: Mapping[Address, Sequence[Operation]] | None = None,
    jobs: int = 1,
    cache: "ResultCache | bool | None" = None,
    registry: BackendRegistry | None = None,
    early_exit: bool = True,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> VerificationResult:
    """Decide whether the execution is coherent (Section 3): a coherent
    schedule exists for *every* address.

    Plans one task per constrained address, runs them (in parallel on
    worker processes when ``jobs > 1`` and the plan still contains
    heavy exponential-tier work), and aggregates.  Under
    ``method="auto"`` the planner decides from each instance whether
    the polynomial pre-pass runs and whether exact search races SAT;
    a forced ``method`` runs that backend alone, with neither.
    Per-address results (with witnesses) are in ``result.per_address``;
    execution statistics are in ``result.report``.

    ``resilience`` (a :class:`ResiliencePolicy`) adds deadlines, crash
    retries and fault injection; tasks abandoned under it yield sound
    UNKNOWN per-address results, and the aggregate is UNKNOWN exactly
    when no violation was found but some address went undecided.

    ``certify`` (``"off"``/``"on"``/``"strict"``) makes every verdict
    carry a certificate validated by the independent trusted checker
    (:mod:`repro.engine.certify`) before it is cached or returned:
    ``on`` raises :class:`CertificationError` on any failure, ``strict``
    downgrades the offending verdict to a sound UNKNOWN(uncertified).
    """
    addrs = execution.constrained_addresses()
    if not addrs:
        result = VerificationResult(holds=True, method="trivial", schedule=[])
        if certify != "off":
            result.certificate = Certificate("witness")
            result.stats["certified"] = True
        result.report = obs.Record(rows=True)
        result.report.info.update(problem="vmc", jobs=max(1, jobs))
        return result
    return _run(
        lambda c: plan_vmc(
            execution, method=method, write_orders=write_orders,
            registry=registry, cache=c, certify=certify,
        ),
        _resolve_cache(cache),
        lambda results: _aggregate_vmc(addrs, results),
        jobs=jobs, early_exit=early_exit, problem="vmc",
        resilience=resilience, certify=certify,
    )


def _aggregate_vmc(
    addrs: list[Address], results: dict[Address, VerificationResult]
) -> VerificationResult:
    """Per-address results -> the execution's answer: VIOLATED >
    UNKNOWN > holds."""
    per: dict[Address, VerificationResult] = {
        a: results[a] for a in addrs if a in results
    }
    bad = [a for a in addrs if a in per and per[a].violated]
    undecided = [a for a in addrs if a in per and per[a].unknown]
    if bad:
        # A violation is a verdict even if other addresses went
        # undecided: incoherence at one address is incoherence.
        first = per[bad[0]]
        agg = VerificationResult(
            holds=False,
            method=first.method,
            reason=f"address {bad[0]!r} has no coherent schedule: "
            f"{first.reason}",
            certificate=first.certificate,
        )
    elif undecided:
        first = per[undecided[0]]
        agg = VerificationResult.make_unknown(
            method=first.method,
            reason=first.unknown_reason,
            detail=f"{len(undecided)}/{len(addrs)} addresses undecided; "
            f"first: {first.reason}",
            stage=first.stats.get("stage"),
        )
    else:
        only = per[addrs[0]]
        agg = VerificationResult(
            holds=True,
            method=only.method if len(addrs) == 1 else "per-address",
            schedule=only.schedule if len(addrs) == 1 else None,
            certificate=only.certificate if len(addrs) == 1 else None,
        )
    agg.per_address = per
    if len(addrs) == 1:
        agg.address = addrs[0]
    return agg


def verify_vmc_at(
    execution: Execution,
    addr: Address,
    method: str = "auto",
    write_order: Sequence[Operation] | None = None,
    cache: "ResultCache | bool | None" = False,
    registry: BackendRegistry | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> VerificationResult:
    """Decide VMC at one address of a (possibly multi-address)
    execution."""
    instance = Instance(
        execution.restrict_to_address(addr), address=addr,
        write_order=write_order, problem="vmc",
    )
    return _run(
        lambda c: [plan_task(0, addr, instance, method, registry, c, certify)],
        _resolve_cache(cache), lambda results: results[addr],
        problem="vmc", resilience=resilience, certify=certify,
    )


def verify_vsc(
    execution: Execution,
    method: str = "auto",
    cache: "ResultCache | bool | None" = False,
    registry: BackendRegistry | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> VerificationResult:
    """Decide whether a sequentially consistent schedule exists
    (Definition 6.1).  VSC needs one schedule over all addresses at
    once, so there is a single task — no per-address parallelism."""
    return _run(
        lambda c: plan_vsc(
            execution, method=method, registry=registry, cache=c,
            certify=certify,
        ),
        _resolve_cache(cache), lambda results: results[None],
        problem="vsc", resilience=resilience, certify=certify,
    )
