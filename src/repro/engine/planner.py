"""The per-address planner: the engine's one serve-or-solve decision.

Coherence is decided independently per address (the paper's Section 3:
an execution is coherent iff every address has a coherent schedule), so
a multi-address VMC query decomposes into one task per constrained
address.  For each task, :func:`plan_task`

1. with a result cache, keys the task by ``(problem, requested method,
   canonical form)`` and serves a validated memory or store hit as a
   *decided* task — nothing further runs for it,
2. otherwise resolves the backend — the registry's tier ladder for
   ``method="auto"``, or the forced backend (validated for
   applicability),
3. runs the polynomial pre-pass (:mod:`repro.engine.prepass`) on
   auto-routed tasks that landed on the exponential tail of the
   ladder: the pre-pass may decide the task outright, downgrade it to
   the Section 5.2 ``write-order`` backend, or shrink it to a kernel
   with ordering hints — the task's ``run_instance`` is what the
   backend executes, while ``instance`` (the original) is what the
   verdict is about,
4. races exact search against SAT (:mod:`repro.engine.portfolio`) on
   a residue that stays on the exponential tier, unless it is a small
   exact search.

A forced ``method`` skips steps 3 and 4: that backend runs alone.

:func:`plan_vmc` then orders the tasks cheapest-estimate-first, so that
when the execution is incoherent the executor's early exit tends to
fire before the expensive tasks run.  The key ignores routing, the
pre-pass and the race, so every front door — ``verify``,
``batch``, ``serve``, campaigns — reads the entries the others wrote.

VSC does not decompose (a single schedule must serve all addresses at
once); :func:`plan_vsc` emits the single whole-execution task, also
pre-passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.result import VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.backend import Backend, Instance
from repro.engine.cache import CanonicalInstance, ResultCache, canonicalize
from repro.engine.certify import recertify, validate_result
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
from repro.engine.registry import BackendRegistry, vmc_registry, vsc_registry


@dataclass
class PlannedTask:
    """One unit of work: an instance bound to its chosen backend, or
    already decided by a validated cache hit.

    ``instance`` is the original task (what the verdict is about);
    ``run_instance`` is what the backend actually executes — the
    pre-pass kernel when the pre-pass shrank or downgraded the task,
    otherwise the original.
    """

    order: int            # position in the (cheapest-first) plan
    address: Address | None
    instance: Instance
    #: None for a served hit and for a deferred twin (not bound yet).
    backend: Backend | None
    estimate: float
    run_instance: Instance | None = None
    prepass: PrepassInfo | None = None
    #: The cache key (None when planned without a cache); the executor
    #: writes the decided verdict under it.
    canon: CanonicalInstance | None = None
    #: A validated cache/store hit: the task is decided, nothing runs.
    hit: VerificationResult | None = None
    #: An isomorphic twin of an earlier task of the same plan that
    #: missed the cache: ``deferred(order)`` plans it once that task is
    #: decided, so the lookup hits instead of solving it again.
    deferred: Callable[[int], "PlannedTask"] | None = None

    def __post_init__(self) -> None:
        if self.run_instance is None:
            self.run_instance = self.instance


def _portfolio_legs(
    registry: BackendRegistry,
) -> tuple[Backend, Backend] | None:
    """The (budgeted exact, SAT) leg pair, or None for registries that
    lack either algorithm (custom registries opt out of racing)."""
    try:
        exact_leg = registry.get("exact")
        sat_leg = registry.get("sat-cdcl")
    except ValueError:
        return None
    try:
        capped = type(exact_leg)(max_states=RACE_STATE_BUDGET)
    except TypeError:
        capped = exact_leg  # custom exact without a budget knob
    return capped, sat_leg


def _apply_portfolio(task: PlannedTask, registry: BackendRegistry) -> None:
    """Rebind a surviving exponential-tier task to the exact-vs-SAT race.

    Small instances skip the race when the router already picked the
    exact search: it wins so fast that the second leg is pure overhead.
    """
    run = task.run_instance
    if (
        task.backend.name == "exact"
        and run.states <= PORTFOLIO_MIN_STATES
    ):
        return
    legs = _portfolio_legs(registry)
    if legs is None:
        return
    task.backend = PortfolioBackend(legs, problem=run.problem)
    task.estimate = task.backend.cost_estimate(run)


def key_method(method: str, registry: BackendRegistry) -> str:
    """The method part of the cache key: ``"auto"``, or the forced
    backend's name (aliases share entries; unknown names raise)."""
    return method if method == "auto" else registry.get(method).name


def _serve(
    canon: CanonicalInstance,
    instance: Instance,
    cache: ResultCache,
    certify: str,
) -> VerificationResult | None:
    """A validated cache or store hit, or None.

    Witness hits are *always* re-replayed against the instance at hand
    — the cached schedule was computed for an isomorphic instance, and
    serving it unchecked would launder a stale or corrupted entry into
    a verdict.  Refutation certificates are re-checked whenever
    certification is enabled.  A ``rup`` proof numbers the CNF
    variables of the execution that wrote it, so on a permuted hit it
    is re-derived for this instance (:func:`recertify`) rather than
    dropped.  Any other failure drops the entry from both tiers: a
    miss, never a wrong answer.
    """
    hit = cache.lookup(canon)
    if hit is None:
        return None
    hit.address = instance.address
    if hit.holds or certify != "off":
        check = validate_result(
            instance.execution, hit, instance.problem,
            write_order=instance.write_order,
        )
        if not check and not recertify(
            instance.execution, hit, instance.problem, instance.write_order
        ):
            cache.invalidate(canon)
            return None
        if certify != "off":
            hit.stats["certified"] = True
    return hit


def plan_task(
    order: int,
    address: Address | None,
    instance: Instance,
    method: str = "auto",
    registry: BackendRegistry | None = None,
    cache: ResultCache | None = None,
    certify: str = "off",
    canon: CanonicalInstance | None = None,
) -> PlannedTask:
    """Serve one instance from the cache, or bind it to a backend.

    With a ``cache`` (``canon``, when given, is the instance's key
    already computed by the caller) a validated hit comes back as a
    decided task.  On a miss the backend is selected, then the
    pre-pass may shrink, decide or downgrade the task.  The pre-pass
    only runs for auto-routed tasks that landed on the exponential
    tiers — it cannot beat an already-polynomial backend, and a forced
    ``method=`` is a contract with the caller: it runs alone, with no
    pre-pass and no race.  Surviving exponential-tier tasks race exact
    search against SAT (see :func:`_apply_portfolio`).
    """
    if registry is None:
        vmc = instance.problem == "vmc"
        registry = vmc_registry() if vmc else vsc_registry()
    if cache is not None:
        if canon is None:
            canon = canonicalize(
                instance.execution, instance.write_order, instance.problem,
                key_method(method, registry),
            )
        hit = _serve(canon, instance, cache, certify)
        if hit is not None:
            return PlannedTask(
                order, address, instance, None, 0.0, canon=canon, hit=hit
            )
    if method == "auto":
        backend = registry.select(instance)
    else:
        backend = registry.resolve(method, instance)
    task = PlannedTask(
        order=order,
        address=address,
        instance=instance,
        backend=backend,
        estimate=backend.cost_estimate(instance),
        canon=canon,
    )
    # Every built-in VSC backend is a search; for VMC the polynomial
    # tiers start below EXPONENTIAL_TIER.
    threshold = EXPONENTIAL_TIER if instance.problem == "vmc" else 0
    if not (method == "auto" and backend.tier >= threshold):
        return task
    run = prepass_vmc if instance.problem == "vmc" else prepass_vsc
    info = run(instance)
    if info is not None:
        task.prepass = info
        if info.decided is not None:
            task.estimate = 0.0
            return task
        task.run_instance = info.residual
        task.backend = registry.select(info.residual)
        task.estimate = task.backend.cost_estimate(info.residual)
        if task.backend.tier < threshold:
            return task  # downgraded to a polynomial tier
    _apply_portfolio(task, registry)
    return task


def address_tasks(
    execution: Execution,
    write_orders: Mapping[Address, Sequence[Operation]] | None,
    key: str | None,
) -> Iterator[tuple[Address, Instance, CanonicalInstance | None]]:
    """Every constrained address's VMC task, in address order, from the
    execution's one columnar view: the sub-execution carries columns
    sliced from the view's (never re-derived from its operations), and
    with a ``key`` method the canonical form is computed over them —
    ``None`` plans without a cache.  Both the planner and the batch
    engine decompose through here."""
    view = execution.columnar()
    for ai in range(view.n_constrained):
        addr = view.addrs[ai]
        sub = view.restrict_to_address_id(ai)
        wo = write_orders.get(addr) if write_orders else None
        canon = canonicalize(sub, wo, "vmc", key) if key is not None else None
        yield addr, Instance(sub, address=addr, write_order=wo), canon


def plan_vmc(
    execution: Execution,
    method: str = "auto",
    write_orders: Mapping[Address, Sequence[Operation]] | None = None,
    registry: BackendRegistry | None = None,
    cache: ResultCache | None = None,
    certify: str = "off",
) -> list[PlannedTask]:
    """Decompose a (possibly multi-address) execution into per-address
    tasks, served or bound by :func:`plan_task`, cheapest first."""
    registry = registry or vmc_registry()
    key = key_method(method, registry)  # unknown -> ValueError
    plan = partial(
        plan_task, method=method, registry=registry, cache=cache,
        certify=certify,
    )
    tasks: list[PlannedTask] = []
    missed: dict = {}  # canonical key -> the first task that missed
    for pos, (addr, instance, canon) in enumerate(address_tasks(
        execution, write_orders, key if cache is not None else None
    )):
        first = missed.get(canon.key) if canon is not None else None
        if first is not None:
            tasks.append(PlannedTask(
                pos, addr, instance, None, first.estimate, canon=canon,
                deferred=partial(
                    plan, address=addr, instance=instance, canon=canon
                ),
            ))
            continue
        task = plan(pos, addr, instance, canon=canon)
        if canon is not None and task.hit is None:
            missed[canon.key] = task
        tasks.append(task)
    # Cheapest first; the original address position breaks ties so the
    # plan (and therefore early-exit behaviour) is deterministic, and a
    # deferred twin runs after the task it waits for.
    tasks.sort(key=lambda t: (t.estimate, t.order))
    for i, t in enumerate(tasks):
        t.order = i
    return tasks


def plan_vsc(
    execution: Execution,
    method: str = "auto",
    registry: BackendRegistry | None = None,
    cache: ResultCache | None = None,
    certify: str = "off",
) -> list[PlannedTask]:
    """The single whole-execution VSC task."""
    instance = Instance(execution, address=None, problem="vsc")
    return [plan_task(0, None, instance, method, registry, cache, certify)]
