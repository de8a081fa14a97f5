"""Batch verification: many traces, one campaign.

The paper's hardness results (Theorem 4.2: VMC is NP-complete) mean
campaign-scale throughput comes from *never solving the same instance
twice* and from *parallelizing across instances*, not from a faster
single solve.  This module is that data plane:

1. **Scan** — every source (trace file or in-memory execution) is
   decomposed into per-address tasks, exactly like
   :func:`repro.engine.plan_vmc` would.
2. **Dedup** — every task is canonicalized up front
   (:func:`repro.engine.cache.canonicalize`, under the same key every
   front door uses) and grouped by canonical key *before any solving*:
   N tasks collapse to M unique instances, and each unique is decided
   exactly once per batch.
3. **Serve or solve** — each unique goes through the executor's
   planner (:func:`repro.engine.planner.plan_task`): a validated
   memory or store hit is served, and a corrupt or stale record is
   evicted from both tiers and recomputed, never served.  The misses
   are decided by one executor run
   (:func:`repro.engine.executor.execute_tasks`, no early exit) under
   the batch's :class:`~repro.engine.ResiliencePolicy`; it pools heavy
   work on processes, and all store I/O stays in this process.
4. **Report** — results fan back out to their sources; the aggregate
   per source is ``VIOLATED > UNKNOWN > holds`` and the machine-
   readable report records per-source verdicts, hit provenance
   (solved / memory / store / dedup) and certified counts.  The batch
   totals are counters of the batch's run record (:mod:`repro.obs`):
   ``batch.*``, ``provenance.*`` and one ``unknown.<reason>`` per
   UNKNOWN source.

``repro batch`` (the CLI front-end) adds ``--dry-run``: print the
dedup plan and predicted store hits without solving anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro import obs
from repro.core.result import VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.backend import Instance
from repro.engine.cache import (
    CanonicalInstance,
    ResultCache,
    from_canonical,
    to_canonical,
)
from repro.engine.certify import (
    CertificationError,
    recertify,
    refuse,
    validate_result,
)
from repro.engine.executor import ResiliencePolicy, execute_tasks
from repro.engine.planner import address_tasks, key_method, plan_task
from repro.engine.registry import vmc_registry
from repro.engine.store import ResultStore


# ---------------------------------------------------------------------
# Plan data model
# ---------------------------------------------------------------------
@dataclass
class BatchTask:
    """One (source, address) verification obligation."""

    source: int
    address: Any
    unique: int
    #: A duplicate's own canonical form and sub-execution (``None``
    #: for the task that represents its unique): the unique's witness
    #: and certificate are mapped onto its operations through it.
    canon: CanonicalInstance | None = None
    sub: Execution | None = None


@dataclass
class UniqueInstance:
    """One canonical instance: solved once, served to every duplicate."""

    canon: CanonicalInstance
    sub: Execution
    address: Any
    write_order: Sequence[Operation] | None
    count: int = 1


@dataclass
class SourceOutcome:
    """Per-source verdict plus batch provenance."""

    label: str
    result: VerificationResult | None = None
    error: str | None = None
    tasks: int = 0
    unique: int = 0
    provenance: dict[str, int] = field(default_factory=dict)
    certified: int = 0

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "error"
        if self.result is None:
            return "error"
        if self.result.unknown:
            return "UNKNOWN"
        return "holds" if self.result.holds else "VIOLATED"


@dataclass
class BatchPlan:
    """The scan + dedup product: everything but the solving."""

    labels: list[str]
    tasks: list[BatchTask]
    uniques: list[UniqueInstance]
    errors: dict[int, str]
    #: Uniques already present in the store (``--dry-run`` predictor;
    #: -1 = no store attached).
    predicted_store_hits: int = -1
    #: The requested method: part of every task's key, and the backend
    #: each unique is planned with.
    method: str = "auto"

    @property
    def dedup_ratio(self) -> float:
        return len(self.tasks) / len(self.uniques) if self.uniques else 1.0

    def describe(self, jobs: int = 1) -> str:
        """The ``--dry-run`` rendering of the plan."""
        lines = [
            f"batch plan: {len(self.labels)} sources, "
            f"{len(self.tasks)} tasks -> {len(self.uniques)} unique "
            f"instances ({self.dedup_ratio:.2f}x dedup)"
        ]
        if self.predicted_store_hits >= 0:
            to_solve = len(self.uniques) - self.predicted_store_hits
            lines.append(
                f"store: {self.predicted_store_hits} predicted hits, "
                f"{to_solve} to solve"
            )
        lines.append(
            f"solve: jobs={jobs}, one engine run over the uniques the "
            f"cache misses (pooled only for heavy tasks)"
        )
        if self.errors:
            for idx in sorted(self.errors):
                lines.append(f"error: {self.labels[idx]}: {self.errors[idx]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------
# Scan + dedup
# ---------------------------------------------------------------------
def plan_batch(
    sources: Sequence[tuple[str, Execution | None, str | None]],
    write_orders: Sequence[Mapping[Address, Sequence[Operation]] | None]
    | None = None,
    store: ResultStore | None = None,
    method: str = "auto",
) -> BatchPlan:
    """Canonicalize and deduplicate every (source, address) task.

    ``sources`` is a list of ``(label, execution, error)`` triples —
    a failed load arrives as ``(label, None, message)`` and is carried
    through to the report without sinking the batch.
    """
    key = key_method(method, vmc_registry())
    labels = [label for label, _, _ in sources]
    errors = {
        i: err for i, (_, ex, err) in enumerate(sources) if err is not None
    }
    tasks: list[BatchTask] = []
    uniques: list[UniqueInstance] = []
    by_key: dict[Any, int] = {}
    for i, (_, execution, err) in enumerate(sources):
        if err is not None or execution is None:
            continue
        wos = write_orders[i] if write_orders is not None else None
        for addr, instance, canon in address_tasks(execution, wos, key):
            sub, wo = instance.execution, instance.write_order
            uidx = by_key.get(canon.key)
            if uidx is None:
                uidx = by_key[canon.key] = len(uniques)
                uniques.append(
                    UniqueInstance(
                        canon=canon,
                        sub=sub,
                        address=addr,
                        write_order=wo,
                    )
                )
                tasks.append(BatchTask(i, addr, uidx))
            else:
                uniques[uidx].count += 1
                tasks.append(BatchTask(i, addr, uidx, canon=canon, sub=sub))
    predicted = -1
    if store is not None:
        predicted = sum(1 for u in uniques if store.contains(u.canon))
    return BatchPlan(
        labels=labels,
        tasks=tasks,
        uniques=uniques,
        errors=errors,
        predicted_store_hits=predicted,
        method=method,
    )


# ---------------------------------------------------------------------
# Serve or solve
# ---------------------------------------------------------------------
def _decide(
    plan: BatchPlan,
    uidxs: Sequence[int],
    jobs: int,
    cache: ResultCache,
    policy: ResiliencePolicy | None,
    certify: str,
) -> dict[int, VerificationResult]:
    """Plan the given uniques against the cache and run what it misses
    in one executor run; returns uidx -> result."""
    tasks = []
    for uidx in uidxs:
        u = plan.uniques[uidx]
        instance = Instance(
            u.sub, address=u.address, write_order=u.write_order
        )
        tasks.append(plan_task(
            uidx, u.address, instance, plan.method, cache=cache,
            certify=certify, canon=u.canon,
        ))
    return execute_tasks(
        tasks, jobs=jobs, cache=cache, early_exit=False,
        resilience=policy, certify=certify,
    )[0]


# ---------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------
def _aggregate_source(
    outcome: SourceOutcome,
    item_results: list[tuple[Any, VerificationResult]],
) -> None:
    """VIOLATED > UNKNOWN > holds, with per-address detail attached."""
    per_address = {addr: res for addr, res in item_results}
    violated = [r for _, r in item_results if r.violated]
    unknowns = [r for _, r in item_results if r.unknown]
    if violated:
        agg = violated[0]
    elif unknowns:
        first = unknowns[0]
        agg = VerificationResult.make_unknown(
            method="batch",
            reason=first.unknown_reason or "budget",
            detail=first.reason,
            address=first.address,
            stage=first.stats.get("stage"),
        )
    elif item_results:
        agg = VerificationResult(
            holds=True, method="batch",
            reason="coherent at every constrained address",
        )
    else:
        agg = VerificationResult(
            holds=True, method="trivial", schedule=[],
            reason="no constrained addresses",
        )
    agg.per_address = per_address
    outcome.result = agg


def _fan_out(
    result: VerificationResult,
    task: BatchTask,
    canon: CanonicalInstance,
    certify: str,
) -> VerificationResult:
    """The unique's result as the duplicate ``task`` sees it: addressed
    to its own address, with the witness and certificate mapped onto
    its own operations through the shared canonical form — the helper
    pair a cache hit uses.  A ``rup`` proof cannot be mapped; when it
    does not check on the duplicate it is re-derived there, and a
    duplicate whose verdict still fails certification is never served
    as certified."""
    if task.canon is None:
        return result
    schedule, certificate = from_canonical(
        task.canon, *to_canonical(canon, result.schedule, result.certificate)
    )
    out = VerificationResult(
        holds=result.holds,
        method=result.method,
        schedule=schedule,
        reason=result.reason,
        address=task.address,
        stats=dict(result.stats),
        unknown=result.unknown,
        certificate=certificate,
    )
    if not (result.violated and result.stats.get("certified")) or (
        certificate is not None and certificate.kind != "rup"
    ):
        return out
    check = validate_result(task.sub, out)
    if check or recertify(task.sub, out):
        return out
    return refuse(out, check, certify, f"duplicate at {task.address!r}")


def _classify(result: VerificationResult) -> str:
    if result.stats.get("store_hit"):
        return "store"
    if result.stats.get("cache_hit"):
        return "memory"
    return "solved"


#: Shown (as 0) even when nothing counted them.
_ALWAYS_COUNTED = (
    "batch.errors batch.holds batch.violated batch.unknown batch.certified "
    "provenance.solved provenance.memory provenance.store provenance.dedup"
).split()


def run_plan(
    plan: BatchPlan,
    jobs: int = 1,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> tuple[list[SourceOutcome], obs.Record]:
    """Decide a planned batch and fan results back to the sources;
    returns the outcomes and the batch's run record (folded into the
    record open on the calling thread as well).

    Store records are left to the store's group commit: the front
    door that owns the durability boundary (:func:`verify_many`,
    :func:`run_batch`, the daemon once its queue goes idle) flushes.
    """
    with obs.opened() as rec, obs.span("batch"):
        n = dict.fromkeys(_ALWAYS_COUNTED, 0)
        n["batch.sources"] = len(plan.labels)
        n["batch.tasks"] = len(plan.tasks)
        n["batch.unique"] = len(plan.uniques)
        if cache is None:
            cache = ResultCache(store=store)
        args = (jobs, cache, resilience, certify)
        decided: dict[int, tuple[VerificationResult | None, str | None]]
        try:
            results = _decide(plan, range(len(plan.uniques)), *args)
            decided = {uidx: (r, None) for uidx, r in results.items()}
        except Exception:  # noqa: BLE001 - one bad instance never sinks a batch
            decided = {}
            # Re-decide each unique on its own, so the error lands on the
            # sources of the instance that raised and nowhere else (what
            # the failed run already cached is served).
            for uidx in range(len(plan.uniques)):
                try:
                    (result,) = _decide(plan, [uidx], *args).values()
                    decided[uidx] = (result, None)
                except CertificationError as e:
                    decided[uidx] = (None, f"certification failed: {e}")
                except Exception as e:  # noqa: BLE001
                    decided[uidx] = (None, f"{type(e).__name__}: {e}")

        outcomes = [SourceOutcome(label=label) for label in plan.labels]
        for idx, message in plan.errors.items():
            outcomes[idx].error = message
        served: set[int] = set()
        items_by_source: dict[int, list[tuple[Any, VerificationResult]]] = {}
        for task in plan.tasks:
            outcome = outcomes[task.source]
            outcome.tasks += 1
            result, err = decided.get(task.unique, (None, "never scheduled"))
            if err is not None:
                outcome.error = err
                continue
            assert result is not None
            try:
                item = _fan_out(
                    result, task, plan.uniques[task.unique].canon, certify
                )
            except CertificationError as e:
                outcome.error = f"certification failed: {e}"
                continue
            if task.unique not in served:
                served.add(task.unique)
                outcome.unique += 1
                kind = _classify(result)
            else:
                kind = "dedup"
            n[f"provenance.{kind}"] += 1
            outcome.provenance[kind] = outcome.provenance.get(kind, 0) + 1
            if item.stats.get("certified"):
                outcome.certified += 1
                n["batch.certified"] += 1
            items_by_source.setdefault(task.source, []).append(
                (task.address, item)
            )
        for i, outcome in enumerate(outcomes):
            if outcome.error is not None:
                n["batch.errors"] += 1
                continue
            _aggregate_source(outcome, items_by_source.get(i, []))
            assert outcome.result is not None
            if outcome.result.violated:
                n["batch.violated"] += 1
            elif outcome.result.unknown:
                n["batch.unknown"] += 1
                obs.count_unknown(outcome.result)
            else:
                n["batch.holds"] += 1
        rec.merge({"counters": n})
    return outcomes, rec


# ---------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------
def verify_many(
    executions: Sequence[Execution],
    write_orders: Sequence[Mapping[Address, Sequence[Operation]] | None]
    | None = None,
    labels: Sequence[str] | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
    method: str = "auto",
) -> list[SourceOutcome]:
    """Verify many in-memory executions as one deduplicated batch.

    The campaign front-end: all (execution, address) tasks are
    canonicalized and deduplicated across the whole batch before any
    solving, then decided through the shared ``cache`` (optionally
    store-backed for cross-run warm starts).  Returns one
    :class:`SourceOutcome` per execution, in order; a per-execution
    engine exception lands in ``outcome.error`` instead of raising.
    The store is flushed once, at the end: the batch is one durability
    point.  ``method`` forces a backend, as ``verify_vmc``'s does.
    """
    if labels is None:
        labels = [f"<execution {i}>" for i in range(len(executions))]
    sources = [
        (label, execution, None)
        for label, execution in zip(labels, executions)
    ]
    plan = plan_batch(sources, write_orders=write_orders, method=method)
    if cache is not None:
        store = cache.store_tier  # run_plan decides through the cache
    outcomes, _stats = run_plan(
        plan,
        jobs=jobs,
        cache=cache,
        store=store,
        resilience=resilience,
        certify=certify,
    )
    if store is not None:
        store.flush()
    return outcomes


def load_sources(
    paths: Sequence[str],
) -> list[tuple[str, Execution | None, str | None]]:
    """Load trace files (any supported format); failures become
    per-source errors, not batch failures."""
    from repro.core.serialize import parse_trace_bytes
    from pathlib import Path

    sources: list[tuple[str, Execution | None, str | None]] = []
    for path_str in paths:
        path = Path(path_str)
        try:
            execution = parse_trace_bytes(
                path.read_bytes(), str(path), path.suffix
            )
            sources.append((str(path), execution, None))
        except (OSError, ValueError) as e:
            sources.append((str(path), None, str(e)))
    return sources


def run_batch(
    paths: Sequence[str],
    jobs: int = 1,
    store: ResultStore | None = None,
    cache: ResultCache | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
    dry_run: bool = False,
) -> dict[str, Any]:
    """Verify a list of trace files as one campaign.

    Returns the machine-readable batch report (JSON-shaped).  With
    ``dry_run`` the plan is computed — including predicted store hits —
    but nothing is solved.
    """
    t0 = perf_counter()
    if store is None and cache is not None:
        store = cache.store_tier
    with obs.opened() as rec:
        sources = load_sources(paths)
        plan = plan_batch(sources, store=store)
        report: dict[str, Any] = {
            "version": 1,
            "problem": "vmc",
            "jobs": jobs,
            "certify": certify,
            "dry_run": dry_run,
            "store": {
                "path": store.path,
                "n_shards": store.n_shards,
                "max_mb": (
                    store.max_bytes / (1024 * 1024)
                    if store.max_bytes is not None
                    else None
                ),
            }
            if store is not None
            else None,
            "plan": {
                "sources": len(plan.labels),
                "tasks": len(plan.tasks),
                "unique": len(plan.uniques),
                "dedup_ratio": round(plan.dedup_ratio, 4),
                "predicted_store_hits": plan.predicted_store_hits,
                "text": plan.describe(jobs),
            },
        }
        if dry_run:
            report["files"] = [
                {"path": label, "error": plan.errors.get(i)}
                for i, label in enumerate(plan.labels)
            ]
            report["totals"] = {
                "files": len(plan.labels),
                "errors": len(plan.errors),
                "wall_s": round(perf_counter() - t0, 6),
            }
            return report
        outcomes, _ = run_plan(
            plan,
            jobs=jobs,
            cache=cache,
            store=store,
            resilience=resilience,
            certify=certify,
        )
        if store is not None:
            store.flush()
        report["files"] = [
            {
                "path": o.label,
                "verdict": o.verdict,
                "reason": (
                    o.error if o.error is not None
                    else o.result.reason if o.result is not None
                    else ""
                ),
                "tasks": o.tasks,
                "unique": o.unique,
                "provenance": o.provenance,
                "certified": o.certified,
            }
            for o in outcomes
        ]
        c = rec.counters.get
        totals: dict[str, Any] = {
            "files": c("batch.sources"),
            "errors": c("batch.errors"),
            "holds": c("batch.holds"),
            "violated": c("batch.violated"),
            "unknown": c("batch.unknown"),
            "tasks": c("batch.tasks"),
            "unique": c("batch.unique"),
            "solved": c("provenance.solved"),
            "memory_hits": c("provenance.memory"),
            "store_hits": c("provenance.store"),
            "dedup_served": c("provenance.dedup"),
            "certified": c("batch.certified"),
            "budget_expired": c("engine.unknown.budget", 0),
            "retries": c("resilience.retries", 0),
            "quarantined": c("resilience.quarantined", 0),
            "unknown_causes": rec.unknowns(),
            "wall_s": round(perf_counter() - t0, 6),
        }
        if store is not None:
            totals["store"] = store.stats.as_dict()
        report["totals"] = totals
        report["record"] = rec.as_dict()
        return report


def batch_exit_code(report: dict[str, Any]) -> int:
    """CLI exit discipline: violated (1) > error (2) > unknown (3) > 0."""
    totals = report.get("totals", {})
    if totals.get("violated"):
        return 1
    if totals.get("errors"):
        return 2
    if totals.get("unknown"):
        return 3
    return 0
