"""Sharded batch verification: many traces, one campaign.

The paper's hardness results (Theorem 4.2: VMC is NP-complete) mean
campaign-scale throughput comes from *never solving the same instance
twice* and from *parallelizing across instances*, not from a faster
single solve.  This module is that data plane:

1. **Scan** — every source (trace file or in-memory execution) is
   decomposed into per-address tasks, exactly like
   :func:`repro.engine.plan_vmc` would.
2. **Dedup** — every task is canonicalized up front
   (:func:`repro.engine.cache.canonicalize`) and grouped by canonical
   key *before any solving*: N tasks collapse to M unique instances,
   and each unique is decided exactly once per batch.
3. **Admission / sharding** — unique instances are bucketed by their
   store shard (``fingerprint[0] % n_shards``), so with ``--jobs N``
   every worker's working set maps to a *disjoint* set of persistent
   store shards — workers never contend on a shard lock.  Buckets are
   drained chunk-by-chunk with at most one chunk of a bucket in flight
   (the PR-2 bounded-window discipline at batch granularity).
4. **Serve or solve** — each unique consults the (store-backed) cache
   first; hits pass the same on-hit validation seam as the executor's
   (witness replay always, certificates under ``--certify``), and a
   corrupt or stale record is evicted from both tiers and recomputed,
   never served.  Misses run through :func:`repro.engine.verify_vmc_at`
   under the per-batch :class:`~repro.engine.ResiliencePolicy` budget.
5. **Report** — results fan back out to their sources; the aggregate
   per source is ``VIOLATED > UNKNOWN > holds`` and the machine-
   readable report records per-source verdicts, hit provenance
   (solved / memory / store / dedup) and certified counts.

``repro batch`` (the CLI front-end) adds ``--dry-run``: print the
dedup plan and predicted store hits without solving anything — a cheap
correctness probe for the admission-control math.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.core.result import VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.cache import CanonicalInstance, ResultCache, canonicalize
from repro.engine.certify import CertificationError, validate_result
from repro.engine.executor import NO_RESILIENCE, ResiliencePolicy
from repro.engine.pool import run_pool
from repro.engine.store import ResultStore, fingerprint_key
from repro.util.deadline import Deadline

#: Default shard fanout used for bucketing when no store is attached
#: (matches :class:`ResultStore`'s default so plans agree either way).
DEFAULT_SHARDS = 16

#: Uniques per pool submission.  Small enough to pipeline (a bucket
#: with a slow chunk does not starve the window), large enough that
#: pickling overhead amortizes.
CHUNK_SIZE = 8


# ---------------------------------------------------------------------
# Plan data model
# ---------------------------------------------------------------------
@dataclass
class BatchTask:
    """One (source, address) verification obligation."""

    source: int
    address: Any
    unique: int


@dataclass
class UniqueInstance:
    """One canonical instance: solved once, served to every duplicate."""

    canon: CanonicalInstance
    sub: Execution
    address: Any
    write_order: Sequence[Operation] | None
    fp: bytes
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

    @property
    def dedup_ratio(self) -> float:
        return len(self.tasks) / len(self.uniques) if self.uniques else 1.0

    def describe(self, jobs: int = 1, n_shards: int = DEFAULT_SHARDS) -> str:
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
        buckets = _bucketize(self.uniques, jobs, n_shards)
        chunks = sum(
            (len(b) + CHUNK_SIZE - 1) // CHUNK_SIZE for b in buckets if b
        )
        lines.append(
            f"admission: jobs={jobs}, {sum(1 for b in buckets if b)} "
            f"buckets over {n_shards} shards, {chunks} chunks of "
            f"<={CHUNK_SIZE}, window {jobs} in flight"
        )
        if self.errors:
            for idx in sorted(self.errors):
                lines.append(f"error: {self.labels[idx]}: {self.errors[idx]}")
        return "\n".join(lines)


def _bucketize(
    uniques: list[UniqueInstance], jobs: int, n_shards: int
) -> list[list[int]]:
    """Partition unique indices into per-worker buckets **by shard**:
    shard ``s`` always lands in bucket ``s % jobs``, so two workers can
    never append to the same store shard."""
    buckets: list[list[int]] = [[] for _ in range(max(1, jobs))]
    for i, u in enumerate(uniques):
        shard = u.fp[0] % n_shards
        buckets[shard % max(1, jobs)].append(i)
    return buckets


# ---------------------------------------------------------------------
# Scan + dedup
# ---------------------------------------------------------------------
def plan_batch(
    sources: Sequence[tuple[str, Execution | None, str | None]],
    write_orders: Sequence[Mapping[Address, Sequence[Operation]] | None]
    | None = None,
    store: ResultStore | None = None,
) -> BatchPlan:
    """Canonicalize and deduplicate every (source, address) task.

    ``sources`` is a list of ``(label, execution, error)`` triples —
    a failed load arrives as ``(label, None, message)`` and is carried
    through to the report without sinking the batch.
    """
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
        for addr in execution.constrained_addresses():
            sub = execution.restrict_to_address(addr)
            wo = wos.get(addr) if wos else None
            canon = canonicalize(sub, wo, "vmc", "auto")
            uidx = by_key.get(canon.key)
            if uidx is None:
                uidx = by_key[canon.key] = len(uniques)
                uniques.append(
                    UniqueInstance(
                        canon=canon,
                        sub=sub,
                        address=addr,
                        write_order=wo,
                        fp=fingerprint_key(canon.key),
                    )
                )
            else:
                uniques[uidx].count += 1
            tasks.append(BatchTask(source=i, address=addr, unique=uidx))
    predicted = -1
    if store is not None:
        predicted = sum(1 for u in uniques if store.contains(u.canon))
    return BatchPlan(
        labels=labels,
        tasks=tasks,
        uniques=uniques,
        errors=errors,
        predicted_store_hits=predicted,
    )


# ---------------------------------------------------------------------
# Serve-or-solve (shared by the serial path and the workers)
# ---------------------------------------------------------------------
def _serve_or_solve(
    unique: UniqueInstance,
    cache: ResultCache | None,
    certify: str,
    task_policy: ResiliencePolicy | None,
    prepass: bool,
    portfolio: Any,
) -> VerificationResult:
    """Decide one unique instance: validated cache/store hit or a full
    engine run.  Mirrors the executor's on-hit validation seam — the
    canonical key is already in hand, so a warm hit skips planning and
    the pre-pass entirely (that is the warm-store fast path)."""
    from repro.engine import verify_vmc_at

    if cache is not None:
        hit = cache.lookup(unique.canon)
        if hit is not None:
            hit.address = unique.address
            if hit.holds or certify != "off":
                check = validate_result(
                    unique.sub, hit, "vmc",
                    write_order=unique.write_order,
                )
                if not check:
                    cache.invalidate(unique.canon)
                    hit = None
                elif certify != "off":
                    hit.stats["certified"] = True
            if hit is not None:
                return hit
    result = verify_vmc_at(
        unique.sub,
        unique.address,
        write_order=unique.write_order,
        cache=False,  # batch-wide dedup already collapsed duplicates
        prepass=prepass,
        portfolio=portfolio,
        resilience=task_policy,
        certify=certify,
    )
    if cache is not None and not result.unknown:
        cache.store(unique.canon, result)
    return result


def _slim(result: VerificationResult) -> VerificationResult:
    """Strip the parent-irrelevant payload before crossing the pool
    boundary (the per-task EngineReport is worker-local detail)."""
    result.report = None
    result.per_address = {}
    return result


def _task_policy(policy: ResiliencePolicy) -> ResiliencePolicy | None:
    """The per-task slice of the batch policy: task deadline, retries
    and chaos travel to the worker; the run budget stays with the
    parent's admission control."""
    if (
        policy.task_timeout is None
        and policy.chaos is None
        and policy.retries == NO_RESILIENCE.retries
    ):
        return None
    return ResiliencePolicy(
        task_timeout=policy.task_timeout,
        retries=policy.retries,
        backoff_s=policy.backoff_s,
        chaos=policy.chaos,
    )


# ---------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------
#: Per-process cache singletons keyed by store identity, so one worker
#: process reuses its memory tier and store handle across chunks.
_WORKER_CACHES: dict[tuple, ResultCache] = {}


def _worker_cache(
    store_path: str | None, store_max_mb: float | None, chaos
) -> ResultCache:
    key = (store_path, store_max_mb, chaos)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        store = (
            ResultStore(store_path, max_mb=store_max_mb, chaos=chaos)
            if store_path is not None
            else None
        )
        cache = ResultCache(store=store)
        _WORKER_CACHES[key] = cache
    return cache


def _solve_chunk(
    items: list[tuple[int, UniqueInstance]],
    store_path: str | None,
    store_max_mb: float | None,
    certify: str,
    task_policy: ResiliencePolicy | None,
    prepass: bool,
    portfolio: Any,
) -> list[tuple[int, VerificationResult | None, str | None]]:
    """Process-pool unit: decide a chunk of uniques against this
    worker's store shards, flush once, return slim results."""
    cache = _worker_cache(
        store_path, store_max_mb, task_policy.chaos if task_policy else None
    )
    out: list[tuple[int, VerificationResult | None, str | None]] = []
    for uidx, unique in items:
        try:
            result = _serve_or_solve(
                unique, cache, certify, task_policy, prepass, portfolio
            )
            out.append((uidx, _slim(result), None))
        except CertificationError as e:
            out.append((uidx, None, f"certification failed: {e}"))
        except Exception as e:  # noqa: BLE001 - one bad instance never sinks a chunk
            out.append(
                (uidx, None, f"{type(e).__name__}: {e}\n"
                 f"{traceback.format_exc(limit=3)}")
            )
    cache.flush_store()
    return out


# ---------------------------------------------------------------------
# Parent-side execution
# ---------------------------------------------------------------------
@dataclass
class BatchStats:
    """Batch-level execution counters (the report's ``totals``)."""

    sources: int = 0
    errors: int = 0
    holds: int = 0
    violated: int = 0
    unknown: int = 0
    tasks: int = 0
    unique: int = 0
    solved: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    dedup_served: int = 0
    certified: int = 0
    budget_expired: int = 0
    chunk_retries: int = 0
    quarantined_chunks: int = 0
    wall_s: float = 0.0


def _unknown_budget(unique: UniqueInstance, timeout) -> VerificationResult:
    return VerificationResult.make_unknown(
        method="batch",
        reason="budget",
        detail=(
            f"batch budget {timeout:g}s exhausted before the instance "
            f"started"
        ),
        address=unique.address,
    )


def _run_uniques(
    plan: BatchPlan,
    jobs: int,
    cache: ResultCache | None,
    store: ResultStore | None,
    policy: ResiliencePolicy,
    certify: str,
    prepass: bool,
    portfolio: Any,
    stats: BatchStats,
) -> dict[int, tuple[VerificationResult | None, str | None]]:
    """Decide every unique instance; returns uidx -> (result, error)."""
    decided: dict[int, tuple[VerificationResult | None, str | None]] = {}
    task_policy = _task_policy(policy)
    run_deadline = Deadline.after(policy.timeout)

    def serve(uidx: int) -> None:
        unique = plan.uniques[uidx]
        if run_deadline is not None and run_deadline.expired():
            decided[uidx] = (_unknown_budget(unique, policy.timeout), None)
            stats.budget_expired += 1
            return
        try:
            decided[uidx] = (
                _serve_or_solve(
                    unique, cache, certify, task_policy, prepass, portfolio
                ),
                None,
            )
        except CertificationError as e:
            decided[uidx] = (None, f"certification failed: {e}")
        except Exception as e:  # noqa: BLE001
            decided[uidx] = (None, f"{type(e).__name__}: {e}")

    if jobs <= 1 or len(plan.uniques) <= 1:
        for uidx in range(len(plan.uniques)):
            serve(uidx)
        return decided

    n_shards = store.n_shards if store is not None else DEFAULT_SHARDS
    buckets = _bucketize(plan.uniques, jobs, n_shards)
    # Each bucket is a lane (one chunk in flight per bucket, so workers
    # own disjoint shards); chunks are interleaved across buckets.
    units = [
        (b, bucket[i:i + CHUNK_SIZE])
        for i in range(0, max(map(len, buckets)), CHUNK_SIZE)
        for b, bucket in enumerate(buckets)
        if i < len(bucket)
    ]
    store_path = store.path if store is not None else None
    store_max_mb = (
        store.max_bytes / (1024 * 1024)
        if store is not None and store.max_bytes is not None
        else None
    )

    def submit(chunk: list[int], attempt: int) -> tuple:
        items = [(uidx, plan.uniques[uidx]) for uidx in chunk]
        return (
            _solve_chunk, items, store_path, store_max_mb,
            certify, task_policy, prepass, portfolio,
        )

    def accept(chunk: list[int], attempt: int, value) -> bool:
        for uidx, result, err in value:
            decided[uidx] = (result, err)
        return False

    def quarantine(chunk: list[int], attempt: int) -> bool:
        # Retries exhausted: decide the chunk in-process against the
        # parent's cache/store handle (flock keeps that safe).
        stats.quarantined_chunks += 1
        for uidx in chunk:
            serve(uidx)
        return False

    run = run_pool(
        units, jobs, submit, accept, quarantine, policy, run_deadline
    )
    stats.chunk_retries += run.retries
    for chunk in run.leftover:
        for uidx in chunk:
            unique = plan.uniques[uidx]
            decided[uidx] = (_unknown_budget(unique, policy.timeout), None)
            stats.budget_expired += 1
    return decided


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


def _classify(result: VerificationResult) -> str:
    if result.stats.get("store_hit"):
        return "store"
    if result.stats.get("cache_hit"):
        return "memory"
    return "solved"


def run_plan(
    plan: BatchPlan,
    jobs: int = 1,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
    prepass: bool = True,
    portfolio: Any = True,
) -> tuple[list[SourceOutcome], BatchStats]:
    """Decide a planned batch and fan results back to the sources."""
    t0 = perf_counter()
    stats = BatchStats(
        sources=len(plan.labels),
        tasks=len(plan.tasks),
        unique=len(plan.uniques),
    )
    if cache is None:
        cache = ResultCache(store=store)
    policy = resilience or NO_RESILIENCE
    decided = _run_uniques(
        plan, jobs, cache, store, policy, certify, prepass, portfolio, stats
    )
    cache.flush_store()

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
        if task.unique not in served:
            served.add(task.unique)
            outcome.unique += 1
            kind = _classify(result)
            stats.solved += kind == "solved"
            stats.memory_hits += kind == "memory"
            stats.store_hits += kind == "store"
        else:
            kind = "dedup"
            stats.dedup_served += 1
        outcome.provenance[kind] = outcome.provenance.get(kind, 0) + 1
        if result.stats.get("certified"):
            outcome.certified += 1
            stats.certified += 1
        materialized = result
        if task.address != result.address:
            # A duplicate under a different address label: same verdict,
            # re-addressed.
            materialized = VerificationResult(
                holds=result.holds,
                method=result.method,
                schedule=result.schedule,
                reason=result.reason,
                address=task.address,
                stats=dict(result.stats),
                unknown=result.unknown,
                certificate=result.certificate,
            )
        items_by_source.setdefault(task.source, []).append(
            (task.address, materialized)
        )
    for i, outcome in enumerate(outcomes):
        if outcome.error is not None:
            stats.errors += 1
            continue
        _aggregate_source(outcome, items_by_source.get(i, []))
        assert outcome.result is not None
        if outcome.result.violated:
            stats.violated += 1
        elif outcome.result.unknown:
            stats.unknown += 1
        else:
            stats.holds += 1
    stats.wall_s = perf_counter() - t0
    return outcomes, stats


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
    prepass: bool = True,
    portfolio: Any = True,
) -> list[SourceOutcome]:
    """Verify many in-memory executions as one deduplicated batch.

    The campaign front-end: all (execution, address) tasks are
    canonicalized and deduplicated across the whole batch before any
    solving, then decided through the shared ``cache`` (optionally
    store-backed for cross-run warm starts).  Returns one
    :class:`SourceOutcome` per execution, in order; a per-execution
    engine exception lands in ``outcome.error`` instead of raising.
    """
    if labels is None:
        labels = [f"<execution {i}>" for i in range(len(executions))]
    sources = [
        (label, execution, None)
        for label, execution in zip(labels, executions)
    ]
    if cache is None and store is not None:
        cache = ResultCache(store=store)
    elif cache is not None and store is None:
        store = cache.store_tier
    plan = plan_batch(sources, write_orders=write_orders)
    outcomes, _stats = run_plan(
        plan,
        jobs=jobs,
        cache=cache,
        store=store,
        resilience=resilience,
        certify=certify,
        prepass=prepass,
        portfolio=portfolio,
    )
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
    prepass: bool = True,
    portfolio: Any = True,
    dry_run: bool = False,
) -> dict[str, Any]:
    """Verify a list of trace files as one campaign.

    Returns the machine-readable batch report (JSON-shaped).  With
    ``dry_run`` the plan is computed — including predicted store hits —
    but nothing is solved.
    """
    t0 = perf_counter()
    if cache is None and store is not None:
        cache = ResultCache(store=store)
    elif cache is not None and store is None:
        store = cache.store_tier
    sources = load_sources(paths)
    plan = plan_batch(sources, store=store)
    n_shards = store.n_shards if store is not None else DEFAULT_SHARDS
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
            "text": plan.describe(jobs, n_shards),
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
    outcomes, stats = run_plan(
        plan,
        jobs=jobs,
        cache=cache,
        store=store,
        resilience=resilience,
        certify=certify,
        prepass=prepass,
        portfolio=portfolio,
    )
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
    totals: dict[str, Any] = {
        "files": stats.sources,
        "errors": stats.errors,
        "holds": stats.holds,
        "violated": stats.violated,
        "unknown": stats.unknown,
        "tasks": stats.tasks,
        "unique": stats.unique,
        "solved": stats.solved,
        "memory_hits": stats.memory_hits,
        "store_hits": stats.store_hits,
        "dedup_served": stats.dedup_served,
        "certified": stats.certified,
        "budget_expired": stats.budget_expired,
        "chunk_retries": stats.chunk_retries,
        "quarantined_chunks": stats.quarantined_chunks,
        "wall_s": round(perf_counter() - t0, 6),
    }
    if store is not None:
        totals["store"] = store.stats.as_dict()
    report["totals"] = totals
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
