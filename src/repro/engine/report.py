"""Structured execution statistics for engine runs.

Every task the executor runs (or serves from the cache) is recorded as
a :class:`TaskStats`; the per-verification aggregate is an
:class:`EngineReport`, attached to the returned
:class:`~repro.core.result.VerificationResult` as ``result.report``
and rendered by the CLI's ``--stats`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class TaskStats:
    """One planned task's outcome."""

    address: Any
    backend: str            # backend selected by the planner
    method: str             # method label reported by the result
    estimate: float         # planner's cost estimate
    wall_time: float = 0.0  # seconds spent deciding (0.0 for cache hits)
    cache_hit: bool = False
    #: The hit was served by the persistent store tier (a memory miss
    #: that the disk satisfied); implies ``cache_hit``.
    store_hit: bool = False
    holds: bool | None = None   # None = task skipped (early exit)
    skipped: bool = False
    unknown: bool = False       # abandoned without a verdict (see reason)
    attempts: int = 1           # 1 = first try; >1 = crash retries happened
    quarantined: bool = False   # exhausted retries, ran (or died) in-process
    detail: dict[str, Any] = field(default_factory=dict)

    def row(self) -> str:
        verdict = (
            "skipped" if self.skipped
            else "UNKNOWN" if self.unknown
            else "holds" if self.holds
            else "VIOLATED"
        )
        src = (
            "store" if self.store_hit
            else "cache" if self.cache_hit
            else "-" if self.skipped
            else "run"
        )
        if self.quarantined:
            src = "quar"
        extra = ", ".join(
            f"{k}={v}" for k, v in self.detail.items()
            if isinstance(v, (int, float, str))
        )
        return (
            f"{str(self.address):<10} {self.backend:<12} {verdict:<9} "
            f"{src:<6} {self.wall_time * 1e3:>8.2f}ms  {extra}"
        )


@dataclass
class EngineReport:
    """Aggregated statistics for one engine verification."""

    problem: str = "vmc"
    jobs: int = 1
    #: ``"serial"`` or ``"process"``: whichever loop ran the tasks.
    pool: str = "serial"
    planned: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Eviction count in the (possibly shared) cache during this run.
    cache_evictions: int = 0
    #: Hits served by the persistent store tier (subset of the memory
    #: misses, disjoint from ``cache_hits`` which counts memory only).
    store_hits: int = 0
    #: Store-loaded records that failed on-hit revalidation during this
    #: run (evicted from both tiers and recomputed, never served).
    store_revalidation_failures: int = 0
    #: Tasks prevented from running after the early exit fired: pool
    #: futures successfully cancelled plus tasks never submitted.
    cancelled: int = 0
    early_exit: bool = False
    wall_time: float = 0.0
    #: Tasks abandoned without a verdict (timeout / budget / crashed).
    unknown: int = 0
    #: Crash-retry attempts beyond each task's first try.
    retries: int = 0
    #: Task attempts that ended in a worker crash (injected or real).
    crashes: int = 0
    #: Tasks that exhausted their retries and were quarantined to
    #: in-process serial execution.
    quarantined: int = 0
    #: Tasks whose per-task deadline or the run budget expired.
    deadline_expired: int = 0
    #: Verdicts whose certificate the trusted checker validated
    #: (``--certify on``/``strict``; 0 when certification is off).
    certified: int = 0
    #: Verdicts downgraded to UNKNOWN(uncertified) under
    #: ``--certify strict``.
    uncertified: int = 0
    #: Certificates attached after the fact by
    #: :func:`~repro.engine.certify.ensure_certificate` on freshly run
    #: tasks, by route: the polynomial happens-before closure vs a
    #: proof-logging SAT re-refutation (the slow one).
    certified_via_closure: int = 0
    certified_via_sat: int = 0
    #: Pre-pass aggregate counters (empty when the pre-pass ran on no
    #: task): tasks / decided / downgraded / edges_inferred /
    #: ops_eliminated / ops_before / ops_after.
    prepass: dict[str, int] = field(default_factory=dict)
    #: Portfolio race aggregate (empty when no task raced): races /
    #: wins (per leg name) / cancelled_legs / budget_exceeded.
    portfolio: dict[str, Any] = field(default_factory=dict)
    #: Per-stage time breakdown in seconds.  ``load`` (trace parse,
    #: filled by the CLI), ``prepass`` (planning incl. the polynomial
    #: pre-pass), ``search`` (decision procedures), ``certify``
    #: (certificate derivation + trusted-checker validation).  The
    #: stage entries are summed across tasks, so with ``jobs > 1``
    #: they can exceed ``wall_time``.
    stage_times: dict[str, float] = field(default_factory=dict)
    #: Active data-plane kernel backend (``REPRO_KERNEL``).
    kernel: str = ""
    tasks: list[TaskStats] = field(default_factory=list)

    def record(self, task: TaskStats) -> None:
        self.tasks.append(task)
        if task.skipped:
            return
        self.executed += 1
        if task.unknown:
            self.unknown += 1
        self.retries += max(0, task.attempts - 1)
        if task.quarantined:
            self.quarantined += 1
        if task.store_hit:
            self.store_hits += 1
        elif task.cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    @property
    def backends_used(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.tasks:
            if not t.skipped:
                counts[t.backend] = counts.get(t.backend, 0) + 1
        return counts

    def format(self) -> str:
        """Multi-line human-readable rendering (the ``--stats`` output)."""
        lines = [
            f"engine: problem={self.problem} jobs={self.jobs} "
            f"pool={self.pool} "
            f"tasks={self.executed}/{self.planned} "
            f"cache={self.cache_hits} hit / {self.cache_misses} miss / "
            f"{self.cache_evictions} evicted "
            f"cancelled={self.cancelled} "
            f"early_exit={'yes' if self.early_exit else 'no'} "
            f"wall={self.wall_time * 1e3:.2f}ms",
        ]
        if self.store_hits or self.store_revalidation_failures:
            lines.append(
                f"store: hits={self.store_hits} "
                f"revalidation_failures={self.store_revalidation_failures}"
            )
        if (
            self.unknown or self.retries or self.crashes
            or self.quarantined or self.deadline_expired
        ):
            lines.append(
                f"resilience: unknown={self.unknown} "
                f"retries={self.retries} crashes={self.crashes} "
                f"quarantined={self.quarantined} "
                f"deadline_expired={self.deadline_expired}"
            )
        if self.certified or self.uncertified:
            lines.append(
                f"certify: certified={self.certified} "
                f"uncertified={self.uncertified} "
                f"via[closure={self.certified_via_closure} "
                f"sat={self.certified_via_sat}]"
            )
        if self.prepass.get("tasks"):
            pp = self.prepass
            before = pp.get("ops_before", 0)
            after = pp.get("ops_after", 0)
            ratio = f" ({after / before:.2f})" if before else ""
            lines.append(
                f"prepass: tasks={pp.get('tasks', 0)} "
                f"decided={pp.get('decided', 0)} "
                f"downgraded={pp.get('downgraded', 0)} "
                f"edges_inferred={pp.get('edges_inferred', 0)} "
                f"ops_eliminated={pp.get('ops_eliminated', 0)} "
                f"kernel={after}/{before}{ratio}"
            )
        if self.stage_times or self.kernel:
            parts = [
                f"{name}={self.stage_times[name] * 1e3:.2f}ms"
                for name in ("load", "prepass", "search", "certify")
                if name in self.stage_times
            ]
            if self.kernel:
                parts.append(f"kernel={self.kernel}")
            lines.append("stages: " + " ".join(parts))
        if self.portfolio.get("races"):
            pf = self.portfolio
            wins = ", ".join(
                f"{leg}={n}" for leg, n in sorted(pf.get("wins", {}).items())
            )
            lines.append(
                f"portfolio: races={pf.get('races', 0)} "
                f"wins[{wins}] "
                f"cancelled_legs={pf.get('cancelled_legs', 0)} "
                f"budget_exceeded={pf.get('budget_exceeded', 0)}"
            )
        lines.append(
            f"{'address':<10} {'backend':<12} {'verdict':<9} "
            f"{'source':<6} {'time':>10}"
        )
        lines.extend(t.row() for t in self.tasks)
        return "\n".join(lines)
