"""Task execution: serial or process-pooled; early-exiting and
resilient.

``jobs=1`` runs the plan in order on the calling thread — fully
deterministic, the right mode for debugging and the default.  With
``jobs>1`` the plan runs on the process pool of
:mod:`repro.engine.pool` exactly when some task carries heavy
search work (:func:`_is_heavy`), exploiting the per-address
independence of coherence (paper Section 3); lighter plans run the
serial loop, which a pool cannot beat.  Cache lookups happen in the
planner (:func:`repro.engine.planner.plan_task`); the executor serves
the hits it was handed and writes every other decided verdict back in
:func:`_finalize`, in the parent.  After the first *violated* task the
run stops, and the avoided work is counted as ``engine.cancelled`` in
the run record (:mod:`repro.obs`).

Resilience (:class:`ResiliencePolicy`) hardens the run against the
failure modes of long campaigns:

* **deadlines** — each task runs under ``task_timeout`` (observed
  cooperatively through the backends' stop checks) and the whole run
  under the ``timeout`` wall-clock budget; expiry yields a sound
  UNKNOWN result with a recorded reason, never a hang or exception;
* **crash recovery** — a dead worker (``BrokenProcessPool``) rebuilds
  the pool, and the victim tasks are retried up to ``retries`` times
  with exponential backoff; a task that keeps killing workers is
  *quarantined*: run once in-process (one bad pickle cannot sink a
  sweep), and reported UNKNOWN(crashed) if it still fails;
* **Ctrl-C** — ``KeyboardInterrupt`` shuts the pool down with
  ``cancel_futures=True`` before re-raising, so no workers are
  orphaned;
* **chaos** — a :class:`~repro.engine.chaos.ChaosSpec` injects seeded
  crashes, stalls, lost results and slow cache I/O at exactly these
  seams, so tests can prove the above without real worker deaths.

Verdicts are identical in both modes — every backend is deterministic
and tasks share no state — though with ``early_exit`` the modes may
*report* different subsets of per-address results for an incoherent
execution (whichever tasks finished before the exit fired).

The public verifiers :func:`verify_vmc`, :func:`verify_vmc_at` and
:func:`verify_vsc` (the paper's Definitions 4.1 and 6.1; ``repro``
exports them as ``verify_coherence``, ``verify_coherence_at`` and
``verify_sequential_consistency``) live here: each plans its tasks,
runs them through :func:`execute_plan` and aggregates the verdict.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Mapping, Sequence

from repro import obs
from repro.core.result import CERTIFY_MODES, Certificate, VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.backend import PORTFOLIO_MIN_STATES, Instance
from repro.engine.cache import ResultCache
from repro.engine.certify import ensure_certificate, refuse, validate_result
from repro.engine.chaos import ChaosCrash, ChaosSpec, tamper_result
from repro.engine.planner import PlannedTask, plan_task, plan_vmc, plan_vsc
from repro.engine.pool import LostResult, backoff, run_pool
from repro.engine.portfolio import PortfolioBackend
from repro.util.control import Cancelled
from repro.util.deadline import Deadline

@dataclass(frozen=True)
class ResiliencePolicy:
    """Degrade-gracefully knobs for one engine run.

    The default policy is inert for healthy runs — no deadlines, no
    chaos — but still recovers crashed workers (``retries=2``), because
    a ``BrokenProcessPool`` should never cost a whole sweep.
    """

    #: Per-run wall-clock budget in seconds (``verify --timeout``).
    timeout: float | None = None
    #: Per-task soft deadline in seconds (``verify --task-timeout``).
    task_timeout: float | None = None
    #: Crash retries per task before quarantine (``verify --retries``).
    retries: int = 2
    #: Base of the exponential retry backoff (doubles per attempt).
    backoff_s: float = 0.05
    #: Deterministic fault injection (``verify --chaos``); None = off.
    chaos: ChaosSpec | None = None


#: The inert-by-default policy used when the caller passes nothing.
NO_RESILIENCE = ResiliencePolicy()


@dataclass
class _Outcome:
    """One task's execution record (richer than the public result)."""

    #: The task as run: a deferred twin's placeholder is replaced by
    #: its plan.
    task: PlannedTask
    result: VerificationResult
    cache_hit: bool
    seconds: float
    attempts: int = 1
    quarantined: bool = False

    @property
    def crashes(self) -> int:
        """Every attempt but the last crashed — and so did the last one
        of a task given up as crashed."""
        return self.attempts - 1 + (self.result.unknown_reason == "crashed")


def _runs_backend(task: PlannedTask) -> bool:
    """Whether a task still needs a backend run (served hits, deferred
    twins and pre-pass verdicts are decided in the parent)."""
    return task.backend is not None and (
        task.prepass is None or task.prepass.decided is None
    )


def _is_heavy(task: PlannedTask) -> bool:
    """Whether a task carries search work worth a process.

    Decided tasks cost nothing; small exact searches finish in
    microseconds.  Only surviving searches with a non-trivial state
    space (every race has one) justify paying process-pool pickling.
    """
    return (
        _runs_backend(task)
        and task.backend.search
        and task.run_instance.states > PORTFOLIO_MIN_STATES
    )


def _task_key(task: PlannedTask) -> str:
    """Stable identity for chaos rolls and diagnostics."""
    return f"{task.address!r}#{task.order}"


def _decide_task(
    task: PlannedTask,
    task_timeout: float | None = None,
    chaos: ChaosSpec | None = None,
    attempt: int = 0,
    timeout_reason: str = "timeout",
    certify: str = "off",
) -> tuple[VerificationResult, float]:
    """Run one task to a finished result — no cache I/O, only picklable
    state, so this is the unit shipped to process-pool workers.

    The deadline is rebuilt worker-side from ``task_timeout`` seconds
    (monotonic clocks do not travel across process boundaries), so
    queue wait does not count against a task's soft deadline.  Expiry
    returns UNKNOWN(``timeout_reason``) — "budget" when the run budget,
    not the task's own allowance, was the binding constraint.

    With ``certify`` enabled the decided result leaves here carrying a
    certificate (:func:`~repro.engine.certify.ensure_certificate`);
    *validation* stays parent-side in :func:`_finalize`, so a worker
    can never vouch for its own verdict.  Chaos's semantic faults
    (``bad-verdict`` / ``bad-cert``) tamper *after* certification —
    they model a corrupted producer, and must be caught downstream.
    """
    t0 = perf_counter()
    if chaos is not None:
        chaos.before_decide(_task_key(task), attempt)
        if isinstance(task.backend, PortfolioBackend):
            task.backend.chaos = chaos
            task.backend.chaos_key = _task_key(task)
    deadline = Deadline.after(task_timeout)
    stop = deadline.as_stop_check() if deadline is not None else None
    task.run_instance.certify = certify != "off"
    pp = task.prepass
    if pp is not None and pp.decided is not None:
        result = pp.decided
    else:
        with obs.span("search"):
            try:
                result = task.backend.run(task.run_instance, stop)
            except Cancelled as e:
                result = VerificationResult.make_unknown(
                    method=task.backend.name,
                    reason=timeout_reason,
                    detail=f"{e.where} abandoned after {task_timeout:g}s",
                    address=task.address,
                )
                return result, perf_counter() - t0
        if pp is not None and not result.unknown:
            result = pp.finish(result)
    if certify != "off" and not result.unknown:
        cert = result.certificate
        if (
            cert is not None
            and cert.kind == "rup"
            and task.run_instance.execution is not task.instance.execution
        ):
            # The proof refutes the pre-pass *residual's* CNF; the
            # auditor re-derives the CNF from the original trace, so the
            # proof does not transfer.  Drop it and re-derive below.
            # (Cycle/infeasible certificates survive read elimination —
            # residual ops are original ops and writes are never
            # eliminated — so only RUP proofs pay this.)
            result.certificate = None
        if cert is not None and cert.kind == "order" and (
            task.instance.write_order is None
            or tuple(op.uid for op in task.instance.write_order)
            != tuple(cert.payload)
        ):
            # An order certificate refutes the instance *relative to a
            # supplied write-order*.  The pre-pass downgrade path runs
            # the write-order backend against an order it *derived*
            # (forced by unique values) — sound, but the auditor can
            # only re-check orders the instance itself supplies.  Drop
            # the certificate and re-refute the raw trace below.
            result.certificate = None
        with obs.span("certify"):
            try:
                result = ensure_certificate(
                    task.instance.execution, result, task.instance.problem,
                    stop,
                )
            except Cancelled as e:
                result = VerificationResult.make_unknown(
                    method=result.method,
                    reason=timeout_reason,
                    detail=f"{e.where} abandoned while deriving a "
                    f"certificate",
                    address=task.address,
                )
                return result, perf_counter() - t0
    if chaos is not None and not result.unknown:
        result = tamper_result(chaos, _task_key(task), attempt, result)
    return result, perf_counter() - t0


def _decide_pooled(*args) -> tuple[VerificationResult, float, dict]:
    """:func:`_decide_task` in a pool worker; its record travels back
    with the result."""
    with obs.opened() as rec:
        result, seconds = _decide_task(*args)
    return result, seconds, rec.as_dict()


def _effective_timeout(
    policy: ResiliencePolicy, run_deadline: Deadline | None
) -> tuple[float | None, str]:
    """The task deadline to ship to a worker right now, and the UNKNOWN
    reason to use if it expires: the run budget caps the per-task
    allowance, and when the budget is the binding constraint the
    outcome is UNKNOWN(budget), not UNKNOWN(timeout)."""
    if run_deadline is None:
        return policy.task_timeout, "timeout"
    remaining = run_deadline.remaining()
    if policy.task_timeout is None or remaining < policy.task_timeout:
        return remaining, "budget"
    return policy.task_timeout, "timeout"


def _backend_name(task: PlannedTask) -> str:
    """The report's backend label (a served hit ran none; a deferred
    twin that never ran was never bound)."""
    if task.backend is not None:
        return task.backend.name
    return "cache" if task.hit is not None else "deferred"


def _unknown_outcome(
    task: PlannedTask, reason: str, detail: str, stage: str,
    attempts: int = 1, quarantined: bool = False,
) -> _Outcome:
    """A task given up in ``stage``: ``queue`` when it never started,
    ``search`` when the workers deciding it kept crashing."""
    return _Outcome(
        task=task,
        result=VerificationResult.make_unknown(
            method=_backend_name(task), reason=reason, detail=detail,
            address=task.address, stage=stage,
        ),
        cache_hit=False,
        seconds=0.0,
        attempts=attempts,
        quarantined=quarantined,
    )


def _finalize(
    task: PlannedTask,
    result: VerificationResult,
    cache: ResultCache | None,
    chaos: ChaosSpec | None = None,
    certify: str = "off",
) -> VerificationResult:
    # The trusted-checker gate: with certification enabled every
    # decided verdict is validated here — in the parent, against the
    # *original* execution, before it can reach the cache or the caller.
    # This is also the only cache write.
    # ``on`` makes a failure loud (producer or checker is wrong; the
    # run must not quietly pick a side); ``strict`` degrades to a sound
    # UNKNOWN(uncertified) so sweeps survive an uncertifiable verdict.
    if certify != "off" and not result.unknown:
        with obs.span("certify"):
            check = validate_result(
                task.instance.execution, result, task.instance.problem,
                write_order=task.instance.write_order,
            )
            result.stats["certified"] = bool(check)
            if not check:
                result.address = task.address
                result = refuse(
                    result, check, certify, f"task {_task_key(task)}"
                )
    # UNKNOWN is not a verdict: caching it would replay resource
    # exhaustion as if it were a property of the instance.
    if cache is not None and task.canon is not None and not result.unknown:
        if chaos is not None:
            chaos.on_cache_io(_task_key(task), "store")
        cache.store(task.canon, result)
    result.address = task.address
    result.stats.setdefault("cache_hit", False)
    return result


def _run_task(
    task: PlannedTask,
    cache: ResultCache | None,
    policy: ResiliencePolicy,
    run_deadline: Deadline | None,
    certify: str = "off",
    attempt: int = 0,
) -> _Outcome:
    """Decide one task in-process: serve its hit, or run it
    deadline-capped and crash-retried, then finalize.

    A deferred twin is planned first (its lookup now sees the verdict
    of the task it waited for).  ``attempt`` counts crashes the task
    already suffered elsewhere: the pool's quarantine resumes a task
    here after its worker retries ran out, so it gets one in-process
    try before UNKNOWN(crashed).
    """
    if task.deferred is not None:
        task = task.deferred(task.order)
    if task.hit is not None:
        return _Outcome(task, task.hit, True, 0.0)
    t0 = perf_counter()
    timeout, reason = _effective_timeout(policy, run_deadline)
    while True:
        try:
            result, _seconds = _decide_task(
                task, timeout, policy.chaos, attempt, reason, certify
            )
            break
        except ChaosCrash as e:
            if attempt >= policy.retries:
                return _unknown_outcome(
                    task, "crashed",
                    f"gave up after {attempt + 1} crashes: {e}", "search",
                    attempts=attempt + 1, quarantined=True,
                )
            backoff(policy, attempt, run_deadline)
            attempt += 1
    result = _finalize(task, result, cache, policy.chaos, certify)
    return _Outcome(
        task, result, False, perf_counter() - t0, attempts=attempt + 1
    )


def execute_plan(
    tasks: list[PlannedTask],
    jobs: int = 1,
    cache: ResultCache | None = None,
    early_exit: bool = True,
    problem: str = "vmc",
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> tuple[dict, obs.Record]:
    """Run a plan; returns ``(results_by_address, record)``.

    ``results_by_address`` only contains the tasks that actually ran
    (early exit may skip the tail of the plan; a run-budget expiry
    instead records UNKNOWN(budget) results, so partial coverage is
    visible rather than silent).  :func:`execute_tasks` is the same
    run keyed by plan position, for plans whose tasks share an
    address.
    """
    results, record = execute_tasks(
        tasks, jobs, cache, early_exit, problem, resilience, certify
    )
    return {
        t.address: results[t.order] for t in tasks if t.order in results
    }, record


def execute_tasks(
    tasks: list[PlannedTask],
    jobs: int = 1,
    cache: ResultCache | None = None,
    early_exit: bool = True,
    problem: str = "vmc",
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> tuple[dict[int, VerificationResult], obs.Record]:
    """Run a plan; returns ``(results_by_order, record)``.

    ``cache`` receives every decided verdict of a task planned with a
    cache key (:func:`_finalize`); it should be the cache the plan was
    made with.  With ``jobs > 1`` the tasks run on the process pool
    exactly when some task is heavy (:func:`_is_heavy`); the record's
    ``info["pool"]`` is ``"process"`` or ``"serial"``, whichever ran;
    ``info["kernel"]`` names every data-plane kernel that ran
    (:func:`repro.core.kernels.backend` labels the record).

    The run counts into the record open on the calling thread (a fresh
    one when none is): one row per task, the ``engine.*``,
    ``resilience.*``, ``certify.*``, ``prepass.*`` and ``portfolio.*``
    counters, and the ``search``/``certify`` spans (:mod:`repro.obs`).

    ``certify`` is one of :data:`~repro.core.result.CERTIFY_MODES`:
    with ``"on"`` or ``"strict"`` every decided verdict must carry a
    certificate the trusted checker validates before the result is
    cached or returned.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if certify not in CERTIFY_MODES:
        raise ValueError(
            f"unknown certify mode {certify!r}; choose from {CERTIFY_MODES}"
        )
    policy = resilience or NO_RESILIENCE
    pooled = jobs > 1 and len(tasks) > 1 and any(map(_is_heavy, tasks))
    start = perf_counter()
    run_deadline = Deadline.after(policy.timeout)
    rec = obs.current()
    own = rec is None  # else the run writes into the record open here
    if own:
        rec = obs.Record(rows=True)
    pool = "process" if pooled else "serial"
    for k, v in dict(problem=problem, jobs=jobs, pool=pool).items():
        rec.info.setdefault(k, v)
    outcomes: dict[int, _Outcome] = {}

    def serial(batch: list[PlannedTask]) -> bool:
        """Run tasks in-process, in order; True once the early exit
        fires."""
        for task in batch:
            if run_deadline is not None and run_deadline.expired():
                outcomes[task.order] = _unknown_outcome(
                    task, "budget",
                    f"run budget {policy.timeout:g}s exhausted before "
                    f"the task started", "queue",
                )
                continue
            out = outcomes[task.order] = _run_task(
                task, cache, policy, run_deadline, certify
            )
            if early_exit and out.result.violated:
                return True
        return False

    with obs.opened(rec) if own else nullcontext():
        if not pooled:
            serial(tasks)
        elif not serial(
            # Decided tasks first: they are free and may fire the early
            # exit.
            [t for t in tasks if not _runs_backend(t) and not t.deferred]
        ) and not _run_pooled(
            [t for t in tasks if _runs_backend(t)], jobs, cache, early_exit,
            outcomes, policy, run_deadline, certify, rec,
        ):
            # Deferred twins last: their lookups need the pool's verdicts.
            serial([t for t in tasks if t.deferred])
        results = _tally(tasks, outcomes, rec, early_exit, start)
    return results, rec


#: Shown (as 0) even when nothing counted them.
_ALWAYS_COUNTED = (
    "engine.executed engine.memory_hits engine.store_hits engine.misses "
    "resilience.retries resilience.crashes resilience.quarantined "
    "certify.certified certify.uncertified certify.via_closure "
    "certify.via_sat"
).split()


def _tally(
    tasks: list[PlannedTask], outcomes: dict[int, _Outcome], rec: obs.Record,
    early_exit: bool, start: float,
) -> dict[int, VerificationResult]:
    """Count the run's outcomes into ``rec`` (one row per task); returns
    the results by plan position."""
    n: Counter = Counter(dict.fromkeys(_ALWAYS_COUNTED, 0))
    n["engine.runs"] = 1
    n["engine.planned"] = len(tasks)
    n["engine.cancelled"] = len(tasks) - len(outcomes)
    results: dict[int, VerificationResult] = {}
    for task in tasks:
        got = outcomes.get(task.order)
        if got is not None:
            task = got.task
        pp = task.prepass
        if pp is not None:
            n["prepass.tasks"] += 1
            n["prepass.decided"] += pp.decided is not None
            n["prepass.downgraded"] += bool(pp.downgraded)
            n["prepass.edges_inferred"] += pp.edges_inferred
            n["prepass.ops_eliminated"] += pp.ops_eliminated
            n["prepass.ops_before"] += pp.ops_before
            n["prepass.ops_after"] += pp.ops_after
        if got is None:
            if rec.rows is not None:
                rec.rows.append(dict(
                    address=task.address, backend=_backend_name(task),
                    verdict="skipped", source="-", seconds=0.0, detail={},
                ))
            continue
        result = got.result
        results[task.order] = result
        stats = result.stats
        store_hit = bool(stats.get("store_hit"))
        n["engine.executed"] += 1
        n[
            "engine.store_hits" if store_hit
            else "engine.memory_hits" if got.cache_hit
            else "engine.misses"
        ] += 1
        n["resilience.retries"] += got.attempts - 1
        n["resilience.crashes"] += got.crashes
        n["resilience.quarantined"] += got.quarantined
        if result.unknown:
            n[f"engine.unknown.{result.unknown_reason}"] += 1
        if stats.get("certified"):
            n["certify.certified"] += 1
        elif result.unknown and result.unknown_reason == "uncertified":
            n["certify.uncertified"] += 1
        via = stats.get("certificate_via")
        race = stats.get("portfolio")
        if not got.cache_hit:
            # A hit replays a verdict, not a certification or a race.
            if via is not None:
                n["certify.via_closure" if via == "closure"
                  else "certify.via_sat"] += 1
            if isinstance(race, dict):
                n["portfolio.races"] += 1
                n[f"portfolio.wins.{race.get('winner', '?')}"] += 1
                n["portfolio.cancelled_legs"] += race.get("cancelled", 0)
                n["portfolio.budget_exceeded"] += race.get(
                    "budget_exceeded", 0
                )
        if rec.rows is not None:
            decided_by_prepass = (
                pp is not None and pp.decided is not None
                and not result.unknown
            )
            rec.rows.append(dict(
                address=task.address,
                backend="prepass" if decided_by_prepass
                else _backend_name(task),
                verdict=(
                    "UNKNOWN" if result.unknown
                    else "holds" if result.holds else "VIOLATED"
                ),
                source=(
                    "quar" if got.quarantined
                    else "store" if store_hit
                    else "cache" if got.cache_hit
                    else "run"
                ),
                seconds=got.seconds,
                detail={
                    k: v for k, v in stats.items()
                    if k not in ("cache_hit", "store_hit")
                },
            ))
    n["engine.early_exit"] = int(
        early_exit and len(outcomes) < len(tasks)
        and any(r.violated for r in results.values())
    )
    n["engine.wall_s"] = perf_counter() - start
    rec.merge({"counters": n})
    return results


def _run_pooled(
    tasks: list[PlannedTask],
    jobs: int,
    cache: ResultCache | None,
    early_exit: bool,
    outcomes: dict[int, _Outcome],
    policy: ResiliencePolicy,
    run_deadline: Deadline | None,
    certify: str,
    rec: obs.Record,
) -> bool:
    """Run backend-bound tasks on the process pool; True once the early
    exit fires.

    Only the task crosses the pool boundary (the cache's lock does not
    pickle); its verdict is finalized in the parent, and the worker's
    record is merged into ``rec`` with it.  A task whose worker retries
    run out is quarantined to :func:`_run_task`.
    """
    chaos = policy.chaos

    def submit(task, attempt):
        timeout, reason = _effective_timeout(policy, run_deadline)
        return (
            _decide_pooled, replace(task, canon=None), timeout, chaos,
            attempt, reason, certify,
        )

    def accept(task, attempt, value) -> bool:
        result, seconds, worker_rec = value
        if chaos is not None and chaos.loses_result(_task_key(task), attempt):
            raise LostResult(_task_key(task))
        rec.merge(worker_rec)
        result = _finalize(task, result, cache, chaos, certify)
        outcomes[task.order] = _Outcome(
            task, result, False, seconds, attempts=attempt + 1
        )
        return early_exit and result.violated

    def quarantine(task, attempt) -> bool:
        out = _run_task(task, cache, policy, run_deadline, certify, attempt)
        out.quarantined = True
        outcomes[task.order] = out
        return early_exit and out.result.violated

    run = run_pool(
        tasks, jobs, submit, accept, quarantine, policy, run_deadline
    )
    if not run.stopped:
        # Tasks that never ran (budget expired first) are
        # UNKNOWN(budget), not silently skipped: partial coverage must
        # be visible.
        for task in run.leftover:
            outcomes[task.order] = _unknown_outcome(
                task, "budget",
                f"run budget {policy.timeout:g}s exhausted before "
                f"the task could run", "queue",
            )
    return run.stopped


# ---------------------------------------------------------------------
# The public verifiers: plan, execute, aggregate
# ---------------------------------------------------------------------
def _resolve_cache(cache: "ResultCache | bool | None") -> ResultCache | None:
    """``None`` → fresh per-call cache (dedupes identical sub-executions
    within one verification); ``False`` → caching disabled; a
    :class:`ResultCache` → shared across calls (campaigns, sweeps)."""
    if cache is None:
        return ResultCache()
    if cache is False:
        return None
    return cache


def _verify(plan, cache, answer, **kwargs) -> VerificationResult:
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
    early_exit: bool = True,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> VerificationResult:
    """Decide whether the execution is coherent (Section 3): a coherent
    schedule exists for *every* address.

    Plans one task per constrained address, runs them (in parallel on
    worker processes when ``jobs > 1`` and the plan still contains
    heavy search work), and aggregates.  Under
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
    return _verify(
        lambda c: plan_vmc(
            execution, method=method, write_orders=write_orders,
            cache=c, certify=certify,
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
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> VerificationResult:
    """Decide VMC at one address of a (possibly multi-address)
    execution."""
    instance = Instance(
        execution.restrict_to_address(addr), address=addr,
        write_order=write_order, problem="vmc",
    )
    return _verify(
        lambda c: [plan_task(0, addr, instance, method, c, certify)],
        _resolve_cache(cache), lambda results: results[addr],
        problem="vmc", resilience=resilience, certify=certify,
    )


def verify_vsc(
    execution: Execution,
    method: str = "auto",
    cache: "ResultCache | bool | None" = False,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> VerificationResult:
    """Decide whether a sequentially consistent schedule exists
    (Definition 6.1).  VSC needs one schedule over all addresses at
    once, so there is a single task — no per-address parallelism."""
    return _verify(
        lambda c: plan_vsc(execution, method=method, cache=c, certify=certify),
        _resolve_cache(cache), lambda results: results[None],
        problem="vsc", resilience=resilience, certify=certify,
    )
