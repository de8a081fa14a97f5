"""The engine's one process-pool scheduler.

Coherence is a per-location property (paper Section 3), so all of the
engine's parallelism is over independent units of work: the tasks of
:mod:`repro.engine.executor`, whether a ``verify`` plan's addresses or
a batch's deduplicated uniques.  :func:`run_pool` runs such units on a
:class:`concurrent.futures.ProcessPoolExecutor` and owns everything
about the pool:

* **windowed submission** — at most ``2 × jobs`` units in flight;
* **broken-pool rebuild** — a dead worker breaks the whole pool: it is
  rebuilt once per break, and every unit that was in flight on it
  fails (the victim cannot be told apart from its neighbours);
* **retries** — a failed unit (dead worker, injected crash, lost
  result) is resubmitted with exponential backoff up to
  ``policy.retries`` times, then handed to the caller's in-process
  quarantine;
* **run budget** — once ``run_deadline`` expires nothing more is
  admitted, in-flight work drains, and the units that never finished
  are returned;
* **early stop** — a callback returning True ends the run the same
  way, and the units it left over count as cancelled;
* **Ctrl-C** — ``KeyboardInterrupt`` cancels what has not started,
  waits for what has, and re-raises: no orphaned workers.

The caller supplies three callbacks: ``submit`` maps a unit to the
picklable call a worker runs, ``accept`` takes the call's value in the
parent, and ``quarantine`` decides a unit in-process.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.engine.chaos import ChaosCrash
from repro.util.deadline import Deadline

#: Longest single retry-backoff sleep, so exponential backoff cannot
#: dominate a run that has a wall-clock budget to respect.
MAX_BACKOFF_S = 1.0


class LostResult(RuntimeError):
    """A completed result was dropped on the pool boundary; the unit is
    retried exactly as if its worker had died."""


#: Exceptions that mean "the worker died", not "the unit is wrong":
#: retried with backoff, then quarantined.  Anything else (including a
#: portfolio verdict disagreement) stays a hard error and propagates.
RETRYABLE = (ChaosCrash, LostResult, concurrent.futures.BrokenExecutor)


def backoff(policy, attempt: int, run_deadline: Deadline | None) -> None:
    """Exponential backoff before a retry, capped and clipped to the
    run budget (waiting must never blow the deadline by itself)."""
    delay = min(MAX_BACKOFF_S, policy.backoff_s * (2 ** attempt))
    if delay <= 0:
        return
    if run_deadline is not None:
        run_deadline.sleep(delay)
    else:
        time.sleep(delay)


@dataclass
class _Unit:
    item: Any
    #: Failed attempts so far.
    attempt: int = 0


@dataclass
class PoolRun:
    """What :func:`run_pool` hands back besides the callbacks' effects."""

    #: Items that never finished: not admitted, cancelled before they
    #: started, or failed while the run drained.
    leftover: list = field(default_factory=list)
    #: Whether a callback stopped the run (the leftovers are work the
    #: early stop avoided); otherwise leftovers mean the budget expired.
    stopped: bool = False
    #: Failed attempts that were resubmitted.
    retries: int = 0


def run_pool(
    items: Iterable[Any],
    jobs: int,
    submit: Callable[[Any, int], tuple],
    accept: Callable[[Any, int, Any], bool],
    quarantine: Callable[[Any, int], bool],
    policy,
    run_deadline: Deadline | None = None,
) -> PoolRun:
    """Run ``items``, in order, on a pool of ``jobs`` worker processes.

    ``submit(item, attempt)`` returns ``(fn, *args)``, the call a worker
    makes; ``accept(item, attempt, value)`` consumes its value in the
    parent and may raise a :data:`RETRYABLE` error to reject it;
    ``quarantine(item, attempt)`` decides an item whose retries ran out
    in-process.  ``attempt`` counts the item's failed attempts; the two
    deciding callbacks return True to stop the run.  ``policy`` supplies
    ``retries`` and ``backoff_s``.
    """
    pending = deque(_Unit(item) for item in items)
    run = PoolRun()
    if not pending:
        return run
    workers = min(jobs, len(pending))
    window = 2 * jobs
    pool = None
    in_flight: dict[concurrent.futures.Future, tuple[_Unit, Any]] = {}
    admitting = True

    def rebuild() -> None:
        nonlocal pool
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)

    rebuild()
    try:
        while in_flight or (admitting and pending):
            expired = run_deadline is not None and run_deadline.expired()
            if admitting and (run.stopped or expired):
                admitting = False
                for fut in list(in_flight):
                    if fut.cancel():
                        run.leftover.append(in_flight.pop(fut)[0].item)
                run.leftover.extend(unit.item for unit in pending)
                pending.clear()
            while admitting and pending and len(in_flight) < window:
                unit = pending.popleft()
                fn, *args = submit(unit.item, unit.attempt)
                try:
                    fut = pool.submit(fn, *args)
                except concurrent.futures.BrokenExecutor:
                    # Broke before any of its futures reported it.
                    rebuild()
                    fut = pool.submit(fn, *args)
                in_flight[fut] = (unit, pool)
            if not in_flight:
                continue
            wait_s = (
                None if run_deadline is None
                else max(0.01, min(0.25, run_deadline.remaining()))
            )
            done, _running = concurrent.futures.wait(
                in_flight,
                timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for fut in done:
                unit, owner = in_flight.pop(fut)
                try:
                    if accept(unit.item, unit.attempt, fut.result()):
                        run.stopped = True
                except RETRYABLE as e:
                    # Every future of a broken pool fails; only the
                    # first one seen from the current pool rebuilds it.
                    if (
                        isinstance(e, concurrent.futures.BrokenExecutor)
                        and owner is pool
                    ):
                        rebuild()
                    if not admitting or run.stopped:
                        run.leftover.append(unit.item)
                    elif unit.attempt >= policy.retries:
                        if quarantine(unit.item, unit.attempt + 1):
                            run.stopped = True
                    else:
                        run.retries += 1
                        backoff(policy, unit.attempt, run_deadline)
                        unit.attempt += 1
                        pending.appendleft(unit)
    finally:
        # Also the Ctrl-C path: cancel what has not started, wait for
        # what has, so no worker outlives the run.
        pool.shutdown(wait=True, cancel_futures=True)
    return run
