"""The process-pool scheduler, and real worker deaths under it.

:func:`repro.engine.pool.run_pool` is tested directly with trivial
picklable functions (window, retries, budget, early stop, Ctrl-C).
Chaos crashes (:mod:`repro.engine.chaos`) raise an exception inside a
healthy worker; the worker-death tests here kill the worker process
itself with ``os._exit(1)``, so the pool really breaks and must
be rebuilt, through both front doors: ``verify_vmc`` and the batch
engine, which decides its missed uniques with the same executor.  Each
killer dies on its first attempt only, keyed on a marker file under
``tmp_path``, and never in the test process itself.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import os
import time

import pytest

from repro.core.types import Execution
from repro.engine import (
    ResiliencePolicy,
    executor,
    plan_batch,
    verify_many,
    verify_vmc,
)
from repro.engine.batch import run_plan
from repro.engine.chaos import ChaosCrash
from repro.engine.pool import LostResult, run_pool
from repro.engine.store import ResultStore
from repro.util.deadline import Deadline
from tests.conftest import make_coherent_execution
from tests.engine.test_chaos import _assert_no_orphans, _corrupt_one_read


def _die_once(marker: str) -> None:
    """Kill the calling worker process if nobody has died on ``marker``
    yet.  ``open(..., "x")`` makes exactly one racing worker the victim;
    the test process itself (no multiprocessing parent) never dies."""
    if multiprocessing.parent_process() is None:
        return
    try:
        open(marker, "x").close()
    except FileExistsError:
        return
    os._exit(1)


_REAL_DECIDE_TASK = executor._decide_task


def _die_once_decide(marker, task, *args):
    """``executor._decide_task``, the unit a pool worker runs, except
    that the first worker to run one dies."""
    _die_once(marker)
    return _REAL_DECIDE_TASK(task, *args)


def _heavy_corpus() -> list[Execution]:
    """Two-address executions whose exact-search tasks are heavy
    (exponential tier, well over the portfolio's state threshold), so
    ``jobs=2`` runs them on the process pool."""
    ex, _ = make_coherent_execution(
        160, 4, 5, addresses=("x", "y"), num_values=4
    )
    return [ex, _corrupt_one_read(ex)]


def _per_address(result) -> dict:
    return {
        addr: (r.holds, r.unknown)
        for addr, r in sorted(result.per_address.items(), key=repr)
    }


def _kill_first_worker(monkeypatch, marker) -> None:
    monkeypatch.setattr(
        executor, "_decide_task",
        functools.partial(_die_once_decide, str(marker)),
    )


class TestExecutorWorkerDeath:
    """The forced exact search runs every heavy task alone; the killer
    replaces the worker unit."""

    def _verify(self, ex, **kwargs):
        return verify_vmc(
            ex, method="exact", cache=False, early_exit=False, **kwargs
        )

    def test_dead_worker_is_rebuilt_and_retried(self, tmp_path, monkeypatch):
        verdicts = set()
        for i, ex in enumerate(_heavy_corpus()):
            marker = tmp_path / f"died{i}"
            serial = self._verify(ex)
            verdicts.add(serial.holds)
            _kill_first_worker(monkeypatch, marker)
            pooled = self._verify(
                ex, jobs=2,
                resilience=ResiliencePolicy(backoff_s=0.0),
            )
            assert marker.exists()  # a worker really died
            assert pooled.report.info["pool"] == "process"
            assert not pooled.unknown
            assert pooled.holds == serial.holds
            assert _per_address(pooled) == _per_address(serial)
            assert pooled.report["resilience.crashes"] >= 1
            assert pooled.report["resilience.retries"] >= 1
            assert pooled.report["resilience.quarantined"] == 0
        assert verdicts == {True, False}
        _assert_no_orphans()

    def test_no_retries_quarantines_and_still_decides(
        self, tmp_path, monkeypatch
    ):
        ex = _heavy_corpus()[0]
        serial = self._verify(ex)
        _kill_first_worker(monkeypatch, tmp_path / "died")
        pooled = self._verify(
            ex, jobs=2,
            resilience=ResiliencePolicy(retries=0, backoff_s=0.0),
        )
        assert (tmp_path / "died").exists()
        assert not pooled.unknown
        assert _per_address(pooled) == _per_address(serial)
        assert pooled.report["resilience.crashes"] >= 1
        assert pooled.report["resilience.quarantined"] >= 1
        _assert_no_orphans()


class TestBatchWorkerDeath:
    """The batch's uniques are light, so ``force_pool`` sends them to
    the pool anyway; the killer replaces the worker unit."""

    @pytest.fixture
    def corpus(self):
        corpus = []
        for seed in range(12):
            ex, _ = make_coherent_execution(
                7, 3, seed, addresses=("x", "y"), num_values=3
            )
            bad = _corrupt_one_read(ex)
            corpus += [ex] if bad is None else [ex, bad]
        return corpus

    def _verdicts(self, outcomes):
        return [
            (o.verdict, _per_address(o.result)) for o in outcomes
        ]

    def test_dead_worker_is_rebuilt_and_retried(
        self, tmp_path, corpus, monkeypatch, force_pool
    ):
        serial = verify_many(corpus, certify="on")
        _kill_first_worker(monkeypatch, tmp_path / "died")
        pooled = verify_many(
            corpus, jobs=2, store=ResultStore(tmp_path / "store"),
            certify="on",
            resilience=ResiliencePolicy(backoff_s=0.0),
        )
        assert (tmp_path / "died").exists()
        assert not any(o.error for o in pooled)
        assert self._verdicts(pooled) == self._verdicts(serial)
        assert {o.verdict for o in pooled} == {"holds", "VIOLATED"}
        _assert_no_orphans()

    @pytest.mark.parametrize("retries", [0, 2])
    def test_counters(
        self, tmp_path, corpus, monkeypatch, force_pool, retries
    ):
        serial = verify_many(corpus, certify="on")
        _kill_first_worker(monkeypatch, tmp_path / "died")
        store = ResultStore(tmp_path / "store")
        plan = plan_batch([(f"ex{i}", ex, None) for i, ex in enumerate(corpus)])
        outcomes, rec = run_plan(
            plan, jobs=2, store=store, certify="on",
            resilience=ResiliencePolicy(retries=retries, backoff_s=0.0),
        )
        assert (tmp_path / "died").exists()
        assert not any(o.error for o in outcomes)
        assert self._verdicts(outcomes) == self._verdicts(serial)
        if retries:
            assert rec["resilience.retries"] >= 1
            assert rec["resilience.quarantined"] == 0
        else:
            assert rec["resilience.quarantined"] >= 1
        _assert_no_orphans()


# ---------------------------------------------------------------------
# The scheduler itself
# ---------------------------------------------------------------------
def _echo(item, attempt):
    return item


def _nap(item, seconds):
    time.sleep(seconds)
    return item


def _crash_first(item, attempt):
    """Fail the first attempt of every item the way a dead worker
    would look after chaos: a retryable crash."""
    if attempt == 0:
        raise ChaosCrash(str(item), attempt)
    return item


_POLICY = ResiliencePolicy(retries=2, backoff_s=0.0)


class _Recorder:
    """Callbacks that record what the scheduler did with each item."""

    def __init__(self, fn=_echo, stop_on=None, lose=()):
        self.fn = fn
        self.stop_on = stop_on
        self.lose = set(lose)
        self.submitted: list = []
        self.accepted: dict = {}
        self.quarantined: dict = {}

    def submit(self, item, attempt):
        self.submitted.append((item, attempt))
        return self.fn, item, attempt

    def accept(self, item, attempt, value):
        if item in self.lose and attempt == 0:
            raise LostResult(str(item))
        self.accepted[item] = (attempt, value)
        return value == self.stop_on

    def quarantine(self, item, attempt):
        self.quarantined[item] = attempt
        return False

    def run(self, items, jobs=2, policy=_POLICY, deadline=None):
        return run_pool(
            items, jobs, self.submit, self.accept, self.quarantine,
            policy, deadline,
        )


class TestScheduler:
    def test_every_unit_accepted_once(self):
        rec = _Recorder()
        run = rec.run(list(range(20)))
        assert rec.accepted == {i: (0, i) for i in range(20)}
        assert run.leftover == [] and not run.stopped and run.retries == 0
        _assert_no_orphans()

    def test_no_units_starts_no_pool(self):
        run = _Recorder().run([])
        assert run.leftover == [] and not run.stopped
        assert multiprocessing.active_children() == []

    def test_window_is_twice_jobs(self):
        rec = _Recorder()
        outstanding = []

        def submit(item, attempt):
            rec.submitted.append(item)
            outstanding.append(len(rec.submitted) - len(rec.accepted))
            return _nap, item, 0.02

        run_pool(
            list(range(24)), 2, submit, rec.accept,
            rec.quarantine, _POLICY,
        )
        assert len(rec.accepted) == 24
        assert max(outstanding) == 4

    def test_crashes_retry_then_succeed(self):
        rec = _Recorder(fn=_crash_first)
        run = rec.run(list(range(6)))
        assert rec.accepted == {i: (1, i) for i in range(6)}
        assert run.retries == 6
        assert rec.quarantined == {}

    def test_no_retries_quarantines(self):
        rec = _Recorder(fn=_crash_first)
        run = rec.run(
            list(range(4)),
            policy=ResiliencePolicy(retries=0, backoff_s=0.0),
        )
        assert rec.accepted == {}
        assert rec.quarantined == {i: 1 for i in range(4)}
        assert run.retries == 0 and run.leftover == []

    def test_rejected_value_is_retried(self):
        rec = _Recorder(lose=[3])
        run = rec.run(list(range(5)))
        assert rec.accepted[3] == (1, 3)
        assert run.retries == 1

    def test_expired_budget_admits_nothing(self):
        rec = _Recorder()
        run = rec.run(list(range(5)), deadline=Deadline.after(0))
        assert rec.submitted == [] and rec.accepted == {}
        assert run.leftover == list(range(5)) and not run.stopped
        _assert_no_orphans()

    def test_budget_expiry_drains_and_returns_the_rest(self):
        results = {}

        def submit(item, attempt):
            return _nap, item, 0.05

        def accept(item, attempt, value):
            results[item] = value
            return False

        t0 = time.monotonic()
        run = run_pool(
            list(range(40)), 2, submit, accept,
            lambda item, attempt: False, _POLICY, Deadline.after(0.25),
        )
        assert time.monotonic() - t0 < 5.0
        assert not run.stopped
        assert run.leftover  # 40 × 50 ms on two workers cannot fit
        assert results  # ... but in-flight work drained into accept
        assert sorted(list(results) + run.leftover) == list(range(40))
        _assert_no_orphans()

    def test_early_stop_cancels_the_rest(self):
        rec = _Recorder(stop_on=2)
        run = rec.run(list(range(40)))
        assert run.stopped
        assert 2 in rec.accepted
        assert run.leftover  # the tail was never admitted
        assert sorted(list(rec.accepted) + run.leftover) == list(range(40))
        _assert_no_orphans()

    def test_interrupt_reraises_and_leaves_no_orphans(self, monkeypatch):
        real_wait = concurrent.futures.wait
        fired = []

        def interrupting_wait(*args, **kwargs):
            if not fired:
                fired.append(1)
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "wait", interrupting_wait)
        rec = _Recorder()
        with pytest.raises(KeyboardInterrupt):
            rec.run(list(range(10)))
        assert fired
        monkeypatch.undo()
        _assert_no_orphans()
