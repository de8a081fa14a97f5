"""Intra-task portfolio racing for the searches.

The paper gives two exact procedures for the NP-complete general case:
the memoized frontier search of Section 5.1 and the SAT reduction of
Section 4.  Neither dominates — the search is near-instant when the
state space is small or commit-collapsible, the SAT route is robust
when the search blows up.  A :class:`PortfolioBackend` races both legs
on the *same* instance, takes the first sound verdict, and cancels the
loser cooperatively (via :mod:`repro.util.control` stop checks).

Race protocol
-------------

* Each leg runs ``run(instance, stop)`` in its own thread, where
  ``stop`` fires on the race's stop event or the caller's stop check.
  The first leg to produce a verdict sets the shared stop event; the
  losing leg observes it at its next
  :data:`~repro.util.control.CHECK_INTERVAL` poll and raises
  :class:`~repro.util.control.Cancelled`, which the race records and
  swallows.
* A leg hitting its state budget (:class:`SearchBudgetExceeded`) bows
  out *without* setting the stop event — the other leg keeps running.
  This is how "budget exhaustion escalates to the SAT leg" works: the
  exact leg is given :data:`~repro.engine.backend.RACE_STATE_BUDGET` and
  simply retires if the instance is too big for it.  The race's capped
  leg is the only capped search in the engine.
* A leg error is recorded; it is re-raised only if no other leg wins.
* If every leg bows out (all budgets exceeded), the race falls back to
  running the last leg (the SAT route, which always terminates) once
  more, outside the race: only the caller's stop check can end it.

With one CPU (or under the GIL) the race still pays off whenever the
legs' costs are lopsided: the cheap leg finishes after ~2x its solo
time (the legs interleave), then cancels the expensive one — bounded
overhead in exchange for never being stuck on the wrong algorithm.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.core.exact import SearchBudgetExceeded
from repro.core.result import VerificationResult
from repro.engine.backend import Backend, Instance
from repro.engine.chaos import ChaosSpec
from repro.util.control import Cancelled, StopCheck, any_stop

#: After a race is decided the losers get this long to observe the stop
#: event and exit; a leg still alive past it is *abandoned* — left to
#: die with its daemon thread rather than allowed to hang the race.  A
#: cooperative leg stops within one CHECK_INTERVAL poll (milliseconds),
#: so only a genuinely wedged leg ever hits this.
LEG_GRACE_S = 1.0

#: External-stop (deadline / run-budget) poll period while waiting for
#: a verdict.  Only paid when the caller supplied a stop check.
_WAIT_POLL_S = 0.01


def _dump_disagreement(
    instance: Instance,
    legs: Sequence[tuple[str, VerificationResult]],
) -> str:
    """Write a self-contained diagnostics file for a verdict
    disagreement — the instance's full trace plus each leg's verdict,
    witness and certificate — and return its path."""
    import json
    import os
    import tempfile

    from repro.core.serialize import execution_to_dict

    payload = {
        "what": "portfolio verdict disagreement",
        "problem": instance.problem,
        "address": repr(instance.address),
        "execution": execution_to_dict(instance.execution),
        "legs": [
            {
                "leg": name,
                "holds": r.holds,
                "method": r.method,
                "reason": r.reason,
                "schedule": (
                    None if r.schedule is None
                    else [repr(op) for op in r.schedule]
                ),
                "certificate": repr(r.certificate),
                "stats": {
                    k: v for k, v in r.stats.items()
                    if isinstance(v, (int, float, str, bool))
                },
            }
            for name, r in legs
        ],
    }
    fd, path = tempfile.mkstemp(
        prefix="repro-disagreement-", suffix=".json"
    )
    with os.fdopen(fd, "w") as f:
        json.dump(payload, f, indent=2, default=repr)
    return path


class PortfolioBackend(Backend):
    """Race several backends on one instance; first sound verdict wins.

    The planner builds these around search tasks; ``legs`` are complete
    :class:`Backend` instances (the capped exact search, then the SAT
    route).  The portfolio reports the *winner's*
    result, augmented with a ``stats["portfolio"]`` record of the race.
    """

    name = "portfolio"
    search = True

    def __init__(self, legs: Sequence[Backend], problem: str = "vmc"):
        if not legs:
            raise ValueError("portfolio needs at least one leg")
        self.legs = list(legs)
        self.problem = problem
        #: Fault-injection context, set per task by the executor when a
        #: chaos spec is active (pickles with the task into workers).
        self.chaos: ChaosSpec | None = None
        self.chaos_key: str = ""

    def applicable(self, instance: Instance) -> bool:
        return any(leg.applicable(instance) for leg in self.legs)

    def cost_estimate(self, instance: Instance) -> float:
        return min(leg.cost_estimate(instance) for leg in self.legs)

    def run(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        """Race the legs; ``should_stop`` (a task deadline or the run
        budget) aborts the whole race, raising ``Cancelled``."""
        legs = [leg for leg in self.legs if leg.applicable(instance)]
        if not legs:
            legs = [self.legs[-1]]
        if len(legs) == 1:
            return legs[0].run(instance, should_stop)
        return self._race(legs, instance, should_stop)

    def _race(
        self,
        legs: Sequence[Backend],
        instance: Instance,
        external_stop: StopCheck = None,
    ) -> VerificationResult:
        stop = threading.Event()
        leg_stop = any_stop(stop.is_set, external_stop)
        cond = threading.Condition()
        exited = [0]  # legs that returned/raised (not merely abandoned)
        done: list[tuple[str, VerificationResult]] = []
        cancelled: list[str] = []
        budget_exceeded: list[str] = []
        errors: list[tuple[str, BaseException]] = []

        def leg_main(leg: Backend) -> None:
            try:
                if self.chaos is not None:
                    self.chaos.stall_leg(self.chaos_key, leg.name, leg_stop)
                result = leg.run(instance, leg_stop)
            except Cancelled:
                with cond:
                    cancelled.append(leg.name)
            except SearchBudgetExceeded:
                # Bow out quietly; the other leg keeps running.
                with cond:
                    budget_exceeded.append(leg.name)
            except BaseException as e:  # noqa: BLE001 - re-raised below
                with cond:
                    errors.append((leg.name, e))
                stop.set()  # no point letting the other leg spin
            else:
                with cond:
                    done.append((leg.name, result))
                stop.set()
            finally:
                with cond:
                    exited[0] += 1
                    cond.notify_all()

        threads = [
            threading.Thread(target=leg_main, args=(leg,), daemon=True)
            for leg in legs
        ]
        for t in threads:
            t.start()
        # Wait for a verdict (or every leg to give up) — but never block
        # unboundedly on a wedged leg when an external stop is watching.
        with cond:
            while not done and exited[0] < len(legs):
                if external_stop is not None and external_stop():
                    break
                cond.wait(
                    timeout=_WAIT_POLL_S if external_stop is not None else None
                )
        # The race is decided (or aborted): give the remaining legs one
        # grace period to observe the stop event, then abandon them to
        # their daemon threads — no leg outlives its race by more than a
        # stop-check poll unless it has stopped polling entirely.
        stop.set()
        for t in threads:
            t.join(timeout=LEG_GRACE_S)
        abandoned = [t for t in threads if t.is_alive()]

        with cond:  # freeze the records against late leg writes
            done_now = list(done)
            errors_now = list(errors)
        if not done_now:
            if external_stop is not None and external_stop():
                raise Cancelled("portfolio race", 0)
            if errors_now:
                raise errors_now[0][1]
            # Every leg retired on budget: run the terminating leg
            # (by convention the SAT route is last) to completion.
            result = legs[-1].run(instance, external_stop)
            winner = legs[-1].name
        else:
            winner, result = done_now[0]
            for other_name, other in done_now[1:]:
                if other.holds != result.holds:
                    # A disagreement means one leg (or the shared
                    # instance) is wrong — the single most valuable bug
                    # report this engine can produce.  Dump everything
                    # a human needs to replay it before failing loudly.
                    try:
                        where = (
                            "; trace, both verdicts and their "
                            "certificates dumped to "
                            + _dump_disagreement(
                                instance,
                                [(winner, result), (other_name, other)],
                            )
                        )
                    except Exception as dump_err:  # noqa: BLE001
                        where = f"; diagnostics dump failed: {dump_err}"
                    raise RuntimeError(
                        f"portfolio legs disagree on verdict: "
                        f"{winner}={result.holds} vs "
                        f"{other_name}={other.holds}{where}"
                    )
        # A losing leg's crash is surfaced in stats, not as a failure:
        # the winner is sound.
        result.stats["portfolio"] = {
            "winner": winner,
            "raced": [leg.name for leg in legs],
            "cancelled": len(cancelled),
            "budget_exceeded": len(budget_exceeded),
            "errors": [name for name, _ in errors_now],
            "abandoned": len(abandoned),
        }
        return result
