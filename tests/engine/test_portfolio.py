"""Portfolio racing, cooperative cancellation, budget fallback, and
the pooled-or-serial routing of heavy plans.

The race must be invisible in verdicts (portfolio == serial on a
differential corpus), visible in stats (winner / cancelled counters),
and bounded in cancellation latency (a losing leg stops within its
polling interval, not at the end of its work).
"""

from __future__ import annotations

import pytest

from repro.consistency.generate import candidate_executions, skeleton
from repro.core.checker import is_coherent_schedule
from repro.core.exact import SearchBudgetExceeded, exact_vmc
from repro.core.types import Execution, OpKind, Operation
from repro.engine import (
    PORTFOLIO_MIN_STATES,
    PortfolioBackend,
    execute_plan,
    plan_vmc,
    verify_vmc,
    vmc_registry,
)
from repro.engine.backend import Backend, ExactBackend, Instance, SatBackend
from repro.reductions.sat_to_vmc import SatToVmc
from repro.sat.cdcl import solve_cdcl
from repro.sat.cnf import CNF
from repro.sat.random_sat import random_ksat
from repro.util.control import CHECK_INTERVAL, Cancelled
from tests.conftest import make_coherent_execution

# ---------------------------------------------------------------------
# Differential corpus: portfolio verdicts == serial verdicts
# ---------------------------------------------------------------------
SKELETONS = [
    "P0: W(x,1) R(x,?)\nP1: R(x,?) R(x,?)",
    "P0: W(x,1) W(x,2)\nP1: R(x,?) R(x,?)",
    "P0: W(x,1) R(x,?) W(x,2)\nP1: R(x,?)",
]


def _corrupt(ex: Execution) -> Execution | None:
    histories = [list(h.operations) for h in ex.histories]
    for ops in histories:
        for i, op in enumerate(ops):
            if op.kind is OpKind.READ:
                ops[i] = Operation(
                    OpKind.READ, op.addr, op.proc, op.index, value_read=99
                )
                return Execution.from_ops(
                    histories, initial=ex.initial, final=ex.final
                )
    return None


def _corpus() -> list[Execution]:
    corpus: list[Execution] = []
    for text in SKELETONS:
        corpus.extend(candidate_executions(skeleton(text)))
    for seed in range(80):
        ex, _ = make_coherent_execution(7, 3, seed, num_values=3)
        corpus.append(ex)
        bad = _corrupt(ex)
        if bad is not None:
            corpus.append(bad)
    return corpus


CORPUS = _corpus()


def test_corpus_is_substantial():
    assert len(CORPUS) >= 150


def test_portfolio_race_matches_serial_verdicts():
    """Race every corpus instance through a real PortfolioBackend (no
    size cutoff, so the race genuinely runs) and compare with the
    forced SAT backend, which never races."""
    registry = vmc_registry()
    backend = PortfolioBackend(
        [ExactBackend(max_states=100_000), registry.get("sat-cdcl")]
    )
    for ex in CORPUS:
        expected = verify_vmc(ex, method="sat-cdcl", cache=False)
        for addr in ex.constrained_addresses():
            sub = ex.restrict_to_address(addr)
            got = backend.run(Instance(sub, address=addr, problem="vmc"))
            assert got.holds == expected.per_address[addr].holds, (
                f"portfolio disagrees with serial at {addr!r}"
            )
            if got.holds and got.schedule is not None:
                assert is_coherent_schedule(sub, got.schedule)
            assert got.stats["portfolio"]["winner"] in ("exact", "sat-cdcl")


def test_engine_portfolio_on_matches_off():
    """The default engine (racing where the planner races) against the
    forced SAT backend (never racing)."""
    for ex in CORPUS[:40]:
        on = verify_vmc(ex, cache=False)
        off = verify_vmc(ex, method="sat-cdcl", cache=False)
        assert on.holds == off.holds


# ---------------------------------------------------------------------
# Cooperative cancellation latency
# ---------------------------------------------------------------------
def _wide_unsat_execution() -> Execution:
    """3 writers x 8 unique values, final value never written: the
    search must exhaust well over CHECK_INTERVAL states."""
    histories = []
    v = 1
    for p in range(3):
        ops = []
        for i in range(8):
            ops.append(Operation(OpKind.WRITE, "x", p, i, value_written=v))
            v += 1
        histories.append(ops)
    return Execution.from_ops(histories, initial={"x": 0}, final={"x": 99})


def test_exact_search_stops_within_check_interval():
    calls = []

    def stop() -> bool:
        calls.append(1)
        return True

    with pytest.raises(Cancelled) as exc:
        exact_vmc(_wide_unsat_execution(), should_stop=stop)
    # First poll fires at the CHECK_INTERVAL-th loop step; the search
    # must not have expanded more states than that before stopping.
    assert len(calls) == 1
    assert exc.value.work <= CHECK_INTERVAL
    assert exc.value.where == "exact search"


def test_exact_search_ignores_false_stop():
    result = exact_vmc(_wide_unsat_execution(), should_stop=lambda: False)
    assert not result.holds  # ran to completion


def test_cdcl_stops_within_check_interval():
    cnf = CNF(num_vars=400)
    for v in range(1, 401):
        cnf.add_clause([v, -v])
    with pytest.raises(Cancelled) as exc:
        solve_cdcl(cnf, should_stop=lambda: True)
    assert exc.value.where == "cdcl"


class _SlowLeg(Backend):
    """A leg that never finishes unless cancelled."""

    name = "slow"
    problem = "vmc"
    tier = 9

    def applicable(self, instance):
        return True

    def cost_estimate(self, instance):
        return 1e18

    def run(self, instance):  # pragma: no cover - never wins
        raise AssertionError("slow leg must be raced, not run solo")

    def run_cancellable(self, instance, should_stop=None):
        spins = 0
        while not (should_stop is not None and should_stop()):
            spins += 1
            if spins > 10_000_000:  # pragma: no cover - safety net
                raise AssertionError("slow leg was never cancelled")
        raise Cancelled("slow", spins)


def test_portfolio_cancels_losing_leg():
    ex, _ = make_coherent_execution(10, 2, seed=1)
    backend = PortfolioBackend([ExactBackend(), _SlowLeg()])
    result = backend.run(Instance(ex, address="x", problem="vmc"))
    assert result.holds
    record = result.stats["portfolio"]
    assert record["winner"] == "exact"
    assert record["cancelled"] == 1
    assert record["budget_exceeded"] == 0


class _TinyBudgetLeg(Backend):
    """A leg that immediately bows out on budget."""

    name = "tiny"
    problem = "vmc"
    tier = 9

    def applicable(self, instance):
        return True

    def cost_estimate(self, instance):
        return 1.0

    def run(self, instance):  # pragma: no cover
        raise AssertionError("unused")

    def run_cancellable(self, instance, should_stop=None):
        raise SearchBudgetExceeded(1)


def test_budget_exceeded_leg_bows_out_without_killing_race():
    ex, _ = make_coherent_execution(10, 2, seed=2)
    backend = PortfolioBackend([_TinyBudgetLeg(), SatBackend()])
    result = backend.run(Instance(ex, address="x", problem="vmc"))
    assert result.holds
    record = result.stats["portfolio"]
    assert record["winner"] == "sat-cdcl"
    assert record["budget_exceeded"] == 1


def test_all_legs_budgeted_out_falls_back_to_last_leg():
    class _Sat(SatBackend):
        def run_cancellable(self, instance, should_stop=None):
            raise SearchBudgetExceeded(2)

    ex, _ = make_coherent_execution(8, 2, seed=3)
    backend = PortfolioBackend([_TinyBudgetLeg(), _Sat()])
    result = backend.run(Instance(ex, address="x", problem="vmc"))
    assert result.holds  # uncapped fallback run of the last leg
    assert result.stats["portfolio"]["budget_exceeded"] == 2


# ---------------------------------------------------------------------
# Budget fallback through the exact backend (never a task error)
# ---------------------------------------------------------------------
def test_exact_backend_budget_falls_back_to_sat():
    ex, _ = make_coherent_execution(20, 3, seed=4)
    capped = ExactBackend(max_states=3)
    result = capped.run(Instance(ex, address="x", problem="vmc"))
    assert result.holds
    assert result.method == "sat-cdcl"
    assert result.stats["fallback_from"] == "exact"
    assert result.stats["exact_states"] > 3


def test_exact_backend_budget_fallback_preserves_negative_verdict():
    ex, _ = make_coherent_execution(20, 3, seed=5)
    bad = _corrupt(ex)
    assert bad is not None
    result = ExactBackend(max_states=3).run(
        Instance(bad, address="x", problem="vmc")
    )
    assert not result.holds
    assert result.stats["fallback_from"] == "exact"


# ---------------------------------------------------------------------
# Planner integration
# ---------------------------------------------------------------------
def _big_execution(seed: int = 7) -> Execution:
    """States comfortably above PORTFOLIO_MIN_STATES before the
    pre-pass (a forced backend sees all of them)."""
    ex, _ = make_coherent_execution(100, 3, seed, num_values=4)
    return ex


def _fig_4_1_execution(seed: int = 0) -> Execution:
    """A Figure 4.1 SAT -> VMC reduction: the paper's hard shape, which
    the pre-pass shrinks but cannot decide or downgrade."""
    return SatToVmc(random_ksat(3, 6, k=3, seed=seed)).execution


def test_planner_wraps_big_tasks_in_portfolio():
    """Under the default configuration a Figure 4.1 instance is first
    pre-passed (shrunk, not decided) and the residue then raced."""
    for seed in range(4):
        (task,) = plan_vmc(_fig_4_1_execution(seed))
        assert task.prepass is not None and task.prepass.decided is None
        assert task.run_instance is task.prepass.residual
        assert task.run_instance.states > PORTFOLIO_MIN_STATES
        assert isinstance(task.backend, PortfolioBackend)
        assert [leg.name for leg in task.backend.legs] == [
            "exact", "sat-cdcl",
        ]


def test_planner_skips_race_for_small_exact_tasks():
    ex, _ = make_coherent_execution(18, 3, seed=8)
    (task,) = plan_vmc(ex)
    assert task.run_instance.states <= PORTFOLIO_MIN_STATES
    assert task.backend.name == "exact"


def test_forced_method_is_never_wrapped():
    for ex in (_big_execution(), _fig_4_1_execution()):
        for method in ("exact", "sat-cdcl"):
            (task,) = plan_vmc(ex, method=method)
            assert task.backend.name == method
            assert task.prepass is None


# ---------------------------------------------------------------------
# Pooled or serial
# ---------------------------------------------------------------------
def test_pool_only_for_jobs_and_a_heavy_task():
    """``jobs > 1`` with a heavy task pools; anything else is serial."""
    heavy = plan_vmc(_big_execution(), method="exact") + plan_vmc(
        _big_execution(8), method="exact"
    )
    light, _ = make_coherent_execution(
        18, 3, seed=9, addresses=("x", "y")
    )
    light = plan_vmc(light)
    for tasks, jobs, pool in [
        (heavy, 2, "process"),
        (heavy, 1, "serial"),
        (heavy[:1], 2, "serial"),  # nothing to run alongside it
        (light, 2, "serial"),
        (heavy[:1] + light, 2, "process"),
    ]:
        for i, task in enumerate(tasks):
            task.order, task.address = i, f"a{i}"
        results, report = execute_plan(tasks, jobs=jobs)
        assert report.info["pool"] == pool, (len(tasks), jobs)
        assert all(r.holds for r in results.values())


def test_engine_auto_pool_reported():
    ex, _ = make_coherent_execution(
        24, 2, seed=10, addresses=("x", "y"), num_values=3
    )
    result = verify_vmc(ex, jobs=2, cache=False)
    assert result.holds
    assert result.report.info["pool"] == "serial"  # light tasks stay serial


def test_engine_report_aggregates_races():
    ex = _fig_4_1_execution()
    result = verify_vmc(ex, cache=False)
    assert result.holds
    assert result.report.group("prepass")["tasks"] == 1
    pf = result.report.group("portfolio")
    assert pf["races"] == 1
    assert sum(v for k, v in pf.items() if k.startswith("wins.")) == 1


# ---------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------
def test_cli_portfolio_flag(tmp_path):
    """The planner decides the race from the instance; no front door
    offers ``--portfolio`` or ``--no-portfolio``."""
    from repro.cli import build_parser

    parser = build_parser()
    trace = str(tmp_path / "trace.json")
    for argv in (["verify", trace], ["batch", trace], ["serve", "--stdio"]):
        parser.parse_args(argv)  # parses without the flag
        for flag in ("--portfolio", "--no-portfolio"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [flag])
            assert exc.value.code == 2, (argv, flag)
