"""The executor: serial/parallel equivalence, early exit, reporting."""

from collections import Counter

import pytest

from tests.conftest import make_coherent_execution
from repro.core.builder import ExecutionBuilder
from repro.core.types import Execution, OpKind, Operation
from repro.engine import execute_plan, plan_vmc, verify_vmc
from repro import obs


def _multi_address_corpus():
    """Coherent and incoherent multi-address executions."""
    corpus = []
    for seed in range(8):
        ex, _ = make_coherent_execution(
            18, 3, seed, addresses=("x", "y", "z"), num_values=3
        )
        corpus.append(ex)
        corpus.append(_corrupt_one_read(ex))
    return corpus


def _corrupt_one_read(ex: Execution) -> Execution:
    """Point the last read at a never-written value => incoherent."""
    histories = [list(h.operations) for h in ex.histories]
    for ops in reversed(histories):
        for i in reversed(range(len(ops))):
            if ops[i].kind is OpKind.READ:
                op = ops[i]
                ops[i] = Operation(
                    OpKind.READ, op.addr, op.proc, op.index, value_read=99
                )
                return Execution.from_ops(
                    histories, initial=ex.initial, final=ex.final
                )
    return ex


class TestParallelEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_verdicts_match_serial(self, jobs):
        for ex in _multi_address_corpus():
            serial = verify_vmc(ex, jobs=1, cache=False)
            parallel = verify_vmc(ex, jobs=jobs, cache=False)
            assert serial.holds == parallel.holds

    def test_parallel_per_address_verdicts(self):
        for ex in _multi_address_corpus():
            serial = verify_vmc(ex, jobs=1, cache=False, early_exit=False)
            parallel = verify_vmc(ex, jobs=4, cache=False, early_exit=False)
            assert serial.holds == parallel.holds
            assert set(serial.per_address) == set(parallel.per_address)
            for addr, res in serial.per_address.items():
                assert res.holds == parallel.per_address[addr].holds

    def test_parallel_report(self):
        ex, _ = make_coherent_execution(
            18, 3, 7, addresses=("x", "y", "z"), num_values=3
        )
        result = verify_vmc(ex, jobs=4, cache=False)
        assert result.report.info["jobs"] == 4
        assert result.report["engine.planned"] == len(ex.constrained_addresses())
        assert result.report["engine.executed"] == result.report["engine.planned"]


def _bad_cheap_plus_expensive_good():
    """addr a: incoherent, cheapest task; b and c: fine, pricier."""
    b = ExecutionBuilder(initial={"a": 0, "b": 0, "c": 0})
    b.process().write("a", 1).write("b", 1).write("b", 2).write(
        "c", 1
    ).write("c", 2)
    b.process().read("a", 99).read("b", 2).read("c", 2)
    return b.build()


class TestEarlyExit:
    def test_serial_early_exit_skips_tail(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, jobs=1, cache=False)
        assert not result.holds
        report = result.report
        assert report["engine.early_exit"]
        assert report["engine.executed"] == 1
        skipped = [t for t in report.rows if t["verdict"] == "skipped"]
        assert len(skipped) == report["engine.planned"] - 1
        assert all(t["source"] == "-" for t in skipped)

    def test_early_exit_disabled_runs_everything(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, jobs=1, cache=False, early_exit=False)
        assert not result.holds
        assert result.report["engine.executed"] == result.report["engine.planned"]
        assert not result.report["engine.early_exit"]

    def test_violation_reason_names_the_address(self):
        result = verify_vmc(_bad_cheap_plus_expensive_good(), cache=False)
        assert "'a'" in result.reason
        assert "no coherent schedule" in result.reason

    def test_parallel_early_exit_still_violates(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, jobs=4, cache=False)
        assert not result.holds


class TestExecutePlan:
    def test_results_keyed_by_address(self):
        ex = _bad_cheap_plus_expensive_good()
        tasks = plan_vmc(ex)
        results, report = execute_plan(tasks, jobs=1, early_exit=False)
        assert set(results) == {"a", "b", "c"}
        assert not results["a"].holds
        assert results["b"].holds and results["c"].holds
        assert report["engine.planned"] == 3 and report["engine.executed"] == 3

    def test_task_stats_rows_render(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, cache=False)
        text = obs.render(result.report)
        assert "engine:" in text and "VIOLATED" in text

    def test_backends_used(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, cache=False, early_exit=False)
        used = Counter(t["backend"] for t in result.report.rows)
        assert used.get("single-op") == 1
        assert used.get("readmap") == 2
