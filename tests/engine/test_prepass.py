"""The polynomial pre-pass: soundness (differential), pool equivalence,
cancellation and eviction counters, and the CLI surface.

The central obligation: for every instance, the default engine (which
pre-passes auto-routed exponential-tier tasks) and a forced backend
(which never pre-passes) give identical verdicts, and every positive
witness (after the pre-pass re-materializes eliminated reads) passes
the certificate checker.
"""

import dataclasses
import random

import pytest

from repro.core.builder import parse_trace
from repro.core.checker import is_coherent_schedule, is_sc_schedule
from repro.core.types import Execution
from repro import verify_coherence, verify_sequential_consistency
from repro.engine import (
    Instance,
    ResultCache,
    execute_plan,
    plan_vmc,
    prepass_vmc,
    verify_vmc,
)
from repro.sat.cnf import CNF
from repro import obs

from tests.conftest import make_coherent_execution


def _corpus(n: int = 200, mutate_fraction: float = 0.4):
    """~n small executions: coherent by construction, a fraction mutated
    (one read value flipped) so the corpus mixes verdicts."""
    rng = random.Random(20030613)
    out = []
    for i in range(n):
        n_ops = rng.randrange(2, 13)
        nproc = rng.randrange(1, 4)
        addresses = ("x",) if i % 3 else ("x", "y")
        ex, _ = make_coherent_execution(
            n_ops, nproc, seed=i, addresses=addresses,
            record_final=bool(i % 2),
        )
        if rng.random() < mutate_fraction and ex.num_ops:
            ops = [list(h.operations) for h in ex.histories]
            flat = [
                (p, j) for p, h in enumerate(ops)
                for j, op in enumerate(h) if op.kind.reads
            ]
            if flat:
                p, j = rng.choice(flat)
                op = ops[p][j]
                ops[p][j] = dataclasses.replace(
                    op, value_read=(op.value_read or 0) + rng.randrange(1, 5)
                )
                ex = Execution.from_ops(ops, initial=ex.initial, final=ex.final)
        out.append(ex)
    return out


class TestDifferential:
    def test_vmc_corpus(self):
        for ex in _corpus(200):
            on = verify_coherence(ex)
            off = verify_coherence(ex, method="exact")
            assert on.holds == off.holds, ex
            if on.holds:
                for addr, sub in on.per_address.items():
                    assert sub.schedule is not None
                    assert is_coherent_schedule(ex, sub.schedule, addr=addr), (
                        ex, addr,
                    )

    def test_vsc_corpus(self):
        for ex in _corpus(120):
            on = verify_sequential_consistency(ex)
            off = verify_sequential_consistency(ex, method="exact")
            assert on.holds == off.holds, ex
            if on.holds and on.schedule is not None:
                assert is_sc_schedule(ex, on.schedule), ex

    @pytest.mark.parametrize(
        "clauses,satisfiable",
        [
            ([[1, 2], [-1, 2], [1, -2]], True),
            ([[1], [-1]], False),
            ([[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2]], True),
            ([[1, 2], [1, -2], [-1, 2], [-1, -2]], False),
        ],
    )
    def test_fig_4_1_reduction_instances(self, clauses, satisfiable):
        # Adversarial shape: the Figure 4.1 SAT-to-VMC gadget is exactly
        # the hard case the pre-pass must not break (or decide wrongly).
        from repro.reductions.sat_to_vmc import SatToVmc

        cnf = CNF(num_vars=3)
        for c in clauses:
            cnf.add_clause(c)
        ex = SatToVmc(cnf).execution
        on = verify_coherence(ex)
        off = verify_coherence(ex, method="exact")
        assert on.holds == off.holds == satisfiable
        if on.holds:
            for addr, sub in on.per_address.items():
                assert is_coherent_schedule(ex, sub.schedule, addr=addr)

    @pytest.mark.parametrize(
        "clauses,satisfiable",
        [
            ([[1, 2], [-1, 2]], True),
            ([[1], [-1]], False),
        ],
    )
    def test_fig_6_2_reduction_instances(self, clauses, satisfiable):
        from repro.reductions.sat_to_vscc import SatToVscc

        cnf = CNF(num_vars=2)
        for c in clauses:
            cnf.add_clause(c)
        ex = SatToVscc(cnf).execution
        on = verify_sequential_consistency(ex)
        off = verify_sequential_consistency(ex, method="exact")
        assert on.holds == off.holds == satisfiable
        if on.holds and on.schedule is not None:
            assert is_sc_schedule(ex, on.schedule)


class TestPrepassMechanics:
    def test_downgrade_reported_in_stats(self):
        ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1)", initial={"x": 0})
        r = verify_coherence(ex)
        assert r and r.method == "write-order"
        pp = r.report.group("prepass")
        assert pp["tasks"] == 1 and pp["downgraded"] == 1

    def test_decided_task_reports_prepass_backend(self):
        # The duplicated W(x,3) defeats readmap so the task routes to
        # the exponential tier; values 1 and 2 stay uniquely written, so
        # the forced reads-from edges close a cycle the pre-pass catches.
        ex = parse_trace(
            "P0: W(x,3) W(x,3) W(x,1) R(x,2)\nP1: W(x,2) R(x,1)",
            initial={"x": 0},
        )
        r = verify_coherence(ex)
        assert not r
        assert "cycle" in r.reason
        assert r.report.group("prepass")["decided"] == 1
        assert [t["backend"] for t in r.report.rows].count("prepass") == 1
        # The same verdict without the pre-pass, the slow way.
        assert not verify_coherence(ex, method="exact")

    def test_elimination_counters(self):
        ex = parse_trace(
            "P0: R(x,0) W(x,1) R(x,1) W(x,1) R(x,1)",
            initial={"x": 0},
        )
        r = verify_coherence(ex)
        assert r
        pp = r.report.group("prepass")
        assert pp["ops_eliminated"] >= 3
        assert pp["ops_after"] < pp["ops_before"]

    def test_forced_method_skips_prepass(self):
        ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1)", initial={"x": 0})
        r = verify_coherence(ex, method="exact")
        assert r and r.method == "exact"
        assert not r.report.group("prepass")

    def test_supplied_write_order_skips_prepass(self):
        ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1)", initial={"x": 0})
        order = [op for op in ex.histories[0] if op.kind.writes]
        inst = Instance(ex, address="x", write_order=order, problem="vmc")
        assert prepass_vmc(inst) is None

    def test_polynomial_routes_untouched(self):
        # readmap-tier instances never pay for (or get relabelled by)
        # the pre-pass.
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1) W(x,2)", initial={"x": 0})
        r = verify_coherence(ex)
        assert r and r.method == "readmap"
        assert not r.report.group("prepass")


def _distinct_addr_traces():
    # Two structurally different per-address instances (no cache
    # isomorphism), each routed to the exponential tier.
    return parse_trace(
        "P0: W(a,1) W(a,1) W(b,1) W(b,2) W(b,2)\n"
        "P1: R(a,1) R(b,2) R(b,2)",
        initial={"a": 0, "b": 0},
    )


class TestExecutorCounters:
    def test_eviction_counter(self):
        ex = _distinct_addr_traces()
        cache = ResultCache(max_entries=1)
        r = verify_vmc(ex, cache=cache)
        assert r
        assert r.report["cache.evictions"] == 1
        assert cache.stats.evictions == 1
        assert "evictions=1" in obs.render(r.report)

    def test_cancellation_counter(self, force_pool):
        # One prepass-decided violated task (estimate 0, so planned
        # first) and several undecided ones: the parent resolves the
        # violation before submitting anything, so every other task is
        # counted as cancelled.
        lines0, lines1 = [], []
        for i, a in enumerate("abcdefgh"):
            lines0.append(f"W({a},1) W({a},1)")
            lines1.append(f"R({a},1)")
        # Poison address z: routed past readmap by the duplicated
        # W(z,3), then decided incoherent by the pre-pass (forced-RF
        # cycle), so its task carries estimate 0 and is planned first.
        text = (
            f"P0: {' '.join(lines0)} W(z,3) W(z,3) W(z,1) R(z,2)\n"
            f"P1: {' '.join(lines1)} W(z,2) R(z,1)"
        )
        ex = parse_trace(text, initial={a: 0 for a in "abcdefghz"})
        r = verify_vmc(ex, jobs=2)
        assert not r
        assert r.report.info["pool"] == "process"
        assert r.report["engine.early_exit"]
        assert r.report["engine.cancelled"] == 8
        serial = verify_vmc(ex, jobs=1)
        assert not serial

    def test_process_pool_equivalence(self, force_pool):
        ex = _distinct_addr_traces()
        serial = verify_vmc(ex)
        pooled = verify_vmc(ex, jobs=2)
        assert serial.holds == pooled.holds
        assert pooled.report.info["pool"] == "process"
        for addr, sub in pooled.per_address.items():
            assert sub.schedule is not None
            assert is_coherent_schedule(ex, sub.schedule, addr=addr)

    def test_process_pool_rematerializes_witnesses(self, force_pool):
        # Eliminated reads must be spliced back even when the backend
        # ran in a worker process (the plan rides inside the task).
        ex = parse_trace(
            "P0: W(a,1) W(a,1) R(a,1)\nP1: W(b,2) W(b,2) R(b,2)",
            initial={"a": 0, "b": 0},
        )
        r = verify_vmc(ex, jobs=2, cache=False)
        assert r
        assert r.report.info["pool"] == "process"
        for addr, sub in r.per_address.items():
            assert is_coherent_schedule(ex, sub.schedule, addr=addr)

    def test_bad_jobs_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            execute_plan(plan_vmc(ex), jobs=0)

    def test_bad_pool_rejected(self):
        """There is one pool kind, so there is no ``pool=`` to pass."""
        ex = parse_trace("P0: W(x,1)")
        with pytest.raises(TypeError, match="pool"):
            execute_plan(plan_vmc(ex), jobs=2, pool="thread")


class TestCli:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("P0: W(x,1) W(x,1)\nP1: R(x,1)\n")
        return str(path)

    def test_jobs_zero_is_usage_error(self, trace_file, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["verify", trace_file, "--jobs", "0"])
        assert exc.value.code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_negative_is_usage_error(self, trace_file):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["verify", trace_file, "--jobs", "-3"])
        assert exc.value.code == 2

    def test_pool_choice_validated(self, trace_file):
        """There is one pool and no ``--pool`` option to choose it."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["verify", trace_file, "--jobs", "2", "--pool", "greenlet"])
        assert exc.value.code == 2

    def test_stats_show_prepass(self, trace_file, capsys):
        from repro.cli import main

        assert main(["verify", trace_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "prepass:" in out
        assert "pool=serial" in out
        assert "evictions=" in out

    def test_no_prepass_flag(self, trace_file):
        """The planner decides the pre-pass from the instance; no front
        door offers a switch for it."""
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["verify", trace_file], ["batch", trace_file], ["serve", "--stdio"],
        ):
            parser.parse_args(argv)  # parses without the flag
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + ["--no-prepass"])
            assert exc.value.code == 2, argv

    def test_forced_method_skips_prepass(self, trace_file, capsys):
        """``--method`` is the one override: the forced backend runs
        alone, with no pre-pass."""
        from repro.cli import main

        assert main(["verify", trace_file, "--method", "exact", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "method: exact" in out
        assert "prepass:" not in out

    def test_pool_process_runs(self, tmp_path, capsys, force_pool):
        from repro.cli import main

        path = tmp_path / "two.txt"
        path.write_text("P0: W(x,1) W(x,1) W(y,2)\nP1: R(x,1) R(y,2)\n")
        assert main(["verify", str(path), "--jobs", "2", "--stats"]) == 0
        assert "pool=process" in capsys.readouterr().out


class TestCampaignCacheReporting:
    def test_table_footer(self):
        from repro.memsys.campaign import campaign_table, run_campaign
        from repro.memsys.faults import FaultKind

        cache = ResultCache()
        results = run_campaign(
            sites=[FaultKind.DROPPED_WRITE],
            substrates=["bus"],
            runs_per_cell=3,
            ops_per_processor=10,
            cache=cache,
        )
        table = campaign_table(results)
        assert "cache:" in table
        assert "stores=" in table
