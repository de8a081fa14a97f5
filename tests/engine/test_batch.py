"""The batch engine and the ``repro batch`` CLI.

The acceptance property is *differential*: a 150+-execution corpus
decided cold (empty store), warm (second pass over the same store) and
with the store disabled must produce identical verdicts, identical
certificates, and identical witness schedules — persistence is a pure
performance layer.  ``REPRO_BATCH_JOBS`` (default 2) sizes the real
process-pool differential.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.cli import main
from repro.core.builder import parse_trace
from repro.core.checker import is_coherent_schedule
from repro.core.serialize import save
from repro.core.types import Execution, OpKind, Operation
from repro.engine import (
    ResiliencePolicy,
    ResultCache,
    batch_exit_code,
    plan_batch,
    run_batch,
    verify_many,
)
from repro.core.result import Certificate, VerificationResult
from repro.engine import certify
from repro.engine.batch import _fan_out, load_sources
from repro.engine.certify import CertificationError, validate_result
from repro.engine.store import ResultStore
from tests.conftest import make_coherent_execution

BATCH_JOBS = int(os.environ.get("REPRO_BATCH_JOBS", "2"))


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


def _corpus(n_seeds: int = 80) -> list[Execution]:
    """150+ executions, both verdicts represented, with heavy overlap
    (corrupted twins share their coherent sibling's other addresses)."""
    corpus: list[Execution] = []
    for seed in range(n_seeds):
        ex, _ = make_coherent_execution(
            7, 3, seed, addresses=("x", "y"), num_values=3
        )
        corpus.append(ex)
        bad = _corrupt(ex)
        if bad is not None:
            corpus.append(bad)
    return corpus


def _signature(outcome):
    """Everything the differential compares: the aggregate verdict and,
    per address, verdict + certificate + witness uids."""
    result = outcome.result
    per = []
    for addr in sorted(result.per_address, key=repr):
        r = result.per_address[addr]
        per.append((
            repr(addr),
            r.holds,
            r.unknown,
            r.certificate,
            None if r.schedule is None else tuple(op.uid for op in r.schedule),
        ))
    return (outcome.verdict, tuple(per))


class TestPlan:
    def test_dedup_collapses_isomorphic_tasks(self):
        a = parse_trace("P0: W(x,1) R(x,1)")
        b = parse_trace("P0: W(y,1) R(y,1)")  # isomorphic to a
        c = parse_trace("P0: W(x,1) W(x,2) R(x,2)")
        plan = plan_batch([("a", a, None), ("b", b, None), ("c", c, None)])
        assert len(plan.tasks) == 3
        assert len(plan.uniques) == 2
        assert plan.uniques[0].count == 2
        assert plan.dedup_ratio == pytest.approx(1.5)

    def test_load_errors_carried_not_raised(self):
        plan = plan_batch([
            ("ok", parse_trace("P0: W(x,1)"), None),
            ("broken", None, "malformed JSON at byte 3"),
        ])
        assert plan.errors == {1: "malformed JSON at byte 3"}
        assert len(plan.tasks) == 1

    def test_describe_mentions_the_plan(self):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        plan = plan_batch([("a", ex, None), ("b", ex, None)])
        text = plan.describe(jobs=4)
        assert "2 sources" in text
        assert "1 unique" in text
        assert "jobs=4" in text

    def test_predicted_store_hits(self, tmp_path):
        ex = parse_trace("P0: W(x,1) R(x,1)")
        store = ResultStore(tmp_path / "store")
        plan = plan_batch([("a", ex, None)], store=store)
        assert plan.predicted_store_hits == 0
        verify_many([ex], store=store)
        store.flush()
        plan = plan_batch([("a", ex, None)], store=store)
        assert plan.predicted_store_hits == 1


class TestVerifyMany:
    def test_verdicts_and_provenance(self):
        ok = parse_trace("P0: W(x,1) R(x,1)")
        dup = parse_trace("P0: W(y,1) R(y,1)")
        bad = parse_trace("P0: W(x,1)\nP1: R(x,99)")
        outcomes = verify_many([ok, dup, bad], labels=["ok", "dup", "bad"])
        assert [o.verdict for o in outcomes] == ["holds", "holds", "VIOLATED"]
        assert outcomes[0].provenance == {"solved": 1}
        assert outcomes[1].provenance == {"dedup": 1}

    def test_duplicate_witness_uses_its_own_operations(self):
        a = parse_trace("P0: W(x,1) R(x,1)")
        b = parse_trace("P0: W(y,1) R(y,1)")
        outcomes = verify_many([a, b])
        assert outcomes[1].provenance == {"dedup": 1}
        dup = outcomes[1].result.per_address["y"]
        assert all(op.addr == "y" for op in dup.schedule)
        assert is_coherent_schedule(b, dup.schedule, addr="y")

    def test_cross_execution_duplicate_keeps_a_valid_certificate(self):
        # The same instance up to renaming: another address, other
        # values, and the two processes swapped.
        a = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1) W(x,2) R(x,2)")
        b = parse_trace("P0: R(y,5) W(y,6) R(y,6)\nP1: W(y,5) R(y,5)")
        outcomes = verify_many([a, b], certify="on")
        assert outcomes[1].provenance == {"dedup": 1}
        dup = outcomes[1].result.per_address["y"]
        assert dup.certificate is not None and dup.stats["certified"]
        assert {op.uid for op in dup.schedule} == {
            op.uid for op in b.all_ops()
        }
        assert validate_result(b.restrict_to_address("y"), dup)

    def test_duplicate_refutation_names_its_own_operations(self):
        """A violated duplicate's certificate is mapped onto its own
        operations (as its witness would be), so it validates against
        its own execution."""
        a = parse_trace("P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)\nP2: R(x,1)")
        b = parse_trace("P0: R(y,1)\nP1: W(y,1) W(y,2)\nP2: R(y,2) R(y,1)")
        outcomes = verify_many([a, b], certify="on")
        assert outcomes[1].provenance == {"dedup": 1}
        dup = outcomes[1].result.per_address["y"]
        assert dup.certificate.kind == "cycle" and dup.stats["certified"]
        assert validate_result(b.restrict_to_address("y"), dup)

    def test_forced_method_plans_and_keys_every_unique(self):
        """``method=`` forces the backend (no pre-pass, no race) and
        keys the batch's entries apart from the automatic ones."""
        ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1)", initial={"x": 0})
        cache = ResultCache()
        (auto,) = verify_many([ex], cache=cache)
        (forced,) = verify_many([ex], cache=cache, method="exact")
        assert auto.result.per_address["x"].method == "write-order"
        assert forced.result.per_address["x"].method == "exact"
        assert forced.provenance == {"solved": 1}
        with pytest.raises(ValueError):
            verify_many([ex], method="no-such-backend")

    def test_trivial_source(self):
        empty = Execution.from_ops([[]])
        (outcome,) = verify_many([empty])
        assert outcome.verdict == "holds"
        assert outcome.result.method == "trivial"

    def test_exhausted_budget_yields_unknown(self):
        execs = [
            parse_trace(f"P0: W(x,{i + 1}) R(x,{i + 1})\nP1: R(x,{i + 1})")
            for i in range(4)
        ]
        outcomes = verify_many(
            execs, resilience=ResiliencePolicy(timeout=0.0)
        )
        assert all(o.verdict == "UNKNOWN" for o in outcomes)
        assert all(
            o.result.unknown_reason == "budget" for o in outcomes
        )

    def test_write_orders_travel(self):
        ex = parse_trace("P0: W(x,1)\nP1: W(x,2)\nP2: R(x,1) R(x,2)")
        w1, w2 = sorted(
            (op for op in ex.all_ops() if op.kind.writes),
            key=lambda op: op.value_written,
        )
        # P2 observes 1 then 2, so [w1, w2] is the only coherent order;
        # forcing the reverse must flip the verdict.
        (good,) = verify_many([ex], write_orders=[{"x": [w1, w2]}])
        (bad,) = verify_many([ex], write_orders=[{"x": [w2, w1]}])
        assert good.verdict == "holds"
        assert bad.verdict == "VIOLATED"


class TestFanOutRup:
    """A ``rup`` proof numbers CNF variables, so it cannot be mapped
    onto a duplicate; one that does not check there is re-derived for
    the duplicate, and is never served as certified otherwise."""

    EX = "P0: W(x,1) R(x,2)\nP1: W(x,2) R(x,1)\nP2: R(x,1) R(x,2)"
    TWIN = "P0: R(y,1) R(y,2)\nP1: W(y,2) R(y,1)\nP2: W(y,1) R(y,2)"

    def _fan_out(self, certify):
        a, b = parse_trace(self.EX), parse_trace(self.TWIN)
        plan = plan_batch([("a", a, None), ("b", b, None)])
        assert len(plan.uniques) == 1
        rep = VerificationResult(
            holds=False, method="sat-cdcl", address="x",
            certificate=Certificate("rup", (("a", (1,)),)),
            stats={"certified": True},
        )
        out = _fan_out(rep, plan.tasks[1], plan.uniques[0].canon, certify)
        return b.restrict_to_address("y"), out

    def test_failing_proof_is_rederived_for_the_duplicate(self):
        sub, out = self._fan_out("on")
        assert out.violated and out.stats["certified"]
        assert validate_result(sub, out)

    def test_underivable_proof_is_never_served_certified(self, monkeypatch):
        monkeypatch.setattr(
            certify, "ensure_certificate", lambda _ex, result, *_a: result
        )
        with pytest.raises(CertificationError):
            self._fan_out("on")
        _sub, out = self._fan_out("strict")
        assert out.unknown and out.unknown_reason == "uncertified"


class TestDifferentialColdWarmDisabled:
    """The ISSUE's acceptance differential, 150+ executions."""

    def test_differential(self, tmp_path):
        corpus = _corpus()
        assert len(corpus) >= 150
        labels = [f"ex{i}" for i in range(len(corpus))]

        disabled = verify_many(
            corpus, labels=labels, cache=ResultCache(), certify="on"
        )
        cold_cache = ResultCache(store=ResultStore(tmp_path / "store"))
        cold = verify_many(
            corpus, labels=labels, cache=cold_cache, certify="on"
        )
        warm_cache = ResultCache(store=ResultStore(tmp_path / "store"))
        warm = verify_many(
            corpus, labels=labels, cache=warm_cache, certify="on"
        )

        assert not any(o.error for o in disabled + cold + warm)
        for d, c, w in zip(disabled, cold, warm):
            assert _signature(d) == _signature(c) == _signature(w)

        verdicts = {o.verdict for o in disabled}
        assert verdicts == {"holds", "VIOLATED"}
        assert cold_cache.stats.store_hits == 0
        assert warm_cache.stats.store_hits > 0
        assert warm_cache.stats.store_revalidation_failures == 0
        # Warm pass decided every unique from the store: nothing solved.
        assert sum(
            o.provenance.get("solved", 0) for o in warm
        ) == 0

    def test_jobs_differential(self, tmp_path, force_pool):
        """A real process pool agrees with the serial path verdict for
        verdict, and the verdicts its workers decided land in the
        shared store."""
        corpus = _corpus(20)
        labels = [f"ex{i}" for i in range(len(corpus))]
        serial = verify_many(corpus, labels=labels, certify="on")
        store = ResultStore(tmp_path / "store")
        pooled = verify_many(
            corpus, labels=labels, jobs=BATCH_JOBS, store=store,
            certify="on",
        )
        assert [o.verdict for o in serial] == [o.verdict for o in pooled]
        for s, p in zip(serial, pooled):
            assert _signature(s) == _signature(p)
        # The parent flushed: a fresh handle sees the pooled results.
        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) > 0


class TestRunBatch:
    @pytest.fixture
    def trace_dir(self, tmp_path):
        d = tmp_path / "traces"
        d.mkdir()
        save(parse_trace("P0: W(x,1) R(x,1)"), d / "a.json")
        save(parse_trace("P0: W(y,1) R(y,1)"), d / "b.json")  # dup of a
        save(parse_trace("P0: W(x,1)\nP1: R(x,99)"), d / "bad.json")
        return d

    def test_report_shape_and_exit_codes(self, trace_dir, tmp_path):
        paths = sorted(str(p) for p in trace_dir.iterdir())
        report = run_batch(paths, store=ResultStore(tmp_path / "store"))
        assert report["totals"]["files"] == 3
        assert report["totals"]["holds"] == 2
        assert report["totals"]["violated"] == 1
        assert report["totals"]["unique"] == 2
        assert report["totals"]["dedup_served"] == 1
        assert batch_exit_code(report) == 1
        by_path = {f["path"]: f for f in report["files"]}
        assert by_path[paths[0]]["verdict"] == "holds"
        assert "never written" in by_path[str(trace_dir / "bad.json")]["reason"]

    def test_dry_run_solves_nothing(self, trace_dir, tmp_path):
        paths = sorted(str(p) for p in trace_dir.iterdir())
        store = ResultStore(tmp_path / "store")
        report = run_batch(paths, store=store, dry_run=True)
        assert report["dry_run"] is True
        assert report["plan"]["unique"] == 2
        assert report["plan"]["predicted_store_hits"] == 0
        assert "verdict" not in report["files"][0]
        assert store.stats.stores == 0
        assert batch_exit_code(report) == 0

    def test_unreadable_file_is_an_error_not_a_crash(self, trace_dir):
        garbage = trace_dir / "garbage.bin"
        garbage.write_bytes(b"\x00\xff" * 10)
        report = run_batch([str(garbage)])
        assert report["totals"]["errors"] == 1
        assert batch_exit_code(report) == 2

    def test_load_sources_mixed_formats(self, tmp_path):
        from repro.core import serialize_bin

        txt = tmp_path / "t.txt"
        txt.write_text("P0: W(x,1) R(x,1)\n")
        binp = tmp_path / "t.bin"
        binp.write_bytes(
            serialize_bin.dumps_bin(parse_trace("P0: W(x,2) R(x,2)"))
        )
        sources = load_sources([str(txt), str(binp)])
        assert all(err is None for _, _, err in sources)
        assert all(ex is not None for _, ex, _ in sources)


class TestBatchCLI:
    @pytest.fixture
    def trace_dir(self, tmp_path):
        d = tmp_path / "traces"
        d.mkdir()
        save(parse_trace("P0: W(x,1) R(x,1)"), d / "a.json")
        save(parse_trace("P0: W(x,1) W(x,2) R(x,2)"), d / "c.json")
        return d

    def test_directory_expansion_and_stats(self, trace_dir, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = main(["batch", str(trace_dir), "--store", store, "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch plan:" in out
        assert "a.json: holds" in out
        assert re.search(r"^store: .*\bhits=0\b", out, re.M)

    def test_warm_second_run_hits_store(self, trace_dir, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["batch", str(trace_dir), "--store", store]) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        rc = main([
            "batch", str(trace_dir), "--store", store,
            "--json", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["totals"]["store_hits"] == report["totals"]["unique"]
        assert report["totals"]["solved"] == 0

    def test_store_quota_report_flag(self, trace_dir, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = main([
            "batch", str(trace_dir), "--store", store,
            "--store-max-mb", "4", "--store-quota-report",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "store quota:" in out
        assert "cap 4.0 MB" in out
        assert "lru-age" in out  # the per-shard table header
        # Occupied shards are listed with their occupancy.
        assert any(
            line.strip() and line.strip()[0].isdigit()
            for line in out.splitlines()
            if "shard" not in line and "quota" not in line
        )

    def test_store_quota_report_in_json(self, trace_dir, tmp_path):
        store = str(tmp_path / "store")
        report_path = tmp_path / "report.json"
        rc = main([
            "batch", str(trace_dir), "--store", store,
            "--store-quota-report", "--json", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        quota = report["store_quota"]
        assert quota["totals"]["entries"] >= 1
        assert len(quota["shards"]) == 16
        occupied = [r for r in quota["shards"] if r["entries"]]
        assert occupied
        assert all(r["lru_age_s"] is not None for r in occupied)

    def test_store_quota_report_requires_store(self, trace_dir, capsys):
        rc = main(["batch", str(trace_dir), "--store-quota-report"])
        assert rc == 2
        assert "--store" in capsys.readouterr().err

    def test_dry_run_prints_plan(self, trace_dir, tmp_path, capsys):
        rc = main([
            "batch", str(trace_dir), "--dry-run",
            "--store", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch plan: 2 sources" in out
        assert "predicted hits" in out

    def test_manifest(self, trace_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"# batch manifest\n{trace_dir / 'a.json'}\n\n"
            f"{trace_dir / 'c.json'}\n"
        )
        rc = main(["batch", "--manifest", str(manifest)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a.json: holds" in out
        assert "c.json: holds" in out

    def test_violated_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        save(parse_trace("P0: W(x,1)\nP1: R(x,99)"), bad)
        rc = main(["batch", str(bad)])
        assert rc == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_no_inputs_exits_2(self, capsys):
        assert main(["batch"]) == 2
        assert "no trace files" in capsys.readouterr().err

    def test_missing_file_is_a_source_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().out

    def test_jobs_flag_pools(self, trace_dir, tmp_path, capsys):
        rc = main([
            "batch", str(trace_dir), "--jobs", str(BATCH_JOBS),
            "--store", str(tmp_path / "store"), "--certify", "on",
        ])
        assert rc == 0
        assert "holds" in capsys.readouterr().out

    def test_verify_accepts_store(self, trace_dir, tmp_path, capsys):
        trace = str(trace_dir / "a.json")
        store = str(tmp_path / "store")
        assert main(["verify", trace, "--store", store]) == 0
        capsys.readouterr()
        assert main(["verify", trace, "--store", store, "--stats"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^store: .*\bhits=1\b", out, re.M)

    def test_campaign_second_run_served_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        reports = []
        for i in range(2):
            path = tmp_path / f"campaign{i}.json"
            rc = main([
                "campaign", "--store", store, "--runs-per-cell", "2",
                "--ops", "10", "--quiet", "--json", str(path),
            ])
            assert rc == 0
            reports.append(json.loads(path.read_text()))
        capsys.readouterr()
        solved = reports[0]["provenance"]["solved"]
        assert solved > 0
        assert reports[1]["provenance"] == {"store": solved}

    def test_verify_store_rejected_for_sc(self, trace_dir, tmp_path, capsys):
        rc = main([
            "verify", str(trace_dir / "a.json"), "--sc",
            "--store", str(tmp_path / "store"),
        ])
        assert rc == 2
        assert "store" in capsys.readouterr().err
