"""Ground-truth campaigns: the visible ⇒ VIOLATED / latent ⇒ HOLDS
contract, per-cell aggregation, control runs, and determinism."""

import pytest

from repro.engine import ResultCache
from repro.memsys.campaign import (
    SUBSTRATES,
    CampaignReport,
    CampaignRunCache,
    CellResult,
    campaign_table,
    run_campaign,
)
from repro.memsys.faults import FaultKind, supported_faults

# Small-but-real campaign shape shared by most tests here.
SMALL = dict(
    runs_per_cell=5,
    num_processors=3,
    ops_per_processor=24,
    num_addresses=2,
    write_fraction=0.4,
    fault_rate=0.2,
)


class TestCampaignShape:
    def test_bus_cells_and_control_runs(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.CORRUPTED_VALUE],
            substrates=["bus"],
            **SMALL,
        )
        assert isinstance(report, CampaignReport)
        assert len(report.cells) == 2
        for cell in report.cells:
            assert isinstance(cell, CellResult)
            assert cell.substrate == "bus"
            assert cell.delay_model == "atomic"  # the bus has no fabric
            assert cell.runs == SMALL["runs_per_cell"] + 1
            assert cell.control_runs == 1
        assert report.total_runs == 2 * (SMALL["runs_per_cell"] + 1)

    def test_directory_cells_sweep_delay_models(self):
        report = run_campaign(
            sites=[FaultKind.WB_RACE_CORRUPT],
            substrates=["directory"],
            delay_models=["fixed:1", "uniform:1:4"],
            **SMALL,
        )
        assert [c.delay_model for c in report.cells] == [
            "fixed:1",
            "uniform:1:4",
        ]
        assert all(c.substrate == "directory" for c in report.cells)

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError, match="unknown substrate"):
            run_campaign(substrates=["token-ring"], runs_per_cell=1)

    def test_sites_filtered_per_substrate(self):
        """A bus-only site contributes no directory cells (and vice
        versa) rather than crashing or injecting nothing silently."""
        report = run_campaign(
            sites=[FaultKind.LOST_INVALIDATION],
            substrates=["directory"],
            runs_per_cell=1,
            num_processors=2,
            ops_per_processor=8,
        )
        assert report.cells == []
        assert report.total_runs == 0
        assert report.contract_ok

    def test_substrate_registry_matches_supported_faults(self):
        for name in SUBSTRATES:
            assert supported_faults(name)  # raises on unknown names


class TestGroundTruthContract:
    def test_value_faults_bus_contract_holds(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.CORRUPTED_VALUE],
            substrates=["bus"],
            **SMALL,
        )
        assert report.contract_ok, report.contract_failures
        assert report.total_injections > 0
        assert all(c.false_alarms == 0 for c in report.cells)
        assert all(c.missed_visible == 0 for c in report.cells)
        # Dropped writes with unique values are reliably visible.
        assert any(c.detected_visible > 0 for c in report.cells)

    def test_directory_message_faults_contract_holds(self):
        report = run_campaign(
            sites=[
                FaultKind.WB_RACE_CORRUPT,
                FaultKind.DIR_STATE_CORRUPT,
                FaultKind.STALE_SHARER,
            ],
            substrates=["directory"],
            delay_models=["uniform:1:3"],
            **SMALL,
        )
        assert report.contract_ok, report.contract_failures
        assert report.total_injections > 0
        # The oracle classifies every single injection, one way or the
        # other — the dichotomy is total.
        for cell in report.cells:
            assert cell.visible + cell.latent == cell.injections

    def test_coverage_accounts_for_every_run(self):
        report = run_campaign(
            sites=[FaultKind.CORRUPTED_VALUE], substrates=["bus"], **SMALL
        )
        for cell in report.cells:
            decided = cell.runs - cell.unknown - cell.errors
            assert cell.coverage == decided / cell.runs
            assert cell.coverage == 1.0  # nothing abandoned in-process

    def test_certified_campaign(self):
        """certify="on" threads proof-carrying verdicts through the
        whole sweep without breaching the contract."""
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.REORDERED_SERIALIZATION],
            substrates=["bus"],
            certify="on",
            **SMALL,
        )
        assert report.contract_ok, report.contract_failures
        assert report.errors == 0
        assert report.certified > 0


class TestDeterminismAndDedup:
    def test_serial_process_pool_agreement(self):
        """The same campaign decided serially and over a process pool
        produces identical per-cell ground truth and verdicts."""
        kw = dict(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.WB_RACE_CORRUPT],
            runs_per_cell=4,
            num_processors=3,
            ops_per_processor=20,
            num_addresses=2,
            fault_rate=0.2,
        )
        serial = run_campaign(jobs=1, **kw)
        pooled = run_campaign(jobs=2, **kw)
        assert serial.to_json()["cells"] == pooled.to_json()["cells"]
        assert serial.contract_ok == pooled.contract_ok

    def test_campaign_is_reproducible(self):
        kw = dict(
            sites=[FaultKind.CORRUPTED_VALUE], substrates=["bus"], **SMALL
        )
        a = run_campaign(**kw)
        b = run_campaign(**kw)

        def stable(report):
            # Everything but the wall-clock timings: the phase split
            # and the run record (spans and the engine's wall time).
            blob = report.to_json()
            blob.pop("simulate_s"), blob.pop("verify_s"), blob.pop("record")
            return blob

        assert stable(a) == stable(b)

    def test_repeated_campaign_served_from_shared_cache(self):
        """A shared ResultCache carries verdicts across sweeps: the
        second identical campaign solves nothing."""
        cache = ResultCache()
        kw = dict(
            sites=[FaultKind.DROPPED_WRITE], substrates=["bus"],
            cache=cache, **SMALL,
        )
        cold = run_campaign(**kw)
        assert cold.provenance.get("solved", 0) > 0
        warm = run_campaign(**kw)
        assert warm.provenance.get("solved", 0) == 0
        assert (
            warm.provenance.get("memory", 0)
            + warm.provenance.get("dedup", 0)
            == sum(cold.provenance.values())
        )
        assert warm.to_json()["cells"] == cold.to_json()["cells"]


class TestReportRendering:
    def test_table_lists_every_cell_and_contract_line(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE], substrates=["bus"], **SMALL
        )
        table = campaign_table(report)
        assert "fault site" in table
        assert "dropped-write" in table
        assert "contract: OK" in table
        assert "cache:" in table

    def test_breaches_are_rendered(self):
        report = CampaignReport()
        report._fail("cellX: missed visible fault")
        table = campaign_table(report)
        assert "contract: BREACHED" in table
        assert "breach: cellX" in table

    def test_json_round_trip_fields(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE], substrates=["bus"], **SMALL
        )
        blob = report.to_json()
        assert blob["contract_ok"] is True
        assert blob["total_runs"] == report.total_runs
        assert len(blob["cells"]) == len(report.cells)
        cell = blob["cells"][0]
        for key in (
            "site", "substrate", "delay_model", "detection_rate",
            "coverage", "false_alarms", "missed_visible", "certified",
        ):
            assert key in cell

    def test_failure_list_is_capped(self):
        report = CampaignReport()
        for i in range(report.MAX_FAILURES + 10):
            report._fail(f"breach {i}")
        assert len(report.contract_failures) == report.MAX_FAILURES + 1
        assert report.contract_failures[-1].startswith("...")


class TestRunCache:
    """The campaign run cache: repeated sweeps replay recorded
    per-run outcomes instead of re-simulating and re-verifying."""

    SITES = [FaultKind.DROPPED_WRITE, FaultKind.STALE_SHARER]

    def _sweep(self, tmp_path, **overrides):
        kwargs = dict(
            sites=self.SITES,
            substrates=["directory"],
            run_cache=tmp_path / "runs",
            **SMALL,
        )
        kwargs.update(overrides)
        return run_campaign(**kwargs)

    def test_warm_sweep_replays_identically(self, tmp_path):
        cold = self._sweep(tmp_path)
        warm = self._sweep(tmp_path)
        assert cold.contract_ok and warm.contract_ok
        # Every decided cold run was recorded and replayed warm.
        decided = cold.total_runs - cold.unknown - cold.errors
        assert warm.provenance.get("run-cache", 0) == decided
        # Aggregates are bit-identical across the two sweeps.
        assert cold.to_json()["cells"] == warm.to_json()["cells"]
        assert warm.total_injections == cold.total_injections
        assert warm.certified == cold.certified

    def test_records_on_disk_and_versioned(self, tmp_path):
        report = self._sweep(tmp_path)
        cache = CampaignRunCache(tmp_path / "runs")
        decided = report.total_runs - report.unknown - report.errors
        assert len(cache) == decided > 0
        # A stale format version is a miss, not a wrong replay.
        key = next(iter(cache.root.glob("*.json"))).stem
        record = cache.lookup(key)
        assert record is not None
        # put() stamps the current version, so poke the file directly.
        import json as _json

        path = cache.root / f"{key}.json"
        blob = _json.loads(path.read_text())
        blob["v"] = -1
        path.write_text(_json.dumps(blob))
        assert cache.lookup(key) is None

    def test_parameter_change_misses(self, tmp_path):
        self._sweep(tmp_path)
        bumped = self._sweep(tmp_path, fault_rate=0.3)
        # Different fault rate → different keys → everything re-runs.
        assert bumped.provenance.get("run-cache", 0) == 0
        assert bumped.contract_ok

    def test_replay_reraises_recorded_breaches(self, tmp_path):
        cold = self._sweep(tmp_path)
        # Corrupt one HOLDS record into a recorded false alarm: the
        # warm sweep must surface it as a contract breach, not launder
        # it into a pass.
        import json as _json

        cache = CampaignRunCache(tmp_path / "runs")
        for path in sorted(cache.root.glob("*.json")):
            blob = _json.loads(path.read_text())
            if blob["expected"] == "HOLDS" and not blob["violated"]:
                blob["violated"] = True
                blob["reason"] = "injected-for-test"
                path.write_text(_json.dumps(blob))
                break
        else:
            pytest.skip("no HOLDS record to corrupt")
        warm = self._sweep(tmp_path)
        assert cold.contract_ok
        assert not warm.contract_ok
        assert any("false alarm" in f for f in warm.contract_failures)

    def test_accepts_path_or_instance(self, tmp_path):
        cache = CampaignRunCache(tmp_path / "runs")
        cold = self._sweep(tmp_path, run_cache=cache)
        assert cache.misses == cold.total_runs
        warm = self._sweep(tmp_path, run_cache=str(tmp_path / "runs"))
        assert warm.provenance.get("run-cache", 0) > 0
