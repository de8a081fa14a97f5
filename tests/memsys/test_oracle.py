"""The latency oracle: total classification of injections, the
visible/latent dichotomy, and certified agreement with the verifier."""

import pytest

from repro import verify_coherence, verify_coherence_at
from repro.engine.certify import validate_result
from repro.memsys.directory import DirectorySystem
from repro.memsys.faults import FaultConfig, FaultKind, supported_faults
from repro.memsys.oracle import check_address, classify_run
from repro.memsys.processor import load, store
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import random_shared_workload

SYSTEMS = {"bus": MultiprocessorSystem, "directory": DirectorySystem}
PROTOCOLS = {"bus": "MESI", "directory": "MSI"}


def run_one(substrate, site, seed, rate=0.1, **workload_kw):
    kw = dict(
        num_processors=4, ops_per_processor=30, num_addresses=2,
        write_fraction=0.4, seed=seed,
    )
    kw.update(workload_kw)
    scripts, init = random_shared_workload(**kw)
    cfg = SystemConfig(
        num_processors=kw["num_processors"],
        protocol=PROTOCOLS[substrate],
        seed=seed,
    )
    faults = (
        FaultConfig.none()
        if site is None
        else FaultConfig(
            kinds=frozenset([site]), rate=rate, max_events=1, seed=seed
        )
    )
    return SYSTEMS[substrate](
        cfg, scripts, initial_memory=init, faults=faults
    ).run()


class TestClassificationTotality:
    @pytest.mark.parametrize("substrate", ["bus", "directory"])
    def test_every_injection_is_classified(self, substrate):
        for site in supported_faults(substrate):
            for seed in range(4):
                res = run_one(substrate, site, seed)
                oracle = res.oracle
                assert len(oracle.classifications) == len(res.fault_events)
                for c in oracle.classifications:
                    assert c.label in ("visible", "latent")
                    assert c.evidence
                    assert c.event in res.fault_events

    def test_dichotomy_matches_checker_verdict(self):
        # visible events exist only when the checker proves incoherence,
        # and a proven-incoherent faulted run implicates >= 1 injection.
        for substrate in SYSTEMS:
            for site in supported_faults(substrate):
                for seed in range(4):
                    oracle = run_one(substrate, site, seed).oracle
                    if not oracle.violations:
                        assert oracle.visible_events == []
                        assert oracle.expected_verdict == "HOLDS"
                    elif oracle.classifications:
                        assert oracle.visible_events
                        assert oracle.expected_verdict == "VIOLATED"

    def test_fault_free_runs_are_clean(self):
        for substrate in SYSTEMS:
            for seed in range(3):
                res = run_one(substrate, None, seed)
                oracle = res.oracle
                assert res.fault_events == []
                assert oracle.classifications == []
                assert oracle.violations == {}
                assert not oracle.spontaneous
                assert oracle.expected_verdict == "HOLDS"

    def test_reclassification_is_deterministic(self):
        res = run_one("directory", FaultKind.WB_RACE_CORRUPT, 3)
        again = classify_run(res, line_words=4)
        assert again.row() == res.oracle.row()


class TestCheckerUnit:
    def trace(self):
        res = run_one("bus", None, 0, num_processors=2, ops_per_processor=10)
        addr = sorted(res.write_orders)[0]
        return res.execution, addr, list(res.write_orders[addr])

    def test_accepts_the_recorded_order(self):
        execution, addr, order = self.trace()
        assert check_address(execution, addr, order) is None

    def test_rejects_non_permutation(self):
        execution, addr, order = self.trace()
        assert order, "workload must write"
        reason = check_address(execution, addr, order[:-1])
        assert "permutation" in reason

    def test_rejects_program_order_contradiction(self):
        execution, addr, order = self.trace()
        by_proc = {}
        for op in order:
            by_proc.setdefault(op.proc, []).append(op)
        two = next((ops for ops in by_proc.values() if len(ops) >= 2), None)
        assert two is not None
        swapped = list(order)
        i, j = swapped.index(two[0]), swapped.index(two[1])
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert check_address(execution, addr, swapped) is not None


class TestGroundTruthIsCertified:
    def visible_runs(self, substrate, site, seeds=20):
        out = []
        for seed in range(seeds):
            res = run_one(substrate, site, seed)
            if res.faults_injected and res.oracle.expected_verdict == "VIOLATED":
                out.append(res)
        return out

    @pytest.mark.parametrize(
        "substrate,site",
        [
            ("bus", FaultKind.DROPPED_WRITE),
            ("bus", FaultKind.REORDERED_SERIALIZATION),
            ("directory", FaultKind.WB_RACE_CORRUPT),
        ],
    )
    def test_visible_implies_certified_violated(self, substrate, site):
        runs = self.visible_runs(substrate, site)
        assert runs, "no visible run found in the seed range"
        for res in runs:
            for addr in res.oracle.violations:
                order = res.write_orders.get(addr)
                verdict = verify_coherence_at(
                    res.execution, addr, write_order=order, certify="on"
                )
                assert verdict.violated
                assert verdict.certificate is not None
                check = validate_result(
                    res.execution.restrict_to_address(addr),
                    verdict,
                    "vmc",
                    write_order=order,
                )
                assert check, check.reason

    def test_latent_implies_certified_holds(self):
        checked = 0
        for seed in range(12):
            res = run_one("directory", FaultKind.STALE_SHARER, seed)
            if not res.faults_injected:
                continue
            if res.oracle.expected_verdict != "HOLDS":
                continue
            for addr, order in res.write_orders.items():
                verdict = verify_coherence_at(
                    res.execution, addr, write_order=order, certify="on"
                )
                assert verdict.holds
                check = validate_result(
                    res.execution.restrict_to_address(addr),
                    verdict,
                    "vmc",
                    write_order=order,
                )
                assert check, check.reason
                checked += 1
        assert checked > 0

    def test_reordered_serialization_evidence_names_the_order(self):
        runs = self.visible_runs("bus", FaultKind.REORDERED_SERIALIZATION)
        assert runs
        for res in runs:
            for c in res.oracle.visible_events:
                assert "write-order" in c.evidence

    def test_oracle_and_engine_agree_across_sites(self):
        """The differential guarantee behind the campaign contract:
        the oracle's independent checker and the production verifier
        never disagree on a decided run."""
        for substrate in SYSTEMS:
            for site in supported_faults(substrate):
                for seed in range(3):
                    res = run_one(substrate, site, seed)
                    verdict = verify_coherence(
                        res.execution, write_orders=res.write_orders
                    )
                    assert bool(verdict) == (
                        res.oracle.expected_verdict == "HOLDS"
                    ), (substrate, site, seed)
