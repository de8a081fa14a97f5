"""Ground-truth fault mega-campaigns: thousands of seeded executions.

The paper motivates trace verification as an error-detection mechanism;
a single run says little because many faults are architecturally latent
(the trace stays coherent).  A campaign sweeps seeds over every
(fault site × substrate × delay model) cell and holds the verifier to
the **ground-truth contract** established by the latency oracle
(:mod:`repro.memsys.oracle`):

* every run the oracle proves incoherent (it contains *visible*
  injections) must come back VIOLATED;
* every clean control run and every run with only *latent* injections
  must come back HOLDS — a VIOLATED there is a false alarm;
* abandoned verifications (``unknown`` under a resilience deadline) and
  errors are reported per cell, never silent.

Every cell gets one explicit fault-free **control run** verified under
the same pipeline, so ``false_alarms`` is exercised on every cell
rather than depending on the injector happening not to fire.

Verification routes through the batch engine
(:func:`repro.engine.verify_many`): *all* runs of *all* cells are
simulated first, then canonicalized and deduplicated across the whole
campaign before any solving — fingerprint-identical per-address
histories, which campaigns repeat constantly, are decided once.
``jobs`` runs heavy deduplicated instances on a process pool, one
:class:`~repro.engine.ResultCache` carries hits across cells, a
``store`` (:class:`~repro.engine.ResultStore`) warm-starts repeated
campaigns from disk, a ``resilience`` policy bounds the whole sweep,
and ``certify`` threads proof-carrying verdicts end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.engine import ResultCache, verify_many
from repro.engine.store import ResultStore
from repro.memsys.directory import DirectorySystem
from repro.memsys.faults import FaultConfig, FaultKind, supported_faults
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import (
    false_sharing_workload,
    lock_contention_workload,
    producer_consumer_workload,
    random_shared_workload,
)

SUBSTRATES: dict[str, Callable] = {
    "bus": MultiprocessorSystem,
    "directory": DirectorySystem,
}

#: Workload shapes a campaign can sweep.  ``random`` is the default
#: uniform load/store mix; the others reuse the idiomatic generators
#: (chains, false sharing, test-and-set locks) so fault sites are
#: exercised under qualitatively different sharing patterns.
WORKLOADS = ("random", "producer-consumer", "false-sharing", "lock")


def _make_workload(
    workload: str,
    num_processors: int,
    ops_per_processor: int,
    num_addresses: int,
    write_fraction: float,
    values: str,
    seed: int,
):
    if workload == "random":
        return random_shared_workload(
            num_processors=num_processors,
            ops_per_processor=ops_per_processor,
            num_addresses=num_addresses,
            write_fraction=write_fraction,
            values=values,
            seed=seed,
        )
    if workload == "producer-consumer":
        return producer_consumer_workload(
            items=max(1, ops_per_processor // 2),
            num_consumers=max(1, num_processors - 1),
            seed=seed,
        )
    if workload == "false-sharing":
        return false_sharing_workload(
            num_processors=num_processors,
            ops_per_processor=ops_per_processor,
            values=values,
            seed=seed,
        )
    if workload == "lock":
        return lock_contention_workload(
            num_processors=num_processors,
            acquisitions_per_processor=max(1, ops_per_processor // 9),
            seed=seed,
        )
    raise ValueError(
        f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
    )

#: Default protocol per substrate (the directory is MSI-only).
_PROTOCOLS = {"bus": "MESI", "directory": "MSI"}


#: Bump when simulator, oracle, or record-shape changes invalidate
#: previously recorded run outcomes.
_RUN_CACHE_VERSION = 1


class CampaignRunCache:
    """Persistent per-run campaign outcomes, keyed by parameters + seed.

    Simulation is seeded and deterministic, so a run's outcome — the
    oracle's classification plus the verifier's decided verdict — is a
    pure function of its cell parameters and seed.  A repeated sweep
    (resuming a crashed mega-campaign, extending ``runs_per_cell``, a
    recurring CI job) replays recorded outcomes instead of re-simulating
    and re-verifying; only the runs it has never seen go through the
    full pipeline.  This is distinct from the engine's
    :class:`~repro.engine.ResultStore`, which amortizes *verification*
    of repeated executions but cannot skip the simulation that produces
    them.

    Only decided verdicts are recorded: engine errors and abandoned
    (unknown) verdicts are always retried live on the next sweep.
    Records carry a format version — outcomes recorded by an older
    simulator/oracle are treated as misses.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_of(payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]

    def lookup(self, key: str) -> dict | None:
        try:
            record = json.loads(
                (self.root / f"{key}.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            self.misses += 1
            return None
        if record.get("v") != _RUN_CACHE_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        record = dict(record, v=_RUN_CACHE_VERSION)
        path = self.root / f"{key}.json"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
        tmp.replace(path)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


@dataclass
class CellResult:
    """Aggregated outcome for one (site, substrate, delay model) cell."""

    site: FaultKind
    substrate: str
    delay_model: str
    runs: int = 0
    control_runs: int = 0
    injected_runs: int = 0  # runs with >= 1 injection
    injections: int = 0  # total injected events
    visible: int = 0  # events the oracle proves visible
    latent: int = 0  # events the oracle proves latent
    visible_runs: int = 0  # runs the oracle expects VIOLATED
    detected_visible: int = 0  # ... that the verifier flagged
    missed_visible: int = 0  # ... that the verifier passed (breach)
    false_alarms: int = 0  # HOLDS-expected runs flagged VIOLATED (breach)
    unknown: int = 0  # abandoned verdicts (resilience) — coverage loss
    errors: int = 0  # engine exceptions — coverage loss
    certified: int = 0  # certificate-carrying per-address results

    @property
    def key(self) -> str:
        return f"{self.substrate}/{self.site.value}/{self.delay_model}"

    @property
    def detection_rate(self) -> float:
        """Detected fraction of the runs that were *provably* incoherent
        (latent injections are excluded by construction — demanding
        their detection would demand false positives)."""
        return (
            self.detected_visible / self.visible_runs
            if self.visible_runs
            else 0.0
        )

    @property
    def coverage(self) -> float:
        """Fraction of runs that produced a verdict: partial coverage
        (a failed cell in a long sweep) is visible, not silent."""
        decided = self.runs - self.unknown - self.errors
        return decided / self.runs if self.runs else 0.0

    def row(self) -> str:
        rate = f"{self.detection_rate:.0%}" if self.visible_runs else "n/a"
        line = (
            f"{self.site.value:<24} {self.substrate:<10} "
            f"{self.delay_model:<14} {self.injections:>6} {self.visible:>7} "
            f"{self.latent:>6} {self.detected_visible:>8} {rate:>6}"
        )
        flags = []
        if self.missed_visible:
            flags.append(f"{self.missed_visible} MISSED")
        if self.false_alarms:
            flags.append(f"{self.false_alarms} FALSE-ALARM")
        if self.unknown or self.errors:
            flags.append(
                f"coverage {self.coverage:.0%}: {self.unknown} unknown, "
                f"{self.errors} errors"
            )
        if flags:
            line += "  [" + "; ".join(flags) + "]"
        return line


@dataclass
class CampaignReport:
    """The whole sweep: per-cell results plus the contract verdict."""

    cells: list[CellResult] = field(default_factory=list)
    total_runs: int = 0
    total_injections: int = 0
    #: Human-readable contract breaches (missed visibles, false alarms,
    #: spontaneous violations), capped; empty iff ``contract_ok``.
    contract_failures: list[str] = field(default_factory=list)
    #: The sweep's run record: the ``simulate`` and ``batch`` spans,
    #: and every verification's counters folded in.
    record: obs.Record = field(default_factory=obs.Record)

    MAX_FAILURES = 50

    @property
    def provenance(self) -> dict[str, int]:
        """Solved / memory / store / dedup / run-cache totals."""
        return {
            k: int(v) for k, v in self.record.group("provenance").items() if v
        }

    @property
    def certified(self) -> int:
        return int(self.record["batch.certified"])

    # Only the verify phase is amortizable by a store: judge warm starts by it.
    @property
    def simulate_s(self) -> float:
        return round(self.record.seconds("simulate", inclusive=True), 4)

    @property
    def verify_s(self) -> float:
        return round(self.record.seconds("batch", inclusive=True), 4)

    @property
    def contract_ok(self) -> bool:
        return not self.contract_failures

    @property
    def unknown(self) -> int:
        return sum(c.unknown for c in self.cells)

    @property
    def errors(self) -> int:
        return sum(c.errors for c in self.cells)

    def _fail(self, message: str) -> None:
        if len(self.contract_failures) < self.MAX_FAILURES:
            self.contract_failures.append(message)
        elif len(self.contract_failures) == self.MAX_FAILURES:
            self.contract_failures.append("... further breaches elided")

    def to_json(self) -> dict:
        return {
            "total_runs": self.total_runs,
            "total_injections": self.total_injections,
            "contract_ok": self.contract_ok,
            "contract_failures": list(self.contract_failures),
            "unknown": self.unknown,
            "errors": self.errors,
            "certified": self.certified,
            "provenance": self.provenance,
            "unknown_causes": self.record.unknowns(),
            "simulate_s": self.simulate_s,
            "verify_s": self.verify_s,
            "record": self.record.as_dict(),
            "cells": [
                {
                    "site": c.site.value,
                    "substrate": c.substrate,
                    "delay_model": c.delay_model,
                    "runs": c.runs,
                    "injections": c.injections,
                    "visible": c.visible,
                    "latent": c.latent,
                    "visible_runs": c.visible_runs,
                    "detected_visible": c.detected_visible,
                    "missed_visible": c.missed_visible,
                    "false_alarms": c.false_alarms,
                    "unknown": c.unknown,
                    "errors": c.errors,
                    "detection_rate": c.detection_rate,
                    "coverage": c.coverage,
                    "certified": c.certified,
                }
                for c in self.cells
            ],
        }


def _replay_record(
    report: CampaignReport,
    cell: CellResult,
    record: dict,
    label: str,
    control: bool,
) -> None:
    """Aggregate one run-cache record exactly as a live run would be.

    Records only exist for decided verdicts, so the error/unknown
    branches of the live path have no replayed counterpart; contract
    breaches recorded cold (a missed visible fault, a false alarm) are
    re-raised on replay so a warm sweep cannot launder a failure.
    """
    if record["injections"]:
        cell.injected_runs += 1
        cell.injections += record["injections"]
        report.total_injections += record["injections"]
        cell.visible += record["visible"]
        cell.latent += record["latent"]
    if record["spontaneous"]:
        report._fail(
            f"{label}: incoherent with no injected fault "
            f"(simulator bug): {record['violations']}"
        )
    expected = record["expected"]
    if expected == "VIOLATED":
        cell.visible_runs += 1
    cell.certified += record["certified"]
    if expected == "VIOLATED":
        if record["violated"]:
            cell.detected_visible += 1
        else:
            cell.missed_visible += 1
            report._fail(
                f"{label}: missed visible fault — oracle proves "
                f"incoherence at {record['violations']} but the "
                f"verifier answered holds (replayed)"
            )
    elif record["violated"]:
        cell.false_alarms += 1
        kind = "control run" if control else "latent-only run"
        report._fail(
            f"{label}: false alarm — {kind} flagged VIOLATED "
            f"({record['reason']}) (replayed)"
        )


def run_campaign(
    sites: list[FaultKind] | None = None,
    substrates: list[str] | None = None,
    runs_per_cell: int = 20,
    num_processors: int = 4,
    ops_per_processor: int = 40,
    num_addresses: int = 3,
    write_fraction: float = 0.35,
    fault_rate: float = 0.1,
    max_events: int | None = 1,
    base_seed: int = 0,
    values: str = "unique",
    workload: str = "random",
    delay_models: list[str] | None = None,
    num_homes: int = 2,
    jobs: int = 1,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    run_cache: CampaignRunCache | str | Path | None = None,
    resilience=None,
    certify: str = "off",
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Sweep seeds over every (fault site × substrate × delay model)
    cell and verify the whole campaign as one deduplicated batch.

    Each cell simulates ``runs_per_cell`` seeded fault-injected runs
    *plus one fault-free control run*; the oracle classifies every
    injection, and the returned report holds the verifier to the
    ground-truth contract (see the module docstring).  ``delay_models``
    applies to the directory substrate only (the bus is atomic; its
    single cell per site is labelled ``atomic``).

    ``run_cache`` (a :class:`CampaignRunCache` or a directory path)
    makes repeated sweeps incremental: decided per-run outcomes are
    recorded keyed by the cell parameters and seed, and a later sweep
    replays them — skipping both simulation and verification — counting
    each under the ``"run-cache"`` provenance key.
    """
    substrates = substrates or list(SUBSTRATES)
    for s in substrates:
        if s not in SUBSTRATES:
            raise ValueError(
                f"unknown substrate {s!r}; choose from {sorted(SUBSTRATES)}"
            )
    delay_models = list(delay_models or ["fixed:1"])
    cache = cache if cache is not None else ResultCache(store=store)
    if run_cache is not None and not isinstance(run_cache, CampaignRunCache):
        run_cache = CampaignRunCache(run_cache)

    report = CampaignReport()
    cells: list[CellResult] = []
    #: One dict per run, in sweep order.  ``record`` is the replayed
    #: run-cache entry (simulation skipped); otherwise ``run`` holds
    #: the live RunResult and ``outcome`` is filled by verify_many.
    entries: list[dict] = []

    say = progress or (lambda _msg: None)
    seed_counter = 0
    with obs.opened(report.record):
        with obs.span("simulate"):
            for substrate in substrates:
                system_cls = SUBSTRATES[substrate]
                supported = supported_faults(substrate)
                cell_sites = [k for k in (sites or supported) if k in supported]
                cell_delays = delay_models if substrate == "directory" else ["atomic"]
                for delay in cell_delays:
                    for site in cell_sites:
                        cell = CellResult(
                            site=site, substrate=substrate, delay_model=delay
                        )
                        cells.append(cell)
                        cell_idx = len(cells) - 1
                        say(f"simulating {cell.key}: {runs_per_cell}+1 runs")
                        for i in range(runs_per_cell + 1):
                            control = i == runs_per_cell
                            seed = base_seed + seed_counter
                            seed_counter += 1
                            label = f"{cell.key}/seed={seed}" + (
                                "/control" if control else ""
                            )
                            entry = {
                                "cell": cell_idx,
                                "control": control,
                                "label": label,
                                "key": None,
                                "record": None,
                                "run": None,
                                "outcome": None,
                            }
                            entries.append(entry)
                            if run_cache is not None:
                                entry["key"] = CampaignRunCache.key_of(
                                    {
                                        "substrate": substrate,
                                        "site": site.value,
                                        "delay": delay,
                                        "seed": seed,
                                        "control": control,
                                        "procs": num_processors,
                                        "ops": ops_per_processor,
                                        "addrs": num_addresses,
                                        "wf": write_fraction,
                                        "values": values,
                                        "workload": workload,
                                        "rate": fault_rate,
                                        "max_events": max_events,
                                        "homes": num_homes,
                                        "certify": certify,
                                    }
                                )
                                entry["record"] = run_cache.lookup(entry["key"])
                                if entry["record"] is not None:
                                    continue
                            scripts, init = _make_workload(
                                workload,
                                num_processors=num_processors,
                                ops_per_processor=ops_per_processor,
                                num_addresses=num_addresses,
                                write_fraction=write_fraction,
                                values=values,
                                seed=seed,
                            )
                            cfg = SystemConfig(
                                num_processors=num_processors,
                                protocol=_PROTOCOLS[substrate],
                                seed=seed,
                                num_homes=num_homes,
                                delay_model=delay if delay != "atomic" else "fixed:1",
                            )
                            faults = (
                                FaultConfig.none()
                                if control
                                else FaultConfig(
                                    kinds=frozenset([site]),
                                    rate=fault_rate,
                                    max_events=max_events,
                                    seed=seed,
                                )
                            )
                            entry["run"] = system_cls(
                                cfg, scripts, initial_memory=init, faults=faults
                            ).run()
        live = [e for e in entries if e["record"] is None]
        replayed = len(entries) - len(live)
        for e in entries:
            if e["record"] is not None:
                obs.add("batch.certified", e["record"]["certified"])
                obs.add("provenance.run-cache")
        say(
            f"verifying {len(live)} executions "
            f"({len(cells)} cells, jobs={jobs}, certify={certify}"
            + (f", {replayed} replayed from run cache)" if replayed else ")")
        )
        if live:
            with obs.span("batch"):
                outcomes = verify_many(
                    [e["run"].execution for e in live],
                    write_orders=[e["run"].write_orders for e in live],
                    labels=[e["label"] for e in live],
                    jobs=jobs,
                    cache=cache,
                    store=store,
                    resilience=resilience,
                    certify=certify,
                )
                for entry, outcome in zip(live, outcomes):
                    entry["outcome"] = outcome

    for entry in entries:
        cell = cells[entry["cell"]]
        control = entry["control"]
        label = entry["label"]
        cell.runs += 1
        report.total_runs += 1
        if control:
            cell.control_runs += 1

        record = entry["record"]
        if record is not None:
            _replay_record(report, cell, record, label, control)
            continue

        run = entry["run"]
        outcome = entry["outcome"]
        oracle = run.oracle
        if run.faults_injected:
            cell.injected_runs += 1
            cell.injections += run.faults_injected
            report.total_injections += run.faults_injected
            cell.visible += len(oracle.visible_events)
            cell.latent += len(oracle.latent_events)
        if oracle.spontaneous:
            report._fail(
                f"{label}: incoherent with no injected fault "
                f"(simulator bug): {oracle.violations}"
            )
        expected = oracle.expected_verdict
        if expected == "VIOLATED":
            cell.visible_runs += 1

        cell.certified += outcome.certified

        if outcome.error is not None:
            cell.errors += 1
            if expected == "VIOLATED":
                report._fail(
                    f"{label}: oracle expects VIOLATED but the engine "
                    f"errored: {outcome.error}"
                )
            continue
        verdict = outcome.result
        if verdict is None or verdict.unknown:
            cell.unknown += 1
            if expected == "VIOLATED":
                report._fail(
                    f"{label}: oracle expects VIOLATED but the verdict "
                    f"was abandoned (unknown)"
                )
            continue
        if run_cache is not None:
            # Decided outcome: record it so a repeated sweep replays
            # this run without re-simulating or re-verifying.
            run_cache.put(
                entry["key"],
                {
                    "injections": run.faults_injected,
                    "visible": len(oracle.visible_events),
                    "latent": len(oracle.latent_events),
                    "spontaneous": bool(oracle.spontaneous),
                    "violations": sorted(oracle.violations),
                    "expected": expected,
                    "violated": bool(verdict.violated),
                    "reason": verdict.reason if verdict.violated else None,
                    "certified": outcome.certified,
                },
            )
        if expected == "VIOLATED":
            if verdict.violated:
                cell.detected_visible += 1
            else:
                cell.missed_visible += 1
                report._fail(
                    f"{label}: missed visible fault — oracle proves "
                    f"incoherence at {sorted(oracle.violations)} but the "
                    f"verifier answered holds"
                )
        elif verdict.violated:
            cell.false_alarms += 1
            kind = "control run" if control else "latent-only run"
            report._fail(
                f"{label}: false alarm — {kind} flagged VIOLATED "
                f"({verdict.reason})"
            )

    report.cells = cells
    return report


def campaign_table(report: CampaignReport) -> str:
    """Render the detection-rate table per (site × substrate × delay),
    then the sweep's run record."""
    lines = [
        f"{'fault site':<24} {'substrate':<10} {'delay':<14} {'events':>6} "
        f"{'visible':>7} {'latent':>6} {'caught':>8} {'rate':>6}"
    ]
    lines.extend(cell.row() for cell in report.cells)
    lines.append(
        f"contract: {'OK' if report.contract_ok else 'BREACHED'} — "
        f"{report.total_runs} runs, {report.total_injections} injections, "
        f"{report.unknown} unknown, {report.errors} errors"
    )
    for failure in report.contract_failures[:10]:
        lines.append(f"  breach: {failure}")
    lines.append(obs.render(report.record))
    return "\n".join(lines)
