"""Ablation — protocol and substrate choices in the simulator.

DESIGN.md calls out two simulator design choices; this file quantifies
both:

* **MESI vs MSI** — the E state removes upgrade transactions for
  private data (read-then-write hits silently); measured as bus-traffic
  reduction on a private-heavy workload;
* **bus vs directory** — both substrates produce verifiable executions
  and write-orders; the directory pays per-request bookkeeping but
  needs no broadcast (invalidations counted explicitly).
"""

from repro import verify_coherence
from repro.memsys.directory import DirectorySystem
from repro.memsys.processor import load, store
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import random_shared_workload

from benchmarks.conftest import report


def _private_heavy_scripts(num_processors: int, per_proc: int):
    """Each processor mostly touches its own line: E-state heaven."""
    scripts = []
    for p in range(num_processors):
        base = 100 * p
        ops = []
        for i in range(per_proc):
            if i % 3 == 0:
                ops.append(load(base))
            else:
                ops.append(store(base, p * 10_000 + i))
        scripts.append(ops)
    initial = {100 * p: 0 for p in range(num_processors)}
    return scripts, initial


def test_mesi_vs_msi_traffic(benchmark):
    scripts, init = _private_heavy_scripts(4, 60)
    rows = [f"{'protocol':<9} {'bus txns':>9} {'upgrades':>9} verdict"]
    traffic = {}
    for protocol in ("MSI", "MESI"):
        cfg = SystemConfig(num_processors=4, protocol=protocol, seed=1)
        res = MultiprocessorSystem(cfg, scripts, initial_memory=init).run()
        upgrades = res.bus_traffic.get("BusUpgr", 0)
        verdict = verify_coherence(res.execution, write_orders=res.write_orders)
        assert verdict
        traffic[protocol] = (res.bus_transactions, upgrades)
        rows.append(
            f"{protocol:<9} {res.bus_transactions:>9} {upgrades:>9} coherent"
        )
    # MESI eliminates the upgrade transactions on private data.
    assert traffic["MESI"][1] < traffic["MSI"][1]
    assert traffic["MESI"][0] <= traffic["MSI"][0]
    report(
        "Ablation — MESI vs MSI on a private-heavy workload "
        "(E-state saves upgrades)",
        "\n".join(rows),
    )
    cfg = SystemConfig(num_processors=4, protocol="MESI", seed=1)
    benchmark(
        lambda: MultiprocessorSystem(cfg, scripts, initial_memory=init).run()
    )


def test_bus_vs_directory_substrate(benchmark):
    scripts, init = random_shared_workload(
        num_processors=4, ops_per_processor=60, num_addresses=4, seed=7
    )
    rows = [f"{'substrate':<11} {'serialization events':>21} verdict"]
    for name, cls in (("bus", MultiprocessorSystem), ("directory", DirectorySystem)):
        # Apples to apples: the directory implements MSI only.
        cfg = SystemConfig(num_processors=4, protocol="MSI", seed=7)
        res = cls(cfg, scripts, initial_memory=init).run()
        verdict = verify_coherence(res.execution, write_orders=res.write_orders)
        assert verdict, (name, verdict.reason)
        rows.append(f"{name:<11} {res.bus_transactions:>21} coherent")
    report(
        "Ablation — bus vs directory: both substrates export verifiable "
        "write-orders",
        "\n".join(rows),
    )
    cfg = SystemConfig(num_processors=4, protocol="MSI", seed=7)
    benchmark(lambda: DirectorySystem(cfg, scripts, initial_memory=init).run())


def test_campaign_across_substrates(benchmark):
    from repro.memsys.campaign import campaign_table, run_campaign
    from repro.memsys.faults import FaultKind

    def campaign():
        return run_campaign(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.CORRUPTED_VALUE],
            runs_per_cell=10,
            ops_per_processor=35,
            write_fraction=0.3,
        )

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert result.contract_ok, result.contract_failures
    assert all(cell.false_alarms == 0 for cell in result.cells)
    assert any(cell.detected_visible > 0 for cell in result.cells)
    report(
        "Ablation — fault detection across substrates",
        campaign_table(result),
    )
