"""E5.2W — Section 5.2: the write-order makes verification practical.

Uses the memory-system simulator as the "augmented memory system": the
bus transaction log supplies the per-address write-order.  Shows the
polynomial write-order algorithm scaling linearly on real simulator
traces, and the asymmetry the paper predicts: on ambiguous (small value
set) traces the general backends do super-linear work while the
write-order path stays flat.
"""

from repro.core.encode import sat_vmc
from repro.core.exact import exact_vmc
from repro import verify_coherence_at
from repro.memsys import MultiprocessorSystem, SystemConfig, random_shared_workload
from repro.util.timing import RepeatTimer, time_callable

from benchmarks.conftest import report


def _simulate(n_per_proc: int, seed: int, values: str = "small"):
    scripts, init = random_shared_workload(
        num_processors=4,
        ops_per_processor=n_per_proc,
        num_addresses=1,
        values=values,
        seed=seed,
    )
    cfg = SystemConfig(num_processors=4, seed=seed)
    return MultiprocessorSystem(cfg, scripts, initial_memory=init).run()


def test_write_order_scales_linearly_on_simulator_traces(benchmark):
    timer = RepeatTimer()
    for n in (250, 500, 1000, 2000):
        res = _simulate(n, seed=n)
        timer.measure(
            4 * n,
            lambda r=res: verify_coherence_at(
                r.execution, 0, method="write-order", write_order=r.write_orders[0]
            ),
        )
    slope = timer.slope()
    assert slope <= 1.6, timer.table()
    report(
        "Section 5.2 — write-order verification on simulator traces "
        "(paper: O(n^2) bound)",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    res = _simulate(1000, seed=9)
    result = benchmark(
        lambda: verify_coherence_at(
            res.execution, 0, method="write-order", write_order=res.write_orders[0]
        )
    )
    assert result


def test_write_order_beats_general_backends(benchmark):
    """The paper's practical point: with hardware supplying the write
    serialization, verification is cheap; without it you pay for search."""
    res = _simulate(160, seed=4, values="small")
    t_wo = time_callable(
        lambda: verify_coherence_at(
            res.execution, 0, method="write-order", write_order=res.write_orders[0]
        )
    )
    t_exact = time_callable(lambda: exact_vmc(res.execution.restrict_to_address(0)))
    rows = [
        f"{'method':<14} {'seconds':>10}",
        f"{'write-order':<14} {t_wo:>10.5f}",
        f"{'exact search':<14} {t_exact:>10.5f}",
    ]
    assert t_wo < t_exact
    report(
        "Section 5.2 — write-order vs general search (640-op ambiguous trace)",
        "\n".join(rows) + "\nwrite-order wins, as the paper predicts",
    )
    benchmark(
        lambda: verify_coherence_at(
            res.execution, 0, method="write-order", write_order=res.write_orders[0]
        )
    )


def test_rmw_write_order_single_scan(benchmark):
    """All-RMW traces: the write-order is a total order; one O(n) scan."""
    from repro.memsys.processor import rmw as s_rmw

    scripts = []
    for p in range(4):
        scripts.append([s_rmw(0, p * 1000 + i) for i in range(250)])
    cfg = SystemConfig(num_processors=4, seed=0)
    res = MultiprocessorSystem(cfg, scripts, initial_memory={0: 0}).run()
    result = benchmark(
        lambda: verify_coherence_at(
            res.execution, 0, method="write-order", write_order=res.write_orders[0]
        )
    )
    assert result
    report(
        "Section 5.2 — RMW-only trace (paper: O(n))",
        f"1000 atomic RMWs verified via the bus order: coherent = {bool(result)}",
    )
