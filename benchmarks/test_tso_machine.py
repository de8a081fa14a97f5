"""Extension — the store-buffered machine vs the model hierarchy.

Not a paper artifact, but the natural Section 6 companion experiment:
run a machine that is TSO-by-construction and measure how often its
traces fall outside SC as the store buffers get lazier.  Every trace
must check out under the TSO operational model (soundness of both the
machine and the checker); the SC-violation fraction rises with drain
laziness — the empirical gap between the models of Section 6.2.
"""

from repro.consistency.tso import tso_holds
from repro import verify_sequential_consistency
from repro.memsys.processor import load, store
from repro.memsys.tso_system import TsoConfig, TsoSystem

from benchmarks.conftest import report


def _sb_workload():
    return [
        [store(0, 1), load(1)],
        [store(1, 1), load(0)],
    ]


def test_sc_violation_rate_vs_drain_laziness(benchmark):
    def sweep():
        rows = [f"{'drain prob':>10} {'runs':>5} {'TSO-ok':>7} {'non-SC':>7}"]
        series = []
        for drain_p in (0.6, 0.3, 0.1):
            runs = tso_ok = non_sc = 0
            for seed in range(30):
                cfg = TsoConfig(
                    num_processors=2, seed=seed, drain_probability=drain_p
                )
                res = TsoSystem(
                    cfg, _sb_workload(), initial_memory={0: 0, 1: 0}
                ).run()
                runs += 1
                if tso_holds(res.execution):
                    tso_ok += 1
                if not verify_sequential_consistency(res.execution):
                    non_sc += 1
            rows.append(f"{drain_p:>10} {runs:>5} {tso_ok:>7} {non_sc:>7}")
            series.append((drain_p, tso_ok, non_sc, runs))
        return rows, series

    (rows, series) = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Soundness: every single run is TSO-consistent.
    assert all(tso_ok == runs for _, tso_ok, _, runs in series)
    # Lazier buffers => more SB outcomes escape SC.
    assert series[-1][2] >= series[0][2]
    assert series[-1][2] > 0
    report(
        "TSO machine — SC-violation rate vs store-buffer laziness "
        "(every run TSO-consistent by construction)",
        "\n".join(rows),
    )


def test_tso_checker_on_machine_traces(benchmark):
    cfg = TsoConfig(num_processors=2, seed=5, drain_probability=0.2)
    res = TsoSystem(cfg, _sb_workload(), initial_memory={0: 0, 1: 0}).run()
    result = benchmark(lambda: tso_holds(res.execution))
    assert result
