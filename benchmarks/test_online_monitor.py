"""Extension — online monitoring throughput and detection latency.

The paper's conclusion argues online detection is practical only with
"significant additional information from the system"; the write-order
is that information.  This file measures what the online monitor buys:

* per-commit cost (amortized O(1)) vs re-running the offline verifier;
* detection latency: how many events after the injected fault the
  first violation is reported.
"""

from repro import verify_coherence
from repro.engine.streaming import AddressMonitor, monitor_run
from repro.memsys import (
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    random_shared_workload,
)
from repro.util.timing import RepeatTimer

from benchmarks.conftest import report


def _event_stream(n: int):
    import random

    rng = random.Random(n)
    events = []
    current = 0
    for _ in range(n):
        if rng.random() < 0.4:
            current = rng.randrange(1000)
            events.append(("w", rng.randrange(4), current))
        else:
            events.append(("r", rng.randrange(4), current))
    return events


def _feed(events):
    mon = AddressMonitor("x", initial=0)
    for kind, proc, value in events:
        if kind == "w":
            mon.commit_write(proc, value)
        else:
            mon.commit_read(proc, value)
    return mon


def test_monitor_per_commit_cost_is_flat(benchmark):
    timer = RepeatTimer()
    for n in (2000, 4000, 8000, 16000):
        events = _event_stream(n)
        timer.measure(n, lambda e=events: _feed(e))
        assert _feed(events).ok
    slope = timer.slope()
    assert slope <= 1.4, timer.table()
    report(
        "Online monitor — total cost vs event count (amortized O(1)/commit)",
        timer.table() + f"\nfitted exponent: {slope:.2f}",
    )
    events = _event_stream(8000)
    benchmark(lambda: _feed(events))


def test_monitor_agrees_with_offline_at_lower_cost(benchmark):
    scripts, init = random_shared_workload(
        num_processors=4, ops_per_processor=400, num_addresses=4, seed=3
    )
    cfg = SystemConfig(num_processors=4, seed=3)
    res = MultiprocessorSystem(cfg, scripts, initial_memory=init).run()

    violations = benchmark(lambda: monitor_run(res))
    assert not violations
    offline = verify_coherence(res.execution, write_orders=res.write_orders)
    assert offline
    report(
        "Online monitor — 1600-op healthy run",
        "online replay and offline write-order verification agree (clean)",
    )


def test_detection_latency(benchmark):
    def campaign():
        latencies = []
        for seed in range(30):
            scripts, init = random_shared_workload(
                num_processors=4, ops_per_processor=50,
                num_addresses=2, write_fraction=0.3, seed=seed,
            )
            cfg = SystemConfig(num_processors=4, seed=seed)
            res = MultiprocessorSystem(
                cfg, scripts, initial_memory=init,
                faults=FaultConfig.single(
                    FaultKind.CORRUPTED_VALUE, seed=seed, rate=0.2
                ),
            ).run()
            if not res.faults_injected:
                continue
            violations = monitor_run(res)
            if not violations:
                continue  # latent fault
            fault_step = res.fault_events[0].step
            latencies.append((seed, fault_step, len(violations)))
        return latencies

    latencies = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert latencies  # some faults detected online
    rows = [f"{'seed':>5} {'fault step':>11} {'violations':>11}"]
    rows += [f"{s:>5} {f:>11} {v:>11}" for s, f, v in latencies[:8]]
    report(
        "Online monitor — detected faults (first violations reported "
        "during the run, not post-mortem)",
        "\n".join(rows),
    )
