"""The message fabric: delay models, per-link FIFO, and the four
message-level fault hooks."""

import pytest

from repro.memsys.faults import FaultConfig, FaultInjector, FaultKind
from repro.memsys.interconnect import (
    FixedDelay,
    Interconnect,
    Message,
    MessageType,
    NumaDelay,
    UniformDelay,
    make_delay_model,
)

CORE0 = ("core", 0)
CORE1 = ("core", 1)
HOME0 = ("home", 0)


def msg(txn=0, mtype=MessageType.GETS, src=CORE0, dst=HOME0, addr=0):
    return Message(mtype, src, dst, addr, txn=txn)


class TestDelayModels:
    def test_parse_fixed(self):
        model = make_delay_model("fixed:3")
        assert isinstance(model, FixedDelay)
        assert model.delay(CORE0, HOME0, None) == 3
        assert model.describe() == "fixed:3"

    def test_none_defaults_to_fixed_one(self):
        assert make_delay_model(None).describe() == "fixed:1"

    def test_model_instance_passes_through(self):
        model = UniformDelay(2, 5)
        assert make_delay_model(model) is model

    def test_parse_uniform_bounds(self):
        from repro.util.rng import make_rng

        model = make_delay_model("uniform:2:5")
        rng = make_rng(0)
        seen = {model.delay(CORE0, HOME0, rng) for _ in range(200)}
        assert seen == {2, 3, 4, 5}

    def test_numa_two_tier(self):
        model = make_delay_model("numa:1:6:4")
        assert isinstance(model, NumaDelay)
        # Sockets of 4 consecutive ids: 0 and 1 are local, 0 and 5 not.
        assert model.delay(CORE0, ("core", 1), None) == 1
        assert model.delay(CORE0, ("core", 5), None) == 6
        assert model.delay(("home", 0), ("core", 3), None) == 1

    def test_campaign_help_examples_give_distinct_runs(self):
        """Each delay model ``repro campaign --delay-models`` offers as an
        example must change the run at one seed under the campaign's
        defaults (4 processors, 2 homes): a NUMA example whose sockets
        hold every endpoint runs exactly like ``fixed:1``."""
        import re

        from repro.cli import build_parser
        from repro.memsys.directory import DirectorySystem
        from repro.memsys.system import SystemConfig
        from repro.memsys.workloads import random_shared_workload

        sub = next(
            a for a in build_parser()._actions if a.dest == "command"
        ).choices["campaign"]
        help_text = next(
            a.help for a in sub._actions if "--delay-models" in a.option_strings
        )
        specs = re.search(r"'([^']+)'", help_text).group(1).split(",")
        assert {spec.split(":")[0] for spec in specs} == {
            "fixed", "uniform", "numa"
        }
        scripts, init = random_shared_workload(
            num_processors=4, ops_per_processor=40, num_addresses=3,
            write_fraction=0.35, seed=5,
        )
        runs = set()
        for spec in specs:
            cfg = SystemConfig(
                num_processors=4, protocol="MSI", seed=5, delay_model=spec,
                num_homes=2,
            )
            system = DirectorySystem(cfg, scripts, initial_memory=dict(init))
            res = system.run()
            runs.add((
                res.steps,
                system.network.stats.sent,
                tuple(str(op) for op in res.commit_log),
            ))
        assert len(runs) == len(specs), specs

    @pytest.mark.parametrize(
        "spec",
        ["warp:1", "uniform:1", "uniform", "numa:1", "fixed:x"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_delay_model(spec)


class TestFifoOrdering:
    def test_same_link_never_reorders_under_random_delays(self):
        net = Interconnect("uniform:0:5", fifo=True, seed=7)
        for i in range(30):
            net.send(msg(txn=i), now=i % 3)
        order = [m.txn for m in net.deliver_until(10_000)]
        assert order == sorted(order)

    def test_reordering_allowed_when_fifo_off(self):
        net = Interconnect("uniform:0:5", fifo=False, seed=7)
        for i in range(30):
            net.send(msg(txn=i), now=0)
        order = [m.txn for m in net.deliver_until(10_000)]
        assert sorted(order) == list(range(30))
        assert order != sorted(order)

    def test_delivery_is_deterministic_per_seed(self):
        def run():
            net = Interconnect("uniform:0:5", fifo=False, seed=42)
            for i in range(20):
                net.send(msg(txn=i), now=0)
            return [m.txn for m in net.deliver_until(1_000)]

        assert run() == run()

    def test_deliver_until_respects_arrival_ticks(self):
        net = Interconnect("fixed:5", seed=0)
        net.send(msg(txn=1), now=0)  # arrives at 6
        assert net.deliver_until(5) == []
        assert net.pending() == 1
        assert net.next_arrival() == 6
        assert [m.txn for m in net.deliver_until(6)] == [1]
        assert net.pending() == 0
        assert net.next_arrival() is None


def injector(kind, rate=1.0, max_events=None, seed=0):
    return FaultInjector(
        FaultConfig(
            kinds=frozenset([kind]), rate=rate, max_events=max_events,
            seed=seed,
        )
    )


class TestFaultHooks:
    def test_dropped_msg_never_arrives(self):
        inj = injector(FaultKind.DROPPED_MSG, max_events=1)
        net = Interconnect("fixed:1", injector=inj)
        net.send(msg(txn=1), now=0)
        assert net.stats.dropped == 1
        assert net.pending() == 0
        assert inj.events[0].kind is FaultKind.DROPPED_MSG

    def test_dropped_inv_ack_targets_only_acks(self):
        inj = injector(FaultKind.DROPPED_INV_ACK, max_events=1)
        net = Interconnect("fixed:1", injector=inj)
        net.send(msg(txn=1, mtype=MessageType.GETS), now=0)
        assert net.pending() == 1  # not an ack: unharmed
        net.send(
            msg(txn=2, mtype=MessageType.INV_ACK, src=CORE1), now=0
        )
        assert net.pending() == 1  # the ack vanished
        assert inj.events[0].kind is FaultKind.DROPPED_INV_ACK

    def test_duplicated_msg_delivered_twice(self):
        inj = injector(FaultKind.DUPLICATED_MSG, max_events=1)
        net = Interconnect("fixed:1", injector=inj)
        net.send(msg(txn=9), now=0)
        out = net.deliver_until(1_000)
        assert [m.txn for m in out] == [9, 9]
        assert net.stats.duplicated == 1

    def test_delayed_msg_arrives_late(self):
        baseline = Interconnect("fixed:1")
        baseline.send(msg(txn=1), now=0)
        on_time = baseline.next_arrival()

        inj = injector(FaultKind.DELAYED_MSG, max_events=1)
        net = Interconnect("fixed:1", injector=inj)
        net.send(msg(txn=1), now=0)
        assert net.next_arrival() > on_time
        assert net.stats.delayed == 1

    def test_reordered_msg_punches_fifo_hole(self):
        # Arm the fault for the first send only: it must slip behind
        # messages queued after it on the same link.
        inj = injector(FaultKind.REORDERED_MSG, max_events=1)
        net = Interconnect("fixed:1", fifo=True, injector=inj, seed=3)
        net.send(msg(txn=1), now=0)  # reordered
        assert net.stats.reordered == 1
        assert inj.events[0].kind is FaultKind.REORDERED_MSG

    def test_every_injection_is_recorded(self):
        inj = injector(FaultKind.DROPPED_MSG, rate=1.0)
        net = Interconnect("fixed:1", injector=inj)
        for i in range(5):
            net.send(msg(txn=i), now=i)
        assert inj.injected == 5
        assert len(inj.events) == net.stats.dropped == 5


class TestStats:
    def test_counts_by_type(self):
        net = Interconnect("fixed:1")
        net.send(msg(mtype=MessageType.GETS), now=0)
        net.send(msg(mtype=MessageType.GETS), now=0)
        net.send(msg(mtype=MessageType.DATA, src=HOME0, dst=CORE0), now=0)
        assert net.stats.sent == 3
        assert net.stats.by_type == {"GetS": 2, "Data": 1}
        net.deliver_until(1_000)
        assert net.stats.delivered == 3
