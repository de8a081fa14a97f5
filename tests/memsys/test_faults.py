"""Fault injection: each fault kind produces its signature violation."""

import pytest

from repro import verify_coherence
from repro.memsys.faults import (
    BUS_ONLY_FAULTS,
    MESSAGE_FAULTS,
    FaultConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    corrupt_write_orders,
    supported_faults,
)
from repro.memsys.processor import load, store
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import random_shared_workload


class TestInjectorMechanics:
    def test_no_faults_when_unarmed(self):
        inj = FaultInjector(FaultConfig.none())
        assert not inj.fire(FaultKind.DROPPED_WRITE, 0, 0, 0)
        assert inj.injected == 0

    def test_rate_one_always_fires(self):
        cfg = FaultConfig(kinds=frozenset([FaultKind.DROPPED_WRITE]), rate=1.0)
        inj = FaultInjector(cfg)
        assert inj.fire(FaultKind.DROPPED_WRITE, 1, 2, 3, "x")
        assert inj.events[0].proc == 2

    def test_max_events_cap(self):
        cfg = FaultConfig(
            kinds=frozenset([FaultKind.DROPPED_WRITE]), rate=1.0, max_events=1
        )
        inj = FaultInjector(cfg)
        assert inj.fire(FaultKind.DROPPED_WRITE, 0, 0, 0)
        assert not inj.fire(FaultKind.DROPPED_WRITE, 0, 0, 0)

    def test_unarmed_kind_never_fires(self):
        cfg = FaultConfig(kinds=frozenset([FaultKind.STALE_MEMORY]), rate=1.0)
        inj = FaultInjector(cfg)
        assert not inj.fire(FaultKind.DROPPED_WRITE, 0, 0, 0)

    def test_corrupt_int_flips_a_bit(self):
        inj = FaultInjector(FaultConfig.none())
        corrupted = inj.corrupt(5)
        assert corrupted != 5 and isinstance(corrupted, int)

    def test_corrupt_non_int_wraps(self):
        inj = FaultInjector(FaultConfig.none())
        assert inj.corrupt("v") == ("corrupt", "v")

    def test_per_site_rates_override_shared_rate(self):
        cfg = FaultConfig(
            kinds=frozenset([FaultKind.DROPPED_MSG, FaultKind.STALE_SHARER]),
            rate=0.5,
            rates={FaultKind.DROPPED_MSG: 0.0},
        )
        assert cfg.rate_for(FaultKind.DROPPED_MSG) == 0.0
        assert cfg.rate_for(FaultKind.STALE_SHARER) == 0.5
        assert cfg.rate_for(FaultKind.WB_RACE_CORRUPT) == 0.0

    def test_reseeded_copy(self):
        cfg = FaultConfig.single(FaultKind.DROPPED_MSG, seed=1)
        assert cfg.reseeded(9).seed == 9
        assert cfg.seed == 1


class TestInjectorContract:
    """The injector resolves its armed sites once and costs nothing
    once it cannot fire, without moving a single RNG draw."""

    @staticmethod
    def armed(rate=1.0, max_events=None, kind=FaultKind.DROPPED_MSG):
        return FaultInjector(
            FaultConfig(kinds=frozenset([kind]), rate=rate, max_events=max_events)
        )

    def test_zero_rate_site_draws_nothing(self):
        inj = FaultInjector(
            FaultConfig(
                kinds=frozenset([FaultKind.DROPPED_MSG, FaultKind.STALE_SHARER]),
                rate=0.5,
                rates={FaultKind.DROPPED_MSG: 0.0},
            )
        )
        before = inj.rng.getstate()
        assert not inj.fire(FaultKind.DROPPED_MSG, 0, 0, 0)
        assert not inj.fire(FaultKind.WB_RACE_CORRUPT, 0, 0, 0)
        assert inj.rng.getstate() == before
        inj.fire(FaultKind.STALE_SHARER, 0, 0, 0)
        assert inj.rng.getstate() != before

    def test_no_draw_after_the_cap(self):
        inj = self.armed(max_events=1)
        assert inj.fire(FaultKind.DROPPED_MSG, 0, 0, 0)
        after_cap = inj.rng.getstate()
        for _ in range(5):
            assert not inj.fire(FaultKind.DROPPED_MSG, 0, 0, 0)
        assert inj.rng.getstate() == after_cap
        assert inj.injected == 1

    def test_callable_detail_runs_only_when_its_site_fires(self):
        calls = []

        def detail():
            calls.append(1)
            return "built"

        inj = self.armed(max_events=1)
        assert not inj.fire(FaultKind.STALE_SHARER, 0, 0, 0, detail)  # unarmed
        assert not calls
        assert inj.fire(FaultKind.DROPPED_MSG, 3, 1, 8, detail)
        assert calls == [1]
        assert inj.events[0].detail == "built"
        assert not inj.fire(FaultKind.DROPPED_MSG, 4, 1, 8, detail)  # capped
        assert calls == [1]
        missing = self.armed(rate=1e-12)
        assert not missing.fire(FaultKind.DROPPED_MSG, 0, 0, 0, detail)
        assert calls == [1]

    def test_active_flag(self):
        assert not FaultInjector(FaultConfig.none()).active
        assert not self.armed(rate=0.0).active
        assert not self.armed(max_events=0).active
        inj = self.armed(max_events=2)
        assert inj.active
        inj.fire(FaultKind.DROPPED_MSG, 0, 0, 0)
        assert inj.active
        inj.fire(FaultKind.DROPPED_MSG, 0, 0, 0)
        assert not inj.active
        assert self.armed().active  # uncapped stays active after firing

    @pytest.mark.parametrize("max_events", [None, 0, 3])
    def test_string_detail_matches_the_per_opportunity_rule(self, max_events):
        """Against a direct transcription of the rule: look the rate up,
        stop at the cap, then draw once."""
        from repro.memsys.faults import FaultEvent
        from repro.util.rng import make_rng

        cfg = FaultConfig(
            kinds=frozenset([FaultKind.STALE_SHARER, FaultKind.DELAYED_MSG]),
            rate=0.4,
            rates={FaultKind.DROPPED_MSG: 0.2, FaultKind.DELAYED_MSG: 0.0},
            max_events=max_events,
            seed=11,
        )
        inj = FaultInjector(cfg)
        rng, events = make_rng(11), []
        kinds = [
            FaultKind.DROPPED_MSG, FaultKind.STALE_SHARER,
            FaultKind.DELAYED_MSG, FaultKind.WB_RACE_CORRUPT,
        ]
        for i in range(200):
            kind = kinds[i % len(kinds)]
            rate = cfg.rate_for(kind)
            want = (
                rate > 0.0
                and (max_events is None or len(events) < max_events)
                and rng.random() < rate
            )
            if want:
                events.append(FaultEvent(kind, i, i % 4, i % 7, f"d{i}"))
            assert inj.fire(kind, i, i % 4, i % 7, f"d{i}") == want
        assert inj.events == events
        assert inj.rng.getstate() == rng.getstate()


class TestFaultSpec:
    def test_parse_and_describe_round_trip(self):
        spec = FaultSpec.parse("drop-msg=0.02,stale-sharer=0.01,seed=7")
        assert spec.rates == {
            FaultKind.DROPPED_MSG: 0.02,
            FaultKind.STALE_SHARER: 0.01,
        }
        assert spec.seed == 7
        assert FaultSpec.parse(spec.describe()) == spec

    def test_max_events_field(self):
        spec = FaultSpec.parse("wb-race=1.0,max-events=2")
        assert spec.max_events == 2
        cfg = FaultConfig.from_spec(spec)
        assert cfg.max_events == 2
        assert cfg.rate_for(FaultKind.WB_RACE_CORRUPT) == 1.0

    def test_from_spec_seed_override(self):
        cfg = FaultConfig.from_spec("drop-msg=0.1,seed=3", seed=11)
        assert cfg.seed == 11

    @pytest.mark.parametrize(
        "text", ["gremlins=0.1", "drop-msg", "drop-msg=1.5", "drop-msg=-1"]
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)


class TestSupportedFaults:
    def test_bus_excludes_message_sites(self):
        sites = set(supported_faults("bus"))
        assert not sites & MESSAGE_FAULTS
        assert FaultKind.LOST_INVALIDATION in sites
        assert FaultKind.DROPPED_WRITE in sites

    def test_directory_excludes_snooper_sites(self):
        sites = set(supported_faults("directory"))
        assert not sites & BUS_ONLY_FAULTS
        assert MESSAGE_FAULTS <= sites
        assert FaultKind.DROPPED_WRITE in sites  # datapath parity

    def test_every_site_has_a_substrate(self):
        covered = set(supported_faults("bus")) | set(
            supported_faults("directory")
        )
        assert covered == set(FaultKind)

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError, match="unknown substrate"):
            supported_faults("crossbar")


class TestWriteOrderCorruption:
    @staticmethod
    def writes(n):
        # Stand-in order entries only need .proc for the event record.
        from types import SimpleNamespace

        return [SimpleNamespace(proc=i, value=i) for i in range(n)]

    def test_adjacent_entries_swapped_when_armed(self):
        cfg = FaultConfig(
            kinds=frozenset([FaultKind.REORDERED_SERIALIZATION]),
            rate=1.0, max_events=1,
        )
        inj = FaultInjector(cfg)
        w1, w2 = self.writes(2)
        out = corrupt_write_orders({0: [w1, w2]}, inj, step=5)
        assert out[0] == [w2, w1]
        assert inj.events[0].kind is FaultKind.REORDERED_SERIALIZATION

    def test_untouched_when_unarmed(self):
        inj = FaultInjector(FaultConfig.none())
        w1, w2 = self.writes(2)
        out = corrupt_write_orders({0: [w1, w2]}, inj, step=5)
        assert out[0] == [w1, w2]
        assert inj.injected == 0


def run_with_fault(kind, scripts, initial, seed=0, rate=1.0):
    cfg = SystemConfig(num_processors=len(scripts), seed=seed, scheduler="round-robin")
    faults = FaultConfig(kinds=frozenset([kind]), rate=rate, max_events=1, seed=seed)
    system = MultiprocessorSystem(cfg, scripts, initial_memory=initial, faults=faults)
    return system.run()


class TestSignatureViolations:
    def test_lost_invalidation_corrupts_a_shared_line(self):
        """A missed invalidation is architecturally latent until the
        stale line gets *merged*: the victim later writes its own word
        into the stale line (upgrade from stale S), resurrecting old
        data for the other words, which a third processor then observes
        after having already seen the new value — a CoRR violation.

        Round-robin schedule (addresses 0 and 1 share cache line 0;
        address 8 is harmless filler on another line):

          1. P0 load(8)            4. P0 store(1,7)  <- P1 misses inval
          2. P1 load(0)  (S copy)  5. P1 load(8)
          3. P2 load(8)            6. P2 load(1) -> 7 (new value)
          7. P0 load(8)            8. P1 store(0,5)  (merges stale line)
          9. P2 load(1) -> 0 (!)   CoRR: P2 saw 7, then 0.
        """
        res = run_with_fault(
            FaultKind.LOST_INVALIDATION,
            [
                [load(8), store(1, 7), load(8)],
                [load(0), load(8), store(0, 5)],
                [load(8), load(1), load(1)],
            ],
            {0: 0, 1: 0, 8: 0},
        )
        assert res.faults_injected == 1
        p2_reads = [
            op.value_read
            for op in res.execution.histories[2]
            if op.addr == 1
        ]
        assert p2_reads == [7, 0]
        verdict = verify_coherence(res.execution, write_orders=res.write_orders)
        assert not verdict

    def test_stale_memory_corrupts_a_shared_line(self):
        """A lost intervention leaves the requester with a stale copy of
        the whole line; when the victim later merges a write into it, a
        third processor re-reads an old value it had already moved past.

          1. P0 store(0,5)             2. P1 load(0)  <- stale fill (fault)
          3. P2 load(1)  (P0 supplies) 4..5. filler
          6. P2 load(0) -> 5           8. P1 store(1,7) (merges stale line)
          9. P2 load(0) -> 0 (!)       CoRR on address 0.
        """
        res = run_with_fault(
            FaultKind.STALE_MEMORY,
            [
                [store(0, 5), load(8), load(8)],
                [load(0), load(8), store(1, 7)],
                [load(1), load(0), load(0)],
            ],
            {0: 0, 1: 0, 8: 0},
        )
        assert res.faults_injected == 1
        p2_reads = [
            op.value_read
            for op in res.execution.histories[2]
            if op.addr == 0
        ]
        assert p2_reads == [5, 0]
        verdict = verify_coherence(res.execution, write_orders=res.write_orders)
        assert not verdict

    def test_dropped_write_detected_via_final_value(self):
        res = run_with_fault(
            FaultKind.DROPPED_WRITE, [[store(0, 1)]], {0: 0}
        )
        assert res.faults_injected == 1
        assert res.execution.final_value(0) == 0  # the write never landed
        verdict = verify_coherence(res.execution)
        assert not verdict

    def test_corrupted_value_detected_by_reader(self):
        res = run_with_fault(
            FaultKind.CORRUPTED_VALUE,
            [[store(0, 4), load(0)]],
            {0: 0},
        )
        assert res.faults_injected == 1
        verdict = verify_coherence(res.execution)
        assert not verdict  # the read returned a never-written value

    def test_single_stale_read_is_architecturally_latent(self):
        """The flip side of trace-based verification: a victim that only
        ever reads the *old* value is indistinguishable from a slow but
        legal execution — the verifier must NOT flag it.  (This is why
        detection rates below 100% in the campaign are correct.)"""
        res = run_with_fault(
            FaultKind.STALE_MEMORY,
            [
                [store(0, 5)],
                [load(0), load(0)],
            ],
            {0: 0},
        )
        assert res.faults_injected == 1
        # P1's reads of the pre-write value are schedulable before the
        # write, so the trace is coherent despite the hardware fault.
        verdict = verify_coherence(res.execution, write_orders=res.write_orders)
        assert verdict

    def test_fault_free_control_group(self):
        for seed in range(5):
            scripts, init = random_shared_workload(
                num_processors=3, ops_per_processor=30, seed=seed
            )
            cfg = SystemConfig(num_processors=3, seed=seed)
            res = MultiprocessorSystem(cfg, scripts, initial_memory=init).run()
            assert res.faults_injected == 0
            assert verify_coherence(res.execution, write_orders=res.write_orders)


class TestDetectionRates:
    @pytest.mark.parametrize(
        "kind",
        [FaultKind.DROPPED_WRITE, FaultKind.CORRUPTED_VALUE],
    )
    def test_value_faults_detected_often(self, kind):
        injected = detected = 0
        for seed in range(20):
            scripts, init = random_shared_workload(
                num_processors=4, ops_per_processor=40,
                num_addresses=2, write_fraction=0.3, seed=seed,
            )
            cfg = SystemConfig(num_processors=4, seed=seed)
            faults = FaultConfig.single(kind, seed=seed, rate=0.2)
            res = MultiprocessorSystem(
                cfg, scripts, initial_memory=init, faults=faults
            ).run()
            if not res.faults_injected:
                continue
            injected += 1
            if not verify_coherence(res.execution, write_orders=res.write_orders):
                detected += 1
        assert injected >= 10
        # Value faults are the most visible kind, but still only when a
        # later read (or the final value) exposes them.
        assert detected >= 3
