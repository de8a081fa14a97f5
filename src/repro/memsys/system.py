"""The multiprocessor: cache controllers + snooping + scheduling.

The timing model is deliberately simple — one memory operation runs to
completion per step over an atomic bus — because the *verifiers* are
the subject of study: what matters is that fault-free runs are
sequentially consistent by construction, that the bus log yields the
per-address write-order, and that protocol faults produce precisely the
kinds of incoherent histories the paper wants to detect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import INITIAL
from repro.memsys.bus import Bus
from repro.memsys.cache import Cache, CacheLine
from repro.memsys.faults import (
    FaultConfig,
    FaultInjector,
    FaultKind,
    corrupt_write_orders,
)
from repro.memsys.memory import MainMemory
from repro.memsys.processor import Processor, ScriptKind, ScriptOp
from repro.memsys.protocol import BusOp, LineState, make_protocol
from repro.memsys.recorder import Recorder, RunResult
from repro.util.rng import make_rng


@dataclass
class SystemConfig:
    """Geometry and policy knobs for a simulated multiprocessor."""

    num_processors: int = 2
    protocol: str = "MESI"
    num_sets: int = 8
    ways: int = 2
    line_words: int = 4
    scheduler: str = "random"  # "random" | "round-robin"
    seed: int | None = 0
    # Directory-substrate knobs (ignored by the bus system):
    num_homes: int = 2
    delay_model: str = "fixed:1"  # see interconnect.make_delay_model


class MultiprocessorSystem:
    """A bus-based SMP executing one script per processor."""

    def __init__(
        self,
        config: SystemConfig,
        scripts: list[list[ScriptOp]],
        initial_memory: dict[int, object] | None = None,
        faults: FaultConfig | None = None,
        monitor=None,
    ):
        if len(scripts) != config.num_processors:
            raise ValueError(
                f"{config.num_processors} processors but {len(scripts)} scripts"
            )
        self.config = config
        self.protocol = make_protocol(config.protocol)
        self.memory = MainMemory(initial_memory)
        self.bus = Bus()
        self.caches = [
            Cache(config.num_sets, config.ways, config.line_words)
            for _ in range(config.num_processors)
        ]
        self.processors = [Processor(i, s) for i, s in enumerate(scripts)]
        self.injector = FaultInjector(faults or FaultConfig.none())
        #: Optional live monitor (a
        #: :class:`repro.engine.streaming.StreamingVerifier`): every
        #: architectural operation is fed to it at commit time, so
        #: value corruptions are flagged *during* the run instead of by
        #: a post-hoc verification pass.  Check ``monitor.tripped``
        #: (or the returned verdicts via ``monitor.heartbeat``) after
        #: :meth:`run`.
        self.monitor = monitor
        self.recorder = Recorder(
            config.num_processors,
            observer=monitor.feed_op if monitor is not None else None,
            initial=initial_memory,
        )
        if monitor is not None and initial_memory:
            monitor.set_initial(dict(initial_memory))
        self.rng = make_rng(config.seed)
        self.steps = 0
        self._initial_snapshot = dict(initial_memory or {})
        self._rr_next = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _pick_processor(self) -> Processor | None:
        ready = [p for p in self.processors if not p.done]
        if not ready:
            return None
        if self.config.scheduler == "round-robin":
            for _ in range(len(self.processors)):
                p = self.processors[self._rr_next % len(self.processors)]
                self._rr_next += 1
                if not p.done:
                    return p
            return None
        return self.rng.choice(ready)

    def step(self) -> bool:
        """Execute one operation on one processor; False when all done."""
        proc = self._pick_processor()
        if proc is None:
            return False
        self.steps += 1
        op = proc.current()
        if op.kind is ScriptKind.LOAD:
            self._do_load(proc.proc_id, op.addr)
        elif op.kind is ScriptKind.STORE:
            self._do_store(proc.proc_id, op.addr, op.value)
        else:
            self._do_rmw(proc.proc_id, op.addr, op.value, op.expect)
        proc.advance()
        return True

    def run(self, max_steps: int | None = None) -> RunResult:
        """Run every script to completion and package the results."""
        while self.step():
            if max_steps is not None and self.steps >= max_steps:
                break
        return finish_run(
            self, self.steps, self.bus.num_transactions, self.bus.traffic_summary()
        )

    # ------------------------------------------------------------------
    # Cache controller actions
    # ------------------------------------------------------------------
    def _line_base(self, addr: int) -> int:
        return (addr // self.config.line_words) * self.config.line_words

    def _evict_if_needed(self, proc: int, addr: int) -> None:
        """Make room for a fill of ``addr``, writing back dirty victims."""
        cache = self.caches[proc]
        victim = cache.victim_for(addr)
        if victim.valid and victim.state.dirty:
            base = cache.base_addr(cache.set_index(addr), victim.tag)
            self.memory.write_line(base, victim.data)
            cache.stats.writebacks += 1
            self.bus.record(BusOp.WRITEBACK, proc, base, base)
        victim.state = LineState.INVALID
        victim.data = {}
        victim.tag = -1

    def _snoop_others(
        self, requester: int, addr: int, op: BusOp
    ) -> tuple[dict[int, object] | None, int | None, bool]:
        """Let all other caches react to a transaction.

        Returns (supplied line data or None, supplier id or None,
        whether any other cache retains a valid copy afterwards).
        """
        base = self._line_base(addr)
        supplied: dict[int, object] | None = None
        supplier: int | None = None
        others_retain = False
        for q, cache in enumerate(self.caches):
            if q == requester:
                continue
            line = cache.peek(addr)
            if line is None:
                continue
            action = self.protocol.snoop(line.state, op)
            if action.supply_data and supplied is None:
                if self.injector.fire(
                    FaultKind.STALE_MEMORY,
                    self.steps,
                    q,
                    addr,
                    detail=lambda: f"lost intervention on {op.value}",
                ):
                    # The dirty holder fails to respond: memory (stale)
                    # will serve the request, and the holder's state is
                    # left unchanged.
                    others_retain = others_retain or line.state.readable
                    continue
                supplied = dict(line.data)
                supplier = q
                # Intervention also updates memory (write-back on snoop).
                self.memory.write_line(base, line.data)
                cache.stats.interventions += 1
            if action.next_state is not line.state:
                if action.next_state is LineState.INVALID and self.injector.fire(
                    FaultKind.LOST_INVALIDATION,
                    self.steps,
                    q,
                    addr,
                    detail=lambda: f"ignored {op.value}",
                ):
                    # The snooper keeps its (now stale) copy.
                    others_retain = True
                    continue
                if action.next_state is LineState.INVALID:
                    cache.stats.invalidations_received += 1
                line.state = action.next_state
            others_retain = others_retain or line.state.readable
        return supplied, supplier, others_retain

    def _fill(
        self, proc: int, addr: int, op: BusOp, state_for: str
    ) -> CacheLine:
        """Miss handling: evict, snoop, fetch, install."""
        cache = self.caches[proc]
        base = self._line_base(addr)
        self._evict_if_needed(proc, addr)
        supplied, supplier, others_retain = self._snoop_others(proc, addr, op)
        data = (
            supplied
            if supplied is not None
            else self.memory.read_line(base, self.config.line_words)
        )
        if state_for == "read":
            state = self.protocol.fill_state_after_read(others_retain)
        else:
            state = self.protocol.fill_state_after_write()
        self.bus.record(op, proc, addr, base, supplied_by=supplier)
        return cache.install(addr, state, data)

    def _do_load(self, proc: int, addr: int) -> None:
        cache = self.caches[proc]
        line = cache.find(addr)
        if line is not None and line.state.readable:
            cache.stats.hits += 1
        else:
            cache.stats.misses += 1
            line = self._fill(proc, addr, BusOp.BUS_RD, "read")
        value = line.data.get(cache.offset(addr), INITIAL)
        self.recorder.record_load(proc, addr, value, tick=self.steps)

    def _acquire_exclusive(self, proc: int, addr: int) -> CacheLine:
        """Get the line in a writable state (hit, upgrade, or RdX miss)."""
        cache = self.caches[proc]
        line = cache.find(addr)
        if line is not None and line.state.writable:
            cache.stats.hits += 1
            line.state = LineState.MODIFIED  # E -> M is silent
            return line
        if line is not None and line.state is LineState.SHARED:
            cache.stats.hits += 1
            base = self._line_base(addr)
            self._snoop_others(proc, addr, BusOp.BUS_UPGR)
            self.bus.record(BusOp.BUS_UPGR, proc, addr, base)
            line.state = LineState.MODIFIED
            return line
        cache.stats.misses += 1
        return self._fill(proc, addr, BusOp.BUS_RDX, "write")

    def _do_store(self, proc: int, addr: int, value: object) -> None:
        cache = self.caches[proc]
        line = self._acquire_exclusive(proc, addr)
        stored = value
        if self.injector.fire(FaultKind.DROPPED_WRITE, self.steps, proc, addr):
            stored = None  # the line keeps its old data
        elif self.injector.fire(FaultKind.CORRUPTED_VALUE, self.steps, proc, addr):
            stored = self.injector.corrupt(value)
        if stored is not None:
            line.data[cache.offset(addr)] = stored
        # The history records the *architectural* store; the write-order
        # records the bus-observed serialization of that store.
        self.recorder.record_store(proc, addr, value, tick=self.steps)

    def _do_rmw(
        self, proc: int, addr: int, value: object, expect: object
    ) -> None:
        cache = self.caches[proc]
        line = self._acquire_exclusive(proc, addr)
        old = line.data.get(cache.offset(addr), INITIAL)
        if expect is not None and old != expect:
            # Conditional RMW that failed: architecturally a no-op write
            # of the observed value (keeps the trace RMW-shaped).
            self.recorder.record_rmw(proc, addr, old, old, tick=self.steps)
            return
        line.data[cache.offset(addr)] = value
        self.recorder.record_rmw(proc, addr, old, value, tick=self.steps)



def finish_run(system, steps: int, transactions: int, traffic: dict) -> RunResult:
    """Package a finished run of either substrate: flush the caches
    into the final memory image, check it against the golden replay,
    export the (possibly fault-corrupted) write orders, and classify
    every injection with the latency oracle."""
    final = _final_values(system)
    system.recorder.check_final(final, steps)
    execution = system.recorder.build_execution(
        initial=system._initial_snapshot, final=final
    )
    write_orders = corrupt_write_orders(
        system.recorder.write_orders, system.injector, steps
    )
    result = RunResult(
        execution=execution,
        write_orders=write_orders,
        steps=steps,
        bus_transactions=transactions,
        bus_traffic=traffic,
        fault_events=list(system.injector.events),
        cache_stats=[vars(c.stats) for c in system.caches],
        commit_log=list(system.recorder.commit_log),
        divergences=list(system.recorder.divergences),
    )
    from repro.memsys.oracle import classify_run

    result.oracle = classify_run(result, line_words=system.config.line_words)
    return result


def _final_values(system) -> dict[int, object]:
    """The value of every touched word after flushing the caches.

    Dirty copies override memory; if faults produced *multiple*
    dirty copies of a line, the most recently touched one wins (as
    a real flush-order would pick some winner).
    """
    touched = {op.addr for h in system.recorder.histories for op in h}
    image = system.memory.snapshot()
    best_tick: dict[int, int] = {}
    for cache in system.caches:
        for si, ways in enumerate(cache.sets):
            for line in ways:
                if not line.valid or not line.state.dirty:
                    continue
                base = cache.base_addr(si, line.tag)
                for off, val in line.data.items():
                    a = base + off
                    if line.lru >= best_tick.get(a, -1):
                        best_tick[a] = line.lru
                        image[a] = val
    initial = system._initial_snapshot
    return {a: image.get(a, initial.get(a, INITIAL)) for a in touched}
