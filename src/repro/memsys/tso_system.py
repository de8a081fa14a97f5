"""A multiprocessor with FIFO store buffers — a TSO machine.

The atomic-bus system is sequentially consistent by construction, so it
can never exercise the *weaker-model* checkers on realistic traces.
This system adds the one structure that separates real x86/SPARC
machines from SC: a per-processor FIFO store buffer.

* a store enters the issuing processor's buffer and drains to the
  shared memory image at a scheduler-chosen later step;
* a load first forwards from the youngest same-address entry of its own
  buffer, else reads memory;
* an atomic RMW drains the issuer's buffer, then acts on memory;

so fault-free runs are **TSO-consistent by construction** and, with
adversarial drain scheduling, frequently *not* sequentially consistent
(store-buffering outcomes appear).  The recorder output feeds
:func:`repro.consistency.tso.tso_holds` (must always accept) and
:func:`repro.engine.verify_vsc` (may reject) —
the empirical counterpart of the model hierarchy.

Caches are omitted: the store buffer is the phenomenon under study, and
a write-through view of memory keeps the machine visibly TSO rather
than re-deriving the bus machine.  The per-address *drain order* is
exported as the write-order (that is TSO's memory order of stores).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import INITIAL
from repro.memsys.processor import Processor, ScriptKind, ScriptOp
from repro.memsys.recorder import Recorder, RunResult
from repro.util.rng import make_rng


@dataclass
class TsoConfig:
    num_processors: int = 2
    drain_probability: float = 0.35  # chance a step drains instead of issuing
    seed: int | None = 0
    max_buffer: int = 16  # issue stalls when the buffer is full


class TsoSystem:
    """Store-buffered multiprocessor (timing-abstract, one event/step)."""

    def __init__(
        self,
        config: TsoConfig,
        scripts: list[list[ScriptOp]],
        initial_memory: dict[int, object] | None = None,
    ):
        if len(scripts) != config.num_processors:
            raise ValueError(
                f"{config.num_processors} processors but {len(scripts)} scripts"
            )
        self.config = config
        self.memory: dict[int, object] = dict(initial_memory or {})
        self.processors = [Processor(i, s) for i, s in enumerate(scripts)]
        self.buffers: list[list[tuple[int, object, object]]] = [
            [] for _ in range(config.num_processors)
        ]  # entries: (addr, value, recorder-op) in FIFO order
        self.recorder = Recorder(config.num_processors)
        self.rng = make_rng(config.seed)
        self.steps = 0
        self._initial_snapshot = dict(initial_memory or {})
        self.drains = 0

    # ------------------------------------------------------------------
    def _read_memory(self, addr: int) -> object:
        return self.memory.get(addr, INITIAL)

    def _drain_one(self, proc: int) -> None:
        addr, value, op = self.buffers[proc].pop(0)
        self.memory[addr] = value
        # The drain is the store's serialization point: only now does it
        # enter the per-address write-order.
        self.recorder.write_orders.setdefault(addr, []).append(op)
        self.drains += 1

    def _forwarded(self, proc: int, addr: int):
        for a, v, _ in reversed(self.buffers[proc]):
            if a == addr:
                return (v,)
        return None

    def _issue(self, proc: Processor) -> bool:
        """Execute the processor's next instruction; False if stalled."""
        op = proc.current()
        p = proc.proc_id
        if op.kind is ScriptKind.STORE:
            if len(self.buffers[p]) >= self.config.max_buffer:
                return False
            rec = self.recorder.record_store(p, op.addr, op.value)
            # Remove the automatic write-order entry: the drain adds it
            # at serialization time instead.
            self.recorder.write_orders[op.addr].pop()
            self.buffers[p].append((op.addr, op.value, rec))
        elif op.kind is ScriptKind.LOAD:
            fwd = self._forwarded(p, op.addr)
            value = fwd[0] if fwd is not None else self._read_memory(op.addr)
            self.recorder.record_load(p, op.addr, value)
        else:  # RMW: drain, then act on memory atomically
            while self.buffers[p]:
                self._drain_one(p)
            old = self._read_memory(op.addr)
            if op.expect is not None and old != op.expect:
                # A failed conditional RMW writes back the same value;
                # its write-order slot is this serialization point.
                self.recorder.record_rmw(p, op.addr, old, old)
            else:
                self.memory[op.addr] = op.value
                self.recorder.record_rmw(p, op.addr, old, op.value)
        proc.advance()
        return True

    def step(self) -> bool:
        drainable = [p for p in range(len(self.buffers)) if self.buffers[p]]
        issuable = [p for p in self.processors if not p.done]
        if not drainable and not issuable:
            return False
        self.steps += 1
        if drainable and (
            not issuable or self.rng.random() < self.config.drain_probability
        ):
            self._drain_one(self.rng.choice(drainable))
            return True
        proc = self.rng.choice(issuable)
        if not self._issue(proc):
            # Stalled on a full buffer: force a drain to make progress.
            self._drain_one(proc.proc_id)
        return True

    def run(self, max_steps: int | None = None) -> RunResult:
        while self.step():
            if max_steps is not None and self.steps >= max_steps:
                break
        final = {}
        touched: set[int] = set()
        for h in self.recorder.histories:
            for op in h:
                touched.add(op.addr)  # type: ignore[arg-type]
        for a in touched:
            final[a] = self.memory.get(a, self._initial_snapshot.get(a, INITIAL))
        execution = self.recorder.build_execution(
            initial=self._initial_snapshot, final=final
        )
        return RunResult(
            execution=execution,
            write_orders=dict(self.recorder.write_orders),
            steps=self.steps,
            bus_transactions=self.drains,
            bus_traffic={"drains": self.drains},
        )
