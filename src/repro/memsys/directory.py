"""A split-transaction directory protocol over a message fabric.

Unlike the atomic bus (:mod:`repro.memsys.system`), nothing here is
instantaneous: every coherence action is a typed message on the
:mod:`repro.memsys.interconnect` fabric, in flight for several ticks,
racing other messages.  The protocol is a home-centric MSI:

* each line has a **home node** (sharded by line address across
  ``config.num_homes`` homes) holding the directory entry —
  ``U``/``S``/``M`` plus a sharer bitmask, owner, and a *transient* busy
  record while a transaction is outstanding;
* cores are blocking (one outstanding miss each) with M/S/I lines;
  M-hits commit locally, misses send GetS/GetM to the home;
* all data routes through the home: on a GetM to a shared line the
  home fans out Inv messages and sits in a transient state collecting
  InvAcks before granting; on a request to an M line it forwards
  (FwdGetS/FwdGetM) to the owner, who writes its dirty data back home
  (DataWB) for the home to complete the grant;
* a busy home NACKs other requesters, who retry with backoff —
  writeback races (a PutM crossing a Fwd in flight) resolve because
  the home accepts the PutM's data to complete the pending grant;
* dirty evictions are fire-and-forget PutM-with-data.  Per-link FIFO
  makes this safe: a core's PutM always reaches the home before any
  later request it sends for the same line.

Fault-free runs are coherent by construction: the home serializes all
transitions per line, per-link FIFO keeps grants ahead of later
invalidations, so the global commit order recorded by the
:class:`~repro.memsys.recorder.Recorder` is itself a legal
serialization (the golden replay in the recorder re-checks exactly
this every run).  The per-address write-order the verifiers consume is
the commit order of writes — the directory serialization point —
exported exactly like the bus substrate.

**Liveness under faults** is the interesting part: dropped or
reordered messages would deadlock a naive protocol, so every wait has
a watchdog — requesters re-issue timed-out transactions, the home
force-completes transactions whose InvAcks never arrive, and a
forwarded request that the owner never answers falls back to (possibly
stale) memory after a retry cap.  Each forced recovery is counted in
:class:`DirectoryStats` and is provably zero in fault-free runs; under
injection the recoveries convert liveness faults into classifiable
safety effects for the latency oracle.

Message-level fault sites (see :mod:`repro.memsys.faults`): drop /
duplicate / delay / reorder on every link, ``STALE_SHARER`` at the
invalidation fan-out, ``DROPPED_INV_ACK`` at ack send,
``DIR_STATE_CORRUPT`` at request processing, ``WB_RACE_CORRUPT`` on
writeback data, plus the datapath sites (``DROPPED_WRITE`` /
``CORRUPTED_VALUE``) at store commit for parity with the bus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.types import INITIAL
from repro.memsys.cache import Cache, CacheLine
from repro.memsys.faults import FaultConfig, FaultInjector, FaultKind
from repro.memsys.interconnect import (
    Endpoint,
    Interconnect,
    Message,
    MessageType,
)
from repro.memsys.memory import MainMemory
from repro.memsys.processor import Processor, ScriptKind, ScriptOp
from repro.memsys.protocol import LineState
from repro.memsys.recorder import Recorder, RunResult
from repro.memsys.system import SystemConfig, finish_run
from repro.util.rng import make_rng

#: Ticks a requester waits for any response before re-issuing.  Must
#: exceed the home's worst-case forced-grant latency (forward retries
#: plus the busy watchdog, ~3x BUSY_TIMEOUT) or requesters re-issue
#: while their grant is in flight, the late grant is dropped as stale,
#: and the home is left recording an owner that holds nothing — a
#: NACK-storm livelock under contention.
REQUEST_TIMEOUT = 160
#: Ticks the home lets a transient transaction age before forcing it.
BUSY_TIMEOUT = 40
#: Forward attempts before the home gives up on the owner.
FORWARD_RETRY_CAP = 2
#: Ticks the home defers a request from its recorded owner before
#: concluding the grant (or the owner's PutM) was lost.
OWNER_DEFER_TIMEOUT = 60


class DirState(enum.Enum):
    UNCACHED = "U"
    SHARED = "S"
    MODIFIED = "M"


def _bits(mask: int) -> list[int]:
    """The core ids in a sharer bitmask, ascending."""
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


@dataclass(slots=True)
class PendingTxn:
    """The home's transient state for one in-flight transaction."""

    kind: str  # "inv" | "fwd-gets" | "fwd-getm"
    requester: int
    txn_id: int
    base: int
    awaiting: int = 0  # bitmask of cores whose InvAck is outstanding
    started: int = 0
    fwd_retries: int = 0
    owner: int | None = None  # forward target, for fwd-* kinds


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one memory line.  ``sharers`` is a bitmask:
    bit ``p`` is set while the home records core ``p`` as a sharer."""

    state: DirState = DirState.UNCACHED
    sharers: int = 0
    owner: int | None = None
    busy: PendingTxn | None = None
    defer_since: int | None = None


@dataclass
class DirectoryStats:
    requests: int = 0
    nacks: int = 0
    invalidations_sent: int = 0
    forwards: int = 0
    writebacks_received: int = 0
    core_retries: int = 0
    stale_messages_dropped: int = 0
    # Forced-progress recoveries — provably zero in fault-free runs;
    # nonzero means a watchdog converted a liveness fault into a
    # (classifiable) safety effect.
    forced_inv_completions: int = 0
    forced_stale_serves: int = 0
    forced_owner_clears: int = 0
    request_timeouts: int = 0

    @property
    def forced_total(self) -> int:
        return (
            self.forced_inv_completions
            + self.forced_stale_serves
            + self.forced_owner_clears
            + self.request_timeouts
        )


@dataclass(slots=True)
class CoreTxn:
    """A core's one outstanding transaction."""

    kind: str  # "gets" | "getm"
    op: ScriptOp
    base: int
    txn_id: int
    issued: int
    retry_at: int | None = None  # NACK backoff: resend at this tick
    nacks: int = 0
    discard: bool = False  # an Inv overtook the grant; retry on Data


class DirectorySystem:
    """An N-core directory-coherent multiprocessor (same run() API as
    the bus system).  Only the MSI protocol is supported — the
    directory has no notion of a silent E state."""

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
        if config.protocol not in ("MSI",):
            raise ValueError(
                f"directory substrate supports protocol MSI, not "
                f"{config.protocol!r}"
            )
        self.config = config
        self.num_homes = max(1, getattr(config, "num_homes", 1) or 1)
        self.memory = MainMemory(initial_memory)
        self.caches = [
            Cache(config.num_sets, config.ways, config.line_words)
            for _ in range(config.num_processors)
        ]
        self.processors = [Processor(i, s) for i, s in enumerate(scripts)]
        self.injector = FaultInjector(faults or FaultConfig.none())
        self.monitor = monitor
        self.recorder = Recorder(
            config.num_processors,
            observer=monitor.feed_op if monitor is not None else None,
            initial=initial_memory,
        )
        if monitor is not None and initial_memory:
            monitor.set_initial(dict(initial_memory))
        self.rng = make_rng(config.seed)
        self.network = Interconnect(
            getattr(config, "delay_model", "fixed:1"),
            fifo=True,
            seed=None if config.seed is None else config.seed + 1,
            injector=self.injector,
        )
        self.directory: dict[int, DirectoryEntry] = {}
        #: Entries with a transaction outstanding, by line base.
        self._busy: dict[int, DirectoryEntry] = {}
        self.dir_stats = DirectoryStats()
        self.txns: list[CoreTxn | None] = [None] * config.num_processors
        self.tick = 0
        self.steps = 0
        self._next_txn_id = 0
        self._initial_snapshot = dict(initial_memory or {})
        self._rr_next = 0

    # ------------------------------------------------------------------
    # Address / routing helpers
    # ------------------------------------------------------------------
    def _line_base(self, addr: int) -> int:
        return (addr // self.config.line_words) * self.config.line_words

    def _home_of(self, base: int) -> Endpoint:
        return ("home", (base // self.config.line_words) % self.num_homes)

    def _entry(self, base: int) -> DirectoryEntry:
        return self.directory.setdefault(base, DirectoryEntry())

    def _mem_line(self, base: int) -> dict[int, object]:
        return self.memory.read_line(base, self.config.line_words)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        return (
            self.network.pending() == 0
            and not self._busy
            and all(t is None for t in self.txns)
            and all(p.done for p in self.processors)
        )

    def step(self) -> bool:
        """Advance one tick; False once the system is fully quiescent."""
        if self._quiescent():
            return False
        self.tick += 1
        self.steps = self.tick
        for msg in self.network.deliver_until(self.tick):
            _HANDLERS[msg.mtype](self, msg)
        for p in self._schedule_order():
            self._core_advance(p)
        self._check_timeouts()
        return True

    def _schedule_order(self) -> list[int]:
        ids = list(range(self.config.num_processors))
        if self.config.scheduler == "round-robin":
            k = self._rr_next % len(ids)
            self._rr_next += 1
            return ids[k:] + ids[:k]
        self.rng.shuffle(ids)
        return ids

    def _default_cap(self) -> int:
        total_ops = sum(len(p.script) for p in self.processors)
        return 2000 + 300 * total_ops

    def run(self, max_steps: int | None = None) -> RunResult:
        cap = max_steps if max_steps is not None else self._default_cap()
        while self.tick < cap and self.step():
            pass
        traffic = {
            "requests": self.dir_stats.requests,
            "nacks": self.dir_stats.nacks,
            "invalidations": self.dir_stats.invalidations_sent,
            "forwards": self.dir_stats.forwards,
            "writebacks": self.dir_stats.writebacks_received,
            "messages": self.network.stats.sent,
            "forced_recoveries": self.dir_stats.forced_total,
        }
        return finish_run(self, self.tick, self.dir_stats.requests, traffic)

    # ------------------------------------------------------------------
    # Core side: issue, commit, message handling
    # ------------------------------------------------------------------
    def _core_advance(self, p: int) -> None:
        """One action for core ``p`` this tick: resend a backed-off
        request, or commit a hit, or issue a miss."""
        txn = self.txns[p]
        if txn is not None:
            if txn.retry_at is not None and self.tick >= txn.retry_at:
                self._resend(p, txn)
            return
        proc = self.processors[p]
        if proc.done:
            return
        op = proc.current()
        cache = self.caches[p]
        line = cache.find(op.addr)
        if op.kind is ScriptKind.LOAD:
            if line is not None and line.state.readable:
                cache.stats.hits += 1
                value = line.data.get(cache.offset(op.addr), INITIAL)
                self.recorder.record_load(p, op.addr, value, tick=self.tick)
                proc.advance()
                return
            cache.stats.misses += 1
            self._send_request(p, "gets", op)
            return
        # STORE / RMW need a writable (M) copy.
        if line is not None and line.state.writable:
            cache.stats.hits += 1
            self._commit_write(p, op, line)
            proc.advance()
            return
        if line is not None and line.state is LineState.SHARED:
            cache.stats.hits += 1  # upgrade, like the bus's BusUpgr
        else:
            cache.stats.misses += 1
        self._send_request(p, "getm", op)

    def _send_request(self, p: int, kind: str, op: ScriptOp) -> None:
        txn = CoreTxn(kind, op, self._line_base(op.addr), txn_id=0, issued=0)
        self.txns[p] = txn
        self._issue(p, txn)

    def _resend(self, p: int, txn: CoreTxn) -> None:
        self.dir_stats.core_retries += 1
        self._issue(p, txn)

    def _issue(self, p: int, txn: CoreTxn) -> None:
        """Send ``txn``'s request to its home under a fresh id."""
        self._next_txn_id += 1
        txn.txn_id = self._next_txn_id
        txn.issued = self.tick
        txn.retry_at = None
        txn.discard = False
        mtype = MessageType.GETS if txn.kind == "gets" else MessageType.GETM
        self.network.send(
            Message(
                mtype, ("core", p), self._home_of(txn.base), txn.base,
                txn=txn.txn_id,
            ),
            self.tick,
        )

    def _commit_write(self, p: int, op: ScriptOp, line: CacheLine) -> None:
        """Commit a store/RMW into an M line (datapath fault sites)."""
        cache = self.caches[p]
        off = cache.offset(op.addr)
        if op.kind is ScriptKind.STORE:
            stored = op.value
            if self.injector.fire(FaultKind.DROPPED_WRITE, self.tick, p, op.addr):
                stored = None
            elif self.injector.fire(
                FaultKind.CORRUPTED_VALUE, self.tick, p, op.addr
            ):
                stored = self.injector.corrupt(op.value)
            if stored is not None:
                line.data[off] = stored
            self.recorder.record_store(p, op.addr, op.value, tick=self.tick)
            return
        old = line.data.get(off, INITIAL)
        if op.expect is not None and old != op.expect:
            self.recorder.record_rmw(p, op.addr, old, old, tick=self.tick)
            return
        line.data[off] = op.value
        self.recorder.record_rmw(p, op.addr, old, op.value, tick=self.tick)

    def _evict_for_install(self, p: int, base: int) -> None:
        cache = self.caches[p]
        victim = cache.victim_for(base)
        if victim.valid:
            vbase = cache.base_addr(cache.set_index(base), victim.tag)
            if victim.state.dirty:
                cache.stats.writebacks += 1
                self.network.send(
                    Message(
                        MessageType.PUTM, ("core", p), self._home_of(vbase),
                        vbase, data=dict(victim.data),
                    ),
                    self.tick,
                )
            # Clean (S) evictions are silent: the directory's sharer
            # mask goes conservative-stale, which is why cores ack
            # invalidations even for lines they no longer hold.
        victim.state = LineState.INVALID
        victim.tag = -1
        victim.data = {}

    def _core_on_data(self, msg: Message) -> None:
        p = msg.dst[1]
        txn = self.txns[p]
        if txn is None or msg.addr != txn.base:
            self.dir_stats.stale_messages_dropped += 1
            return
        if msg.txn != txn.txn_id:
            # A grant from a timed-out earlier attempt of this same
            # transaction.  Accept it iff it grants what we currently
            # need — the home has already recorded us as sharer/owner,
            # so dropping it would leave the directory pointing at a
            # core that holds nothing (and the protocol crawling
            # through force-clear watchdogs ever after).
            want = "shared" if txn.kind == "gets" else "modified"
            if msg.detail != want:
                self.dir_stats.stale_messages_dropped += 1
                return
        if txn.discard:
            # An Inv overtook this grant: the data is already stale.
            # Drop it and re-issue the request.
            self._resend(p, txn)
            return
        cache = self.caches[p]
        state = (
            LineState.SHARED if txn.kind == "gets" else LineState.MODIFIED
        )
        line = cache.peek(txn.base)
        if line is not None:
            line.data = dict(msg.data or {})
            line.state = state
            cache.find(txn.base)  # touch LRU
        else:
            self._evict_for_install(p, txn.base)
            line = cache.install(txn.base, state, msg.data or {})
        op = txn.op
        if txn.kind == "gets":
            value = line.data.get(cache.offset(op.addr), INITIAL)
            self.recorder.record_load(p, op.addr, value, tick=self.tick)
        else:
            self._commit_write(p, op, line)
        self.txns[p] = None
        self.processors[p].advance()

    def _core_on_nack(self, msg: Message) -> None:
        p = msg.dst[1]
        txn = self.txns[p]
        if txn is None or msg.txn != txn.txn_id or msg.addr != txn.base:
            self.dir_stats.stale_messages_dropped += 1
            return
        txn.nacks += 1
        # Small, core-skewed backoff to avoid lockstep retry storms.
        txn.retry_at = self.tick + 1 + min(txn.nacks, 5) + (p % 3)

    def _core_on_inv(self, msg: Message) -> None:
        p = msg.dst[1]
        cache = self.caches[p]
        line = cache.peek(msg.addr)
        if line is not None and line.valid:
            line.state = LineState.INVALID
            line.tag = -1
            line.data = {}
            cache.stats.invalidations_received += 1
        txn = self.txns[p]
        if txn is not None and txn.base == msg.addr:
            # A grant may be in flight behind this Inv (only possible
            # when links reorder); whatever data arrives is stale.
            txn.discard = True
        # Always ack — the directory may be conservatively tracking a
        # copy we silently evicted.
        self.network.send(
            Message(
                MessageType.INV_ACK, ("core", p), msg.src, msg.addr, txn=msg.txn
            ),
            self.tick,
        )

    def _core_on_fwd(self, msg: Message) -> None:
        p = msg.dst[1]
        cache = self.caches[p]
        line = cache.peek(msg.addr)
        if line is None or not line.valid:
            # Stale forward: our PutM is (or was) in flight; the home
            # resolves via the PutM data or its forward watchdog.
            self.dir_stats.stale_messages_dropped += 1
            return
        self.network.send(
            Message(
                MessageType.DATA_WB, ("core", p), msg.src, msg.addr,
                txn=msg.txn, data=dict(line.data),
            ),
            self.tick,
        )
        if msg.mtype is MessageType.FWD_GETS:
            line.state = LineState.SHARED
        else:
            line.state = LineState.INVALID
            line.tag = -1
            line.data = {}
            cache.stats.invalidations_received += 1

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------
    def _maybe_corrupt_entry(self, entry: DirectoryEntry, base: int) -> None:
        """DIR_STATE_CORRUPT site: bit-rot in the directory SRAM."""
        if entry.state is DirState.UNCACHED:
            return  # nothing to corrupt
        if entry.state is DirState.MODIFIED:
            if self.injector.fire(
                FaultKind.DIR_STATE_CORRUPT, self.tick, -1, base,
                detail=lambda: f"owner {entry.owner} forgotten, M entry demoted to U",
            ):
                entry.state = DirState.UNCACHED
                entry.owner = None
                entry.defer_since = None
            return
        sharers = entry.sharers
        if sharers and self.injector.fire(
            FaultKind.DIR_STATE_CORRUPT, self.tick, -1, base,
            detail=lambda: f"sharer mask cleared (was {_bits(sharers)})",
        ):
            entry.sharers = 0
            entry.state = DirState.UNCACHED

    def _nack(self, requester: int, base: int, txn_id: int) -> None:
        self.dir_stats.nacks += 1
        self.network.send(
            Message(
                MessageType.NACK, self._home_of(base), ("core", requester),
                base, txn=txn_id,
            ),
            self.tick,
        )

    def _grant(
        self, base: int, requester: int, txn_id: int, shared: bool
    ) -> None:
        self.network.send(
            Message(
                MessageType.DATA, self._home_of(base), ("core", requester),
                base, txn=txn_id, data=self._mem_line(base),
                detail="shared" if shared else "modified",
            ),
            self.tick,
        )

    def _home_on_request(self, msg: Message) -> None:
        base = msg.addr
        p = msg.src[1]
        entry = self._entry(base)
        self.dir_stats.requests += 1
        self._maybe_corrupt_entry(entry, base)
        if entry.busy is not None:
            self._nack(p, base, msg.txn)
            return
        if entry.state is DirState.MODIFIED and entry.owner == p:
            # The recorded owner should never need to re-request: either
            # our grant or its PutM was lost.  Defer briefly (the PutM
            # may be in flight), then force-clear and serve memory.
            if entry.defer_since is None:
                entry.defer_since = self.tick
            if self.tick - entry.defer_since <= OWNER_DEFER_TIMEOUT:
                self._nack(p, base, msg.txn)
                return
            self.dir_stats.forced_owner_clears += 1
            entry.state = DirState.UNCACHED
            entry.owner = None
            entry.defer_since = None
        if msg.mtype is MessageType.GETS:
            if entry.state is DirState.MODIFIED:
                self.dir_stats.forwards += 1
                self._set_busy(entry, PendingTxn(
                    "fwd-gets", p, msg.txn, base, started=self.tick,
                    owner=entry.owner,
                ))
                self.network.send(
                    Message(
                        MessageType.FWD_GETS, self._home_of(base),
                        ("core", entry.owner), base, txn=msg.txn,
                    ),
                    self.tick,
                )
                return
            entry.sharers |= 1 << p
            entry.state = DirState.SHARED
            self._grant(base, p, msg.txn, shared=True)
            return
        # GETM
        if entry.state is DirState.MODIFIED:
            self.dir_stats.forwards += 1
            self._set_busy(entry, PendingTxn(
                "fwd-getm", p, msg.txn, base, started=self.tick,
                owner=entry.owner,
            ))
            self.network.send(
                Message(
                    MessageType.FWD_GETM, self._home_of(base),
                    ("core", entry.owner), base, txn=msg.txn,
                ),
                self.tick,
            )
            return
        awaiting = 0
        for q in _bits(entry.sharers & ~(1 << p)):
            if self.injector.fire(
                FaultKind.STALE_SHARER, self.tick, q, base,
                detail="sharer dropped from invalidation fan-out",
            ):
                # The mask bit rotted: the directory no longer knows
                # about q, which keeps a stale readable copy.
                entry.sharers &= ~(1 << q)
                continue
            self.dir_stats.invalidations_sent += 1
            awaiting |= 1 << q
            self.network.send(
                Message(
                    MessageType.INV, self._home_of(base), ("core", q), base,
                    txn=msg.txn,
                ),
                self.tick,
            )
        if awaiting:
            self._set_busy(entry, PendingTxn(
                "inv", p, msg.txn, base, awaiting=awaiting, started=self.tick
            ))
            return
        self._grant_modified(entry, base, p, msg.txn)

    def _grant_modified(
        self, entry: DirectoryEntry, base: int, requester: int, txn_id: int
    ) -> None:
        entry.state = DirState.MODIFIED
        entry.owner = requester
        entry.sharers = 0
        self._clear_busy(entry, base)
        self._grant(base, requester, txn_id, shared=False)

    def _set_busy(self, entry: DirectoryEntry, busy: PendingTxn) -> None:
        entry.busy = busy
        self._busy[busy.base] = entry

    def _clear_busy(self, entry: DirectoryEntry, base: int) -> None:
        entry.busy = None
        entry.defer_since = None
        self._busy.pop(base, None)

    def _home_on_inv_ack(self, msg: Message) -> None:
        base = msg.addr
        q = msg.src[1]
        entry = self.directory.get(base)
        if entry is None or entry.busy is None or entry.busy.kind != "inv":
            self.dir_stats.stale_messages_dropped += 1
            return
        busy = entry.busy
        bit = 1 << q
        if not busy.awaiting & bit:
            self.dir_stats.stale_messages_dropped += 1  # duplicate ack
            return
        busy.awaiting ^= bit
        if not busy.awaiting:
            self._grant_modified(entry, base, busy.requester, busy.txn_id)

    def _writeback_data(
        self, base: int, q: int, data: dict | None, what: str
    ) -> None:
        """Write owner data back to memory unless the writeback race
        corrupts it (WB_RACE_CORRUPT site)."""
        self.dir_stats.writebacks_received += 1
        if self.injector.fire(
            FaultKind.WB_RACE_CORRUPT, self.tick, q, base,
            detail=f"{what} data discarded by writeback race",
        ):
            return
        if data:
            self.memory.write_line(base, data)

    def _complete_forward(self, entry: DirectoryEntry, base: int) -> None:
        """Finish a fwd-* transaction from (now-updated) memory."""
        busy = entry.busy
        assert busy is not None
        if busy.kind == "fwd-gets":
            sharers = 1 << busy.requester
            if busy.owner is not None and self.caches[busy.owner].peek(base):
                sharers |= 1 << busy.owner
            entry.state = DirState.SHARED
            entry.sharers = sharers
            entry.owner = None
            self._clear_busy(entry, base)
            self._grant(base, busy.requester, busy.txn_id, shared=True)
        else:
            self._grant_modified(entry, base, busy.requester, busy.txn_id)

    def _home_on_data_wb(self, msg: Message) -> None:
        base = msg.addr
        q = msg.src[1]
        entry = self._entry(base)
        self._writeback_data(base, q, msg.data, "forwarded")
        busy = entry.busy
        if busy is not None and busy.kind.startswith("fwd") and busy.owner == q:
            self._complete_forward(entry, base)
        # Otherwise: a stale/duplicate writeback — memory was updated
        # (harmless or fault-attributable), protocol state untouched.

    def _home_on_putm(self, msg: Message) -> None:
        base = msg.addr
        q = msg.src[1]
        entry = self._entry(base)
        busy = entry.busy
        if busy is not None and busy.kind.startswith("fwd") and busy.owner == q:
            # The PutM crossed our Fwd in flight: use its data to
            # complete the pending transaction.
            self._writeback_data(base, q, msg.data, "racing PutM")
            busy.owner = None  # the evicting owner holds nothing now
            self._complete_forward(entry, base)
            return
        if entry.state is DirState.MODIFIED and entry.owner == q:
            self._writeback_data(base, q, msg.data, "PutM")
            entry.state = DirState.UNCACHED
            entry.owner = None
            entry.defer_since = None
            return
        self.dir_stats.stale_messages_dropped += 1

    # ------------------------------------------------------------------
    # Watchdogs
    # ------------------------------------------------------------------
    def _check_timeouts(self) -> None:
        for p, txn in enumerate(self.txns):
            if txn is None or txn.retry_at is not None:
                continue
            if self.tick - txn.issued > REQUEST_TIMEOUT:
                self.dir_stats.request_timeouts += 1
                self._resend(p, txn)
        tick = self.tick
        expired = [
            base for base, entry in self._busy.items()
            if tick - entry.busy.started > BUSY_TIMEOUT
        ]
        if len(expired) > 1:
            # Handle them in the directory's (line creation) order.
            expired = [base for base in self.directory if base in expired]
        for base in expired:
            entry = self.directory[base]
            busy = entry.busy
            if busy.kind == "inv":
                # Acks never arrived (dropped Inv or dropped ack): force
                # the grant through; any sharer that kept its copy is
                # now incoherent — exactly the observable effect.
                self.dir_stats.forced_inv_completions += 1
                self._grant_modified(entry, base, busy.requester, busy.txn_id)
                continue
            if busy.fwd_retries < FORWARD_RETRY_CAP:
                busy.fwd_retries += 1
                busy.started = self.tick
                mtype = (
                    MessageType.FWD_GETS
                    if busy.kind == "fwd-gets"
                    else MessageType.FWD_GETM
                )
                self.network.send(
                    Message(
                        mtype, self._home_of(base), ("core", busy.owner),
                        base, txn=busy.txn_id,
                    ),
                    self.tick,
                )
                continue
            # The owner never answered: serve (possibly stale) memory.
            self.dir_stats.forced_stale_serves += 1
            self._complete_forward(entry, base)


#: The one receiver of each message type: a core's controller for the
#: home's replies and forwards, the home for requests, acks and data.
_HANDLERS = {
    MessageType.DATA: DirectorySystem._core_on_data,
    MessageType.NACK: DirectorySystem._core_on_nack,
    MessageType.INV: DirectorySystem._core_on_inv,
    MessageType.FWD_GETS: DirectorySystem._core_on_fwd,
    MessageType.FWD_GETM: DirectorySystem._core_on_fwd,
    MessageType.GETS: DirectorySystem._home_on_request,
    MessageType.GETM: DirectorySystem._home_on_request,
    MessageType.INV_ACK: DirectorySystem._home_on_inv_ack,
    MessageType.DATA_WB: DirectorySystem._home_on_data_wb,
    MessageType.PUTM: DirectorySystem._home_on_putm,
}
