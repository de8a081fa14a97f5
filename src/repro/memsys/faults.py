"""Protocol fault injection: a message-level fault library.

The motivation of the paper is dynamic *error detection*: a protocol
bug or a hardware fault silently breaks coherence, and we want to catch
it from the observed execution.  This module injects the canonical
failure modes into the simulators.  Two families exist:

**Datapath / reporting faults** (both substrates):

* ``LOST_INVALIDATION`` — a snooper that should invalidate its copy on
  a foreign write keeps it; subsequent local reads return stale data.
* ``STALE_MEMORY`` — a read miss is served from memory even though
  another cache holds the line Modified (a lost intervention).
* ``DROPPED_WRITE`` — a store is acknowledged but never changes the
  line (the classic "silent data drop").
* ``CORRUPTED_VALUE`` — a store writes a perturbed value (models a
  datapath bit flip; detectable by coherence checking only when the
  corrupted value collides with the value another read expects, so the
  detection rate is interestingly below 1).
* ``REORDERED_SERIALIZATION`` — the *reporting* path lies: two adjacent
  entries of the exported per-address write-order are swapped while the
  data path stays correct.  This models a buggy augmented memory system
  (Section 5.2's helper itself failing); the write-order verifier must
  reject orders that contradict program order or read placements.

**Message-level faults** (the split-transaction directory substrate,
:mod:`repro.memsys.directory`, injected at the interconnect and at the
home node's state machine):

* ``DROPPED_MSG`` — any coherence message vanishes in flight; the
  protocol's timeouts/NACK-retry machinery must recover (the recovery
  itself may serve stale state — that is the point).
* ``DUPLICATED_MSG`` — a message is delivered twice (a retransmission
  bug); controllers must be idempotent or the duplicate corrupts state.
* ``DELAYED_MSG`` — a message takes an anomalously long detour; almost
  always architecturally latent, which exercises the latency oracle.
* ``REORDERED_MSG`` — two queued messages on one link swap, violating
  the per-link FIFO assumption the protocol's race handling relies on.
* ``STALE_SHARER`` — the directory's sharer mask bit-rots: one sharer
  is silently dropped from an invalidation fan-out and keeps a stale
  readable copy.
* ``DROPPED_INV_ACK`` — specifically an invalidation acknowledgement is
  lost; the home times out and *forces* the transaction through.
* ``DIR_STATE_CORRUPT`` — the directory entry itself is corrupted
  (owner forgotten, state demoted) so memory serves data while a dirty
  owner exists.
* ``WB_RACE_CORRUPT`` — a writeback loses the race against the
  directory's bookkeeping and its dirty data is discarded.

Injection is probabilistic per opportunity, driven by a seeded RNG, and
every actual injection is recorded as a :class:`FaultEvent` so the
latency oracle (:mod:`repro.memsys.oracle`) can classify it as
architecturally *visible* or *latent* and tests can assert both that
injected faults exist and that the verifier caught (or provably could
not catch) them.

Per-site parameterization follows :mod:`repro.engine.chaos`: a
:class:`FaultSpec` string like ``"drop=0.02,stale-sharer=0.01,seed=7"``
gives every site its own rate, and :meth:`FaultConfig.from_spec` turns
it into an injector configuration.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.util.rng import make_rng


class FaultKind(enum.Enum):
    # -- datapath / reporting faults (bus + directory substrates) ------
    LOST_INVALIDATION = "lost-invalidation"
    STALE_MEMORY = "stale-memory"
    DROPPED_WRITE = "dropped-write"
    CORRUPTED_VALUE = "corrupted-value"
    REORDERED_SERIALIZATION = "reordered-serialization"
    # -- message-level faults (directory substrate only) ---------------
    DROPPED_MSG = "drop-msg"
    DUPLICATED_MSG = "dup-msg"
    DELAYED_MSG = "delay-msg"
    REORDERED_MSG = "reorder-msg"
    STALE_SHARER = "stale-sharer"
    DROPPED_INV_ACK = "drop-inv-ack"
    DIR_STATE_CORRUPT = "dir-corrupt"
    WB_RACE_CORRUPT = "wb-race"


#: Message-level sites: only the split-transaction directory substrate
#: has an interconnect to inject them into.
MESSAGE_FAULTS: frozenset[FaultKind] = frozenset(
    {
        FaultKind.DROPPED_MSG,
        FaultKind.DUPLICATED_MSG,
        FaultKind.DELAYED_MSG,
        FaultKind.REORDERED_MSG,
        FaultKind.STALE_SHARER,
        FaultKind.DROPPED_INV_ACK,
        FaultKind.DIR_STATE_CORRUPT,
        FaultKind.WB_RACE_CORRUPT,
    }
)

#: Snooping-bus-specific sites: the directory substrate has no snooper
#: to lose an intervention, its equivalents are the message sites.
BUS_ONLY_FAULTS: frozenset[FaultKind] = frozenset(
    {FaultKind.LOST_INVALIDATION, FaultKind.STALE_MEMORY}
)


def supported_faults(substrate: str) -> list[FaultKind]:
    """The fault sites a substrate can physically express."""
    if substrate == "bus":
        return [k for k in FaultKind if k not in MESSAGE_FAULTS]
    if substrate == "directory":
        return [k for k in FaultKind if k not in BUS_ONLY_FAULTS]
    raise ValueError(f"unknown substrate {substrate!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One actual injection, for post-mortem analysis.

    ``step`` is the simulator tick at injection time, ``proc`` the
    processor whose state the fault touches (-1 when the fault lands at
    a home node / on a link rather than a core), ``addr`` a word
    address inside the affected cache line.
    """

    kind: FaultKind
    step: int
    proc: int
    addr: int
    detail: str = ""


@dataclass
class FaultConfig:
    """Which faults to inject and how often.

    Two equivalent parameterizations:

    * legacy: ``kinds`` + a shared ``rate`` (every armed site fires with
      the same per-opportunity probability);
    * per-site: ``rates`` maps each site to its own probability and
      wins over ``kinds``/``rate`` for the sites it names.

    ``max_events`` caps the number of injections across all sites (a
    single fault is the common test setup).
    """

    kinds: frozenset[FaultKind] = frozenset()
    rate: float = 0.0
    max_events: int | None = None
    seed: int | None = 0
    rates: dict[FaultKind, float] = field(default_factory=dict)

    @staticmethod
    def none() -> "FaultConfig":
        return FaultConfig()

    @staticmethod
    def single(kind: FaultKind, seed: int = 0, rate: float = 0.05) -> "FaultConfig":
        return FaultConfig(
            kinds=frozenset([kind]), rate=rate, max_events=1, seed=seed
        )

    @staticmethod
    def from_spec(spec: "FaultSpec | str", seed: int | None = None) -> "FaultConfig":
        """Build a per-site config from a :class:`FaultSpec` (or its
        string grammar); ``seed`` overrides the spec's seed."""
        if isinstance(spec, str):
            spec = FaultSpec.parse(spec)
        return FaultConfig(
            kinds=frozenset(spec.rates),
            rates=dict(spec.rates),
            max_events=spec.max_events,
            seed=spec.seed if seed is None else seed,
        )

    def rate_for(self, kind: FaultKind) -> float:
        if kind in self.rates:
            return self.rates[kind]
        return self.rate if kind in self.kinds else 0.0

    def reseeded(self, seed: int | None) -> "FaultConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class FaultSpec:
    """Per-site fault rates, with the chaos-style string grammar::

        SPEC  := field ("," field)*
        field := SITE "=" RATE | "seed" "=" INT | "max-events" "=" INT
        SITE  := a FaultKind value, e.g. "drop-msg" | "stale-sharer"
        RATE  := float in [0, 1]

    Example: ``"drop-msg=0.02,stale-sharer=0.01,seed=7"``.
    """

    rates: dict[FaultKind, float] = field(default_factory=dict)
    seed: int | None = 0
    max_events: int | None = None

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        rates: dict[FaultKind, float] = {}
        seed: int | None = 0
        max_events: int | None = None
        by_value = {k.value: k for k in FaultKind}
        for raw in text.split(","):
            raw = raw.strip()
            if not raw:
                continue
            if "=" not in raw:
                raise ValueError(
                    f"bad fault field {raw!r}: want SITE=RATE, seed=INT "
                    f"or max-events=INT"
                )
            key, _, value = raw.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "seed":
                seed = int(value)
                continue
            if key == "max-events":
                max_events = int(value)
                continue
            if key not in by_value:
                raise ValueError(
                    f"unknown fault site {key!r}; choose from "
                    f"{sorted(by_value)}"
                )
            rate = float(value)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {key!r} must be in [0, 1], got {rate}")
            rates[by_value[key]] = rate
        return FaultSpec(rates=rates, seed=seed, max_events=max_events)

    def describe(self) -> str:
        parts = [f"{k.value}={r:g}" for k, r in sorted(
            self.rates.items(), key=lambda kv: kv[0].value
        )]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.max_events is not None:
            parts.append(f"max-events={self.max_events}")
        return ",".join(parts)


class FaultInjector:
    """Decides, opportunity by opportunity, whether a fault fires.

    The armed ``{kind: rate}`` map is resolved once.  ``active`` is
    false when no site is armed or the ``max_events`` cap is reached;
    callers may skip a whole block of opportunities while it is false,
    since :meth:`fire` would then draw nothing and return False.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self.rng = make_rng(config.seed)
        self.events: list[FaultEvent] = []
        self._rates = {
            kind: rate for kind in FaultKind if (rate := config.rate_for(kind)) > 0.0
        }
        self._cap = config.max_events
        self.active = bool(self._rates) and (self._cap is None or self._cap > 0)

    def fire(
        self,
        kind: FaultKind,
        step: int,
        proc: int,
        addr: int,
        detail: str | Callable[[], str] = "",
    ) -> bool:
        """Roll the dice for one opportunity; record and report.

        An unarmed site, or any site once the cap is reached, draws no
        random number.  A callable ``detail`` is called only when the
        fault fires.
        """
        if not self.active:
            return False
        rate = self._rates.get(kind)
        if rate is None or self.rng.random() >= rate:
            return False
        if callable(detail):
            detail = detail()
        self.events.append(FaultEvent(kind, step, proc, addr, detail))
        if self._cap is not None and len(self.events) >= self._cap:
            self.active = False
        return True

    def corrupt(self, value: object) -> object:
        """A deterministic-ish corruption of a value."""
        if isinstance(value, int):
            return value ^ (1 << self.rng.randrange(8))
        return ("corrupt", value)

    @property
    def injected(self) -> int:
        return len(self.events)


def corrupt_write_orders(
    write_orders: dict, injector: "FaultInjector", step: int
) -> dict:
    """Swap adjacent write-order entries where the fault fires.

    Called by the systems just before packaging a RunResult; models the
    reporting path (not the data path) failing.
    """
    out = {}
    for addr, order in write_orders.items():
        order = list(order)
        i = 0
        while injector.active and i + 1 < len(order):
            if injector.fire(
                FaultKind.REORDERED_SERIALIZATION,
                step,
                order[i].proc,
                addr,
                detail=lambda: f"swapped serialization slots {i} and {i + 1}",
            ):
                order[i], order[i + 1] = order[i + 1], order[i]
                i += 2
            else:
                i += 1
        out[addr] = order
    return out
