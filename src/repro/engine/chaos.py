"""Deterministic fault injection at the engine's execution seams.

``repro.memsys.faults`` injects faults into the *simulated memory
system* to prove the verifier catches them; this module turns the same
discipline on the verification engine itself.  A :class:`ChaosSpec`
describes seeded fault probabilities at the seams where a production
run actually fails:

===========  =====================  =====================================
kind         seam                   simulates
===========  =====================  =====================================
crash        worker, before decide  a worker process dying mid-task
stall        worker, before decide  a hung backend / scheduler stall
lost         parent, on harvest     a completed result dropped on the
                                    pool boundary (lost IPC message)
slow-cache   parent, cache write    slow shared-cache writes
leg-stall    portfolio leg start    one race leg scheduled late / slowly
bad-verdict  worker, after decide   a buggy solver reporting the
                                    opposite verdict
bad-cert     worker, after decide   a corrupted / tampered certificate
slow-store   store lookup/flush     a persistent store on slow or
                                    contended disk
corrupt-store  store, on load       on-disk bit rot / a tampered store
                                    record (flipped verdict, stripped
                                    proof material)
conn-drop    service, on respond    a client connection dying before
                                    the daemon's response is written
                                    (dropped mid-frame / network reset)
===========  =====================  =====================================

The last two are *semantic* faults: unlike crashes and stalls they
produce a wrong answer, not a slow one, so no amount of retrying
recovers from them.  They exist to make the certification layer's
guarantee falsifiable — ``--certify strict`` must catch every injected
flip or tampering (see :func:`tamper_result` and
``tests/engine/test_chaos.py``), while certification ``off`` must
*never* catch them, documenting exactly what uncertified runs trust.

Injections are **deterministic**: whether a fault fires at a given seam
is a pure function of ``(seed, site, task key, attempt)`` — a SHA-256
roll, independent of wall clock, pool kind, or completion order.  The
same spec over the same corpus injects the same faults on every run, on
every machine, so the differential suite can assert the strong property
the ISSUE demands: *verdicts with chaos enabled equal verdicts with
chaos disabled wherever both decide*.  Faults are attempt-dependent, so
a retried task re-rolls — retries can genuinely recover, exactly like a
real transient worker death.

The spec grammar (CLI ``verify --chaos SPEC``, gated behind the
``REPRO_CHAOS`` environment variable so a stray flag can never inject
faults into a production run)::

    SPEC    := field ("," field)*
    field   := KIND "=" RATE | "seed" "=" INT
             | "stall-s" "=" SECONDS | "slow-s" "=" SECONDS
    KIND    := "crash" | "stall" | "lost" | "slow-cache" | "leg-stall"
             | "bad-verdict" | "bad-cert" | "slow-store" | "corrupt-store"
             | "conn-drop"
    RATE    := float in [0, 1]

Example: ``--chaos crash=0.2,stall=0.1,lost=0.1,seed=7``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields, replace

from repro.util.control import Cancelled, StopCheck

#: The environment variable that must be set (to anything non-empty)
#: before the CLI accepts ``--chaos``.
CHAOS_ENV = "REPRO_CHAOS"

#: How long a leg-stall sleeps between stop-check polls: a stalled leg
#: is *slow*, not dead, so it must still observe cancellation promptly.
_LEG_POLL_S = 0.005


class ChaosCrash(RuntimeError):
    """An injected worker crash (stands in for a dead worker process)."""

    def __init__(self, key: str, attempt: int):
        super().__init__(f"injected crash for task {key} (attempt {attempt})")
        self.key = key
        self.attempt = attempt

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the message)
        # into ``__init__``, which takes (key, attempt) — without this
        # the crash cannot cross the process-pool boundary intact.
        return (ChaosCrash, (self.key, self.attempt))


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded fault-injection probabilities (see module docs).

    Frozen and containing only numbers, so it pickles with the tasks it
    haunts into process-pool workers.
    """

    crash: float = 0.0
    stall: float = 0.0
    lost: float = 0.0
    slow_cache: float = 0.0
    leg_stall: float = 0.0
    bad_verdict: float = 0.0
    bad_cert: float = 0.0
    slow_store: float = 0.0
    corrupt_store: float = 0.0
    conn_drop: float = 0.0
    stall_s: float = 0.05
    slow_s: float = 0.02
    seed: int = 0

    _RATES = (
        "crash", "stall", "lost", "slow_cache", "leg_stall",
        "bad_verdict", "bad_cert", "slow_store", "corrupt_store",
        "conn_drop",
    )

    def __post_init__(self) -> None:
        for name in self._RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"chaos rate {name}={rate} must be in [0, 1]"
                )
        if self.stall_s < 0 or self.slow_s < 0:
            raise ValueError("chaos durations must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse the ``--chaos`` spec grammar; raises ``ValueError``
        with the accepted fields on any malformed input."""
        spec = cls()
        known = {f.name.replace("_", "-"): f.name for f in fields(cls)}
        for field_text in text.split(","):
            field_text = field_text.strip()
            if not field_text:
                continue
            key, sep, value = field_text.partition("=")
            name = known.get(key.strip())
            if not sep or name is None:
                raise ValueError(
                    f"bad chaos field {field_text!r}; expected "
                    f"KEY=VALUE with KEY one of {', '.join(sorted(known))}"
                )
            try:
                parsed = int(value) if name == "seed" else float(value)
            except ValueError:
                raise ValueError(
                    f"bad chaos value in {field_text!r}: {value!r} is not "
                    f"a number"
                )
            spec = replace(spec, **{name: parsed})
        return spec

    def describe(self) -> str:
        """The spec back in its own grammar (non-default fields only)."""
        default = ChaosSpec()
        parts = [
            f"{f.name.replace('_', '-')}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        ]
        return ",".join(parts).replace("'", "") or "<no-op>"

    def any_enabled(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in self._RATES)

    # ------------------------------------------------------------------
    # The deterministic roll and the per-seam queries
    # ------------------------------------------------------------------
    def _roll(self, site: str, key: str, attempt: int) -> float:
        """A uniform [0, 1) draw, a pure function of its arguments."""
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}|{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def crashes(self, key: str, attempt: int) -> bool:
        """Should this (task, attempt) crash its worker?"""
        return self._roll("crash", key, attempt) < self.crash

    def stalls(self, key: str, attempt: int) -> float:
        """Seconds this (task, attempt) stalls before deciding (0 = no)."""
        if self._roll("stall", key, attempt) < self.stall:
            return self.stall_s
        return 0.0

    def loses_result(self, key: str, attempt: int) -> bool:
        """Should the parent drop this completed result on harvest?"""
        return self._roll("lost", key, attempt) < self.lost

    def cache_delay(self, key: str, io: str) -> float:
        """Seconds of injected latency on a cache lookup/store (0 = no)."""
        if self._roll(f"slow-cache-{io}", key, 0) < self.slow_cache:
            return self.slow_s
        return 0.0

    def leg_stall_s(self, key: str, leg: str) -> float:
        """Seconds a portfolio leg is stalled before starting (0 = no)."""
        if self._roll(f"leg-stall-{leg}", key, 0) < self.leg_stall:
            return self.stall_s
        return 0.0

    def flips_verdict(self, key: str, attempt: int) -> bool:
        """Should this (task, attempt) report the *opposite* verdict?
        (Simulates a buggy or corrupted solver — the fault the
        certification layer exists to catch.)"""
        return self._roll("bad-verdict", key, attempt) < self.bad_verdict

    def corrupts_certificate(self, key: str, attempt: int) -> bool:
        """Should this (task, attempt) tamper with its certificate?"""
        return self._roll("bad-cert", key, attempt) < self.bad_cert

    def store_delay(self, key: str, io: str) -> float:
        """Seconds of injected latency on a persistent-store lookup or
        flush (0 = no)."""
        if self._roll(f"slow-store-{io}", key, 0) < self.slow_store:
            return self.slow_s
        return 0.0

    def drops_connection(self, key: str, attempt: int = 0) -> bool:
        """Should the service drop this client's connection instead of
        writing the response?  (Simulates a peer reset / a client dying
        mid-frame — the daemon must survive it and keep serving; the
        *request's* verdict is simply never delivered, which is always
        sound.)"""
        return self._roll("conn-drop", key, attempt) < self.conn_drop

    def corrupts_store_record(self, key: str) -> bool:
        """Should this store record come back corrupted on load?

        Keyed by the record's fingerprint only (no attempt): bit rot is
        a property of the record, not of who reads it — every load of a
        rotten record sees the corruption, so a store that keeps serving
        it would keep being caught."""
        return self._roll("corrupt-store", key, 0) < self.corrupt_store

    # ------------------------------------------------------------------
    # Injection helpers for the seams
    # ------------------------------------------------------------------
    def before_decide(self, key: str, attempt: int) -> None:
        """Worker-side seam: maybe stall, maybe crash (crash wins —
        a dead worker does not get to finish its stall)."""
        if self.crashes(key, attempt):
            raise ChaosCrash(key, attempt)
        delay = self.stalls(key, attempt)
        if delay > 0:
            time.sleep(delay)

    def stall_leg(
        self, key: str, leg: str, should_stop: StopCheck = None
    ) -> None:
        """Portfolio seam: stall a race leg *cooperatively* — the leg is
        slow, not dead, so it keeps polling ``should_stop`` while
        stalled and raises ``Cancelled`` the moment the race is over."""
        remaining = self.leg_stall_s(key, leg)
        while remaining > 0:
            if should_stop is not None and should_stop():
                raise Cancelled(f"chaos-stalled leg {leg}", 0)
            step = min(_LEG_POLL_S, remaining)
            time.sleep(step)
            remaining -= step

    def on_cache_io(self, key: str, io: str) -> None:
        """Parent-side seam: injected latency on a cache write."""
        delay = self.cache_delay(key, io)
        if delay > 0:
            time.sleep(delay)


def tamper_result(spec: ChaosSpec, key: str, attempt: int, result):
    """Apply the semantic faults to a freshly decided result, in place.

    ``bad-verdict`` flips holds <-> violated without touching the
    witness or certificate, exactly what a sign bug in a solver looks
    like.  ``bad-cert`` corrupts whatever certificate material the
    result carries — duplicating a witness op, emptying a cycle,
    pointing an infeasibility claim at a non-existent operation, or
    stripping a RUP proof's empty clause.  Every corruption is chosen
    so the trusted checker *must* reject it; whether anyone looks is
    the certify mode's business, not chaos's.

    UNKNOWN results pass through untouched: they assert nothing, so
    there is no verdict to corrupt.
    """
    if result.unknown:
        return result
    if spec.flips_verdict(key, attempt):
        result.holds = not result.holds
        result.reason = f"[chaos bad-verdict] {result.reason}".strip()
    if spec.corrupts_certificate(key, attempt):
        _corrupt_certificate(result)
    return result


def _corrupt_certificate(result) -> None:
    from repro.core.result import Certificate

    cert = result.certificate
    if result.holds or (cert is not None and cert.kind == "witness"):
        if result.schedule:
            result.schedule = list(result.schedule) + [result.schedule[0]]
        else:
            result.schedule = None
        return
    if cert is None:
        return  # nothing attached (certification off) — nothing to corrupt
    if cert.kind == "cycle":
        steps, _cycle = cert.payload
        result.certificate = Certificate("cycle", (steps, ()))
    elif cert.kind == "infeasible":
        result.certificate = Certificate(
            "infeasible", ("read-impossible", (-99, -99))
        )
    elif cert.kind == "rup":
        result.certificate = Certificate(
            "rup",
            tuple(line for line in cert.payload if line[1] != ()),
        )
