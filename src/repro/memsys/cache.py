"""Set-associative write-back caches with LRU replacement.

Addresses are word indices; a cache line covers ``line_words``
consecutive words (so distinct addresses can share a line — the false-
sharing workloads rely on this).  Data is stored per word within the
line.  The cache knows nothing about the bus: the controller in
:mod:`repro.memsys.system` drives state changes through the small API
here (lookup / install / evict-victim / snoop updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsys.protocol import LineState


@dataclass(slots=True)
class CacheLine:
    """One cache line: tag + coherence state + per-word data."""

    tag: int = -1
    state: LineState = LineState.INVALID
    data: dict[int, object] = field(default_factory=dict)  # word offset -> value
    lru: int = 0  # last-touch tick

    @property
    def valid(self) -> bool:
        return self.state is not LineState.INVALID


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    interventions: int = 0  # times this cache supplied data to the bus


class Cache:
    """A single processor's cache array."""

    def __init__(self, num_sets: int = 16, ways: int = 2, line_words: int = 4):
        if num_sets <= 0 or ways <= 0 or line_words <= 0:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self.line_words = line_words
        self.sets: list[list[CacheLine]] = [
            [CacheLine() for _ in range(ways)] for _ in range(num_sets)
        ]
        self.stats = CacheStats()
        self._tick = 0

    # -- address helpers -------------------------------------------------
    def line_id(self, addr: int) -> int:
        return addr // self.line_words

    def offset(self, addr: int) -> int:
        return addr % self.line_words

    def set_index(self, addr: int) -> int:
        return self.line_id(addr) % self.num_sets

    def tag(self, addr: int) -> int:
        return self.line_id(addr) // self.num_sets

    def base_addr(self, set_idx: int, tag: int) -> int:
        """First word address covered by (set, tag)."""
        return (tag * self.num_sets + set_idx) * self.line_words

    # -- lookup / install -------------------------------------------------
    def find(self, addr: int) -> CacheLine | None:
        """The valid line holding ``addr``, or None (touches LRU)."""
        s = self.set_index(addr)
        t = self.tag(addr)
        for line in self.sets[s]:
            if line.valid and line.tag == t:
                self._tick += 1
                line.lru = self._tick
                return line
        return None

    def peek(self, addr: int) -> CacheLine | None:
        """Like :meth:`find` but without touching LRU (for snoops)."""
        s = self.set_index(addr)
        t = self.tag(addr)
        for line in self.sets[s]:
            if line.valid and line.tag == t:
                return line
        return None

    def victim_for(self, addr: int) -> CacheLine:
        """The line to (re)fill for ``addr``: an invalid way if any,
        else the LRU way.  The caller is responsible for writing back
        the victim's data if dirty (check ``.state.dirty``)."""
        s = self.set_index(addr)
        invalid = [l for l in self.sets[s] if not l.valid]
        if invalid:
            return invalid[0]
        victim = min(self.sets[s], key=lambda l: l.lru)
        self.stats.evictions += 1
        return victim

    def install(
        self, addr: int, state: LineState, data: dict[int, object]
    ) -> CacheLine:
        """Fill the line covering ``addr`` (victim must be clean/handled)."""
        line = self.victim_for(addr)
        line.tag = self.tag(addr)
        line.state = state
        line.data = dict(data)
        self._tick += 1
        line.lru = self._tick
        return line

    def lines_snapshot(self) -> list[tuple[int, int, str]]:
        """(set, tag, state) of every valid line — for debugging/tests."""
        out = []
        for si, ways in enumerate(self.sets):
            for line in ways:
                if line.valid:
                    out.append((si, line.tag, line.state.value))
        return out
