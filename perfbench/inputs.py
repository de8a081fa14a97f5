"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: the traces, streams and
request sequences are built from legal schedules drawn with
``random.Random(seed)``, so a change to the simulator (``repro.memsys``)
cannot change them, and every label comes from how an input was built,
never from the program under test.

* A *coherent* trace is a random legal schedule with unique written
  values, sliced into per-process histories: a coherent schedule exists
  by construction (the one that was drawn).
* A *violated* trace carries one provable violation: either a read of a
  value nobody writes (``never``), or a read-read inversion of one
  writer's two writes (``inversion``: P reads the writer's later value,
  then its earlier one).  Both are refutable from the trace alone.

The only program code used is the trace encoders
(:func:`repro.core.serialize_bin.dumps_bin` and
:class:`repro.core.serialize_bin.StreamWriter`); the input digest the
benchmark prints is taken over their output, so two runs that received
different bytes show it.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass

from repro.core.serialize_bin import StreamWriter, dumps_bin
from repro.core.types import Execution, Operation, OpKind, ProcessHistory

#: Values no generated write ever produces (writes count up from 1).
NEVER_WRITTEN = 10**9

#: Offline traces: addresses per trace and operations per process.
TRACE_ADDRS = 8
TRACE_OPS_PER_PROC = 40
#: Violated traces stay near 4 x 40 ops: the certify layer's SAT
#: re-refutation of one such trace costs tens of ms; at 8 x 60 ops it
#: costs seconds and a handful of traces would dominate a run.
VIOLATED_PROCS = 4
#: The refutation's cost grows steeply with the number of operations
#: at the violated address (14 ops: ~18 ms, 20 ops: ~55 ms, 33 ops:
#: ~450 ms), so that address gets exactly this many, injected reads
#: included, of which VIOLATED_ADDR_WRITES write; otherwise p90 moved
#: 30% between seeds.  14 rather than 20 keeps each unit short, so a
#: run fits more passes (see ``worker.REPS``).
VIOLATED_ADDR_OPS = 14
VIOLATED_ADDR_WRITES = 5
#: Coherent traces have 4 to 8 processes, in turn.
COHERENT_PROCS = (4, 5, 6, 7, 8)
#: One trace in four is violated; the rest are coherent.
VIOLATED_EVERY = 4
#: Of the violated traces, one in NEVER_EVERY reads a never-written
#: value and the rest carry a read-read inversion.  Inversions are a
#: fifth of all traces, so p90 falls mid-way through their (steep)
#: latency distribution rather than on its edge.
NEVER_EVERY = 5

#: Streams: commit-ordered, 8 processes over 16 addresses.
STREAM_PROCS = 8
STREAM_ADDRS = 16
#: One stream in four carries a violation at a known op index.
STREAM_VIOLATED_EVERY = 4


@dataclass
class Trace:
    """One offline input: REPROBIN bytes plus its constructed label."""

    name: str
    data: bytes
    ops: int
    violated: bool
    kind: str  # "coherent" | "never" | "inversion"


@dataclass
class Stream:
    """One REPROSTM stream plus its constructed label: ``bad_index`` is
    the 0-based op index of the injected violation (None = coherent)."""

    name: str
    data: bytes
    ops: int
    bad_index: int | None
    kind: str


def _legal_schedule(rng: random.Random, nproc: int, per_proc: list[int],
                    naddr: int, write_p: float, counter: list[int],
                    addrs: list[int] | None = None,
                    writes_0: list[bool] | None = None):
    """Draw a legal commit-ordered schedule: tuples
    ``(proc, kind, addr, value_read, value_written)``.  Every write
    gets a fresh value from ``counter``; every read returns the current
    value of its address (an address is written before it is read).
    ``addrs``, when given, is the address of each op in order, and
    ``writes_0`` whether each op at address 0 writes."""
    remaining = list(per_proc)
    live = [p for p in range(nproc) if remaining[p]]
    current: dict[int, int] = {}
    out = []
    at_0 = 0
    while live:
        p = live[rng.randrange(len(live))]
        a = addrs[len(out)] if addrs else rng.randrange(naddr)
        if a == 0 and writes_0:
            is_write = writes_0[at_0]
            at_0 += 1
        else:
            is_write = a not in current or rng.random() < write_p
        if is_write:
            counter[0] += 1
            current[a] = counter[0]
            out.append((p, OpKind.WRITE, a, None, counter[0]))
        else:
            out.append((p, OpKind.READ, a, current[a], None))
        remaining[p] -= 1
        if not remaining[p]:
            live.remove(p)
    return out, current


def _execution(histories, final) -> Execution:
    return Execution(
        [
            ProcessHistory(
                p,
                tuple(
                    Operation(kind, a, p, i, value_read=r, value_written=w)
                    for i, (kind, a, r, w) in enumerate(ops)
                ),
            )
            for p, ops in enumerate(histories)
        ],
        final=final,
    )


def make_trace(rng: random.Random, name: str, kind: str,
               nproc: int = VIOLATED_PROCS) -> Trace:
    """One offline trace of the given constructed kind; ``nproc`` sets a
    coherent trace's process count.  A violated trace has
    ``VIOLATED_PROCS`` processes, and its violation sits at address 0,
    which holds exactly ``VIOLATED_ADDR_OPS`` operations."""
    if kind == "coherent":
        addrs = None
    else:
        nproc = VIOLATED_PROCS
        n = nproc * TRACE_OPS_PER_PROC
        at_0 = VIOLATED_ADDR_OPS - (1 if kind == "never" else 2)
        addrs = [0] * at_0 + [
            rng.randrange(1, TRACE_ADDRS) for _ in range(n - at_0)
        ]
        rng.shuffle(addrs)
        # The first op at address 0 writes; the other writes fall
        # anywhere among the rest.
        rest = [True] * (VIOLATED_ADDR_WRITES - 1) + [False] * (
            at_0 - VIOLATED_ADDR_WRITES
        )
        rng.shuffle(rest)
        writes_0 = [True] + rest
    while True:
        schedule, current = _legal_schedule(
            rng, nproc, [TRACE_OPS_PER_PROC] * nproc, TRACE_ADDRS, 0.4,
            [0], addrs, writes_0 if kind != "coherent" else None,
        )
        histories: list[list[tuple]] = [[] for _ in range(nproc)]
        for p, k, a, r, w in schedule:
            histories[p].append((k, a, r, w))
        # A writer q with two writes w1 <po w2 to address 0.
        pairs = []
        for q in range(nproc):
            mine = [w for k, a, _r, w in histories[q]
                    if k is OpKind.WRITE and a == 0]
            pairs += [(q, w1, w2) for w1, w2 in zip(mine, mine[1:])]
        if kind != "inversion" or pairs:
            break
    if kind == "never":
        p = rng.randrange(nproc)
        i = rng.randrange(len(histories[p]) + 1)
        histories[p].insert(i, (OpKind.READ, 0, NEVER_WRITTEN, None))
    elif kind == "inversion":
        # A reader p != q observes w2 and then w1 in its program order.
        q, w1, w2 = pairs[rng.randrange(len(pairs))]
        p = rng.choice([x for x in range(nproc) if x != q])
        i = rng.randrange(len(histories[p]) + 1)
        histories[p][i:i] = [
            (OpKind.READ, 0, w2, None),
            (OpKind.READ, 0, w1, None),
        ]
    data = dumps_bin(_execution(histories, current))
    ops = sum(len(h) for h in histories)
    return Trace(name, data, ops, kind != "coherent", kind)


def make_traces(seed: int, n: int, prefix: str = "t") -> list[Trace]:
    """``n`` traces; every ``VIOLATED_EVERY``-th is violated, every
    ``NEVER_EVERY``-th violated one by a never-written read and the
    rest by an inversion.  Coherent traces cycle through
    ``COHERENT_PROCS``.  A trace's kind and size depend on its index
    alone and only its contents on the seed, so every seed gets the
    same mix of sizes; drawn at random, the share of 8-process traces
    ranged from 8% to 18% between seeds and moved p50 with it."""
    rng = random.Random(f"traces:{seed}:{prefix}")
    out = []
    for i in range(n):
        nproc = VIOLATED_PROCS
        if i % VIOLATED_EVERY == VIOLATED_EVERY - 1:
            j = i // VIOLATED_EVERY
            kind = "never" if j % NEVER_EVERY == 0 else "inversion"
        else:
            kind = "coherent"
            coherent = i - i // VIOLATED_EVERY
            nproc = COHERENT_PROCS[coherent % len(COHERENT_PROCS)]
        out.append(make_trace(rng, f"{prefix}{i:05d}", kind, nproc))
    return out


def make_stream(rng: random.Random, name: str, n_ops: int,
                kind: str) -> Stream:
    """One commit-ordered REPROSTM stream of ``n_ops`` operations.

    ``kind`` ``never`` puts a read of a never-written value at the bad
    index; ``inversion`` puts a read of the current value (written by a
    process q) at the bad index minus one and, by the same reader, a
    read of q's earlier value of that address at the bad index.  Both
    are refutable from the trace alone, not only against the announced
    commit order."""
    buf = io.BytesIO()
    writer = StreamWriter(buf, STREAM_PROCS)
    current: dict[int, int] = {}
    writes_by: dict[tuple[int, int], list[int]] = {}
    last_writer: dict[int, int] = {}
    bad = None
    if kind != "coherent":
        bad = rng.randrange(n_ops // 4, 3 * n_ops // 4)
    value = 0
    i = 0
    while i < n_ops:
        p = rng.randrange(STREAM_PROCS)
        a = rng.randrange(STREAM_ADDRS)
        if i == bad and kind == "never":
            writer.append(OpKind.READ, p, a, value_read=NEVER_WRITTEN)
            i += 1
            continue
        if bad is not None and i == bad - 1 and kind == "inversion":
            # Pick an address whose current value's writer wrote it
            # before; fall through to a normal op (and retry the
            # injection one step later) when none qualifies yet.
            cands = [
                b for b in range(STREAM_ADDRS)
                if b in current
                and len(writes_by.get((last_writer[b], b), ())) >= 2
            ]
            if cands:
                b = cands[rng.randrange(len(cands))]
                q = last_writer[b]
                r = rng.choice([x for x in range(STREAM_PROCS) if x != q])
                old = writes_by[(q, b)][-2]
                writer.append(OpKind.READ, r, b, value_read=current[b])
                writer.append(OpKind.READ, r, b, value_read=old)
                i += 2
                continue
            bad += 1
        if a not in current or rng.random() < 0.3:
            value += 1
            current[a] = value
            last_writer[a] = p
            writes_by.setdefault((p, a), []).append(value)
            writer.append(OpKind.WRITE, p, a, value_written=value)
        else:
            writer.append(OpKind.READ, p, a, value_read=current[a])
        i += 1
    writer.finish(final=dict(current) if bad is None else None)
    return Stream(name, buf.getvalue(), n_ops, bad, kind)


def make_streams(seed: int, n: int, n_ops: int) -> list[Stream]:
    rng = random.Random(f"streams:{seed}")
    out = []
    for i in range(n):
        if i % STREAM_VIOLATED_EVERY == STREAM_VIOLATED_EVERY - 1:
            kind = (
                "never" if (i // STREAM_VIOLATED_EVERY) % 2 == 0
                else "inversion"
            )
        else:
            kind = "coherent"
        out.append(make_stream(rng, f"s{i:05d}", n_ops, kind))
    return out


def serve_sequence(seed: int, n_requests: int, n_prefill: int):
    """The serve-mixed request plan.

    Returns ``(prefill, requests)``: ``prefill`` traces are verified by
    an earlier daemon on the same store (so their first request in the
    timed daemon is a store read); ``requests`` is a list of
    ``(trace, framing)`` made of groups of four:

    * ``4k``: a trace not seen before (cold);
    * ``4k + 1``: prefill trace ``k``, a store read the first time;
    * ``4k + 2``: the cold trace of the group before, a memory hit;
    * ``4k + 3``: the prefill trace of the group before, a memory hit.

    ``framing`` is ``"ndjson"`` or ``"raw"``; every third request uses
    the raw REPROBIN framing.  Which trace a request repeats, and so its
    size and kind, depends on its position alone, and only the traces'
    contents on the seed: drawn at random, the mix of store reads,
    memory hits and sizes moved p50 between seeds."""
    n_groups = (n_requests + 3) // 4
    pool = make_traces(seed, n_prefill + n_groups, prefix="r")
    prefill, fresh = pool[:n_prefill], pool[n_prefill:]
    requests = []
    for i in range(n_requests):
        k, slot = divmod(i, 4)
        back = max(k - 1, 0)
        trace = (
            fresh[k], prefill[k % n_prefill],
            fresh[back], prefill[back % n_prefill],
        )[slot]
        requests.append((trace, "raw" if i % 3 == 2 else "ndjson"))
    return prefill, requests


def digest(chunks) -> str:
    """sha-256 over length-prefixed byte strings, shortened."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()[:16]
