"""The columnar read-map decides exactly as the object read-map did.

``_reference`` transcribes the read-map as it ran over ``Operation``
objects, uid dictionaries and a range-checked ``Digraph``.  The
columnar :func:`repro.core.readmap.readmap_vmc` must return the same
verdict, ``reason`` text, witness schedule, ``address`` and stats — or
raise the same ``ValueError`` — on the differential corpus and on
random unique-valued executions with RMW chains, RMW adjacency cycles,
two RMWs reading one write and final-value rules.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.core.builder import parse_trace
from repro.core.readmap import readmap_vmc
from repro.core.result import VerificationResult
from repro.core.types import Execution, OpKind, Operation, Value, read, rmw, write
from repro.engine import verify_vmc
from repro.util.digraph import CycleError, Digraph
from tests.engine.test_differential import CORPUS


def _max_writes_per_value(execution: Execution) -> int:
    counts: dict = {}
    for op in execution.all_ops():
        if op.kind.writes:
            key = (op.addr, op.value_written)
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


def _reference(execution: Execution) -> VerificationResult:
    """The read-map over ``Operation`` objects and a ``Digraph``."""
    addrs = execution.constrained_addresses()
    if len(addrs) > 1:
        raise ValueError(f"readmap VMC is per-address, got {addrs}")
    addr = addrs[0] if addrs else None
    if _max_writes_per_value(execution) > 1:
        raise ValueError("some value is written more than once")
    d_i = execution.initial_value(addr) if addr is not None else None
    d_f = execution.final_value(addr) if addr is not None else None

    ops = [op for h in execution.histories for op in h]
    if not ops:
        ok = d_f is None or d_f == d_i
        return VerificationResult(
            holds=ok,
            method="readmap",
            schedule=[] if ok else None,
            reason="" if ok else f"no operations but final value {d_f!r} "
            f"differs from initial {d_i!r}",
        )

    # --- 1. map each op to a block ------------------------------------
    # Block 0 is the initial block.  Block i+1 belongs to writer ops[i].
    writers: list[Operation] = [op for op in ops if op.kind.writes]
    block_of_value: dict[Value, int] = {}
    for b, w in enumerate(writers, start=1):
        v = w.value_written
        if v == d_i:
            # A write re-creating the initial value is still a distinct
            # block; reads of d_i are only unambiguous if they can be
            # attributed.  Reads of d_i are assigned to the *initial*
            # block (they may also read from this write, so the forced
            # read-map assumption breaks).  Fall back to exact in the
            # dispatcher for this corner; here we treat it as ambiguous.
            raise ValueError(
                "a write re-creates the initial value; read-map is not "
                "forced — use the exact solver"
            )
        block_of_value[v] = b

    num_blocks = len(writers) + 1
    block_write: list[Operation | None] = [None] + writers
    block_reads: list[list[Operation]] = [[] for _ in range(num_blocks)]
    block_of_op: dict[tuple[int, int], int] = {}
    for b, w in enumerate(writers, start=1):
        block_of_op[w.uid] = b

    rmw_reading_block: dict[int, Operation] = {}  # block -> the RMW reading it
    for op in ops:
        if not op.kind.reads:
            continue
        v = op.value_read
        if v == d_i and v not in block_of_value:
            b = 0
        elif v in block_of_value:
            b = block_of_value[v]
        else:
            return VerificationResult(
                holds=False,
                method="readmap",
                reason=f"{op} reads {v!r}, which is never written and is "
                f"not the initial value {d_i!r}",
            )
        if op.kind is OpKind.RMW:
            if b == block_of_op[op.uid]:
                return VerificationResult(
                    holds=False,
                    method="readmap",
                    reason=f"{op} would have to read its own written value",
                )
            if b in rmw_reading_block:
                return VerificationResult(
                    holds=False,
                    method="readmap",
                    reason=(
                        f"both {rmw_reading_block[b]} and {op} must "
                        f"immediately follow the unique write of "
                        f"{v!r}; they cannot both be adjacent to it"
                    ),
                )
            rmw_reading_block[b] = op
        else:
            block_reads[b].append(op)
            block_of_op[op.uid] = b

    # --- 2. fuse RMW chains -------------------------------------------
    # chain id = representative block; union along rmw edges b -> block(rmw).
    next_block: dict[int, int] = {
        b: block_of_op[op.uid] for b, op in rmw_reading_block.items()
    }
    in_chain_pred: dict[int, int] = {v: k for k, v in next_block.items()}
    if len(in_chain_pred) != len(next_block):
        # Two blocks chain into the same successor — impossible since a
        # block's RMW reader is unique, and an RMW reads one value.
        return VerificationResult(
            holds=False,
            method="readmap",
            reason="conflicting read-modify-write adjacency requirements",
        )
    chain_head: dict[int, int] = {}
    chain_members: dict[int, list[int]] = {}
    for b in range(num_blocks):
        if b in in_chain_pred:
            continue  # not a head
        members = [b]
        cur = b
        seen = {b}
        while cur in next_block:
            cur = next_block[cur]
            if cur in seen:
                return VerificationResult(
                    holds=False,
                    method="readmap",
                    reason="read-modify-write adjacency forms a cycle of blocks",
                )
            seen.add(cur)
            members.append(cur)
        for m in members:
            chain_head[m] = b
        chain_members[b] = members
    if len(chain_head) != num_blocks:
        # Some blocks only appear inside a cycle of next_block links.
        return VerificationResult(
            holds=False,
            method="readmap",
            reason="read-modify-write adjacency forms a cycle of blocks",
        )

    heads = sorted(chain_members)
    chain_index = {h: i for i, h in enumerate(heads)}

    def chain_of_block(b: int) -> int:
        return chain_index[chain_head[b]]

    # Position of each op inside its chain, for intra-chain po checks:
    # (block position in chain, 0 for the write / RMW, 1 for reads).
    op_pos: dict[tuple[int, int], tuple[int, int]] = {}
    for head, members in chain_members.items():
        for bi, b in enumerate(members):
            w = block_write[b]
            if w is not None:
                op_pos[w.uid] = (bi, 0)
            for r in block_reads[b]:
                op_pos[r.uid] = (bi, 1)

    # --- 3. precedence digraph over chains ------------------------------
    g = Digraph(len(heads))
    init_chain = chain_of_block(0)
    for i in range(len(heads)):
        if i != init_chain:
            g.add_edge(init_chain, i)
    for h in execution.histories:
        for o1, o2 in zip(h.operations, h.operations[1:]):
            c1, c2 = chain_of_block(block_of_op[o1.uid]), chain_of_block(
                block_of_op[o2.uid]
            )
            if c1 == c2:
                if op_pos[o1.uid] > op_pos[o2.uid]:
                    return VerificationResult(
                        holds=False,
                        method="readmap",
                        reason=f"program order {o1} -> {o2} contradicts the "
                        f"forced order within their write-block chain",
                    )
            else:
                g.add_edge(c1, c2)
    if d_f is not None:
        fb = block_of_value.get(d_f)
        if fb is None:
            if writers or d_f != d_i:
                return VerificationResult(
                    holds=False,
                    method="readmap",
                    reason=f"required final value {d_f!r} is never written"
                    + ("" if writers else f" and initial is {d_i!r}"),
                )
        else:
            # The chain containing the final write must come last, and
            # the final write's block must be the last block of its chain.
            fc = chain_of_block(fb)
            if chain_members[chain_head[fb]][-1] != fb:
                return VerificationResult(
                    holds=False,
                    method="readmap",
                    reason=f"the write of final value {d_f!r} is forcibly "
                    f"followed by a read-modify-write's own write",
                )
            for i in range(len(heads)):
                if i != fc:
                    g.add_edge(i, fc)

    # --- 4. topological order = witness --------------------------------
    try:
        order = g.topological_order()
    except CycleError as e:
        return VerificationResult(
            holds=False,
            method="readmap",
            reason=f"write-block precedence graph is cyclic (chains {e.cycle})",
            stats={"cycle": e.cycle},
        )
    schedule: list[Operation] = []
    for ci in order:
        head = heads[ci]
        for b in chain_members[head]:
            w = block_write[b]
            if w is not None:
                schedule.append(w)
            schedule.extend(sorted(block_reads[b], key=lambda o: o.uid))
    return VerificationResult(
        holds=True,
        method="readmap",
        schedule=schedule,
        address=addr,
        stats={"blocks": num_blocks, "chains": len(heads)},
    )


def _outcome(fn, execution):
    try:
        r = fn(execution)
    except ValueError as e:
        return ("raises", str(e))
    return (
        r.holds, r.method, r.reason, r.schedule, r.address, r.stats,
        r.certificate,
    )


def _agree(execution) -> None:
    assert _outcome(readmap_vmc, execution) == _outcome(_reference, execution)


def _random_unique(rng: random.Random) -> Execution:
    """A single-address execution whose writes (and RMW writes) carry
    distinct values; reads and RMW reads pick from the values to be
    written, the initial value 0 and a never-written 99.  Few values
    make RMW chains, RMW adjacency cycles and two RMWs reading one
    write common."""
    nproc = rng.randint(1, 4)
    n = rng.randint(0, 9)
    planned = rng.randint(0, n)
    pool = list(range(planned + 1)) + [99]
    fresh = iter(range(1, n + 2))
    hist = [[] for _ in range(nproc)]
    for _ in range(n):
        p = rng.randrange(nproc)
        roll = rng.random()
        if roll < 0.3:
            hist[p].append(write("x", next(fresh)))
        elif roll < 0.6:
            hist[p].append(rmw("x", rng.choice(pool), next(fresh)))
        else:
            hist[p].append(read("x", rng.choice(pool)))
    final = None
    roll = rng.random()
    if roll < 0.5:
        final = {"x": rng.choice(pool)}
    return Execution.from_ops(hist, initial={"x": 0}, final=final)


def test_random_unique_valued_executions():
    rng = random.Random(2003)
    kinds = defaultdict(int)
    for _ in range(4000):
        ex = _random_unique(rng)
        _agree(ex)
        out = _outcome(_reference, ex)
        kinds["holds" if out[0] is True else out[1].split(" ")[0]
              if out[0] == "raises" else out[2].split(" ")[0]] += 1
        if out[0] is False and "cycle of blocks" in out[2]:
            kinds["rmw-cycle"] += 1
        if out[0] is False and "both" in out[2]:
            kinds["two-rmws"] += 1
        if out[0] is False and "final value" in out[2]:
            kinds["final"] += 1
        if out[0] is False and "cyclic" in out[2]:
            kinds["graph-cycle"] += 1
    for wanted in ("holds", "rmw-cycle", "two-rmws", "final", "graph-cycle"):
        assert kinds[wanted] > 10, (wanted, dict(kinds))


def test_differential_corpus():
    for ex in CORPUS:
        _agree(ex)
        for addr in ex.constrained_addresses():
            _agree(ex.restrict_to_address(addr))


@pytest.mark.parametrize("text, initial, final", [
    ("P0: RW(x,1,2) RW(x,2,1)", {"x": 0}, None),          # adjacency cycle
    ("P0: RW(x,0,1)\nP1: RW(x,1,2)\nP2: R(x,2)", {"x": 0}, {"x": 2}),
    ("P0: W(x,1)\nP1: RW(x,1,2)\nP2: RW(x,1,3)", {"x": 0}, None),
    ("P0: RW(x,1,2)\nP1: RW(x,2,3)\nP2: RW(x,3,1)", {"x": 0}, None),
    ("P0: W(x,1) RW(x,1,2)\nP1: R(x,2) W(x,3)", {"x": 0}, {"x": 2}),
    ("P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)", {"x": 0}, None),
    ("P0: R(x,5)", {"x": 0}, None),
    ("P0: R(x,0)", {"x": 0}, {"x": 4}),
    ("P0:\nP1:", {"x": 0}, {"x": 3}),
])
def test_named_shapes(text, initial, final):
    _agree(parse_trace(text, initial=initial, final=final))


def test_same_value_errors():
    cases = {
        "P0: W(x,1) R(y,0)\nP1: W(y,1)": "readmap VMC is per-address",
        "P0: W(x,1) W(x,1)": "some value is written more than once",
        "P0: W(x,1) W(x,0)\nP1: R(x,0)": "a write re-creates the initial",
    }
    for text, message in cases.items():
        ex = parse_trace(text, initial={"x": 0, "y": 0})
        for fn in (readmap_vmc, _reference):
            with pytest.raises(ValueError, match=message):
                fn(ex)


def test_forced_readmap_raises_as_before():
    ex = parse_trace("P0: W(x,1) W(x,1)\nP1: R(x,1)", initial={"x": 0})
    with pytest.raises(ValueError, match=(
        "backend 'readmap' is not applicable to this instance at address "
        "'x'; applicable backends: exact, sat-cdcl"
    )):
        verify_vmc(ex, method="readmap")
    ex = parse_trace("P0: W(x,1) W(x,0)\nP1: R(x,0)", initial={"x": 0})
    with pytest.raises(ValueError, match="a write re-creates the initial"):
        verify_vmc(ex, method="readmap")
