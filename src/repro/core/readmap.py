"""VMC with every value written at most once (Figure 5.3, row 5).

When no value is written twice the *read-map* is forced: each read of
value ``v`` can only have been served by the unique write of ``v`` (or
by the initial value).  Coherence then collapses to a precedence
question, solvable in linear time:

1. Form *blocks*: the initial block (reads of ``d_I``) and, per write,
   the write followed by all reads of its value.  Within a block the
   write precedes its reads and reads commute, so block-internal order
   is determined up to the harmless ordering of reads.
2. A read-modify-write both terminates the block it reads (it must sit
   immediately after that block: any later position would put another
   write in between) and opens its own block — the two blocks are
   *fused* so they stay adjacent in every schedule.
3. Build a digraph over fused block-chains: the initial chain precedes
   every other; program order between operations induces edges between
   their chains (a program-order pair inside one chain must agree with
   the chain's internal order); the final value's chain, when ``d_F``
   is specified, must come last.
4. A coherent schedule exists iff the digraph is acyclic; the witness
   is the concatenation of chains in topological order.

Complexity: O(n) node/edge construction plus Kahn's algorithm — O(n).
The paper quotes O(n) for simple operations and O(n lg n) for RMWs.
"""

from __future__ import annotations

from repro.core.columnar import KIND_CODES, ColumnarTrace
from repro.core.result import VerificationResult
from repro.core.types import Execution, OpKind
from repro.util.digraph import CycleError, kahn

_RMW = KIND_CODES[OpKind.RMW]
_SYNC = frozenset((KIND_CODES[OpKind.ACQUIRE], KIND_CODES[OpKind.RELEASE]))


def applicable(execution: Execution) -> bool:
    """True when every value is written at most once (per address) and
    no operation is a sync operation (the read-map has no block for
    one)."""
    facts = execution.columnar().routing
    return facts.max_writes_per_value <= 1 and not facts.kind_codes & _SYNC


def _violated(reason: str) -> VerificationResult:
    return VerificationResult(holds=False, method="readmap", reason=reason)


def readmap_vmc(execution: Execution) -> VerificationResult:
    """Decide VMC for a single-address, unique-write-values execution.

    Runs over the execution's columnar view: blocks, chains and the
    precedence graph are flat int lists indexed by op position, block
    and chain; operations are only looked up to phrase a reason and to
    emit the witness."""
    view: ColumnarTrace = execution.columnar()
    addrs = list(view.addrs[: view.n_constrained])
    if len(addrs) > 1:
        raise ValueError(f"readmap VMC is per-address, got {addrs}")
    addr = addrs[0] if addrs else None
    if view.routing.max_writes_per_value > 1:
        raise ValueError("some value is written more than once")
    if view.routing.kind_codes & _SYNC:
        raise ValueError("sync operations have no place in a read-map")
    d_i = execution.initial_value(addr) if addr is not None else None
    d_f = execution.final_value(addr) if addr is not None else None

    n = view.n_ops
    if not n:
        ok = d_f is None or d_f == d_i
        return VerificationResult(
            holds=ok,
            method="readmap",
            schedule=[] if ok else None,
            reason="" if ok else f"no operations but final value {d_f!r} "
            f"differs from initial {d_i!r}",
        )
    ops = view.operations
    kinds, rvs, wvs = view.kinds, view.read_vids, view.write_vids
    init_vid = view.initial_ids[0]

    # --- 1. map each op to a block ------------------------------------
    # Block 0 is the initial block; block b >= 1 belongs to the b-th
    # writer (flat order).  ``block_of[i]`` is the block op i opens (a
    # writer) or joins (a plain read).
    writers = [i for i, w in enumerate(wvs) if w >= 0]
    block_of_vid = [-1] * len(view.values)
    block_of = [0] * n
    for b, i in enumerate(writers, start=1):
        block_of_vid[wvs[i]] = b
        block_of[i] = b
    if block_of_vid[init_vid] >= 0:
        # A write re-creating the initial value makes reads of d_i
        # ambiguous (the initial block or that write): the read-map is
        # not forced, and the router sends such instances to exact.
        raise ValueError(
            "a write re-creates the initial value; read-map is not "
            "forced — use the exact solver"
        )
    block_of_vid[init_vid] = 0  # reads of d_i join the initial block
    num_blocks = len(writers) + 1
    block_write = [None, *map(ops.__getitem__, writers)]
    block_reads: list[list] = [[] for _ in range(num_blocks)]
    rmw_reader = [-1] * num_blocks  # block -> the RMW reading it
    for i, rv in enumerate(rvs):
        if rv < 0:
            continue
        b = block_of_vid[rv]
        if b < 0:
            return _violated(
                f"{ops[i]} reads {ops[i].value_read!r}, which is never "
                f"written and is not the initial value {d_i!r}"
            )
        if kinds[i] == _RMW:
            if b == block_of[i]:
                return _violated(
                    f"{ops[i]} would have to read its own written value"
                )
            if rmw_reader[b] >= 0:
                return _violated(
                    f"both {ops[rmw_reader[b]]} and {ops[i]} must "
                    f"immediately follow the unique write of "
                    f"{ops[i].value_read!r}; they cannot both be adjacent "
                    f"to it"
                )
            rmw_reader[b] = i
        else:
            block_reads[b].append(ops[i])
            block_of[i] = b

    # --- 2. fuse RMW chains -------------------------------------------
    # A block read by an RMW is immediately followed by the RMW's block;
    # ``bpos[b]`` is block b's position in its chain.
    next_block = [-1 if r < 0 else block_of[r] for r in rmw_reader]
    links = [b for b in next_block if b >= 0]
    has_pred = set(links)
    if len(has_pred) != len(links):
        # Two blocks chain into the same successor — impossible since a
        # block's RMW reader is unique, and an RMW reads one value.
        return _violated("conflicting read-modify-write adjacency requirements")
    bpos = [0] * num_blocks
    if not links:
        chain_of = list(range(num_blocks))
        chains = [[b] for b in chain_of]
    else:
        chain_of = [-1] * num_blocks
        chains = []  # chain id -> its blocks, head first
        for b in range(num_blocks):
            if b in has_pred:
                continue  # not a head
            c = len(chains)
            members = [b]
            chain_of[b] = c
            cur = b
            while next_block[cur] >= 0:
                cur = next_block[cur]
                if chain_of[cur] == c:
                    return _violated(
                        "read-modify-write adjacency forms a cycle of blocks"
                    )
                chain_of[cur] = c
                bpos[cur] = len(members)
                members.append(cur)
            chains.append(members)
        if sum(map(len, chains)) != num_blocks:
            # Some blocks only appear inside a cycle of next_block links.
            return _violated(
                "read-modify-write adjacency forms a cycle of blocks"
            )
    chain_at = list(map(chain_of.__getitem__, block_of))

    # --- 3. precedence digraph over chains ------------------------------
    # Successor lists in insertion order, an edge-key set for dedup and
    # in-degrees over distinct predecessors: the init chain precedes
    # every other chain, program order links chains, and the final
    # value's chain follows every other.
    nc = len(chains)
    init_chain = chain_of[0]
    succ: list[list[int]] = [[] for _ in range(nc)]
    succ[init_chain] = [*range(init_chain), *range(init_chain + 1, nc)]
    edges = set(range(init_chain * nc, (init_chain + 1) * nc))
    indeg = [1] * nc
    indeg[init_chain] = 0
    offsets = view.proc_offsets
    for p in range(view.n_procs):
        start = offsets[p]
        run = chain_at[start:offsets[p + 1]]
        for i, (c1, c2) in enumerate(zip(run, run[1:]), start):
            if c1 != c2:
                k = c1 * nc + c2
                if k not in edges:
                    edges.add(k)
                    succ[c1].append(c2)
                    indeg[c2] += 1
            # Within one chain, program order must agree with the
            # chain's order: block position, then write before reads.
            elif 2 * bpos[block_of[i]] + (wvs[i] < 0) > (
                2 * bpos[block_of[i + 1]] + (wvs[i + 1] < 0)
            ):
                return _violated(
                    f"program order {ops[i]} -> {ops[i + 1]} contradicts "
                    f"the forced order within their write-block chain"
                )
    if d_f is not None:
        fin_vid = view.final_ids[0]
        fb = block_of_vid[fin_vid] if fin_vid != init_vid else -1
        if fb < 0:
            if writers or fin_vid != init_vid:
                return _violated(
                    f"required final value {d_f!r} is never written"
                    + ("" if writers else f" and initial is {d_i!r}")
                )
        else:
            # The chain containing the final write must come last, and
            # the final write's block must be the last block of its chain.
            fc = chain_of[fb]
            if chains[fc][-1] != fb:
                return _violated(
                    f"the write of final value {d_f!r} is forcibly "
                    f"followed by a read-modify-write's own write"
                )
            for c in range(nc):
                k = c * nc + fc
                if c != fc and k not in edges:
                    edges.add(k)
                    succ[c].append(fc)
                    indeg[fc] += 1

    # --- 4. topological order = witness --------------------------------
    try:
        order = kahn(succ, indeg)
    except CycleError as e:
        return VerificationResult(
            holds=False,
            method="readmap",
            reason=f"write-block precedence graph is cyclic (chains {e.cycle})",
            stats={"cycle": e.cycle},
        )
    schedule: list = []
    for c in order:
        for b in chains[c]:
            if b:
                schedule.append(block_write[b])
            schedule += block_reads[b]
    return VerificationResult(
        holds=True,
        method="readmap",
        schedule=schedule,
        address=addr,
        stats={"blocks": num_blocks, "chains": nc},
    )
