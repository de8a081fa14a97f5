"""Data-plane kernels for the polynomial hot paths.

The happens-before saturation of :func:`repro.core.infer.infer_order`
spends its time in two inner loops — reachability closure over the
precedence DAG and the coherence (``wr``) / from-read (``fr``)
forced-edge rules.  This module provides two interchangeable
implementations of those loops:

* ``python`` — pure-python integer bitsets.  Adjacency, predecessor
  and reachability sets are arbitrary-precision ints (one bit per
  operation), steps are recorded into compact parallel arrays, and
  reason strings are never built unless a cycle or an export demands
  them.  Always available; it is both the fallback when numpy is not
  installed and the *differential oracle* the vectorized kernel is
  pinned against.
* ``numpy`` — the same algorithms over packed ``uint64`` bitset
  matrices (``n x ceil(n/64)``), with the per-pair rule application,
  bit unpacking and reachability accumulation vectorized.  Optional:
  ``pip install repro[fast]``.

The caller picks one per saturation from the instance
(:func:`repro.core.infer.infer_order`: numpy from
:data:`~repro.core.infer.NUMPY_MIN_FORCED` forced reads-from pairs up,
when it is installed).  The covered/front/tail read scan
(:func:`eliminate_scan`) has one implementation, over the columnar
view.

Equivalence contract: for the same instance both kernels derive the
*same* edges with the same rule attributions in the same per-round
batched order, report the same round count, find cycles with the same
extraction procedure, and rank the same forced write order — so
verdicts, certificates, hints and step logs are identical whichever
kernel ran, and ``tests/core/test_kernels.py`` can assert full
equality, not just verdict agreement.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from typing import Iterator, Sequence

from repro import obs

#: Step rule codes (the wire order of RULE_NAMES is load-bearing:
#: certificates store the names, columnar step arrays store the codes).
RULE_PO, RULE_RF, RULE_INIT, RULE_FIN, RULE_FINR, RULE_WR, RULE_FR = range(7)
RULE_NAMES = ("po", "rf", "init", "fin", "finr", "wr", "fr")

#: One recorded derivation step over flat node ids:
#: ``(u, v, rule_code, aux_w, aux_r)`` — aux is the forced reads-from
#: pair for wr/fr closure steps, ``-1`` otherwise.
StepRow = tuple[int, int, int, int, int]


# ---------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------
def _find_cycle_masks(succ: Sequence[int], n: int) -> list[int]:
    """One directed cycle in a graph given as successor bitmasks.

    Iterative coloring DFS visiting successors in ascending node order;
    both backends funnel cycle extraction through this function so they
    report the *same* cycle for the same graph.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    parent = [-1] * n
    for start in range(n):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, succ[start])]
        color[start] = GRAY
        while stack:
            u, remaining = stack[-1]
            if remaining:
                b = remaining & -remaining
                stack[-1] = (u, remaining ^ b)
                v = b.bit_length() - 1
                if color[v] == WHITE:
                    color[v] = GRAY
                    parent[v] = u
                    stack.append((v, succ[v]))
                elif color[v] == GRAY:
                    cycle = [u]
                    w = u
                    while w != v:
                        w = parent[w]
                        cycle.append(w)
                    cycle.reverse()
                    return cycle
            else:
                color[u] = BLACK
                stack.pop()
    return []


# ---------------------------------------------------------------------
# Read-elimination scan
# ---------------------------------------------------------------------
class EliminationScan:
    """Raw outcome of the covered/front/tail read scan over one
    execution, in flat (process-major) positions.

    ``eliminated[i]`` is a flat position removed by the covered/front
    rules, ``anchors[i]`` the flat position it re-inserts after (``-1``
    = front of the schedule); ``tails`` are positions moved to the very
    end.  ``eliminated`` and ``tails`` ascend; ``anchors`` is parallel
    to ``eliminated``.
    """

    __slots__ = ("eliminated", "anchors", "tails")

    def __init__(
        self,
        eliminated: Sequence[int],
        anchors: Sequence[int],
        tails: Sequence[int],
    ):
        self.eliminated = eliminated
        self.anchors = anchors
        self.tails = tails

    @property
    def total(self) -> int:
        return len(self.eliminated) + len(self.tails)


def eliminate_scan(view) -> EliminationScan | None:
    """Covered/front/tail read decisions over the columnar view.

    Mirrors the object-model walk rule for rule: a READ is covered
    when its immediate program-order predecessor touches the same
    address and determines its value; a leading READ of the initial
    value goes to the front; a surviving trailing READ of the
    required final value goes to the tail.  Returns None when
    nothing is eliminated.
    """
    from repro.core.columnar import KIND_CODES
    from repro.core.types import OpKind

    READ = KIND_CODES[OpKind.READ]
    kinds = view.kinds
    addr_ids = view.addr_ids
    rv = view.read_vids
    wv = view.write_vids
    initial_ids = view.initial_ids
    final_ids = view.final_ids
    values = view.values

    eliminated: list[int] = []
    anchors: list[int] = []
    tails: list[int] = []
    for p in range(view.n_procs):
        start = view.proc_offsets[p]
        stop = view.proc_offsets[p + 1]
        prev_anchor = -2  # -2 = no predecessor; -1 = front
        last_survivor = -2
        for i in range(start, stop):
            anchor = -2
            if kinds[i] == READ:
                if i > start:
                    # Determined value of the immediate predecessor:
                    # written value if it writes, read value if it
                    # is a READ (sync ops determine nothing, but
                    # sync disables elimination upstream).
                    det = wv[i - 1] if wv[i - 1] >= 0 else (
                        rv[i - 1] if kinds[i - 1] == READ else -2
                    )
                    if addr_ids[i - 1] == addr_ids[i] and det == rv[i]:
                        anchor = prev_anchor
                elif rv[i] == initial_ids[addr_ids[i]]:
                    anchor = -1
            if anchor == -2:
                last_survivor = i
                prev_anchor = i
            else:
                eliminated.append(i)
                anchors.append(anchor)
                prev_anchor = anchor
        if last_survivor == stop - 1 and stop > start:
            i = last_survivor
            fi = final_ids[addr_ids[i]]
            if (
                kinds[i] == READ
                and fi >= 0
                and values[fi] is not None
                and rv[i] == fi
            ):
                tails.append(i)
    if not eliminated and not tails:
        return None
    return EliminationScan(eliminated, anchors, tails)


# ---------------------------------------------------------------------
# Pure-python kernel (fallback + oracle)
# ---------------------------------------------------------------------
class PythonSaturation:
    """Happens-before saturation state over int-bitset adjacency.

    ``succ[u]``/``pred[v]`` are bitmasks; every accepted edge is
    appended to the parallel step arrays.  Reason strings are *not*
    produced here — callers materialize them lazily from the step rows.
    """

    __slots__ = (
        "n", "succ", "pred", "rounds", "reach",
        "step_u", "step_v", "step_rule", "step_aux_w", "step_aux_r",
        "non_po_edges",
    )

    def __init__(self, n: int):
        self.n = n
        self.succ = [0] * n
        self.pred = [0] * n
        self.rounds = 0
        #: Forward reachability bitsets from the final closure round.
        self.reach: list[int] | None = None
        self.step_u = array("I")
        self.step_v = array("I")
        self.step_rule = array("B")
        self.step_aux_w = array("i")
        self.step_aux_r = array("i")
        self.non_po_edges = 0

    def add(
        self, u: int, v: int, rule: int, aux_w: int = -1, aux_r: int = -1,
        force_step: bool = False,
    ) -> bool:
        """Insert edge ``u -> v`` and record its derivation; False when
        it is a self-loop or already present.

        ``force_step`` records the derivation even for an existing edge
        — needed for ``rf`` steps shadowed by program order: closure
        steps cite the reads-from *pair*, and the certificate checker
        only accepts pairs whose own ``rf`` step appears in the log.
        """
        if u == v:
            return False
        bit = 1 << v
        if self.succ[u] & bit:
            if force_step:
                self.step_u.append(u)
                self.step_v.append(v)
                self.step_rule.append(rule)
                self.step_aux_w.append(aux_w)
                self.step_aux_r.append(aux_r)
                if rule != RULE_PO:
                    self.non_po_edges += 1
            return False
        self.succ[u] |= bit
        self.pred[v] |= 1 << u
        self.step_u.append(u)
        self.step_v.append(v)
        self.step_rule.append(rule)
        self.step_aux_w.append(aux_w)
        self.step_aux_r.append(aux_r)
        if rule != RULE_PO:
            self.non_po_edges += 1
        return True

    def grow(self, m: int) -> None:
        """Add ``m`` fresh isolated nodes (ids ``n .. n+m-1``).

        The incremental streaming path appends operations to a live
        saturation instead of rebuilding it; existing edges, step logs
        and ids are untouched.  Invalidates ``reach`` — re-run
        :meth:`saturate` before querying the closure.
        """
        if m <= 0:
            return
        self.succ.extend([0] * m)
        self.pred.extend([0] * m)
        self.n += m
        self.reach = None

    @property
    def edge_count(self) -> int:
        return len(self.step_u)

    def steps(self) -> Iterator[StepRow]:
        return zip(
            self.step_u, self.step_v, self.step_rule,
            self.step_aux_w, self.step_aux_r,
        )

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.succ[u] >> v & 1)

    # -- closure ----------------------------------------------------------
    def _toposort(self) -> list[int] | None:
        """Topological order, or None when the graph has a cycle."""
        succ = self.succ
        indeg = [p.bit_count() for p in self.pred]
        stack = [u for u in range(self.n) if not indeg[u]]
        order: list[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            m = succ[u]
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                indeg[v] -= 1
                if not indeg[v]:
                    stack.append(v)
        return order if len(order) == self.n else None

    def _closure(self, order: list[int]) -> list[int]:
        """Forward reachability bitsets (reverse topological sweep)."""
        reach = [0] * self.n
        succ = self.succ
        for u in reversed(order):
            m = succ[u]
            acc = 0
            while m:
                b = m & -m
                m ^= b
                acc |= reach[b.bit_length() - 1]
            reach[u] = acc | succ[u]
        return reach

    def _rclosure(self, order: list[int]) -> list[int]:
        """Backward reachability bitsets (forward topological sweep)."""
        rreach = [0] * self.n
        pred = self.pred
        for u in order:
            m = pred[u]
            acc = 0
            while m:
                b = m & -m
                m ^= b
                acc |= rreach[b.bit_length() - 1]
            rreach[u] = acc | pred[u]
        return rreach

    # -- the saturation loop ----------------------------------------------
    def saturate(
        self,
        forced_rf: Sequence[tuple[int, int]],
        writes: Sequence[int],
    ) -> list[int] | None:
        """Apply the wr/fr closure rules to fixpoint.

        Returns a cycle (node list) when the necessary edges become
        cyclic, else None; ``self.reach`` then holds the final closure.
        Per round, per forced pair ``w -> r``: every write that reaches
        ``r`` must precede ``w`` (wr), every write ``w`` reaches must
        follow ``r`` (fr) — batched as bitset candidate masks, wr before
        fr, ascending node order within each batch.
        """
        wmask = 0
        for w in writes:
            wmask |= 1 << w
        while True:
            self.rounds += 1
            order = self._toposort()
            if order is None:
                return _find_cycle_masks(self.succ, self.n)
            reach = self._closure(order)
            self.reach = reach
            if not forced_rf:
                return None
            rreach = self._rclosure(order)
            changed = False
            for w, r in forced_rf:
                excl = ~((1 << w) | (1 << r))
                cand = rreach[r] & wmask & ~self.pred[w] & excl
                while cand:
                    b = cand & -cand
                    cand ^= b
                    changed |= self.add(
                        b.bit_length() - 1, w, RULE_WR, w, r
                    )
                cand = reach[w] & wmask & ~self.succ[r] & excl
                while cand:
                    b = cand & -cand
                    cand ^= b
                    changed |= self.add(
                        r, b.bit_length() - 1, RULE_FR, w, r
                    )
            if not changed:
                return None

    # -- forced write order ----------------------------------------------
    def write_order(self, writes: Sequence[int]) -> list[int] | None:
        """The forced total order over ``writes``, or None when the
        closure leaves any pair unordered.  Writes are ranked by how
        many other writes they reach; the ranking is a total order iff
        consecutive ranks are actually connected."""
        if len(writes) <= 1:
            return list(writes)
        reach = self.reach
        assert reach is not None, "saturate() must run first"
        wmask = 0
        for w in writes:
            wmask |= 1 << w
        ranked = sorted(
            writes, key=lambda w: -(reach[w] & wmask).bit_count()
        )
        if all(
            reach[a] >> b & 1 for a, b in zip(ranked, ranked[1:])
        ):
            return ranked
        return None


class PythonKernel:
    """Int-bitset data plane: always available, also the oracle."""

    name = "python"

    @staticmethod
    def is_available() -> bool:
        return True

    def saturation(self, n: int) -> PythonSaturation:
        return PythonSaturation(n)


# ---------------------------------------------------------------------
# numpy kernel (optional, vectorized)
# ---------------------------------------------------------------------
class NumpySaturation:
    """The same saturation over packed uint64 bitset matrices.

    Adjacency/predecessor/reachability are ``(n, ceil(n/64))`` uint64
    matrices; candidate masks, edge scatter, bit unpacking and the
    reachability accumulation are numpy operations, with python loops
    only over nodes and forced pairs — never over individual edges.
    Steps are recorded as chunks (one per batch) and flattened lazily.
    """

    __slots__ = (
        "np", "n", "W", "succ", "pred", "rounds", "reach",
        "_chunks", "_edge_count", "non_po_edges",
    )

    def __init__(self, n: int, np_module):
        np = np_module
        self.np = np
        self.n = n
        self.W = max(1, (n + 63) >> 6)
        self.succ = np.zeros((n, self.W), dtype=np.uint64)
        self.pred = np.zeros((n, self.W), dtype=np.uint64)
        self.rounds = 0
        self.reach = None
        #: Step chunks: (u_array, v_array, rule, aux_w, aux_r) — scalar
        #: adds append 1-element chunks coalesced into python lists.
        self._chunks: list[tuple] = []
        self._edge_count = 0
        self.non_po_edges = 0

    def add(
        self, u: int, v: int, rule: int, aux_w: int = -1, aux_r: int = -1,
        force_step: bool = False,
    ) -> bool:
        if u == v:
            return False
        np = self.np
        vw, vb = v >> 6, np.uint64(1 << (v & 63))
        if self.succ[u, vw] & vb:
            if force_step:
                # Same contract as the python kernel: an rf step
                # shadowed by an existing edge still enters the log so
                # closure steps can cite its pair.
                self._chunks.append(((u,), (v,), rule, aux_w, aux_r))
                self._edge_count += 1
                if rule != RULE_PO:
                    self.non_po_edges += 1
            return False
        self.succ[u, vw] |= vb
        self.pred[v, u >> 6] |= np.uint64(1 << (u & 63))
        self._chunks.append(((u,), (v,), rule, aux_w, aux_r))
        self._edge_count += 1
        if rule != RULE_PO:
            self.non_po_edges += 1
        return True

    def grow(self, m: int) -> None:
        """Add ``m`` fresh isolated nodes — same contract as the python
        kernel: pads the packed matrices (both rows and, when the new
        size crosses a 64-bit word boundary, columns) and invalidates
        ``reach``."""
        if m <= 0:
            return
        np = self.np
        n2 = self.n + m
        W2 = max(1, (n2 + 63) >> 6)
        for attr in ("succ", "pred"):
            old = getattr(self, attr)
            new = np.zeros((n2, W2), dtype=np.uint64)
            new[: self.n, : self.W] = old
            setattr(self, attr, new)
        self.n = n2
        self.W = W2
        self.reach = None

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def steps(self) -> Iterator[StepRow]:
        for us, vs, rule, aux_w, aux_r in self._chunks:
            for u, v in zip(us, vs):
                yield (int(u), int(v), rule, aux_w, aux_r)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.succ[u, v >> 6] >> self.np.uint64(v & 63) & 1)

    # -- packed helpers ---------------------------------------------------
    def _unpack_csr(self, matrix):
        """CSR (offsets, cols) adjacency from a packed bit matrix."""
        np = self.np
        bits = np.unpackbits(
            matrix.view(np.uint8), bitorder="little"
        ).reshape(self.n, self.W * 64)[:, : self.n]
        counts = bits.sum(axis=1, dtype=np.int64)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cols = np.nonzero(bits)[1].astype(np.int64)
        return offsets, cols

    def _bit_indices(self, mask) -> "list[int]":
        """Ascending set-bit positions of one packed row vector."""
        np = self.np
        bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
        return np.nonzero(bits)[0]

    def _toposort(self):
        """Topological order (int64 array), or None on a cycle; also
        returns the successor CSR so the closure can reuse it."""
        np = self.np
        offsets, cols = self._unpack_csr(self.succ)
        indeg = np.bitwise_count(self.pred).sum(axis=1, dtype=np.int64)
        order = np.empty(self.n, dtype=np.int64)
        stack = np.nonzero(indeg == 0)[0].tolist()
        k = 0
        while stack:
            u = stack.pop()
            order[k] = u
            k += 1
            cs = cols[offsets[u]:offsets[u + 1]]
            if len(cs):
                indeg[cs] -= 1
                stack.extend(cs[indeg[cs] == 0].tolist())
        if k != self.n:
            return None, offsets, cols
        return order, offsets, cols

    def _closure_packed(self, order, offsets, cols, adjacency):
        """Reachability matrix: sweep ``order``, OR-reducing successor
        rows (`adjacency` = packed succ for forward reach over a
        reversed order, packed pred for backward reach in order)."""
        np = self.np
        reach = np.zeros_like(adjacency)
        for u in order:
            cs = cols[offsets[u]:offsets[u + 1]]
            if len(cs):
                row = np.bitwise_or.reduce(reach[cs], axis=0)
                reach[u] = row | adjacency[u]
            else:
                reach[u] = adjacency[u]
        return reach

    def saturate(self, forced_rf, writes):
        np = self.np
        wmask = np.zeros(self.W, dtype=np.uint64)
        for w in writes:
            wmask[w >> 6] |= np.uint64(1 << (w & 63))
        while True:
            self.rounds += 1
            order, soff, scols = self._toposort()
            if order is None:
                return _find_cycle_masks(self._succ_masks(), self.n)
            reach = self._closure_packed(order[::-1], soff, scols, self.succ)
            self.reach = reach
            if not forced_rf:
                return None
            poff, pcols = self._unpack_csr(self.pred)
            rreach = self._closure_packed(order, poff, pcols, self.pred)
            changed = False
            for w, r in forced_rf:
                bw_w, bw_b = w >> 6, np.uint64(1 << (w & 63))
                br_w, br_b = r >> 6, np.uint64(1 << (r & 63))
                # wr: writes reaching r, minus existing pred of w, minus
                # the pair itself — then scatter the new edges w2 -> w.
                cand = rreach[r] & wmask & ~self.pred[w]
                cand[bw_w] &= ~bw_b
                cand[br_w] &= ~br_b
                if cand.any():
                    w2s = self._bit_indices(cand)
                    self.succ[w2s, bw_w] |= bw_b
                    self.pred[w] |= cand
                    self._chunks.append((w2s, _Const(w), RULE_WR, w, r))
                    self._edge_count += len(w2s)
                    self.non_po_edges += len(w2s)
                    changed = True
                # fr: writes reached from w, minus existing succ of r.
                cand = reach[w] & wmask & ~self.succ[r]
                cand[bw_w] &= ~bw_b
                cand[br_w] &= ~br_b
                if cand.any():
                    w2s = self._bit_indices(cand)
                    self.succ[r] |= cand
                    self.pred[w2s, br_w] |= br_b
                    self._chunks.append((_Const(r), w2s, RULE_FR, w, r))
                    self._edge_count += len(w2s)
                    self.non_po_edges += len(w2s)
                    changed = True
            if not changed:
                return None

    def _succ_masks(self) -> list[int]:
        """Successor bitmasks as python ints (cycle extraction only)."""
        data = self.succ.tobytes()
        stride = self.W * 8
        return [
            int.from_bytes(data[i * stride:(i + 1) * stride], "little")
            for i in range(self.n)
        ]

    def write_order(self, writes):
        if len(writes) <= 1:
            return list(writes)
        np = self.np
        reach = self.reach
        wmask = np.zeros(self.W, dtype=np.uint64)
        for w in writes:
            wmask[w >> 6] |= np.uint64(1 << (w & 63))
        w_idx = np.asarray(list(writes), dtype=np.int64)
        counts = np.bitwise_count(reach[w_idx] & wmask).sum(
            axis=1, dtype=np.int64
        )
        # Stable sort on negated counts == python's sorted(key=-count).
        ranked = w_idx[np.argsort(-counts, kind="stable")].tolist()
        for a, b in zip(ranked, ranked[1:]):
            if not (reach[a, b >> 6] >> np.uint64(b & 63)) & np.uint64(1):
                return None
        return ranked


class _Const:
    """A scalar masquerading as a same-length sequence in a step chunk."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __iter__(self):  # zip() stops at the paired array's length
        while True:
            yield self.value


class NumpyKernel:
    """Vectorized data plane over numpy packed-uint64 matrices."""

    name = "numpy"

    def __init__(self):
        import numpy

        self.np = numpy

    @staticmethod
    @cache
    def is_available() -> bool:
        if sys.byteorder != "little":  # packed views assume LE layout
            return False
        try:
            import numpy  # noqa: F401
        except ImportError:
            return False
        return True

    def saturation(self, n: int) -> NumpySaturation:
        return NumpySaturation(n, self.np)


# ---------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------
_KERNELS = {"python": PythonKernel, "numpy": NumpyKernel}
_INSTANCES: dict[str, object] = {}


def available_backends() -> list[str]:
    """Names of the kernels that can run here."""
    return [name for name, cls in _KERNELS.items() if cls.is_available()]


def backend(name: str | None = None):
    """The kernel named ``name`` (default: numpy when importable,
    python otherwise); one instance per name.

    The run record open on the calling thread (:mod:`repro.obs`) is
    labelled ``kernel=<name>`` here, where a kernel is about to run, so
    a run names every kernel it used and a run that uses none neither
    names nor probes one.
    """
    if name is None:
        name = "numpy" if NumpyKernel.is_available() else "python"
    cls = _KERNELS.get(name)
    if cls is None or not cls.is_available():
        raise ValueError(
            f"kernel {name!r} cannot run here; available: "
            f"{available_backends()} (numpy needs `pip install repro[fast]`)"
        )
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = cls()
    rec = obs.current()
    if rec is not None:
        rec.label("kernel", name)
    return inst
