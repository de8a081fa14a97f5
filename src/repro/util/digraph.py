"""A small, fast directed-graph type with the operations the verifiers need.

Nodes are dense integers ``0..n-1``.  The verifiers use this for
precedence graphs over memory operations: program-order edges,
reads-from edges, and block-order edges.  Only the operations actually
needed are provided: edge insertion, Kahn topological sort, cycle
extraction (for counterexample reporting), and reachability.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator


class CycleError(ValueError):
    """Raised when a topological order is requested of a cyclic graph.

    The offending cycle (a list of node ids, each with an edge to the
    next and the last back to the first) is available as ``.cycle``.
    """

    def __init__(self, cycle: list[int]):
        super().__init__(f"graph contains a cycle through nodes {cycle}")
        self.cycle = cycle


def kahn(succ: list[list[int]], indeg: list[int]) -> list[int]:
    """Kahn's algorithm over plain successor lists: ready nodes leave in
    FIFO order, starting from the sources in ascending order.
    ``indeg`` (distinct predecessors per node) is consumed.  Raises
    :class:`CycleError` on a cycle."""
    ready = deque(u for u, d in enumerate(indeg) if d == 0)
    order: list[int] = []
    while ready:
        u = ready.popleft()
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(order) != len(succ):
        raise CycleError(find_cycle(succ))
    return order


def find_cycle(succ: list[list[int]]) -> list[int]:
    """One directed cycle of the graph with successor lists ``succ``, as
    a node list (empty if acyclic): the first one an iterative DFS from
    the nodes in ascending order closes."""
    WHITE, GRAY, BLACK = 0, 1, 2
    n = len(succ)
    color = [WHITE] * n
    parent = [-1] * n
    for start in range(n):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            u, i = stack[-1]
            if i < len(succ[u]):
                stack[-1] = (u, i + 1)
                v = succ[u][i]
                if color[v] == WHITE:
                    color[v] = GRAY
                    parent[v] = u
                    stack.append((v, 0))
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


class Digraph:
    """Directed graph over dense integer nodes ``0..n-1``.

    Parallel edges are tolerated on insertion but collapsed for
    traversal purposes (in-degrees count distinct predecessors).
    """

    __slots__ = ("n", "_succ", "_pred_count", "_edge_set")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n
        self._succ: list[list[int]] = [[] for _ in range(n)]
        self._pred_count = [0] * n
        self._edge_set: set[int] = set()

    def _key(self, u: int, v: int) -> int:
        return u * self.n + v

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``u -> v``; return True if it was new."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"edge ({u}, {v}) out of range for {self.n} nodes")
        k = self._key(u, v)
        if k in self._edge_set:
            return False
        self._edge_set.add(k)
        self._succ[u].append(v)
        self._pred_count[v] += 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return self._key(u, v) in self._edge_set

    def successors(self, u: int) -> Iterable[int]:
        return self._succ[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._succ[u]:
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return len(self._edge_set)

    def topological_order(self, tie_break: list[int] | None = None) -> list[int]:
        """Kahn's algorithm.  Raises :class:`CycleError` on a cycle.

        ``tie_break`` optionally assigns a priority per node; among ready
        nodes the one with the smallest priority is emitted first (used
        to produce deterministic, human-readable witness schedules).
        """
        indeg = list(self._pred_count)
        if tie_break is None:
            return kahn(self._succ, indeg)
        import heapq

        heap = [(tie_break[u], u) for u in range(self.n) if indeg[u] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)[1]
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, (tie_break[v], v))
        if len(order) != self.n:
            raise CycleError(self.find_cycle())
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except CycleError:
            return False

    def find_cycle(self) -> list[int]:
        """Return one directed cycle, as a node list (empty if acyclic)."""
        return find_cycle(self._succ)

    def reachable_from(self, sources: Iterable[int]) -> set[int]:
        """Set of nodes reachable from any of ``sources`` (inclusive)."""
        seen: set[int] = set()
        stack = list(sources)
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(v for v in self._succ[u] if v not in seen)
        return seen

    def transitive_closure_matrix(self) -> list[set[int]]:
        """Per-node reachability sets (O(n * edges); for small graphs)."""
        try:
            order = self.topological_order()
        except CycleError:
            # Fall back to per-node BFS for cyclic graphs.
            return [self.reachable_from([u]) - {u} for u in range(self.n)]
        reach: list[set[int]] = [set() for _ in range(self.n)]
        for u in reversed(order):
            acc: set[int] = set()
            for v in self._succ[u]:
                acc.add(v)
                acc |= reach[v]
            reach[u] = acc
        return reach
