"""Small directed-graph helpers shared by the HTG, scheduling and WCET layers.

Standard library only.  :class:`Reachability` is the package's single
transitive-closure mechanism: one Python-int bitset of descendants and one of
ancestors per node, so "is ``u`` ordered before ``v``" is one shift-and-mask
and "which of these tasks are ordered with ``u``" is one ``&``.  The other
helpers cover topological order, acyclicity and the node/edge-weighted DAG
longest path.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Generic, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)


def _indexed(
    nodes: Iterable[N], edges: Iterable[tuple[N, N]]
) -> tuple[list[N], dict[N, int], list[list[int]]]:
    """Nodes in first-seen order (``nodes``, then edge endpoints), their
    indexes, and successor lists in edge order (a duplicate edge repeats)."""
    order: list[N] = []
    index: dict[N, int] = {}
    for node in nodes:
        if node not in index:
            index[node] = len(order)
            order.append(node)
    succ: list[list[int]] = [[] for _ in order]
    for u, v in edges:
        for node in (u, v):
            if node not in index:
                index[node] = len(order)
                order.append(node)
                succ.append([])
        succ[index[u]].append(index[v])
    return order, index, succ


def _kahn(succ: list[list[int]]) -> list[int] | None:
    """Some topological order of node indexes, or ``None`` on a cycle."""
    indegree = [0] * len(succ)
    for children in succ:
        for v in children:
            indegree[v] += 1
    ready = deque(i for i, d in enumerate(indegree) if d == 0)
    topo: list[int] = []
    while ready:
        u = ready.popleft()
        topo.append(u)
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return topo if len(topo) == len(succ) else None


def _bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Reachability(Generic[N]):
    """Descendant and ancestor bitsets of every node of a DAG.

    Node ``nodes[i]`` owns bit ``1 << i``; the order is ``nodes`` as given
    (duplicates dropped) followed by edge endpoints not listed there, so a
    caller that lists the nodes it will query first gets masks it can
    compare against its own positions directly.  Built in one Kahn pass:
    descendants in reverse topological order, ancestors in topological
    order.  A cycle raises :class:`ValueError`.  Treat instances as
    immutable.
    """

    __slots__ = ("nodes", "index", "_descendants", "_ancestors")

    def __init__(
        self, nodes: Iterable[N], edges: Iterable[tuple[N, N]]
    ) -> None:
        order, index, succ = _indexed(nodes, edges)
        topo = _kahn(succ)
        if topo is None:
            raise ValueError("graph contains a cycle; reachability needs a DAG")
        descendants = [0] * len(order)
        for u in reversed(topo):
            mask = 0
            for v in succ[u]:
                mask |= (1 << v) | descendants[v]
            descendants[u] = mask
        ancestors = [0] * len(order)
        for u in topo:
            bit = 1 << u
            for v in succ[u]:
                ancestors[v] |= bit | ancestors[u]
        self.nodes: tuple[N, ...] = tuple(order)
        self.index: dict[N, int] = index
        self._descendants = descendants
        self._ancestors = ancestors

    def bit(self, node: N) -> int:
        return 1 << self.index[node]

    def mask(self, nodes: Iterable[N]) -> int:
        """Bitset of ``nodes``."""
        index = self.index
        out = 0
        for node in nodes:
            out |= 1 << index[node]
        return out

    def descendants(self, node: N) -> int:
        """Bitset of the nodes reachable from ``node`` by one or more edges."""
        return self._descendants[self.index[node]]

    def ancestors(self, node: N) -> int:
        """Bitset of the nodes that reach ``node`` by one or more edges."""
        return self._ancestors[self.index[node]]

    def related(self, node: N) -> int:
        """Bitset of the nodes ordered with ``node`` in either direction."""
        i = self.index[node]
        return self._descendants[i] | self._ancestors[i]

    def reaches(self, u: N, v: N) -> bool:
        """True when ``v`` is reachable from ``u`` by one or more edges."""
        return bool(self._descendants[self.index[u]] >> self.index[v] & 1)

    def members(self, mask: int) -> list[N]:
        """The nodes of ``mask`` in bit order."""
        nodes = self.nodes
        return [nodes[i] for i in _bit_indices(mask)]

    def first_misordered(self, sequence: Sequence[N]) -> tuple[N, N] | None:
        """First ``(a, b)`` with ``b`` after ``a`` in ``sequence`` and ``b`` an
        ancestor of ``a``, in ``(position of a, position of b)`` order.

        This is the first misordered pair of a per-core task order.  Nodes
        unknown to the graph are never ordered with anything.
        """
        index = self.index
        bits = [1 << index[n] if n in index else 0 for n in sequence]
        later = [0] * (len(sequence) + 1)
        for i in range(len(sequence) - 1, -1, -1):
            later[i] = later[i + 1] | bits[i]
        for i, a in enumerate(sequence):
            if a not in index:
                continue
            hit = self._ancestors[index[a]] & later[i + 1]
            if hit:
                for b in sequence[i + 1:]:
                    if b in index and hit >> index[b] & 1:
                        return a, b
        return None


def is_acyclic(edges: Iterable[tuple[Hashable, Hashable]], nodes: Iterable[Hashable] = ()) -> bool:
    """Return True when the directed graph defined by ``edges`` has no cycle."""
    return _kahn(_indexed(nodes, edges)[2]) is not None


def topological_order(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[Hashable]:
    """Deterministic topological order (lexicographic tie-break on ``str``).

    Among the ready nodes the smallest ``str(node)`` goes first, ties broken
    by first-seen order (``nodes``, then edge endpoints).  Emitted C depends
    on this order, so it must not change.
    """
    order, _, succ = _indexed(nodes, edges)
    indegree = [0] * len(order)
    for children in succ:
        for v in children:
            indegree[v] += 1
    ready = [(str(order[i]), i) for i, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    out: list[Hashable] = []
    while ready:
        _, u = heapq.heappop(ready)
        out.append(order[u])
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heapq.heappush(ready, (str(order[v]), v))
    if len(out) != len(order):
        raise ValueError("graph contains a cycle; no topological order exists")
    return out


def longest_path_length(
    nodes: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    node_weight: Callable[[Hashable], float] | Mapping[Hashable, float],
    edge_weight: Callable[[Hashable, Hashable], float] | None = None,
) -> float:
    """Length of the heaviest path in a DAG, counting node and edge weights.

    This is the critical-path length used both as a scheduling lower bound and
    by the structural WCET computation over task graphs.
    """
    if isinstance(node_weight, Mapping):
        weights = node_weight
        node_weight_fn = lambda n: float(weights.get(n, 0.0))  # noqa: E731
    else:
        node_weight_fn = node_weight
    edge_weight_fn = edge_weight or (lambda u, v: 0.0)

    edges = list(edges)
    order = topological_order(nodes, edges)
    preds: dict[Hashable, list[Hashable]] = {node: [] for node in order}
    for u, v in edges:
        preds[v].append(u)

    finish: dict[Hashable, float] = {}
    best = 0.0
    for node in order:
        start = 0.0
        for pred in preds[node]:
            start = max(start, finish[pred] + edge_weight_fn(pred, node))
        finish[node] = start + float(node_weight_fn(node))
        best = max(best, finish[node])
    return best
