"""Dominating-set variants: verifiers, an exhaustive oracle, greedy baselines.

Three nested notions over an undirected graph:

* dominating set (DS): every vertex is in the set or adjacent to it;
* weakly connected dominating set (WCDS): additionally, the subgraph with
  vertex set N[S] and every graph edge that has at least one endpoint in S
  is connected;
* connected dominating set (CDS): additionally, the subgraph induced by S
  alone is connected.

Every CDS of a connected graph is a WCDS, and every WCDS is a DS, so
minimum sizes satisfy |DS| <= |WCDS| <= |CDS|.

All functions take any graph object with an integer field `n` and a method
`neighbors(i) -> set of int` (both `udg.UnitDiskGraph` and the fixture
helper `AdjacencyGraph` below qualify).  Like the greedy builders, which
work on an adjacency plus a vertex set, the verifier `classify` takes a
graph plus a vertex set V and judges the subgraph induced by V in place,
without copying or relabelling it; `is_dominating`, `is_cds` and `is_wcds`
are its three verdicts over the whole graph.

The greedy baselines (Guha & Khuller, "Approximation algorithms for
connected dominating sets", 1998) keep each vertex's gain, the number of
still-uncovered vertices in its closed neighbourhood, up to date: covering
u lowers the gain of every vertex in N[u] by one, which costs O(n + m) over
a whole run on a graph with m edges.  The next vertex comes from a lazy
max-heap on (-gain, id), as in Minoux's accelerated greedy: gains only
fall, so a popped entry whose gain is stale is pushed back with its current
gain, and the first current entry popped is the largest gain with the
smallest id, the same tie-break as a full scan in id order.  Each stale pop
follows a gain decrease, so selection makes O(n + m) heap operations of
O(log n) each instead of rescanning every candidate at every step.  Greedy
II's second phase picks each joining path from two more lazy heaps over the
vertices next to its growing base fragment, which gives the path a
breadth-first search from that fragment would find, without the search:
O(m log n) for the whole phase instead of a search per path.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

VertexSet = frozenset[int]

# Subset enumeration is exponential; refuse graphs where 2^n is unreasonable.
EXHAUSTIVE_NODE_LIMIT = 20


class SetKind(Enum):
    DS = "DS"
    CDS = "CDS"
    WCDS = "WCDS"


class GreedyVariant(Enum):
    I = "I"
    II = "II"


class AdjacencyGraph:
    """Minimal undirected graph for hand-built fixtures (paths, cycles, stars)."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError("self loops not allowed")
            self._adj[u].add(v)
            self._adj[v].add(u)

    def neighbors(self, i: int) -> set[int]:
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range for graph with n={self.n}")
        return self._adj[i]

    @classmethod
    def path(cls, n: int) -> "AdjacencyGraph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "AdjacencyGraph":
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, leaves: int) -> "AdjacencyGraph":
        """K(1,leaves) with the center at node 0."""
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@dataclass(frozen=True)
class DomsetReport:
    """Classification of one vertex set against all three verifiers."""

    set_size: int
    is_dominating: bool
    is_cds: bool
    is_wcds: bool


def _check_members(g, s: Iterable[int]) -> frozenset[int]:
    members = frozenset(s)
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not a valid node id (n={g.n})")
    return members


def _reach(start: int, step) -> set[int]:
    # Vertices reachable from start, where step(v) gives v's neighbours.
    seen = {start}
    stack = [start]
    while stack:
        for w in step(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def classify(g, s: Iterable[int], within: Optional[Iterable[int]] = None) -> DomsetReport:
    """Classify s as a DS, CDS and WCDS of g over the vertex set `within`.

    Only the vertices V of `within` (every vertex of g when None) and the
    edges between them count, so a subgraph is judged in place.  Members of
    s must lie in V.  N[s] ∩ V is computed once: s dominates iff it is all
    of V, an empty V counts as dominated, and a dominating set of at most
    one vertex is connected in both senses.
    """
    members = _check_members(g, s)
    if within is None:
        size = g.n
    else:
        verts = _check_members(g, within)
        if not members <= verts:
            raise ValueError(f"vertices {sorted(members - verts)} lie outside `within`")
        size = len(verts)
    covered = set(members)
    for v in members:
        covered.update(g.neighbors(v))
    if within is not None:
        covered &= verts
    dom = len(covered) == size
    if not dom or len(members) <= 1:
        return DomsetReport(len(members), dom, dom, dom)
    lo = min(members)
    # CDS: the subgraph induced by s is connected.
    cds = len(_reach(lo, lambda v: g.neighbors(v) & members)) == len(members)
    # WCDS: N[s], here all of V, is connected by the edges that touch s.  A
    # CDS is one, since every vertex of V hangs off a connected s.
    wcds = cds or len(_reach(lo, lambda v: g.neighbors(v) & (
        covered if v in members else members))) == size
    return DomsetReport(len(members), dom, cds, wcds)


def is_dominating(g, s: Iterable[int]) -> bool:
    """True iff every vertex of g is in s or adjacent to a member of s."""
    return classify(g, s).is_dominating


def is_cds(g, s: Iterable[int]) -> bool:
    """True iff s dominates g and the subgraph induced by s is connected."""
    return classify(g, s).is_cds


def is_wcds(g, s: Iterable[int]) -> bool:
    """True iff s dominates g and the weakly induced subgraph is connected.

    The weakly induced subgraph has vertex set N[s] (members plus all their
    neighbors) and every edge of g with at least one endpoint in s.
    """
    return classify(g, s).is_wcds


def star_of(g, v: int) -> VertexSet:
    """Closed neighborhood of v: the vertex itself plus everything adjacent."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not a valid node id (n={g.n})")
    return frozenset(g.neighbors(v)) | {v}


_VERIFIERS = {
    SetKind.DS: is_dominating,
    SetKind.CDS: is_cds,
    SetKind.WCDS: is_wcds,
}


def min_set_exhaustive(g, kind: SetKind) -> Optional[VertexSet]:
    """Minimum-cardinality set of the requested kind, by subset enumeration.

    Subsets are enumerated in increasing cardinality and, within one
    cardinality, in lexicographic member order, so the first hit is both
    minimum-size and the lexicographically smallest winner.  Returns None
    when no valid set exists (CDS/WCDS on a disconnected graph).  Guarded
    to g.n <= EXHAUSTIVE_NODE_LIMIT; this is an oracle for desk-scale
    graphs, not an algorithm.
    """
    if g.n > EXHAUSTIVE_NODE_LIMIT:
        raise ValueError(
            f"exhaustive search limited to n <= {EXHAUSTIVE_NODE_LIMIT}, got n={g.n}")
    verifier = _VERIFIERS[kind]
    if g.n == 0:
        return frozenset()
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            s = frozenset(combo)
            if verifier(g, s):
                return s
    return None


def _cover(adj, v: int, covered: set[int], gain: dict[int, int]) -> None:
    # Cover N[v]; each newly covered u lowers the gain of every vertex in N[u].
    for u in (v, *adj[v]):
        if u not in covered:
            covered.add(u)
            gain[u] -= 1
            for w in adj[u]:
                gain[w] -= 1


def _pop_best(heap: list[tuple[int, int]], gain: dict[int, int]) -> int:
    # Lazy max-heap on (-gain, id): gains only fall, so a popped entry whose
    # gain is current beats every other entry, and a stale one goes back in.
    while True:
        neg, v = heapq.heappop(heap)
        if -neg == gain[v]:
            return v
        heapq.heappush(heap, (-gain[v], v))


def _greedy_variant_one(adj, nodes: set[int]) -> set[int]:
    # Grow a connected set from the highest-degree vertex; each step adds the
    # frontier vertex covering the most still-uncovered vertices.
    gain = {v: len(adj[v]) + 1 for v in nodes}
    v = max(nodes, key=lambda u: (gain[u], -u))
    chosen: set[int] = set()
    covered: set[int] = set()
    heap: list[tuple[int, int]] = []
    queued = {v}
    while True:
        chosen.add(v)
        _cover(adj, v, covered, gain)
        if len(covered) == len(nodes):
            return chosen
        for w in adj[v]:
            if w not in queued:
                queued.add(w)
                heapq.heappush(heap, (-gain[w], w))
        v = _pop_best(heap, gain)


def _greedy_variant_two(adj, nodes: set[int]) -> set[int]:
    # Phase 1: plain greedy dominating set (max uncovered coverage).
    gain = {v: len(adj[v]) + 1 for v in nodes}
    heap = [(-gain[v], v) for v in nodes]
    heapq.heapify(heap)
    chosen: set[int] = set()
    covered: set[int] = set()
    while len(covered) < len(nodes):
        v = _pop_best(heap, gain)
        chosen.add(v)
        _cover(adj, v, covered, gain)

    # Phase 2: join the fragments of the induced subgraph along shortest
    # paths in g, each time from the base fragment, the one holding
    # min(chosen), as a breadth-first search from it that visits smaller ids
    # first would.  Such a search enters another fragment through the first
    # vertex v next to the base, in order of (smallest base neighbour, id),
    # that has a chosen neighbour outside the base.  Failing that, since
    # chosen dominates g, it goes through the first such v with a neighbour
    # two steps from the base, and the smallest such neighbour x; the path
    # is [v] or [x, v].  Two lazy heaps in that order find v without the
    # search: the base and its neighbourhood only grow, so a vertex that
    # fails either test once fails it for good.
    lo = min(chosen)
    base = {lo}
    grow = [lo]
    near: dict[int, int] = {}  # vertex next to the base -> its smallest base neighbour
    one_step: list[tuple[int, int]] = []
    two_step: list[tuple[int, int]] = []
    while True:
        while grow:
            b = grow.pop()
            for w in adj[b]:
                if w in base:
                    continue
                if w in chosen:
                    base.add(w)
                    grow.append(w)
                elif w not in near or b < near[w]:
                    near[w] = b
                    heapq.heappush(one_step, (b, w))
                    heapq.heappush(two_step, (b, w))
        if len(base) == len(chosen):
            return chosen
        v = _first_near(one_step, near, base,
                        lambda v: any(w in chosen and w not in base for w in adj[v]))
        if v is not None:
            grow = [v]
        else:
            v = _first_near(two_step, near, base,
                            lambda v: any(w not in base and w not in near for w in adj[v]))
            grow = [v, min(w for w in adj[v] if w not in base and w not in near)]
        chosen.update(grow)
        base.update(grow)


def _first_near(heap: list[tuple[int, int]], near: dict[int, int], base: set[int],
                passes) -> Optional[int]:
    # The first current entry (near[v], v) with v outside the base that
    # passes the test; entries that do not are dropped for good.
    while heap:
        b, v = heap[0]
        if v not in base and near[v] == b and passes(v):
            return v
        heapq.heappop(heap)
    return None


def greedy_cds_baseline(g, variant: GreedyVariant) -> VertexSet:
    """Greedy connected-dominating-set heuristic, per connected component.

    These are documented stand-ins used for relative comparison only.
    Variant I grows a single connected set from the maximum-degree vertex,
    always adding the frontier vertex that covers the most uncovered
    vertices.  Variant II first builds a greedy dominating set, then joins
    its fragments along shortest paths.  All ties break toward the smaller
    node id.  On a disconnected graph the result is the per-component
    union, so is_cds holds on every component.
    """
    builder = _greedy_variant_one if variant is GreedyVariant.I else _greedy_variant_two
    adj = [g.neighbors(v) for v in range(g.n)]
    result: set[int] = set()
    seen: set[int] = set()
    for start in range(g.n):
        if start not in seen:
            comp = _reach(start, adj.__getitem__)
            seen |= comp
            result |= builder(adj, comp)
    return frozenset(result)
