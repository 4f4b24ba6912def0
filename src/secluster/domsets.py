"""Dominating-set variants: one verifier and the greedy baselines.

Three nested notions over an undirected graph:

* dominating set (DS): every vertex is in the set or adjacent to it;
* weakly connected dominating set (WCDS): additionally, the subgraph with
  vertex set N[S] and every graph edge that has at least one endpoint in S
  is connected;
* connected dominating set (CDS): additionally, the subgraph induced by S
  alone is connected.

Every CDS of a connected graph is a WCDS, and every WCDS is a DS, so
minimum sizes satisfy |DS| <= |WCDS| <= |CDS|.

All functions take any graph object with an integer `n` and `adjacency[v]`,
v's neighbour set, such as `udg.UnitDiskGraph`.  Like the greedy builders,
which work on an adjacency plus a vertex set, the verifier `classify`
takes a graph plus a vertex set V and judges the subgraph induced by V in
place, without copying or relabelling it.  Its connectivity checks walk
with `udg.walk`.  The baselines split the graph with
`udg.connected_components`, which a `UnitDiskGraph` computes once, so
greedy I and II share one split of each graph.

The greedy baselines (Guha & Khuller, "Approximation algorithms for
connected dominating sets", 1998) pick by gain, the number of
still-uncovered vertices in a closed neighbourhood.  Covering decrements no
gain: the next vertex comes from a lazy max-heap on (-gain, id), as in
Minoux's accelerated greedy, and the top's gain is recomputed on pop by one
set difference, `len(adj[v] - covered) + (v not in covered)`.  Gains only
fall, so a stored gain only overstates: a stale top goes back with its
recomputed gain, and the first current top is the largest gain with the
smallest id, the tie-break of a full scan in id order.  Greedy II's second
phase picks each joining path from two more lazy heaps over the vertices
next to its growing base fragment, testing each by set algebra on its
adjacency; this finds the path a breadth-first search from that fragment
would, in O(m log n) for the whole phase instead of a search per path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Optional

from .udg import connected_components, walk


class GreedyVariant(Enum):
    I = "I"
    II = "II"


@dataclass(frozen=True)
class DomsetReport:
    """Classification of one vertex set against all three verifiers."""

    is_dominating: bool
    is_cds: bool
    is_wcds: bool


def _check_members(g, s: Iterable[int]) -> frozenset[int]:
    members = frozenset(s)
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not a valid node id (n={g.n})")
    return members


class _EdgesTouching:
    # The edges of adj with an end in `members` and both ends in `verts`, as
    # neighbour sets for `walk`, each filtered only when the walk reads it:
    # a walk that stops at a small piece pays for that piece alone.
    __slots__ = ("adj", "members", "verts")

    def __init__(self, adj, members: frozenset[int], verts: Collection[int]):
        self.adj, self.members, self.verts = adj, members, verts

    def __getitem__(self, v: int) -> set[int]:
        return self.adj[v] & (self.verts if v in self.members else self.members)


def classify(g, s: Iterable[int], within: Iterable[int]) -> DomsetReport:
    """Classify s as a DS, CDS and WCDS of g over the vertex set `within`.

    Only the vertices V of `within` and the edges between them count, so a
    subgraph is judged in place; `range(g.n)` judges the whole graph.
    Members of s must lie in V.  N[s] ∩ V is computed once: s dominates iff
    it is all of V, an empty V counts as dominated, and a dominating set of
    at most one vertex is connected in both senses.
    """
    members = _check_members(g, s)
    verts = _check_members(g, within)
    if not members <= verts:
        raise ValueError(f"vertices {sorted(members - verts)} lie outside `within`")
    adj = g.adjacency
    covered = set(members).union(*(adj[v] for v in members))
    covered &= verts
    dom = len(covered) == len(verts)
    if not dom or len(members) <= 1:
        return DomsetReport(dom, dom, dom)
    lo = min(members)
    # CDS: the subgraph induced by s is connected.
    cds = len(walk(_EdgesTouching(adj, members, members), lo)) == len(members)
    # WCDS: N[s], here all of V, is connected by the edges that touch s.  A
    # CDS is one, since every vertex of V hangs off a connected s.
    wcds = cds or len(walk(_EdgesTouching(adj, members, covered), lo)) == len(verts)
    return DomsetReport(dom, cds, wcds)


def _pop_best(heap: list[tuple[int, int]], adj, covered: set[int]) -> int:
    # Lazy max-heap on (-gain, id): a stored gain only overstates, so the
    # top entry whose stored gain is its recomputed one beats every other
    # entry, and a stale top goes back with its recomputed gain.
    while True:
        neg, v = heap[0]
        gain = len(adj[v] - covered) + (v not in covered)
        if -neg == gain:
            return heapq.heappop(heap)[1]
        heapq.heapreplace(heap, (-gain, v))


def _greedy_variant_one(adj, nodes: Collection[int]) -> set[int]:
    # Grow a connected set from the highest-degree vertex; each step adds the
    # frontier vertex covering the most still-uncovered vertices.
    v = max(nodes, key=lambda u: (len(adj[u]), -u))
    chosen: set[int] = set()
    covered: set[int] = set()
    heap: list[tuple[int, int]] = []
    queued = {v}
    while True:
        chosen.add(v)
        covered.add(v)
        covered |= adj[v]
        if len(covered) == len(nodes):
            return chosen
        # v's neighbours are covered now, so only their own neighbours count
        for w in adj[v] - queued:
            heapq.heappush(heap, (-len(adj[w] - covered), w))
        queued |= adj[v]
        v = _pop_best(heap, adj, covered)


def _greedy_variant_two(adj, nodes: Collection[int]) -> set[int]:
    # Phase 1: plain greedy dominating set (max uncovered coverage).
    heap = [(-len(adj[v]) - 1, v) for v in nodes]
    heapq.heapify(heap)
    chosen: set[int] = set()
    covered: set[int] = set()
    while len(covered) < len(nodes):
        v = _pop_best(heap, adj, covered)
        chosen.add(v)
        covered.add(v)
        covered |= adj[v]

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
            for w in adj[b] - base:
                if w in chosen:
                    base.add(w)
                    grow.append(w)
                elif w not in near or b < near[w]:
                    near[w] = b
                    heapq.heappush(one_step, (b, w))
                    heapq.heappush(two_step, (b, w))
        if len(base) == len(chosen):
            return chosen
        v = _first_near(one_step, near, base, lambda v: not adj[v] & chosen <= base)
        if v is not None:
            grow = [v]
        else:
            v = _first_near(two_step, near, base,
                            lambda v: not near.keys() >= adj[v] - base)
            grow = [v, min(adj[v] - base - near.keys())]
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


def greedy_cds_baseline(g, variant: GreedyVariant) -> frozenset[int]:
    """Greedy connected-dominating-set heuristic, per connected component.

    These are documented stand-ins used for relative comparison only.
    Variant I grows a single connected set from the maximum-degree vertex,
    always adding the frontier vertex that covers the most uncovered
    vertices.  Variant II first builds a greedy dominating set, then joins
    its fragments along shortest paths.  All ties break toward the smaller
    node id.  On a disconnected graph the result is the per-component
    union, a CDS of every component.
    """
    if not isinstance(variant, GreedyVariant):
        raise ValueError(f"variant must be a GreedyVariant, got {variant!r}")
    builder = _greedy_variant_one if variant is GreedyVariant.I else _greedy_variant_two
    adj = g.adjacency
    result: set[int] = set()
    for comp in connected_components(g):
        result |= builder(adj, comp)
    return frozenset(result)
