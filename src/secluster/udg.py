"""Random sensor placement on a 2-D plane and the unit-disk proximity graph.

Nodes are identified by dense integer indices 0..n-1.  Two nodes are
neighbors iff their euclidean distance is <= the shared transmission
radius (closed disk, so a distance of exactly `radius` counts as a link).
Distances are compared on squared values so that hand-built fixtures with
axis-aligned spacing stay exact in floating point.

The graph is built on a uniform grid (Clark, Colbourn & Johnson, "Unit disk
graphs", 1990): nodes are bucketed into square cells slightly wider than the
radius, so each node is tested only against the nodes of its own cell and
the eight around it.  The number of tests is the number of pairs in
neighbouring cells, O(n + m) for m edges when the density is bounded,
instead of the n(n-1)/2 tests of comparing every pair.  The squared-distance
test alone still decides each link, so the adjacency is exactly that of the
all-pairs comparison.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence


class Point(NamedTuple):
    """Position of a deployed node, in meters.

    An immutable named tuple, as `trace.Envelope` is: a landing builds one
    per node, and a tuple is built in half the time of a frozen dataclass.
    """

    x: float
    y: float


@dataclass(frozen=True)
class UnitDiskGraph:
    """Proximity graph over `n` nodes with a common transmission radius.

    `adjacency[i]` is the frozen set of nodes within `radius` of node i
    (symmetric, no self loops).  Instances are immutable and safe to share,
    so a graph computes its connected components once, on first use.
    """

    n: int
    positions: tuple[Point, ...]
    radius: float
    adjacency: tuple[frozenset[int], ...]

    def neighbors(self, i: int) -> frozenset[int]:
        """All j with a direct radio link to i."""
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range for graph with n={self.n}")
        return self.adjacency[i]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list, each edge once with src < dst."""
        out = []
        for i in range(self.n):
            for j in sorted(self.adjacency[i]):
                if i < j:
                    out.append((i, j))
        return out

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def average_degree(self) -> float:
        if self.n == 0:
            return 0.0
        return 2.0 * self.edge_count() / self.n

    @cached_property
    def _components(self) -> tuple[frozenset[int], ...]:
        return tuple(_find_components(self))


def _derive_adjacency(positions: Sequence[Point], radius: float) -> tuple[frozenset[int], ...]:
    # Bucket the nodes into square cells a little wider than r, so every
    # linked pair sits in the same or an adjacent cell, and test each pair
    # once: within a cell, and against the four cells east and north.  The
    # margin covers the rounding of the link test below, which can accept a
    # coordinate gap a few ulps over r, and of x / side, which grows with
    # the coordinates' magnitude.
    side = radius * (1 + 1e-9) + 2.0 ** -50 * max(
        map(abs, itertools.chain.from_iterable(positions)), default=0.0)
    xs = [p.x for p in positions]
    ys = [p.y for p in positions]
    cells: dict[tuple[int, int], list[int]] = {}
    for i in range(len(positions)):
        cells.setdefault((math.floor(xs[i] / side), math.floor(ys[i] / side)),
                         []).append(i)
    r2 = radius * radius
    nbrs: list[set[int]] = [set() for _ in positions]
    for (cx, cy), here in cells.items():
        # each node is tested against the tail of one list after its own
        # position: the rest of its cell, then the four cells' nodes
        pool = here + [j for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1),
                                     (cx, cy + 1))
                       for j in cells.get(key, ())]
        for k, i in enumerate(here, 1):
            xi, yi = xs[i], ys[i]
            for j in pool[k:]:
                dx = xs[j] - xi
                dy = ys[j] - yi
                if dx * dx + dy * dy <= r2:
                    nbrs[i].add(j)
                    nbrs[j].add(i)
    return tuple(frozenset(s) for s in nbrs)


def from_positions(positions: Sequence[Point], radius: float) -> UnitDiskGraph:
    """Build the unit-disk graph induced by explicit positions."""
    if not radius > 0:  # NaN fails too
        raise ValueError("radius must be > 0")
    pts = tuple(positions)
    if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in pts):
        raise ValueError("positions must be finite")
    return UnitDiskGraph(
        n=len(pts),
        positions=pts,
        radius=radius,
        adjacency=_derive_adjacency(pts, radius),
    )


def generate_uniform(n: int, width: float, height: float, radius: float,
                     seed: int) -> UnitDiskGraph:
    """Place n nodes i.i.d. uniformly over a width x height rectangle.

    The same (n, width, height, radius, seed) always yields a bit-identical
    graph.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (width > 0 and height > 0):
        raise ValueError("field dimensions must be > 0")
    rng = random.Random(seed)
    # w * rng.random() is exactly rng.uniform(0.0, w), which adds it to 0.0
    pts = tuple(Point(width * rng.random(), height * rng.random())
                for _ in range(n))
    return from_positions(pts, radius)


def radius_for_expected_degree(n: int, width: float, height: float,
                               d_avg: float) -> float:
    """Transmission radius giving an expected average degree of d_avg.

    Torus approximation: a node sees on average (n-1) * pi * r^2 / area
    others, so r = sqrt(d_avg * area / (pi * (n-1))).  Boundary effects on
    a bounded rectangle pull the realized mean degree below d_avg.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not d_avg > 0:
        raise ValueError("d_avg must be > 0")
    if not (width > 0 and height > 0):
        raise ValueError("field dimensions must be > 0")
    return math.sqrt(d_avg * width * height / (math.pi * (n - 1)))


def walk(nbrs, start: int) -> list[int]:
    """Every node reachable from `start` over `nbrs`, in breadth-first order:
    `start` first, then each reached node's neighbours in the order
    `nbrs[v]` yields them.  `nbrs` is anything indexable by node id (a list
    of neighbour sets, a dict of neighbour tuples).  This is the library's
    one graph traversal: blind floods, components and the domination
    verifiers all walk with it."""
    order, reached = [start], {start}
    add, append = reached.add, order.append
    for v in order:  # the list grows while it is walked
        for w in nbrs[v]:
            if w not in reached:
                add(w)
                append(w)
    return order


def is_connected(g) -> bool:
    """True iff the graph has a single connected component.

    The empty graph counts as connected.
    """
    return len(connected_components(g)) <= 1


def connected_components(g) -> list[frozenset[int]]:
    """Connected components as sets of node ids, ordered by smallest member.

    `g` is any graph with an integer `n` and `adjacency[v]`, v's neighbour
    set.  A `UnitDiskGraph` cannot change, so it keeps the components it
    computed; any other graph, which may gain or lose edges, is walked
    afresh on every call.
    """
    if isinstance(g, UnitDiskGraph):
        return list(g._components)
    return _find_components(g)


def _find_components(g) -> list[frozenset[int]]:
    nbrs = g.adjacency
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s not in seen:
            comp = frozenset(walk(nbrs, s))
            seen |= comp
            comps.append(comp)
    return comps


def write_graph_csv(g: UnitDiskGraph, nodes_path: Path | str,
                    edges_path: Path | str) -> None:
    """Write node positions and the undirected edge list as CSV.

    nodes: header `node_id,x,y`; coordinates printed with repr so they
    round-trip exactly.  edges: header `src,dst`, each edge once, src < dst.
    """
    with open(nodes_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["node_id", "x", "y"])
        for i, p in enumerate(g.positions):
            w.writerow([i, repr(p.x), repr(p.y)])
    with open(edges_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["src", "dst"])
        for i, j in g.edges():
            w.writerow([i, j])
