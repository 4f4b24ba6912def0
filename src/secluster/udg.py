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
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Point:
    """Position of a deployed node, in meters."""

    x: float
    y: float


@dataclass(frozen=True)
class UnitDiskGraph:
    """Proximity graph over `n` nodes with a common transmission radius.

    `adjacency[i]` is the frozen set of nodes within `radius` of node i
    (symmetric, no self loops).  Instances are immutable and safe to share.
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

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

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


def _derive_adjacency(positions: Sequence[Point], radius: float) -> tuple[frozenset[int], ...]:
    # Bucket the nodes into square cells a little wider than r, so every
    # linked pair sits in the same or an adjacent cell, and test each pair
    # once: within a cell, and against the four cells east and north.  The
    # margin covers the rounding of the link test below, which can accept a
    # coordinate gap a few ulps over r, and of x / side, which grows with
    # the coordinates' magnitude.
    side = radius * (1 + 1e-9) + 2.0 ** -50 * max(
        (max(abs(p.x), abs(p.y)) for p in positions), default=0.0)
    xs = [p.x for p in positions]
    ys = [p.y for p in positions]
    cells: dict[tuple[int, int], list[int]] = {}
    for i in range(len(positions)):
        cells.setdefault((math.floor(xs[i] / side), math.floor(ys[i] / side)),
                         []).append(i)
    r2 = radius * radius
    nbrs: list[set[int]] = [set() for _ in positions]
    for (cx, cy), here in cells.items():
        near = [j for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1),
                              (cx, cy + 1))
                for j in cells.get(key, ())]
        for k, i in enumerate(here):
            xi, yi = xs[i], ys[i]
            for j in here[k + 1:] + near:
                dx = xs[j] - xi
                dy = ys[j] - yi
                if dx * dx + dy * dy <= r2:
                    nbrs[i].add(j)
                    nbrs[j].add(i)
    return tuple(frozenset(s) for s in nbrs)


def from_positions(positions: Sequence[Point], radius: float) -> UnitDiskGraph:
    """Build the unit-disk graph induced by explicit positions."""
    if radius <= 0:
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
    if width <= 0 or height <= 0:
        raise ValueError("field dimensions must be > 0")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    rng = random.Random(seed)
    pts = tuple(Point(rng.uniform(0.0, width), rng.uniform(0.0, height))
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
    if d_avg <= 0:
        raise ValueError("d_avg must be > 0")
    if width <= 0 or height <= 0:
        raise ValueError("field dimensions must be > 0")
    return math.sqrt(d_avg * width * height / (math.pi * (n - 1)))


def is_connected(g: UnitDiskGraph) -> bool:
    """True iff the proximity graph has a single connected component.

    The empty graph counts as connected.
    """
    return len(connected_components(g)) <= 1


def connected_components(g: UnitDiskGraph) -> list[set[int]]:
    """Connected components as sets of node ids, ordered by smallest member."""
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
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


def read_graph_csv(nodes_path: Path | str, edges_path: Path | str,
                   radius: float) -> UnitDiskGraph:
    """Reconstruct a graph from the CSV pair written by write_graph_csv.

    Adjacency is re-derived from the positions and the given radius, then
    checked against the stored edge list; a mismatch means the files do not
    describe a unit-disk graph at this radius.
    """
    positions: list[Point] = []
    with open(nodes_path, newline="") as f:
        for row in csv.DictReader(f):
            i = int(row["node_id"])
            if i != len(positions):
                raise ValueError(f"node ids must be dense and ordered, got {i}")
            positions.append(Point(float(row["x"]), float(row["y"])))
    g = from_positions(positions, radius)
    stored: list[tuple[int, int]] = []
    with open(edges_path, newline="") as f:
        for row in csv.DictReader(f):
            stored.append((int(row["src"]), int(row["dst"])))
    if stored != g.edges():
        raise ValueError("edge list does not match adjacency derived from "
                         "positions at the given radius")
    return g


def mean_degree_over_seeds(n: int, width: float, height: float, radius: float,
                           seeds: Iterable[int]) -> float:
    """Average degree measured over several generated graphs (one per seed)."""
    vals = [generate_uniform(n, width, height, radius, s).average_degree()
            for s in seeds]
    if not vals:
        raise ValueError("at least one seed required")
    return sum(vals) / len(vals)
