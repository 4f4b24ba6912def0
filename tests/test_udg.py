import csv
import math
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import Graph, path
from secluster import udg
from secluster.udg import Point


def all_pairs_adjacency(positions, radius):
    """Reference: test every pair of nodes against the closed disk."""
    n = len(positions)
    r2 = radius * radius
    nbrs = [set() for _ in range(n)]
    for i in range(n):
        xi, yi = positions[i].x, positions[i].y
        for j in range(i + 1, n):
            dx = positions[j].x - xi
            dy = positions[j].y - yi
            if dx * dx + dy * dy <= r2:
                nbrs[i].add(j)
                nbrs[j].add(i)
    return tuple(frozenset(s) for s in nbrs)


@st.composite
def scattered_points(draw):
    """Up to 60 points within a few radii of an origin anywhere in a wide
    square, plus repeats of some of them."""
    radius = draw(st.floats(1e-3, 1e3))
    ox, oy = draw(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    offsets = st.floats(-6.0, 6.0)
    pts = draw(st.lists(st.builds(lambda a, b: Point(ox + a * radius, oy + b * radius),
                                  offsets, offsets), min_size=1, max_size=60))
    pts += draw(st.lists(st.sampled_from(pts), max_size=5))
    return pts, radius


@st.composite
def lattice_points(draw):
    """Points on a square lattice whose step divides the radius exactly, so
    many pairs (axis neighbours, 3-4-5 diagonals) sit at exactly r; the
    lattice may straddle the origin or be shifted far from it."""
    radius = draw(st.sampled_from([1.25, 2.5, 5.0, 10.0]))
    step = radius / draw(st.sampled_from([1, 5]))
    ox, oy = draw(st.sampled_from([(0.0, 0.0), (-1000.0, 250.0), (2.0 ** 20, -2.0 ** 20)]))
    ks = st.integers(-12, 12)
    pts = draw(st.lists(st.builds(lambda i, j: Point(ox + i * step, oy + j * step), ks, ks),
                        min_size=1, max_size=80))
    return pts, radius


def hexagon(radius=1.1):
    # regular hexagon with unit side; short diagonal is sqrt(3) > radius
    pts = [Point(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
           for k in range(6)]
    return udg.from_positions(pts, radius)


def test_single_node_has_no_edges():
    g = udg.generate_uniform(1, 50, 50, 10, seed=1)
    assert g.n == 1
    assert g.edge_count() == 0
    assert g.neighbors(0) == frozenset()


def test_an_empty_graph_has_average_degree_zero():
    assert udg.from_positions([], 1.0).average_degree() == 0.0


def test_two_nodes_within_large_radius_are_linked():
    # max distance on a 10x10 field is sqrt(200) ~ 14.14 < 20
    g = udg.generate_uniform(2, 10, 10, 20, seed=123)
    assert g.edge_count() == 1
    assert g.neighbors(0) == {1}


def test_distance_exactly_radius_is_an_edge():
    g = udg.from_positions([Point(0, 0), Point(0, 3.0)], 3.0)
    assert g.neighbors(0) == {1}


def test_path_fixture_adjacency():
    # collinear points spaced exactly r apart form a path
    r = 5.0
    g = udg.from_positions([Point(i * r, 0.0) for i in range(4)], r)
    assert g.neighbors(0) == {1}
    assert g.neighbors(1) == {0, 2}
    assert g.neighbors(2) == {1, 3}
    assert g.neighbors(3) == {2}


def test_neighbors_rejects_bad_id():
    g = udg.generate_uniform(3, 10, 10, 5, seed=0)
    with pytest.raises(IndexError):
        g.neighbors(3)


@pytest.mark.parametrize("n,width,height,d_avg,expected", [
    (2, 1, 1, math.pi, 1.0),
    (101, 500, 500, 6.0, 69.098829894267096),
    (101, 500, 500, 12.0, 97.720502380583984),
])
def test_radius_for_expected_degree_values(n, width, height, d_avg, expected):
    r = udg.radius_for_expected_degree(n, width, height, d_avg)
    assert r == pytest.approx(expected, rel=1e-12)


def test_radius_scales_with_sqrt_of_degree():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randrange(2, 500)
        w = rng.uniform(1, 1000)
        h = rng.uniform(1, 1000)
        d = rng.uniform(0.1, 50)
        r1 = udg.radius_for_expected_degree(n, w, h, d)
        r2 = udg.radius_for_expected_degree(n, w, h, 2 * d)
        assert r2 > r1
        assert r2 == pytest.approx(math.sqrt(2) * r1, rel=1e-12)


def test_generation_is_deterministic():
    a = udg.generate_uniform(60, 200, 100, 25, seed=99)
    b = udg.generate_uniform(60, 200, 100, 25, seed=99)
    assert a.positions == b.positions
    assert a.adjacency == b.adjacency
    c = udg.generate_uniform(60, 200, 100, 25, seed=100)
    assert c.positions != a.positions


def test_adjacency_matches_distance_relation():
    """Recompute the distance relation from scratch and compare."""
    for seed in range(5):
        g = udg.generate_uniform(40, 100, 100, 20, seed=seed)
        for i in range(g.n):
            for j in range(g.n):
                d2 = ((g.positions[i].x - g.positions[j].x) ** 2
                      + (g.positions[i].y - g.positions[j].y) ** 2)
                expect = i != j and d2 <= g.radius ** 2
                assert (j in g.adjacency[i]) == expect
            assert i not in g.adjacency[i]


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        udg.generate_uniform(0, 10, 10, 1, seed=0)
    with pytest.raises(ValueError):
        udg.generate_uniform(5, -1, 10, 1, seed=0)
    with pytest.raises(ValueError):
        udg.generate_uniform(5, 10, 10, 0, seed=0)
    with pytest.raises(ValueError, match="field dimensions must be > 0"):
        udg.generate_uniform(5, math.nan, 10, 1, seed=0)
    with pytest.raises(ValueError, match="radius must be > 0"):
        udg.generate_uniform(5, 10, 10, math.nan, seed=0)
    with pytest.raises(ValueError):
        udg.radius_for_expected_degree(1, 10, 10, 6)
    for d_avg, side in [(0, 10), (-6, 10), (math.nan, 10), (6, 0), (6, -10),
                        (6, math.nan)]:
        with pytest.raises(ValueError):
            udg.radius_for_expected_degree(5, side, 10, d_avg)
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="radius must be > 0"):
            udg.from_positions([Point(0, 0), Point(1, 0)], radius)


def test_connectivity_cases():
    assert udg.is_connected(udg.generate_uniform(1, 10, 10, 1, seed=4))
    far = udg.from_positions([Point(0, 0), Point(100, 0)], 5.0)
    assert not udg.is_connected(far)
    assert udg.is_connected(hexagon())


def test_hexagon_is_a_cycle():
    g = hexagon()
    assert g.edge_count() == 6
    assert all(len(g.neighbors(i)) == 2 for i in range(6))


def test_average_degree_band_target_six():
    """One hundred seeds around the torus-derived radius for mean degree 6.

    Band [4.5, 7.5] frozen from a 1000-seed pilot (observed batch means
    5.27..5.37; boundary effects pull the realized mean below the target).
    """
    r = udg.radius_for_expected_degree(100, 500, 500, 6.0)
    mean = sum(udg.generate_uniform(100, 500, 500, r, seed).average_degree()
               for seed in range(100)) / 100
    assert 4.5 <= mean <= 7.5


def test_csv_writer_rows_are_the_graph(tmp_path):
    g = udg.generate_uniform(30, 120, 80, 30, seed=7)
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    udg.write_graph_csv(g, nodes, edges)
    with open(nodes, newline="") as f:
        node_rows = list(csv.reader(f))
    with open(edges, newline="") as f:
        edge_rows = list(csv.reader(f))
    assert node_rows[0] == ["node_id", "x", "y"]
    assert edge_rows[0] == ["src", "dst"]
    # coordinates are written exactly: float() of each cell is the position
    assert [(int(i), Point(float(x), float(y))) for i, x, y in node_rows[1:]] \
        == list(enumerate(g.positions))
    assert [(int(i), int(j)) for i, j in edge_rows[1:]] == g.edges()


@given(scattered_points())
def test_grid_adjacency_matches_all_pairs_on_scattered_points(case):
    pts, radius = case
    assert udg.from_positions(pts, radius).adjacency == all_pairs_adjacency(pts, radius)


@given(lattice_points())
def test_grid_adjacency_matches_all_pairs_on_exact_radius_lattices(case):
    pts, radius = case
    assert udg.from_positions(pts, radius).adjacency == all_pairs_adjacency(pts, radius)


def test_coincident_points_are_linked():
    g = udg.from_positions([Point(-1.5, 2.0)] * 3 + [Point(-1.5, 4.0)], 1.0)
    assert [set(a) for a in g.adjacency] == [{1, 2}, {0, 2}, {0, 1}, set()]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_are_rejected(bad):
    with pytest.raises(ValueError):
        udg.from_positions([Point(0.0, 0.0), Point(bad, 1.0)], 1.0)


@given(st.integers(1, 60), st.floats(1.0, 12.0), st.integers(0, 2 ** 32))
def test_connected_components_agree_with_networkx(n, d_avg, seed):
    g = udg.generate_uniform(n, 100, 100,
                             udg.radius_for_expected_degree(max(n, 2), 100, 100, d_avg),
                             seed)
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    assert udg.connected_components(g) == sorted(nx.connected_components(ref), key=min)
    assert udg.is_connected(g) == nx.is_connected(ref)


def test_walk_is_breadth_first_in_neighbour_order():
    nbrs = {0: (2, 1), 1: (0, 3), 2: (0,), 3: (1, 4), 4: (3,), 5: ()}
    assert udg.walk(nbrs, 0) == [0, 2, 1, 3, 4]
    assert udg.walk(nbrs, 3) == [3, 1, 4, 0, 2]
    assert udg.walk(nbrs, 5) == [5]


def test_a_point_is_an_immutable_value():
    p = Point(1.5, -2.0)
    for name in ("x", "y"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0.0)
    assert (p.x, p.y) == (1.5, -2.0)
    assert p == Point(1.5, -2.0) and hash(p) == hash(Point(1.5, -2.0))
    assert p != Point(-2.0, 1.5)
    assert {p, Point(1.5, -2.0)} == {p}


def test_connected_components_take_any_graph_with_adjacency():
    g = Graph(6, [(0, 4), (4, 2), (3, 5)])
    assert udg.connected_components(g) == [{0, 2, 4}, {1}, {3, 5}]
    assert not udg.is_connected(g)
    assert udg.is_connected(path(4))
