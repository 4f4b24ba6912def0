import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import (
    Graph,
    cycle,
    is_cds,
    is_dominating,
    is_wcds,
    min_set_exhaustive,
    path,
    star,
)
from secluster import udg
from secluster.domsets import DomsetReport, GreedyVariant, classify, greedy_cds_baseline

P6 = path(6)
C6 = cycle(6)
K15 = star(5)


def whole(g, s):
    """classify's report for s over all of g."""
    return classify(g, s, range(g.n))


# -- reference greedy: a full scan of every candidate at every step -----------

def _reach(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _reference_one(g, nodes):
    node_set = set(nodes)
    start = max(nodes, key=lambda v: (len(g.adjacency[v] & node_set), -v))
    chosen = {start}
    covered = {start} | (g.adjacency[start] & node_set)
    while covered != node_set:
        frontier = sorted(
            v for c in chosen for v in g.adjacency[c]
            if v in node_set and v not in chosen
        )
        best = None
        best_gain = -1
        for v in frontier:
            gain = len(((g.adjacency[v] | {v}) & node_set) - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        if best is None or best_gain == 0:
            chosen.update(node_set - covered)
            break
        chosen.add(best)
        covered |= (g.adjacency[best] | {best}) & node_set
    return chosen


def _reference_fragments(g, chosen):
    adj = {v: g.adjacency[v] & chosen for v in chosen}
    remaining = set(chosen)
    frags = []
    while remaining:
        comp = _reach(adj, min(remaining))
        frags.append(comp)
        remaining -= comp
    frags.sort(key=min)
    return frags


def _reference_path(g, node_set, base, chosen):
    parent = {v: None for v in base}
    frontier = sorted(base)
    target = None
    while frontier and target is None:
        nxt = []
        for v in frontier:
            for w in sorted(g.adjacency[v] & node_set):
                if w in parent:
                    continue
                parent[w] = v
                if w in chosen:
                    target = w
                    break
                nxt.append(w)
            if target is not None:
                break
        frontier = nxt
    if target is None:
        return []
    path = []
    v = parent[target]
    while v is not None and v not in base:
        path.append(v)
        v = parent[v]
    return path


def _reference_two(g, nodes):
    node_set = set(nodes)
    chosen = set()
    covered = set()
    while covered != node_set:
        best = None
        best_gain = -1
        for v in nodes:
            if v in chosen:
                continue
            gain = len(((g.adjacency[v] | {v}) & node_set) - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.add(best)
        covered |= (g.adjacency[best] | {best}) & node_set
    while True:
        fragments = _reference_fragments(g, chosen)
        if len(fragments) <= 1:
            break
        path = _reference_path(g, node_set, fragments[0], chosen)
        if not path:
            break
        chosen.update(path)
    return chosen


def reference_greedy(g, variant):
    """The greedy baselines as first written, kept as the reference."""
    builder = _reference_one if variant is GreedyVariant.I else _reference_two
    adj = g.adjacency
    result = set()
    remaining = set(range(g.n))
    while remaining:
        comp = _reach(adj, min(remaining))
        result |= builder(g, sorted(comp))
        remaining -= comp
    return frozenset(result)


@st.composite
def random_udgs(draw):
    """Uniform unit-disk graphs from sparse (many components) to dense."""
    n = draw(st.integers(1, 80))
    d_avg = draw(st.floats(1.0, 15.0))
    return udg.generate_uniform(
        n, 100, 100, udg.radius_for_expected_degree(max(n, 2), 100, 100, d_avg),
        draw(st.integers(0, 2 ** 32)))


@st.composite
def random_graphs(draw):
    """Arbitrary, often disconnected, graphs with isolated vertices."""
    n = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return Graph(n, [(u, v) for u, v in draw(st.lists(pairs, max_size=60))
                     if u != v])


def to_networkx(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((v, w) for v in range(g.n) for w in g.adjacency[v])
    return ref


def random_connected_udg(seed, n_max=10):
    """Small connected unit-disk graphs for property checks."""
    rng = random.Random(seed)
    n = rng.randrange(4, n_max + 1)
    g = udg.generate_uniform(n, 10, 10, 4.5, seed)
    return g if udg.is_connected(g) else None


# -- verifiers ---------------------------------------------------------------

def test_star_center_dominates():
    assert whole(K15, {0}) == DomsetReport(True, True, True)


def test_path_domination():
    assert whole(P6, {1, 4}).is_dominating
    # node 5 is adjacent only to node 4
    assert not whole(P6, {0, 3}).is_dominating


def test_path_cds():
    assert not whole(P6, {1, 4}).is_cds  # induced subgraph has no edges
    assert whole(P6, {1, 2, 3, 4}).is_cds


def test_path_wcds_split():
    # edge (2,3) has no endpoint in {1,4}, so the weakly induced graph
    # splits into {0,1,2} and {3,4,5}
    assert not whole(P6, {1, 4}).is_wcds


def test_cycle_wcds():
    # every edge of C6 has an endpoint in the alternating set
    assert whole(C6, {0, 2, 4}).is_wcds


def test_empty_set_never_dominates_nonempty_graph():
    assert whole(P6, set()) == DomsetReport(False, False, False)


def test_invalid_member_rejected():
    for s in ({6}, {-1}):
        with pytest.raises(ValueError):
            whole(P6, s)


# -- exhaustive oracle -------------------------------------------------------

def test_c6_minimum_sizes():
    assert len(min_set_exhaustive(C6, is_dominating)) == 2
    assert len(min_set_exhaustive(C6, is_wcds)) == 3
    assert len(min_set_exhaustive(C6, is_cds)) == 4


def test_star_minimum_is_center():
    for verdict in (is_dominating, is_cds, is_wcds):
        assert min_set_exhaustive(K15, verdict) == {0}


def test_p4_minimums_and_tiebreak():
    p4 = path(4)
    assert min_set_exhaustive(p4, is_dominating) == {0, 2}
    assert min_set_exhaustive(p4, is_cds) == {1, 2}


def test_size_guard():
    big = path(21)
    with pytest.raises(ValueError):
        min_set_exhaustive(big, is_dominating)
    # the empty graph is dominated by the empty set, for every verdict
    for verdict in (is_dominating, is_cds, is_wcds):
        assert min_set_exhaustive(Graph(0, []), verdict) == frozenset()


def test_disconnected_graph_has_no_cds_or_wcds():
    g = Graph(4, [(0, 1), (2, 3)])
    assert min_set_exhaustive(g, is_cds) is None
    assert min_set_exhaustive(g, is_wcds) is None
    assert min_set_exhaustive(g, is_dominating) == {0, 2}


def test_oracle_results_pass_their_own_verifier():
    found = 0
    seed = 0
    while found < 40:
        g = random_connected_udg(seed)
        seed += 1
        if g is None:
            continue
        found += 1
        for verdict in (is_dominating, is_cds, is_wcds):
            s = min_set_exhaustive(g, verdict)
            assert s is not None
            assert verdict(g, s)


def test_size_ladder_on_random_graphs():
    """|min DS| <= |min WCDS| <= |min CDS| on connected graphs."""
    found = 0
    seed = 1000
    while found < 60:
        g = random_connected_udg(seed)
        seed += 1
        if g is None:
            continue
        found += 1
        ds = min_set_exhaustive(g, is_dominating)
        wcds = min_set_exhaustive(g, is_wcds)
        cds = min_set_exhaustive(g, is_cds)
        assert len(ds) <= len(wcds) <= len(cds)


def test_cds_implies_wcds_implies_ds():
    found = 0
    seed = 5000
    rng = random.Random(99)
    while found < 40:
        g = random_connected_udg(seed)
        seed += 1
        if g is None:
            continue
        found += 1
        members = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        if not members:
            continue
        report = whole(g, members)
        if report.is_cds:
            assert report.is_wcds
        if report.is_wcds:
            assert report.is_dominating


# -- greedy baselines --------------------------------------------------------

def test_greedy_star_is_center():
    for var in GreedyVariant:
        assert greedy_cds_baseline(K15, var) == {0}


@pytest.mark.parametrize("variant", ["I", "II", None])
def test_greedy_refuses_a_variant_that_is_not_a_greedy_variant(variant):
    # the value "I" once ran greedy II, like any other non-member
    with pytest.raises(ValueError, match="GreedyVariant"):
        greedy_cds_baseline(P6, variant)


def test_greedy_path_satisfies_cds():
    for var in GreedyVariant:
        s = greedy_cds_baseline(P6, var)
        assert whole(P6, s).is_cds


def test_greedy_on_random_udg_contract():
    g = udg.generate_uniform(50, 100, 100,
                             udg.radius_for_expected_degree(50, 100, 100, 6),
                             seed=42)
    for var in GreedyVariant:
        s = greedy_cds_baseline(g, var)
        assert len(s) <= g.n
        # s must be a CDS of each connected component
        for comp in udg.connected_components(g):
            assert classify(g, s & comp, comp).is_cds


def test_both_greedy_variants_share_one_component_computation(monkeypatch):
    # a unit-disk graph cannot change, so it walks its components once
    g = udg.generate_uniform(80, 100, 100,
                             udg.radius_for_expected_degree(80, 100, 100, 3), seed=7)
    calls = []
    find = udg._find_components
    monkeypatch.setattr(udg, "_find_components",
                        lambda graph: calls.append(graph) or find(graph))
    for var in GreedyVariant:
        assert greedy_cds_baseline(g, var) == reference_greedy(g, var)
    assert len(calls) == 1
    expected = sorted(nx.connected_components(to_networkx(g)), key=min)
    comps = udg.connected_components(g)
    assert len(comps) > 1 and comps == expected
    comps.clear()  # the caller's list is a copy
    assert udg.connected_components(g) == expected
    assert len(calls) == 1


def test_a_mutable_graph_gets_fresh_components():
    g = Graph(5, [(0, 1), (2, 3)])
    assert udg.connected_components(g) == [{0, 1}, {2, 3}, {4}]
    assert greedy_cds_baseline(g, GreedyVariant.I) == {0, 2, 4}
    g.adjacency[1].add(2)
    g.adjacency[2].add(1)
    assert udg.connected_components(g) == [{0, 1, 2, 3}, {4}]
    for var in GreedyVariant:
        s = greedy_cds_baseline(g, var)
        assert s == {1, 2, 4}
        assert classify(g, s - {4}, {0, 1, 2, 3}).is_cds


def test_greedy_handles_disconnected_graph():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for var in GreedyVariant:
        s = greedy_cds_baseline(g, var)
        assert s & {0, 1, 2}
        assert s & {3, 4, 5}


def test_greedy_is_deterministic():
    g = udg.generate_uniform(80, 200, 200,
                             udg.radius_for_expected_degree(80, 200, 200, 6),
                             seed=7)
    for var in GreedyVariant:
        assert greedy_cds_baseline(g, var) == greedy_cds_baseline(g, var)


@given(random_udgs())
def test_greedy_matches_reference_on_random_udgs(g):
    for var in GreedyVariant:
        assert greedy_cds_baseline(g, var) == reference_greedy(g, var)


@given(random_graphs())
def test_greedy_matches_reference_on_disconnected_graphs(g):
    for var in GreedyVariant:
        assert greedy_cds_baseline(g, var) == reference_greedy(g, var)


def grid_lattice(side):
    """The side x side grid graph, node r * side + c at row r, column c."""
    return Graph(side * side,
                 [(r * side + c, r * side + c + 1)
                  for r in range(side) for c in range(side - 1)]
                 + [(r * side + c, (r + 1) * side + c)
                    for r in range(side - 1) for c in range(side)])


# Graphs full of tied gains, where only the tie-break toward the smaller id
# decides each pick: every inner grid vertex and every cycle vertex starts
# with the same gain, and the two stars' centres (0, and 9 after its
# leaves) have the same degree.
TIED_GAINS = {
    "grid6x6": grid_lattice(6),
    "cycle12": cycle(12),
    "two_stars": Graph(10, [(0, v) for v in range(1, 5)]
                       + [(9, v) for v in range(5, 9)]),
}


@pytest.mark.parametrize("variant", list(GreedyVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", sorted(TIED_GAINS))
def test_greedy_matches_reference_on_tied_gains(name, variant):
    g = TIED_GAINS[name]
    assert greedy_cds_baseline(g, variant) == reference_greedy(g, variant)


@given(st.one_of(random_udgs(), random_graphs()))
def test_greedy_is_a_cds_of_every_component_by_networkx(g):
    ref = to_networkx(g)
    for var in GreedyVariant:
        s = greedy_cds_baseline(g, var)
        for comp in nx.connected_components(ref):
            part = s & comp
            assert nx.is_dominating_set(ref.subgraph(comp), part)
            assert nx.is_connected(ref.subgraph(part))


@given(random_graphs(), st.data())
def test_verifiers_agree_with_networkx(g, data):
    ref = to_networkx(g)
    s = data.draw(st.sets(st.integers(0, g.n - 1)))
    dominating = nx.is_dominating_set(ref, s)
    report = whole(g, s)
    assert report.is_dominating == dominating
    assert report.is_cds == (dominating and (len(s) <= 1
                                             or nx.is_connected(ref.subgraph(s))))


def reference_report(g, s, within):
    """classify's report over the vertex set `within`, recomputed with networkx."""
    ref = to_networkx(g).subgraph(within)
    weak = nx.Graph()
    weak.add_nodes_from(s)
    weak.add_edges_from((u, v) for u, v in ref.edges() if u in s or v in s)
    dominating = nx.is_dominating_set(ref, s)
    return DomsetReport(
        is_dominating=dominating,
        is_cds=dominating and (len(s) <= 1 or nx.is_connected(ref.subgraph(s))),
        is_wcds=dominating and (len(s) <= 1 or nx.is_connected(weak)),
    )


@given(random_graphs(), st.data())
def test_classify_agrees_with_networkx(g, data):
    s = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert whole(g, s) == reference_report(g, s, range(g.n))


@given(random_graphs(), st.data())
def test_classify_within_agrees_with_networkx(g, data):
    within = data.draw(st.sets(st.integers(0, g.n - 1)))
    s = data.draw(st.sets(st.sampled_from(sorted(within)))) if within else set()
    assert classify(g, s, within) == reference_report(g, s, within)


def test_classify_within_edge_cases():
    # an empty vertex set is dominated, even by the empty set
    assert classify(P6, set(), set()) == DomsetReport(True, True, True)
    assert whole(Graph(0, []), set()) == DomsetReport(True, True, True)
    assert classify(P6, set(), {2, 3}) == DomsetReport(False, False, False)
    # P6 restricted to {0, 1, 2} is a path dominated by its middle vertex
    assert classify(P6, {1}, {0, 1, 2}) == DomsetReport(True, True, True)
    # without vertex 5, {1, 3} is a WCDS of 0-1-2-3-4 (edge 1-2 joins the stars)
    assert classify(P6, {1, 3}, range(5)) == DomsetReport(True, False, True)
    assert whole(P6, {1, 3}) == DomsetReport(False, False, False)
    # edges leaving `within` do not count: 2 and 4 meet only through 3
    assert classify(P6, {2, 4}, {1, 2, 4, 5}) == DomsetReport(True, False, False)


def test_classify_rejects_members_outside_within():
    with pytest.raises(ValueError):
        classify(P6, {4}, {0, 1, 2})
    with pytest.raises(ValueError):
        classify(P6, {1}, {1, 6})
    with pytest.raises(ValueError):
        classify(P6, {6}, range(7))
