import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secluster import udg
from secluster.domsets import (
    AdjacencyGraph,
    DomsetReport,
    GreedyVariant,
    SetKind,
    classify,
    greedy_cds_baseline,
    is_cds,
    is_dominating,
    is_wcds,
    min_set_exhaustive,
    star_of,
)

P6 = AdjacencyGraph.path(6)
C6 = AdjacencyGraph.cycle(6)
K15 = AdjacencyGraph.star(5)


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
    start = max(nodes, key=lambda v: (len(g.neighbors(v) & node_set), -v))
    chosen = {start}
    covered = {start} | (g.neighbors(start) & node_set)
    while covered != node_set:
        frontier = sorted(
            v for c in chosen for v in g.neighbors(c)
            if v in node_set and v not in chosen
        )
        best = None
        best_gain = -1
        for v in frontier:
            gain = len((star_of(g, v) & node_set) - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        if best is None or best_gain == 0:
            chosen.update(node_set - covered)
            break
        chosen.add(best)
        covered |= star_of(g, best) & node_set
    return chosen


def _reference_fragments(g, chosen):
    adj = {v: g.neighbors(v) & chosen for v in chosen}
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
            for w in sorted(g.neighbors(v) & node_set):
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
            gain = len((star_of(g, v) & node_set) - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.add(best)
        covered |= star_of(g, best) & node_set
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
    adj = {v: g.neighbors(v) for v in range(g.n)}
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
    return AdjacencyGraph(n, [(u, v) for u, v in draw(st.lists(pairs, max_size=60))
                              if u != v])


def to_networkx(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((v, w) for v in range(g.n) for w in g.neighbors(v))
    return ref


def random_connected_udg(seed, n_max=10):
    """Small connected unit-disk graphs for property checks."""
    rng = random.Random(seed)
    n = rng.randrange(4, n_max + 1)
    g = udg.generate_uniform(n, 10, 10, 4.5, seed)
    return g if udg.is_connected(g) else None


# -- verifiers ---------------------------------------------------------------

def test_star_center_dominates():
    assert is_dominating(K15, {0})
    assert is_cds(K15, {0})
    assert is_wcds(K15, {0})


def test_path_domination():
    assert is_dominating(P6, {1, 4})
    # node 5 is adjacent only to node 4
    assert not is_dominating(P6, {0, 3})


def test_path_cds():
    assert not is_cds(P6, {1, 4})  # induced subgraph has no edges
    assert is_cds(P6, {1, 2, 3, 4})


def test_path_wcds_split():
    # edge (2,3) has no endpoint in {1,4}, so the weakly induced graph
    # splits into {0,1,2} and {3,4,5}
    assert not is_wcds(P6, {1, 4})


def test_cycle_wcds():
    # every edge of C6 has an endpoint in the alternating set
    assert is_wcds(C6, {0, 2, 4})


def test_empty_set_never_dominates_nonempty_graph():
    assert not is_dominating(P6, set())
    assert not is_cds(P6, set())
    assert not is_wcds(P6, set())


def test_invalid_member_rejected():
    with pytest.raises(ValueError):
        is_dominating(P6, {6})


def test_star_of():
    lone = AdjacencyGraph(1, [])
    assert star_of(lone, 0) == {0}
    assert star_of(K15, 0) == {0, 1, 2, 3, 4, 5}
    assert star_of(P6, 2) == {1, 2, 3}


# -- exhaustive oracle -------------------------------------------------------

def test_c6_minimum_sizes():
    assert len(min_set_exhaustive(C6, SetKind.DS)) == 2
    assert len(min_set_exhaustive(C6, SetKind.WCDS)) == 3
    assert len(min_set_exhaustive(C6, SetKind.CDS)) == 4


def test_star_minimum_is_center():
    for kind in SetKind:
        assert min_set_exhaustive(K15, kind) == {0}


def test_p4_minimums_and_tiebreak():
    p4 = AdjacencyGraph.path(4)
    assert min_set_exhaustive(p4, SetKind.DS) == {0, 2}
    assert min_set_exhaustive(p4, SetKind.CDS) == {1, 2}


def test_size_guard():
    big = AdjacencyGraph.path(21)
    with pytest.raises(ValueError):
        min_set_exhaustive(big, SetKind.DS)


def test_disconnected_graph_has_no_cds_or_wcds():
    g = AdjacencyGraph(4, [(0, 1), (2, 3)])
    assert min_set_exhaustive(g, SetKind.CDS) is None
    assert min_set_exhaustive(g, SetKind.WCDS) is None
    assert min_set_exhaustive(g, SetKind.DS) == {0, 2}


def test_oracle_results_pass_their_own_verifier():
    verifiers = {SetKind.DS: is_dominating, SetKind.CDS: is_cds,
                 SetKind.WCDS: is_wcds}
    found = 0
    seed = 0
    while found < 40:
        g = random_connected_udg(seed)
        seed += 1
        if g is None:
            continue
        found += 1
        for kind, verify in verifiers.items():
            s = min_set_exhaustive(g, kind)
            assert s is not None
            assert verify(g, s)


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
        ds = min_set_exhaustive(g, SetKind.DS)
        wcds = min_set_exhaustive(g, SetKind.WCDS)
        cds = min_set_exhaustive(g, SetKind.CDS)
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
        if is_cds(g, members):
            assert is_wcds(g, members)
        if is_wcds(g, members):
            assert is_dominating(g, members)


# -- greedy baselines --------------------------------------------------------

def test_greedy_star_is_center():
    for var in GreedyVariant:
        assert greedy_cds_baseline(K15, var) == {0}


def test_greedy_path_satisfies_cds():
    for var in GreedyVariant:
        s = greedy_cds_baseline(P6, var)
        assert is_cds(P6, s)


def test_greedy_on_random_udg_contract():
    g = udg.generate_uniform(50, 100, 100,
                             udg.radius_for_expected_degree(50, 100, 100, 6),
                             seed=42)
    for var in GreedyVariant:
        s = greedy_cds_baseline(g, var)
        assert len(s) <= g.n
        # is_cds must hold per connected component
        for comp in udg.connected_components(g):
            assert classify(g, s & comp, comp).is_cds


def test_greedy_handles_disconnected_graph():
    g = AdjacencyGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
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
    assert is_dominating(g, s) == dominating
    assert is_cds(g, s) == (dominating and (len(s) <= 1
                                            or nx.is_connected(ref.subgraph(s))))


def reference_report(g, s, within):
    """classify's report over the vertex set `within`, recomputed with networkx."""
    ref = to_networkx(g).subgraph(within)
    weak = nx.Graph()
    weak.add_nodes_from(s)
    weak.add_edges_from((u, v) for u, v in ref.edges() if u in s or v in s)
    dominating = nx.is_dominating_set(ref, s)
    return DomsetReport(
        set_size=len(s),
        is_dominating=dominating,
        is_cds=dominating and (len(s) <= 1 or nx.is_connected(ref.subgraph(s))),
        is_wcds=dominating and (len(s) <= 1 or nx.is_connected(weak)),
    )


@given(random_graphs(), st.data())
def test_classify_agrees_with_networkx(g, data):
    s = data.draw(st.sets(st.integers(0, g.n - 1)))
    expected = reference_report(g, s, range(g.n))
    assert classify(g, s) == expected
    assert classify(g, s, range(g.n)) == expected
    assert is_wcds(g, s) == expected.is_wcds


@given(random_graphs(), st.data())
def test_classify_within_agrees_with_networkx(g, data):
    within = data.draw(st.sets(st.integers(0, g.n - 1)))
    s = data.draw(st.sets(st.sampled_from(sorted(within)))) if within else set()
    assert classify(g, s, within) == reference_report(g, s, within)


def test_classify_within_edge_cases():
    # an empty vertex set is dominated, even by the empty set
    assert classify(P6, set(), set()) == DomsetReport(0, True, True, True)
    assert classify(AdjacencyGraph(0, []), set()) == DomsetReport(0, True, True, True)
    assert classify(P6, set(), {2, 3}) == DomsetReport(0, False, False, False)
    # P6 restricted to {0, 1, 2} is a path dominated by its middle vertex
    assert classify(P6, {1}, {0, 1, 2}) == DomsetReport(1, True, True, True)
    # without vertex 5, {1, 3} is a WCDS of 0-1-2-3-4 (edge 1-2 joins the stars)
    assert classify(P6, {1, 3}, range(5)) == DomsetReport(2, True, False, True)
    assert classify(P6, {1, 3}) == DomsetReport(2, False, False, False)
    # edges leaving `within` do not count: 2 and 4 meet only through 3
    assert classify(P6, {2, 4}, {1, 2, 4, 5}) == DomsetReport(2, True, False, False)


def test_classify_rejects_members_outside_within():
    with pytest.raises(ValueError):
        classify(P6, {4}, {0, 1, 2})
    with pytest.raises(ValueError):
        classify(P6, {1}, {1, 6})
    with pytest.raises(ValueError):
        classify(P6, {6})
