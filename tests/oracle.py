"""Fixture graphs and the exhaustive minimum-set oracle, for the tests.

The library's domination code takes any graph with an integer `n` and
`adjacency[v]`, v's neighbour set; `Graph` is the smallest such object,
built from an edge list.  `min_set_exhaustive` is the reference the
greedy baselines and the formed dominator sets are measured against: it
finds a minimum set by enumerating subsets, so it is guarded to
n <= EXHAUSTIVE_NODE_LIMIT.
"""

import itertools

from secluster.domsets import classify

# Subset enumeration is exponential; refuse graphs where 2^n is unreasonable.
EXHAUSTIVE_NODE_LIMIT = 20


class Graph:
    """An undirected graph on nodes 0..n-1 from an edge list."""

    def __init__(self, n, edges):
        self.n = n
        self.adjacency = [set() for _ in range(n)]
        for u, v in edges:
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    """K(1,leaves) with the center at node 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# The three verdicts over the whole graph, as the oracle takes them.

def is_dominating(g, s):
    return classify(g, s, range(g.n)).is_dominating


def is_cds(g, s):
    return classify(g, s, range(g.n)).is_cds


def is_wcds(g, s):
    return classify(g, s, range(g.n)).is_wcds


def min_set_exhaustive(g, verdict):
    """Minimum-cardinality s with `verdict(g, s)`, by subset enumeration.

    Subsets are enumerated in increasing cardinality and, within one
    cardinality, in lexicographic member order, so the first hit is both
    minimum-size and the lexicographically smallest winner.  Returns None
    when no valid set exists (CDS/WCDS on a disconnected graph).
    """
    if g.n > EXHAUSTIVE_NODE_LIMIT:
        raise ValueError(
            f"exhaustive search limited to n <= {EXHAUSTIVE_NODE_LIMIT}, got n={g.n}")
    if g.n == 0:
        return frozenset()
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            s = frozenset(combo)
            if verdict(g, s):
                return s
    return None
