import dataclasses
import math
import random
from collections import Counter

import networkx as nx
import pytest

from oracle import is_dominating, min_set_exhaustive
from secluster import analysis, domsets, keying, protocol, udg
from secluster.analysis import (
    Cell,
    connectivity_curves,
    expected_gd_degree,
    ideal_domset_size,
    storage_curves,
    sweep_domset_sizes,
    threshold_p,
)


@pytest.mark.parametrize("n,eta,expected", [
    (100, 9, 10),
    (101, 9, 11),
    (7, 0, 7),
    (1, 0, 1),
    (10, 100, 1),
])
def test_ideal_domset_size(n, eta, expected):
    assert ideal_domset_size(n, eta) == expected


def test_ideal_domset_size_validation():
    with pytest.raises(ValueError):
        ideal_domset_size(0, 3)
    with pytest.raises(ValueError):
        ideal_domset_size(5, -1)


# -- connectivity threshold ----------------------------------------------------

def test_threshold_second_term_vanishes_at_special_target():
    # P_c = 1/e makes ln(-ln(P_c)) = 0, leaving ln(n)/n
    assert threshold_p(10, math.exp(-1)) == pytest.approx(math.log(10) / 10,
                                                          rel=1e-12)


def test_threshold_frozen_values():
    assert threshold_p(100, 0.999) == pytest.approx(
        0.11512425256511808, rel=1e-12)
    assert threshold_p(1000, 0.9) == pytest.approx(
        0.0091581226062945823, rel=1e-12)


def test_threshold_clamps_with_flag():
    # the formula leaves [0, 1] at small n; the fig12 row says so and keeps
    # the formula's value
    [row] = connectivity_curves([2], [0.999])
    assert row.p == threshold_p(2, 0.999) > 1.0  # about 3.8
    assert not row.in_range
    assert row.d == expected_gd_degree(2, 0.999) == row.p
    [ok] = connectivity_curves([100], [0.9])
    assert ok.in_range
    assert ok.p == threshold_p(100, 0.9)


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold_p(1, 0.9)
    with pytest.raises(ValueError):
        threshold_p(10, 0.0)
    with pytest.raises(ValueError):
        threshold_p(10, 1.0)


def test_expected_degree_frozen_values():
    assert expected_gd_degree(10, math.exp(-1)) == pytest.approx(
        0.9 * math.log(10), rel=1e-12)
    assert expected_gd_degree(100, 0.999) == pytest.approx(
        11.39730100394669, rel=1e-12)
    assert expected_gd_degree(50, 0.999) == pytest.approx(
        10.602892514432825, rel=1e-12)


def test_degree_decomposes_into_threshold_times_n_minus_one():
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randrange(2, 5000)
        p_c = rng.uniform(1e-6, 1 - 1e-6)
        d = expected_gd_degree(n, p_c)
        assert d == pytest.approx((n - 1) * threshold_p(n, p_c),
                                  rel=1e-12, abs=1e-300)


def test_one_order_of_connectivity_costs_two_degrees():
    # at n=100, going from P_c=0.9 to 0.99 costs about 2.33 expected degree
    diff = expected_gd_degree(100, 0.99) - expected_gd_degree(100, 0.9)
    assert diff == pytest.approx(2.326, abs=0.01)


def test_degree_curve_is_flat_for_large_networks():
    for p_c in (0.9, 0.99, 0.999):
        assert abs(expected_gd_degree(2000, p_c)
                   - expected_gd_degree(1000, p_c)) < 0.75


def test_connectivity_curves_rows():
    rows = connectivity_curves([100], [0.999])
    assert len(rows) == 1
    assert rows[0].d == pytest.approx(11.39730100394669, rel=1e-9)
    assert rows[0].in_range


# -- storage curves ------------------------------------------------------------

def test_storage_curve_values():
    rows = storage_curves([100], [9], 128)
    row = rows[0]
    assert row.distinct_keys == 100
    assert row.gd_storage_bits == 1280
    assert row.os_storage_bits == 256
    assert row.network_storage_bits == 128 * (10 * 10 + 2 * 90)


def test_gd_storage_grows_with_eta():
    rows = storage_curves([50], list(range(0, 20)), 128)
    sizes = [r.gd_storage_bits for r in rows]
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == len(sizes)


def test_distinct_keys_scale_linearly():
    rows = {r.n: r for r in storage_curves([40, 80, 160], [9], 128)}
    assert rows[80].distinct_keys == 2 * rows[40].distinct_keys
    assert rows[160].distinct_keys == 2 * rows[80].distinct_keys


@pytest.mark.parametrize("n_range,eta_values", [([], [9]), ([100], [])])
def test_storage_curves_need_nonempty_ranges(n_range, eta_values):
    with pytest.raises(ValueError, match="nonempty"):
        storage_curves(n_range, eta_values, 128)


# -- sweeps --------------------------------------------------------------------

def grid(n_values, seeds, avg_degree=6.0, placement=protocol.Placement.clustered()):
    """Cells of n_values x range(seeds), in that order, at eta 9 on the
    default field and key length."""
    return [Cell(n, 9, avg_degree, placement, s, analysis.DEFAULT_FIELD,
                 analysis.DEFAULT_FIELD, analysis.DEFAULT_KEY_BITS)
            for n in n_values for s in range(seeds)]


def test_sweep_row_grid_and_floor():
    cells = grid([40, 20], 3)
    rows = sweep_domset_sizes(cells)
    assert [(r.n, r.seed) for r in rows] == [(c.n, c.seed) for c in cells]
    for r in rows:
        assert r.dominators_ours >= ideal_domset_size(r.n, r.eta)
        assert isinstance(r.wcds_valid, bool)
        assert r.distinct_keys == r.n
        assert r.gd_storage_bits == keying.storage_gd_bits(r.eta, 128)


def test_sweep_clustered_beats_greedy_on_average():
    rows = sweep_domset_sizes(grid([60], 10))
    ours = sum(r.dominators_ours for r in rows) / len(rows)
    g1 = sum(r.dominators_greedy_I for r in rows) / len(rows)
    g2 = sum(r.dominators_greedy_II for r in rows) / len(rows)
    assert ours < g1
    assert ours < g2


def test_sweep_cross_checked_against_exhaustive_oracle():
    # at n=20 the exhaustive minimum-DS oracle is feasible on the same graph
    row = sweep_domset_sizes(grid([20], 1))[0]
    radius = udg.radius_for_expected_degree(20, 500, 500, 6.0)
    g = analysis.realize(20, 9, radius, protocol.Placement.clustered(), row.seed,
                         500, 500, 128).graph
    min_ds = min_set_exhaustive(g, is_dominating)
    assert row.dominators_ours >= len(min_ds)


def test_sweep_is_deterministic_and_parallel_safe():
    # rows come back in cell order, which here is sorted by neither n nor
    # seed and mixes both degrees and both placements
    clustered, uniform = protocol.Placement.clustered(), protocol.Placement.uniform()
    cells = [Cell(n, 9, degree, placement, seed, 500.0, 500.0, 128)
             for n, degree, placement, seed in [
                 (40, 12.0, clustered, 2), (20, 6.0, uniform, 0), (40, 6.0, clustered, 0),
                 (20, 12.0, uniform, 3), (30, 6.0, clustered, 1)]]
    serial = sweep_domset_sizes(cells)
    assert [(r.n, r.avg_degree_target, r.placement, r.seed) for r in serial] == \
        [(c.n, c.avg_degree, c.placement.describe(), c.seed) for c in cells]
    assert serial == [analysis.run_experiment_cell(c) for c in cells]
    assert serial == sweep_domset_sizes(cells, workers=1)
    assert serial == sweep_domset_sizes(cells, workers=2)


def test_uniform_sweep_counts_promotions():
    # sparse uniform placement produces orphans; dominator count still floors
    rows = sweep_domset_sizes(grid([30], 5, placement=protocol.Placement.uniform()))
    for r in rows:
        assert r.dominators_ours >= ideal_domset_size(30, 9)
        assert r.placement == "UNIFORM"


# -- formation validity ----------------------------------------------------------

def churned_state(seed):
    """A formed network with held-back nodes, then joins, leaves and a
    revocation; returned with the set of nodes held back from formation.

    Size, density, eta and placement are drawn from the seed, so across
    seeds the states include UNREACHABLE orphans, promoted groups, joins on
    and off a group's access list, leaves and revoked groups.
    """
    rng = random.Random(seed)
    n = rng.randrange(2, 90)
    eta = rng.randrange(0, 10)
    radius = udg.radius_for_expected_degree(n, 300, 300, rng.uniform(2.0, 10.0))
    plan = keying.build_plan(n, eta, 64, seed)
    if rng.random() < 0.5:
        placement = protocol.Placement.uniform()
        g = udg.generate_uniform(n, 300, 300, radius, seed)
    else:
        placement = protocol.Placement.clustered(radius * rng.uniform(0.2, 1.0))
        g = protocol.deploy_graph(plan, 300, 300, radius, placement, seed)
    held = {v for v in range(n) if rng.random() < 0.2}
    state = protocol.form_network(g, plan, placement, seed,
                                  deployed=set(range(n)) - held)
    for v in sorted(held):
        groups = [gid for gid in sorted(state.group_dominator) if state._gid_valid(gid)
                  and v in g.neighbors(state.group_dominator[gid])]
        if groups and rng.random() < 0.7:
            state.join_node(v, rng.choice(groups))
    cm = state.cluster_map
    members = sorted(v for v, d in cm.dominator_of.items() if d != v)
    for v in rng.sample(members, min(len(members), rng.randrange(0, 4))):
        state.leave_node(v)
    live = [gid for gid in sorted(state.group_dominator) if state._gid_valid(gid)]
    if live and rng.random() < 0.4:
        state.revoke_group(rng.choice(live))
    return state, held


def reference_validity(state):
    """formation_validity's report, recomputed with networkx."""
    cm = state.cluster_map
    active = (set(cm.ranks) & state.deployed) - cm.unreachable()
    doms = set(cm.dominator_set()) & active
    ref = nx.Graph()
    ref.add_nodes_from(active)
    ref.add_edges_from((v, w) for v in active for w in state.graph.neighbors(v)
                       if w in active)
    weak = nx.Graph()
    weak.add_nodes_from(doms)
    weak.add_edges_from((u, v) for u, v in ref.edges() if u in doms or v in doms)
    dominating = nx.is_dominating_set(ref, doms)
    return domsets.DomsetReport(
        is_dominating=dominating,
        is_cds=dominating and (len(doms) <= 1 or nx.is_connected(ref.subgraph(doms))),
        is_wcds=dominating and (len(doms) <= 1 or nx.is_connected(weak)),
    )


def test_formation_validity_matches_networkx_on_churned_networks():
    seen = Counter()
    for seed in range(80):
        state, held = churned_state(seed)
        report = analysis.formation_validity(state)
        assert report == reference_validity(state), seed
        cm = state.cluster_map
        seen["held back"] += len(held)
        seen["unreachable"] += bool(cm.unreachable())
        seen["joined"] += any(e.cause == "join" for e in cm.rekey_log)
        seen["joined a promoted group"] += any(
            e.cause == "join" and e.group_id >= len(state.plan.groups)
            for e in cm.rekey_log)
        seen["left"] += any(e.cause == "leave" for e in cm.rekey_log)
        seen["revoked"] += bool(state.revoked_groups)
        seen["not wcds"] += not report.is_wcds
        seen["wcds, not cds"] += report.is_wcds and not report.is_cds
    assert min(seen.values()) > 0, seen


# -- CSV writers -----------------------------------------------------------------

SAMPLE_CELLS = {"int": (7, "7"), "float": (6.0, "6"), "str": ("clustered", "clustered")}


@pytest.mark.parametrize("row_type", [analysis.ExperimentRow, analysis.StorageRow,
                                      analysis.ConnectivityRow])
def test_write_table_names_the_fields_and_formats_each_cell(row_type, tmp_path):
    cols = dataclasses.fields(row_type)
    rows = [row_type(**{f.name: flag if f.type == "bool" else SAMPLE_CELLS[f.type][0]
                        for f in cols})
            for flag in (True, False)]
    path = tmp_path / "table.csv"
    analysis.write_table(row_type, rows, path)
    header, *lines = path.read_text().splitlines()
    assert header == ",".join(f.name for f in cols)
    assert [line.split(",") for line in lines] == [
        [text if f.type == "bool" else SAMPLE_CELLS[f.type][1] for f in cols]
        for text in ("true", "false")]
