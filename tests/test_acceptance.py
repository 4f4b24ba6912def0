"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import random
import time

from secluster import analysis, domsets, keying, protocol, udg
from secluster.cli import main as cli_main
from secluster.domsets import SetKind, min_set_exhaustive
from secluster.protocol import AdversaryProfile, Placement
from secluster.udg import Point


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")
        return run
    return wrap


@criterion(1, "size ladder |DS| <= |WCDS| <= |CDS| on 200 graphs, C6 = (2,3,4)")
def test_c1_size_ladder():
    start = time.monotonic()
    c6 = domsets.AdjacencyGraph.cycle(6)
    sizes = tuple(len(min_set_exhaustive(c6, k))
                  for k in (SetKind.DS, SetKind.WCDS, SetKind.CDS))
    assert sizes == (2, 3, 4)

    checked = 0
    seed = 0
    while checked < 200:
        n = 4 + seed % 7  # n in 4..10
        g = udg.generate_uniform(n, 10, 10, 4.5, seed)
        seed += 1
        if not udg.is_connected(g):
            continue
        ds = min_set_exhaustive(g, SetKind.DS)
        wcds = min_set_exhaustive(g, SetKind.WCDS)
        cds = min_set_exhaustive(g, SetKind.CDS)
        assert ds is not None and wcds is not None and cds is not None
        assert len(ds) <= len(wcds) <= len(cds), f"ladder violated at seed {seed - 1}"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"ladder took {elapsed:.1f}s"


@criterion(2, "intact clustered deployment hits ceil(n/(eta+1)) exactly")
def test_c2_ideal_dominator_count():
    for n, eta, expected in ((100, 9, 10), (60, 5, 10), (101, 9, 11)):
        for seed in range(5):
            radius = udg.radius_for_expected_degree(n, 500, 500, 6.0)
            plan = keying.build_plan(n, eta, 128, seed=seed)
            placement = Placement.clustered(radius / 4)
            g = protocol.deploy_graph(plan, 500, 500, radius, placement, seed)
            cm = protocol.form_network(g, plan, placement, seed).cluster_map
            assert len(cm.dominator_set()) == expected, (n, eta, seed)
            assert cm.orphan_events == []


@criterion(3, "storage formulas exact on a 100-tuple grid plus decomposition")
def test_c3_storage_formulas():
    rng = random.Random(314159)
    for _ in range(100):
        alpha = rng.randrange(0, 500)
        beta = rng.randrange(0, 5000)
        eta = rng.randrange(0, 64)
        k = rng.choice([64, 128, 256])
        gd = keying.storage_gd_bits(eta, k)
        os_ = keying.storage_os_bits(k)
        net = keying.storage_network_bits(alpha, beta, eta, k)
        assert gd == (eta + 1) * k
        assert os_ == 2 * k
        assert net == k * (alpha * (eta + 1) + 2 * beta)
        assert net == alpha * gd + beta * os_


@criterion(4, "connectivity threshold and expected degree match the oracle")
def test_c4_connectivity_analysis():
    # oracle values computed independently at high precision
    p = analysis.threshold_p(100, 0.999).p_raw
    d = analysis.expected_gd_degree(100, 0.999)
    assert abs(p - 0.11512425256511808) / 0.11512425256511808 <= 1e-9
    assert abs(d - 11.39730100394669) / 11.39730100394669 <= 1e-9

    step = analysis.expected_gd_degree(100, 0.99) - analysis.expected_gd_degree(100, 0.9)
    assert abs(step - 2.326) <= 0.01  # oracle: 2.3262840804694934

    for p_c in (0.9, 0.99, 0.999):
        gap = abs(analysis.expected_gd_degree(2000, p_c)
                  - analysis.expected_gd_degree(1000, p_c))
        assert gap < 0.75


@criterion(5, "formed dominator sets beat both greedy baselines at every n")
def test_c5_dominator_sweep_ordering():
    start = time.monotonic()
    n_values = list(range(20, 201, 20))
    rows = analysis.sweep_domset_sizes(
        n_values, 6.0, 9, Placement.clustered(), seeds=30)
    assert len(rows) == len(n_values) * 30
    for n in n_values:
        cell = [r for r in rows if r.n == n]
        ours = sum(r.dominators_ours for r in cell) / len(cell)
        greedy_one = sum(r.dominators_greedy_I for r in cell) / len(cell)
        greedy_two = sum(r.dominators_greedy_II for r in cell) / len(cell)
        assert ours < greedy_one, f"n={n}: {ours} !< {greedy_one}"
        assert ours < greedy_two, f"n={n}: {ours} !< {greedy_two}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"


@criterion(6, "distinct key count equals sensor count across n = 20..200")
def test_c6_distinct_keys():
    for n in range(20, 201):
        plan = keying.build_plan(n, 9, 128, seed=n)
        assert plan.distinct_key_count() == n
    for n in range(20, 201, 10):
        # full groups: exact alpha/beta split
        plan = keying.build_plan(n, 9, 128, seed=n)
        assert plan.gd_count == n // 10
        assert plan.os_count == n - n // 10
        row = analysis.storage_curves([n], [9], 128)[0]
        assert row.distinct_keys == n


def _security_scenario(seed):
    """Four hand-placed groups; nodes 2 and 8 arrive after formation."""
    plan = keying.build_plan(12, 2, 128, seed=seed)
    positions = [
        Point(0, 0), Point(1, 0), Point(0.5, 0.5),      # group 0
        Point(10, 0), Point(11, 0), Point(10, 1),       # group 1
        Point(20, 0), Point(21, 0), Point(29.5, 0.5),   # group 2 (8 strayed)
        Point(30, 0), Point(31, 0), Point(30, 1),       # group 3
    ]
    g = udg.from_positions(positions, 3.0)
    state = protocol.form_network(g, plan, Placement.uniform(), seed=seed,
                                  deployed=[i for i in range(12) if i not in (2, 8)])
    rng = random.Random(seed)
    assert state.join_node(2, 0)        # on the access list
    assert state.join_node(8, 3)        # foreign group, BS confirmation
    leaver = rng.choice([4, 5])
    assert state.leave_node(leaver)
    if seed % 2 == 0:
        assert state.leave_node(2)
    return state, rng


@criterion(7, "outsider containment, rekey freshness, one-node-one-link")
def test_c7_security_properties():
    for seed in range(50):
        state, rng = _security_scenario(seed)

        # (a) outsider: no admissions, no decryptions
        outsider = state.simulate_adversary(AdversaryProfile.outsider(),
                                            1000, seed=seed)
        assert outsider.admissions == 0, f"seed {seed}"
        assert outsider.decrypted == [], f"seed {seed}"

        # (b) after any rekey the previous fingerprint goes silent
        for ev in state.cluster_map.rekey_log:
            stale = [te for te in state.trace
                     if te.round > ev.round
                     and te.envelope.key_fingerprint == ev.old_key_id]
            assert stale == [], f"seed {seed}: stale key used after round {ev.round}"

        # (c) a compromised sensor reads exactly its own links
        candidates = sorted(m for gid, members in state.group_members.items()
                            for m in members)
        target = rng.choice(candidates)
        profile = AdversaryProfile.compromised_os(state, target)
        report = state.simulate_adversary(profile, 100, seed=seed)
        assert report.admissions == 0, f"seed {seed}"
        grants = set(state.rings[target])
        trace_fps = {te.envelope.key_fingerprint for te in state.trace}
        got = {fp for (_, _, fp) in report.decrypted}
        assert got == grants & trace_fps, f"seed {seed}: leak beyond own links"


@criterion(8, "every formed network dominates; mediators touch two dominators")
def test_c8_protocol_soundness():
    checked = 0
    for placement in (Placement.clustered(), Placement.uniform()):
        for n in (20, 60, 100):
            for seed in range(10):
                radius = udg.radius_for_expected_degree(n, 500, 500, 6.0)
                plan = keying.build_plan(n, 9, 128, seed=seed)
                if placement.mode is protocol.PlacementMode.UNIFORM:
                    g = udg.generate_uniform(n, 500, 500, radius, seed)
                else:
                    g = protocol.deploy_graph(plan, 500, 500, radius,
                                              placement, seed)
                state = protocol.form_network(g, plan, placement, seed)
                cm = state.cluster_map
                report = analysis.formation_validity(state)
                assert report.is_dominating, (placement.describe(), n, seed)
                assert isinstance(report.is_wcds, bool)
                for node, foreign in cm.mediators().items():
                    own = cm.dominator_of[node]
                    assert own in g.neighbors(node)
                    assert foreign
                    for dom in foreign:
                        assert dom != own
                        assert dom in g.neighbors(node)
                        assert cm.ranks[dom] in (protocol.Rank.GD,
                                                 protocol.Rank.GDOS)
                checked += 1
    assert checked == 60


@criterion(9, "sweep CLI is byte-identical across invocations")
def test_c9_cli_determinism(tmp_path_factory):
    out1 = tmp_path_factory.mktemp("sweep1")
    out2 = tmp_path_factory.mktemp("sweep2")
    args = ["sweep", "--n-range6", "20:80:20", "--n-range12", "40:80:20",
            "--seeds", "5", "--curve-n", "100:1000:100", "--seed", "11"]
    assert cli_main(args + ["--out-dir", str(out1)]) == 0
    assert cli_main(args + ["--out-dir", str(out2)]) == 0
    names = ["sweep.csv", "fig9.csv", "fig10.csv", "fig12.csv",
             "fig9.svg", "fig10.svg", "fig11.svg", "fig12.svg"]
    for name in names:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between runs"
