import copy
import csv
import hashlib
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracle import forged_join_admitted, nonces, reference_plan, reference_replay, seal
from secluster import analysis, keying, protocol, udg
from secluster.protocol import (
    BS_ID,
    AdversaryProfile,
    Kind,
    Placement,
    Rank,
    form_network,
)
from secluster.trace import FloodEvent
from secluster.udg import Point


def ideal_group():
    """One GD at the origin with three members in range."""
    plan = keying.build_plan(4, 3, 128, seed=7)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, 0)], 2.0)
    return g, plan


def two_groups_linear():
    """group0 = {gd 0, os 1}, group1 = {gd 2, os 3} on a line, radius 1."""
    plan = keying.build_plan(4, 1, 128, seed=13)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)], 1.0)
    return g, plan


def join_leave_network():
    """Two groups of 1 GD + 2 Os; node 5 withheld, in range of both GDs."""
    plan = keying.build_plan(6, 2, 128, seed=3)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(0, 1),
         Point(10, 0), Point(11, 0), Point(5, 0)], 6.0)
    state = form_network(g, plan, Placement.uniform(), seed=1,
                         deployed=[0, 1, 2, 3, 4])
    return state


def held_back_network(placement, n=80, deg=4, seed=0):
    """A field of n sensors with every v % 7 == 3 held back from formation."""
    plan = keying.build_plan(n, 9, 128, seed=seed)
    radius = udg.radius_for_expected_degree(n, 500, 500, deg)
    g = protocol.deploy_graph(plan, 500, 500, radius, placement, seed=seed)
    held = [v for v in range(n) if v % 7 == 3]
    state = form_network(g, plan, placement, seed=seed,
                         deployed=set(range(n)) - set(held))
    return g, state, held


def vault_key_ids(vault):
    """Fingerprints of every key in the vault's two maps."""
    ids = {k.key_id for k in vault.all_individual_keys.values()}
    return ids | {k.key_id for h in vault.group_key_history.values() for k in h}


def churned_uniform_network():
    """Uniform formation with promotions and isolated orphans, then churn.

    Each held-back sensor joins the first group, planned or promoted, whose
    dominator hears it (on or off its access list), and three members
    leave, so the trace holds every message kind and the groups have rekeyed.
    """
    g, state, held = held_back_network(Placement.uniform())
    for v in held:
        for gid in sorted(state.group_dominator):
            if (v not in state.deployed and state._gid_valid(gid)
                    and v in g.neighbors(state.group_dominator[gid])):
                state.join_node(v, gid)
    members = sorted(v for v, d in state.cluster_map.dominator_of.items() if d != v)
    for v in members[:3]:
        assert state.leave_node(v)
    return state


# -- formation ---------------------------------------------------------------

def test_ideal_single_group():
    g, plan = ideal_group()
    cm = form_network(g, plan, Placement.uniform(), seed=1).cluster_map
    assert cm.dominator_set() == {0}
    assert cm.dominator_of == {0: 0, 1: 0, 2: 0, 3: 0}
    assert cm.orphan_events == []
    assert cm.ranks == {0: Rank.GD, 1: Rank.OS, 2: Rank.OS, 3: Rank.OS}


def test_formation_message_sequence():
    g, plan = ideal_group()
    state = form_network(g, plan, Placement.uniform(), seed=1)
    kinds = [(ev.round, ev.envelope.kind) for ev in state.trace]
    assert kinds == [(1, Kind.JOIN_REQ)] * 3 + [(2, Kind.JOIN_APRV)]
    aprv = state.trace.records[-1]
    assert aprv.envelope.sender == 0
    assert aprv.envelope.key_fingerprint == plan.groups[0].group_key.key_id
    assert aprv.receivers == (1, 2, 3)


@pytest.mark.parametrize("placement", [Placement.uniform(), Placement.clustered()])
def test_formation_ignores_its_seed(tmp_path, placement):
    # every orphan outcome occurs, and still the seed changes nothing
    n = 120
    plan = keying.build_plan(n, 9, 128, seed=2)
    radius = udg.radius_for_expected_degree(n, 300, 300, 5.0)
    g = protocol.deploy_graph(plan, 300, 300, radius, placement, seed=2)
    a, b = (form_network(g, plan, placement, seed=s) for s in (0, 12345))
    assert a.cluster_map == b.cluster_map
    if placement.mode is protocol.PlacementMode.UNIFORM:
        assert {e.resolution for e in a.cluster_map.orphan_events} == \
            {"ADOPTED", "PROMOTED", "UNREACHABLE"}
    for name, state in (("a.csv", a), ("b.csv", b)):
        protocol.write_trace_csv(state.trace, tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_plan_graph_size_mismatch_rejected():
    g, _ = ideal_group()
    plan = keying.build_plan(5, 3, 128, seed=7)
    with pytest.raises(ValueError):
        form_network(g, plan, Placement.uniform(), seed=1).cluster_map
    _, plan = ideal_group()
    for v in (4, -1):
        with pytest.raises(ValueError, match=f"deployed node {v} not in graph"):
            protocol.NetworkState(g, plan, deployed=[0, v])


def test_a_networks_plan_forms_the_network_its_source_plan_forms():
    # the first network rekeys group 0 and promotes orphans into new groups;
    # a second network formed from its plan starts every key history afresh
    n, seed = 300, 1
    plan = keying.build_plan(n, 9, 128, analysis.derive_seed("plan", seed))
    radius = udg.radius_for_expected_degree(n, 500, 500, 6.0)
    g = protocol.deploy_graph(plan, 500, 500, radius, Placement.uniform(),
                              analysis.derive_seed("graph", seed))
    deployed = {v for v in range(n) if v % 7 != 3}
    state = form_network(g, plan, Placement.uniform(), seed, deployed)
    assert any(e.resolution == "PROMOTED" for e in state.cluster_map.orphan_events)
    assert state.leave_node(min(state.group_members[0]))
    again, fresh = (form_network(g, p, Placement.uniform(), seed, deployed)
                    for p in (state.plan, plan))
    assert again.group_key == fresh.group_key
    assert again.plan.vault == fresh.plan.vault
    assert again.rings == fresh.rings
    key = again.group_key[0].key_id
    assert all(key in again.rings[m] for m in again.group_members[0])


def test_orphan_adopted_by_foreign_gd():
    # os 3's own GD (2) is far away; foreign gd 0 is adjacent
    plan = keying.build_plan(4, 1, 128, seed=9)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(100, 0), Point(1.5, 0)], 2.0)
    cm = form_network(g, plan, Placement.uniform(), seed=1).cluster_map
    assert cm.orphan_events == [protocol.OrphanEvent(3, "ADOPTED", 0)]
    assert cm.dominator_of[3] == 0
    assert cm.ranks[3] is Rank.OS


def test_adopter_is_least_loaded_neighbor_gd():
    # orphan 5 hears gd 0 (one subordinate) and gd 2 (none): 2 must adopt
    plan = keying.build_plan(6, 1, 128, seed=9)
    g = udg.from_positions(
        [Point(0, 0), Point(0.5, 0), Point(1.0, 0), Point(100, 0),
         Point(50, 0), Point(0.7, 0)], 1.0)
    cm = form_network(g, plan, Placement.uniform(), seed=1).cluster_map
    adopted = [e for e in cm.orphan_events if e.node == 5]
    assert adopted == [protocol.OrphanEvent(5, "ADOPTED", 2)]


def test_orphan_promoted_when_no_gd_in_range():
    # os 3 only hears os 1, which relays its error flood to the BS
    plan = keying.build_plan(4, 1, 128, seed=9)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(100, 0), Point(2.5, 0)], 2.0)
    cm = form_network(g, plan, Placement.uniform(), seed=1).cluster_map
    assert cm.orphan_events == [protocol.OrphanEvent(3, "PROMOTED")]
    assert cm.ranks[3] is Rank.GDOS
    assert cm.dominator_of[3] == 3
    assert 3 in cm.dominator_set()


def test_isolated_orphan_unreachable(tmp_path):
    plan = keying.build_plan(4, 1, 128, seed=9)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(100, 0), Point(500, 500)], 2.0)
    state = form_network(g, plan, Placement.uniform(), seed=1)
    cm = state.cluster_map
    assert cm.orphan_events == [protocol.OrphanEvent(3, "UNREACHABLE")]
    assert 3 not in cm.dominator_of
    assert 3 in cm.unreachable()
    # it stays a deployed ordinary sensor of no group: it cannot leave,
    # and it cannot join again
    assert cm.ranks[3] is Rank.OS
    protocol.write_clustermap_csv(cm, tmp_path / "clustermap.csv")
    assert (tmp_path / "clustermap.csv").read_text().splitlines()[-1] == \
        "3,Os,-1,false,UNREACHABLE"
    assert not state.leave_node(3)
    assert not state.join_node(3, 0)
    assert state.audit_log == ["leave ignored: node 3 is not a group member",
                               "join denied: node 3 already deployed"]


def test_promoted_node_gets_fresh_group_key():
    plan = keying.build_plan(4, 1, 128, seed=9)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(100, 0), Point(2.5, 0)], 2.0)
    state = form_network(g, plan, Placement.uniform(), seed=1)
    new_gid = max(state.group_dominator)
    assert state.group_dominator[new_gid] == 3
    key = state.group_key[new_gid]
    assert key.key_id in state.rings[3]
    assert state.plan.vault.group_key_history[new_gid][-1] == key


def test_mediator_recorded_with_adjacency():
    g, plan = two_groups_linear()
    cm = form_network(g, plan, Placement.uniform(), seed=1).cluster_map
    # os 1 hears both dominators; os 3 hears only its own
    assert cm.mediators() == {1: frozenset({2})}
    for node, foreign in cm.mediators().items():
        own = cm.dominator_of[node]
        assert own in g.neighbors(node)
        for d in foreign:
            assert d in g.neighbors(node)
            assert d != own


def test_mediators_and_dominators_follow_leaves_joins_and_revocations(tmp_path):
    # os 1 hears its own GD 0 and the foreign GD 2 until it leaves
    g, plan = two_groups_linear()
    state = form_network(g, plan, Placement.uniform(), seed=1)
    cm = state.cluster_map
    assert state.leave_node(1)
    assert 1 not in cm.mediators()
    protocol.write_clustermap_csv(cm, tmp_path / "cm.csv")
    # a node that has left is no longer deployed, so it has no row
    rows = (tmp_path / "cm.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "2", "3"]
    # node 5 joins group 1 and hears GD 0, so it bridges to group 0 until
    # group 0 is revoked; then no entry names GD 0, and GD 0 is no dominator
    state = join_leave_network()
    cm = state.cluster_map
    assert state.join_node(5, 1)
    assert cm.mediators() == {5: frozenset({0})}
    state.revoke_group(0)
    assert cm.mediators() == {}
    assert cm.dominator_set() == {3}


def test_error_flood_is_relayed_without_decryption():
    plan = keying.build_plan(4, 1, 128, seed=9)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(100, 0), Point(2.5, 0)], 2.0)
    state = form_network(g, plan, Placement.uniform(), seed=1)
    floods = [ev for ev in state.trace if ev.envelope.kind is Kind.GD_ERR]
    # origin broadcast from 3 plus one relay per reached node
    transmitters = [ev.transmitter for ev in floods]
    assert transmitters[0] == 3
    assert set(transmitters) == {3, 1, 0}
    # the envelope stays the orphan's; relayers never re-encrypt
    assert all(ev.envelope.sender == 3 for ev in floods)
    assert len({ev.envelope.key_fingerprint for ev in floods}) == 1


@pytest.mark.parametrize("placement", [
    Placement.uniform(),
    Placement.clustered(2 * udg.radius_for_expected_degree(80, 500, 500, 4)),
], ids=["uniform", "clustered"])
def test_flood_relays_reach_the_relayers_deployed_neighbours(placement):
    g, state, held = held_back_network(placement)
    assert held
    assert any(ev.transmitter != ev.envelope.sender for ev in state.trace)
    # local broadcasts of rounds 1-3, flood relays included
    for ev in state.trace:
        if ev.envelope.kind in (Kind.JOIN_REQ, Kind.JOIN_APRV, Kind.GD_ERR):
            assert ev.receivers == tuple(sorted(g.neighbors(ev.transmitter)
                                                & state.deployed))


@st.composite
def formed_networks(draw):
    """A small field formed with every node deployed or with some held back."""
    n = draw(st.integers(2, 40))
    radius = udg.radius_for_expected_degree(n, 100, 100, draw(st.floats(2.0, 8.0)))
    placement = draw(st.sampled_from([Placement.uniform(), Placement.clustered(radius / 2)]))
    seed = draw(st.integers(0, 2 ** 16))
    plan = keying.build_plan(n, draw(st.integers(0, 6)), 64, seed)
    g = protocol.deploy_graph(plan, 100, 100, radius, placement, seed)
    held = draw(st.one_of(st.just(set()), st.sets(st.integers(0, n - 1), max_size=n // 2)))
    return g, form_network(g, plan, placement, seed, deployed=set(range(n)) - held)


@given(formed_networks())
def test_formation_sends_to_deployed_nodes_in_ascending_order(case):
    # the neighbourhood snapshot skips its intersection with the deployed
    # nodes when none is held back; either way it lists deployed nodes only
    g, state = case
    deployed = state.deployed
    for rec in state.trace.records:
        if type(rec) is FloodEvent:
            assert rec.nbrs.keys() == deployed
            for v, heard in rec.nbrs.items():
                assert heard == tuple(sorted(g.neighbors(v) & deployed))
    for ev in state.trace:
        assert all(a < b for a, b in zip(ev.receivers, ev.receivers[1:])), ev
        assert set(ev.receivers) <= deployed | {BS_ID}, ev


def test_domination_invariant_on_random_networks():
    for seed in range(10):
        n = 60
        radius = udg.radius_for_expected_degree(n, 300, 300, 6)
        plan = keying.build_plan(n, 5, 128, seed=seed)
        g = udg.generate_uniform(n, 300, 300, radius, seed=seed)
        state = form_network(g, plan, Placement.uniform(), seed=seed)
        report = analysis.formation_validity(state)
        assert report.is_dominating


def test_formation_is_deterministic():
    def run():
        plan = keying.build_plan(50, 4, 128, seed=77)
        radius = udg.radius_for_expected_degree(50, 200, 200, 6)
        g = udg.generate_uniform(50, 200, 200, radius, seed=77)
        state = form_network(g, plan, Placement.uniform(), seed=77)
        nonce = nonces(state.trace)
        trace = [(ev.round, ev.envelope.sender, ev.envelope.kind.value,
                  ev.envelope.key_fingerprint,
                  seal(ev.envelope, state.plan, nonce[id(ev.envelope)]),
                  ev.receivers) for ev in state.trace]
        return state.cluster_map, trace

    cm1, t1 = run()
    cm2, t2 = run()
    assert cm1.dominator_of == cm2.dominator_of
    assert cm1.ranks == cm2.ranks
    assert cm1.mediators() == cm2.mediators()
    assert cm1.orphan_events == cm2.orphan_events
    assert t1 == t2


# -- placement ---------------------------------------------------------------

def test_clustered_placement_keeps_members_near_dominator():
    plan = keying.build_plan(40, 3, 128, seed=5)
    g = protocol.deploy_graph(plan, 200, 200, 20, Placement.clustered(5.0),
                              seed=42)
    for grec in plan.groups:
        gp = g.positions[grec.dominator]
        for m in grec.members:
            mp = g.positions[m]
            d = ((gp.x - mp.x) ** 2 + (gp.y - mp.y) ** 2) ** 0.5
            assert d <= 5.0 + 1e-9
            assert m in g.neighbors(grec.dominator)


def test_clustered_placement_stays_in_field():
    plan = keying.build_plan(60, 5, 128, seed=6)
    g = protocol.deploy_graph(plan, 100, 80, 15, Placement.clustered(30.0),
                              seed=1)
    for p in g.positions:
        assert 0 <= p.x <= 100
        assert 0 <= p.y <= 80


@pytest.mark.parametrize("placement", [Placement.uniform(), Placement.clustered(5.0)])
@pytest.mark.parametrize("width, height", [(-10, 100), (100, 0), (float("nan"), 100)])
def test_deploy_graph_rejects_a_field_without_area(placement, width, height):
    plan = keying.build_plan(20, 3, 128, seed=5)
    with pytest.raises(ValueError, match="field dimensions must be > 0"):
        protocol.deploy_graph(plan, width, height, 20, placement, seed=1)


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
def test_clustered_placement_rejects_a_non_positive_rho(rho):
    with pytest.raises(ValueError, match="rho must be > 0"):
        Placement.clustered(rho)


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(12.3456789)
def test_clustered_placement_names_its_exact_rho(rho):
    # a sweep row's placement column must re-form the row's landing
    described = Placement.clustered(rho).describe()
    assert described.startswith("CLUSTERED(rho=") and described.endswith(")")
    assert float(described[len("CLUSTERED(rho="):-1]) == rho


def test_clustered_ideal_fill_hits_eq2_count():
    for n, eta, expect in ((100, 9, 10), (60, 5, 10), (101, 9, 11)):
        plan = keying.build_plan(n, eta, 128, seed=n)
        radius = udg.radius_for_expected_degree(n, 500, 500, 6)
        g = protocol.deploy_graph(plan, 500, 500, radius,
                                  Placement.clustered(radius / 4), seed=n)
        cm = form_network(g, plan, Placement.clustered(radius / 4), seed=n).cluster_map
        assert len(cm.dominator_set()) == expect
        assert cm.orphan_events == []


def test_single_group_clustered_is_valid_wcds():
    plan = keying.build_plan(8, 7, 128, seed=2)
    g = protocol.deploy_graph(plan, 100, 100, 20, Placement.clustered(10.0),
                              seed=2)
    state = form_network(g, plan, Placement.clustered(10.0), seed=2)
    report = analysis.formation_validity(state)
    assert report.is_wcds


# -- membership dynamics -----------------------------------------------------

def test_join_on_access_list_rotates_group_key():
    state = join_leave_network()
    old = state.group_key[1]
    assert state.join_node(5, 1)
    new = state.group_key[1]
    assert new.key_id != old.key_id
    assert state.cluster_map.rekey_log[-1].cause == "join"
    assert state.cluster_map.dominator_of[5] == 3
    # newcomer got the key under its individual key; old members via old key
    rekey_msgs = [ev for ev in state.trace
                  if ev.envelope.kind in (Kind.REKEY_TO_NEW, Kind.REKEY_BCAST)]
    to_new = [ev for ev in rekey_msgs if ev.receivers == (5,)]
    assert to_new[0].envelope.key_fingerprint == state.individual_key(5).key_id
    bcast = [ev for ev in rekey_msgs if ev.envelope.kind is Kind.REKEY_BCAST]
    assert bcast[0].envelope.key_fingerprint == old.key_id


def test_join_off_access_list_needs_bs_confirmation():
    state = join_leave_network()
    # node 5 is provisioned for group 1 but joins group 0
    assert state.join_node(5, 0)
    assert state.cluster_map.dominator_of[5] == 0
    assert 5 in state.group_members[0]
    kinds = [ev.envelope.kind for ev in list(state.trace)[-5:]]
    assert Kind.ORP_ERR in kinds  # GD escalated the unknown id to the BS


def test_join_unknown_id_denied():
    state = join_leave_network()
    before = len(state.cluster_map.rekey_log)
    assert not state.join_node(99, 0)
    assert len(state.cluster_map.rekey_log) == before
    assert any("99" in msg for msg in state.audit_log)


def test_join_out_of_range_denied():
    plan = keying.build_plan(3, 2, 128, seed=4)
    g = udg.from_positions([Point(0, 0), Point(1, 0), Point(50, 0)], 2.0)
    state = form_network(g, plan, Placement.uniform(), seed=1, deployed=[0, 1])
    assert not state.join_node(2, 0)
    assert any("out of range" in msg for msg in state.audit_log)


def test_leave_rotates_key_and_locks_out_leaver():
    state = join_leave_network()
    old = state.group_key[0]
    assert state.leave_node(1)
    new = state.group_key[0]
    assert new.key_id != old.key_id
    assert 1 not in state.group_members[0]
    assert 1 not in state.cluster_map.dominator_of
    # remaining member 2 was rekeyed under its individual key
    last = [ev for ev in state.trace if ev.envelope.kind is Kind.REKEY_TO_NEW]
    assert last[-1].receivers == (2,)
    assert last[-1].envelope.key_fingerprint == state.individual_key(2).key_id
    # node 1 never receives the new key
    assert new.key_id not in state.rings[1]
    assert new.key_id in state.rings[2]


def test_leaver_cannot_read_subsequent_group_traffic():
    state = join_leave_network()
    leaver_ring = set(state.rings[1])
    state.leave_node(1)
    # subsequent group-keyed traffic: a join in the same group
    state.join_node(5, 0)
    bcast = [ev for ev in state.trace
             if ev.envelope.kind is Kind.REKEY_BCAST][-1]
    # fingerprint unknown to the leaver's old ring
    assert bcast.envelope.key_fingerprint not in leaver_ring


def test_rekey_freshness_over_scenario():
    """Old group-key fingerprints never appear in rounds after their rekey."""
    state = join_leave_network()
    state.join_node(5, 1)
    state.leave_node(5)
    state.join_node(5, 0)
    state.leave_node(1)
    for ev in state.cluster_map.rekey_log:
        later = [te for te in state.trace
                 if te.round > ev.round
                 and te.envelope.key_fingerprint == ev.old_key_id]
        assert later == []


def test_last_member_leaving_still_rotates():
    plan = keying.build_plan(2, 1, 128, seed=8)
    g = udg.from_positions([Point(0, 0), Point(1, 0)], 2.0)
    state = form_network(g, plan, Placement.uniform(), seed=1)
    old = state.group_key[0].key_id
    assert state.leave_node(1)
    assert state.group_key[0].key_id != old
    assert state.group_members[0] == set()


def test_dominator_cannot_leave():
    state = join_leave_network()
    assert not state.leave_node(0)
    assert any("dominator" in msg for msg in state.audit_log)
    assert not state.leave_node(42)  # unknown node: audited no-op
    assert len(state.audit_log) == 2


def test_a_revoked_dominator_is_no_group_member():
    state = join_leave_network()
    state.revoke_group(1)
    assert not state.leave_node(3)
    assert state.audit_log[-1] == "leave ignored: node 3 is not a group member"


def test_a_join_into_a_revoked_or_unknown_group_is_refused():
    state = join_leave_network()
    state.revoke_group(1)
    for gid in (1, 7):
        assert not state.join_node(5, gid)
        assert state.audit_log[-1] == f"join denied: group {gid} not operational"
    assert 5 not in state.deployed


def test_key_rings_match_the_join_leave_history():
    state = join_leave_network()
    state.join_node(5, 1)  # group 1 rekeys to g1[1]
    state.leave_node(5)    # group 1 rekeys to g1[2] without node 5
    state.join_node(5, 0)  # off group 0's access list: GD 0 gets node 5's key
    state.leave_node(2)    # group 0 rekeys to g0[2] without node 2
    g0, g1 = (state.plan.vault.group_key_history[g] for g in (0, 1))
    ind = {v: state.individual_key(v) for v in (1, 2, 4, 5)}
    expected = {
        0: [*g0, ind[1], ind[2], ind[5]],
        1: [ind[1], *g0],
        2: [ind[2], g0[0], g0[1]],
        3: [*g1, ind[4], ind[5]],
        4: [ind[4], *g1],
        5: [ind[5], g1[0], g1[1], g0[1], g0[2]],
    }
    assert len(g0) == len(g1) == 3
    assert {v: set(ring) for v, ring in state.rings.items()} == \
        {v: {k.key_id for k in keys} for v, keys in expected.items()}
    # no Os ring ever contains another sensor's individual key
    individual = {state.individual_key(m).key_id: m
                  for g in state.plan.groups for m in g.members}
    ranks = state.cluster_map.ranks
    for node, ring in state.rings.items():
        if ranks.get(node) in (Rank.GD, Rank.GDOS):
            continue
        for kid in ring:
            owner = individual.get(kid)
            assert owner is None or owner == node


def test_vault_is_superset_of_all_rings_after_rekeys():
    state = join_leave_network()
    state.join_node(5, 1)
    state.leave_node(5)
    state.join_node(5, 0)
    vault = state.plan.vault
    held = vault_key_ids(vault)
    for ring in state.rings.values():
        assert set(ring) <= held
    for gid, key in state.group_key.items():
        assert vault.group_key_history[gid][-1] == key


def test_a_network_records_its_keys_in_its_own_vault():
    # node 3 is promoted to group 2, then node 1 leaves and group 0 rekeys
    plan = keying.build_plan(4, 1, 128, seed=9)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(100, 0), Point(2.5, 0)], 2.0)
    state = form_network(g, plan, Placement.uniform(), seed=1)
    assert state.leave_node(1)
    vault = state.plan.vault
    assert state.plan.groups is plan.groups and state.plan.seed == plan.seed
    assert vault.group_key_history[2] == [state.group_key[2]]
    assert vault.group_key_history[0] == [plan.groups[0].group_key, state.group_key[0]]
    assert vault.all_individual_keys == plan.vault.all_individual_keys
    assert vault.all_individual_keys is plan.vault.all_individual_keys
    assert plan.vault == reference_plan(4, 1, 128, 9).vault


def test_eta_zero_makes_every_sensor_a_dominator():
    # one-node groups: no sensor has an individual key, so nothing is sent
    placement = Placement.uniform()
    plan = keying.build_plan(50, 0, 128, seed=0)
    radius = udg.radius_for_expected_degree(50, 500, 500, 6)
    g = protocol.deploy_graph(plan, 500, 500, radius, placement, seed=0)
    state = form_network(g, plan, placement, seed=0, deployed=range(49))
    assert state.cluster_map.ranks == dict.fromkeys(range(49), Rank.GD)
    assert len(state.trace) == 0 and state.cluster_map.orphan_events == []
    assert not state.join_node(49, 0)
    assert state.audit_log[-1] == "join denied: node 49 has no individual key"
    assert not state.leave_node(3)
    assert state.audit_log[-1] == "leave denied: node 3 is a dominator"
    report = state.simulate_adversary(
        AdversaryProfile.compromised_gd(state, 0), 200, seed=0)
    assert report.decrypted == [] and report.admissions == 0


def test_uniform_worst_case_promotes_every_os():
    # no Os can hear any GD, but the Os pair stays connected: both promoted,
    # so the dominator set degenerates to all n nodes
    plan = keying.build_plan(4, 1, 128, seed=19)
    g = udg.from_positions(
        [Point(100, 0), Point(0, 0), Point(200, 0), Point(1, 0)], 2.0)
    cm = form_network(g, plan, Placement.uniform(), seed=1).cluster_map
    assert {e.resolution for e in cm.orphan_events} == {"PROMOTED"}
    assert cm.dominator_set() == {0, 1, 2, 3}


# -- adversary ---------------------------------------------------------------

def test_outsider_is_fully_contained():
    state = join_leave_network()
    state.join_node(5, 1)
    state.leave_node(5)
    report = state.simulate_adversary(AdversaryProfile.outsider(), 1000, seed=3)
    assert report.admissions == 0
    assert report.decrypted == []


def test_compromised_os_reads_exactly_its_own_links():
    state = join_leave_network()
    state.join_node(5, 0)
    state.leave_node(5)
    profile = AdversaryProfile.compromised_os(state, 1)
    report = state.simulate_adversary(profile, 300, seed=4)
    assert report.admissions == 0
    grants = set(state.rings[1])
    trace_fps = {ev.envelope.key_fingerprint for ev in state.trace}
    assert {fp for (_, _, fp) in report.decrypted} == grants & trace_fps
    # every readable envelope sits in node 1's own group
    assert {grp for (_, grp, _) in report.decrypted} == {0}


def test_compromised_os_tracks_its_groups_rekeys_only():
    # join_leave_network with node 2 moved to (5, 1), in range of both
    # dominators, and held back beside node 5, so two nodes join group 1
    plan = keying.build_plan(6, 2, 128, seed=3)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(5, 1),
         Point(10, 0), Point(11, 0), Point(5, 0)], 6.0)
    state = form_network(g, plan, Placement.uniform(), seed=1, deployed=[0, 1, 3, 4])
    profile = AdversaryProfile.compromised_os(state, 4)  # member of group 1
    assert state.join_node(5, 1)  # group 1 rekeys; node 4 (and the adversary) follow
    assert state.join_node(2, 1)  # its REKEY_BCAST is sealed under that rekey's key
    assert state.leave_node(1)    # group 0 rekeys; adversary must not follow
    report = state.simulate_adversary(profile, 50, seed=5)
    assert {grp for (_, grp, _) in report.decrypted} == {1}
    # the adversary reads node 4's link and every key group 1 has had: the
    # one it was captured with, and each rekey's, learned from the rekey
    # sealed under the key before
    history = [k.key_id for k in state.plan.vault.group_key_history[1]]
    assert len(history) == 3
    readable = {state.individual_key(4).key_id, *history}
    assert report.decrypted == [
        (rec.envelope.kind.value, rec.group_id, rec.envelope.key_fingerprint)
        for rec in state.trace.records if rec.envelope.key_fingerprint in readable]
    assert (Kind.REKEY_BCAST.value, 1, history[1]) in report.decrypted


def test_compromised_gd_after_revocation_reads_nothing_new():
    # three groups of 1 GD + 2 Os; node 8 withheld and adjacent to gd 0
    plan = keying.build_plan(9, 2, 128, seed=31)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(0, 1),
         Point(10, 0), Point(11, 0), Point(10, 1),
         Point(20, 0), Point(21, 0), Point(1, 1)], 3.0)
    state = form_network(g, plan, Placement.uniform(), seed=1,
                         deployed=range(8))
    profile = AdversaryProfile.compromised_gd(state, 1)
    state.revoke_group(1)
    cut = len(state.trace)
    # the rest of the network keeps operating
    state.join_node(8, 0)
    state.leave_node(1)
    state.leave_node(7)
    report = state.simulate_adversary(profile, 100, seed=6)
    assert report.admissions == 0
    post_fps = {ev.envelope.key_fingerprint for ev in list(state.trace)[cut:]}
    assert {fp for (_, _, fp) in report.decrypted} & post_fps == set()
    assert all(grp == 1 for (_, grp, _) in report.decrypted)


def test_compromised_adopter_opens_each_distinct_envelope_once():
    state = churned_uniform_network()
    adopters = [e.adopter for e in state.cluster_map.orphan_events
                if e.resolution == "ADOPTED"]
    adopter = min(set(adopters), key=lambda d: (-adopters.count(d), d))
    profile = AdversaryProfile.compromised_gd(state, state.group_of_node(adopter))
    report = state.simulate_adversary(profile, 50, seed=7)

    every, held_every = reference_replay(state, profile, relays=True)
    once, held_once = reference_replay(state, profile, relays=False)
    # the adopter holds its orphans' individual keys, so it can open their
    # floods, relayed copies included
    assert len(every) > len(once)
    # a relay re-airs its origin's envelope object, so skipping relays
    # leaves one entry per distinct envelope and learns the same keys
    assert len({id(ev.envelope) for ev in every}) == len(once)
    assert report.decrypted == [(ev.envelope.kind.value, ev.group_id,
                                 ev.envelope.key_fingerprint) for ev in once]
    assert held_once == held_every


def test_indexed_key_lookups_match_a_scan_of_plan_and_vault():
    state = churned_uniform_network()
    plan, vault = state.plan, state.plan.vault
    assert len(state.group_dominator) > len(plan.groups)  # promoted groups
    assert {e.cause for e in state.cluster_map.rekey_log} == {"join", "leave"}

    for v in range(-2, plan.n + 2):
        scan = next((g.individual_keys[v] for g in plan.groups
                     if v in g.individual_keys), None)
        assert state.individual_key(v) == scan
    assert all(state.individual_key(g.dominator) is None for g in plan.groups)

    assert vault.all_individual_keys == {
        v: k for g in plan.groups for v, k in g.individual_keys.items()}
    assert {gid: h[-1] for gid, h in vault.group_key_history.items()} == state.group_key
    held = vault_key_ids(vault)
    for ring in state.rings.values():
        assert set(ring) <= held


def membership_record(state):
    """What a join writes besides the trace and the audit log."""
    return ({v: set(ring) for v, ring in state.rings.items()},
            {gid: list(h) for gid, h in state.plan.vault.group_key_history.items()},
            list(state.cluster_map.rekey_log), set(state.deployed),
            {gid: set(ms) for gid, ms in state.group_members.items()},
            dict(state.group_key), dict(state.cluster_map.dominator_of),
            dict(state.cluster_map.ranks))


def refused_join(state, node, gid):
    """Run a join that must be refused; return the kinds it put on the air."""
    before = membership_record(state)
    cut = len(state.trace.records)
    assert not state.join_node(node, gid)
    assert membership_record(state) == before
    return [r.envelope.kind for r in state.trace.records[cut:]]


def test_revoked_member_cannot_rejoin():
    # Node 5 is planned in group 1 and hears both dominators.  A refused
    # join keeps what it put on the air in the trace (its JOIN_REQ, and on
    # the base-station path the dominator's ORP_ERR) and changes nothing
    # else: no rekey, no vault entry, no ring, and node 5 stays undeployed.
    # It joins its own group 1, group 1 is revoked, and group 0 escalates
    # it to the BS, which refuses its revoked key.
    state = join_leave_network()
    assert state.join_node(5, 1)
    state.revoke_group(1)
    assert refused_join(state, 5, 0) == [Kind.JOIN_REQ, Kind.ORP_ERR]
    assert state.audit_log[-1] == "join denied: BS rejected node 5"
    assert 5 not in state.deployed
    # It joins group 0 through the BS, group 0 is revoked with node 5's key
    # in its dominator's ring, and its own group 1 refuses it.
    state = join_leave_network()
    assert state.join_node(5, 0)
    state.revoke_group(0)
    assert refused_join(state, 5, 1) == [Kind.JOIN_REQ]
    assert state.audit_log[-1] == "join denied: node 5 key revoked"
    assert 5 not in state.deployed


def test_a_second_revocation_only_writes_the_audit_log():
    state = join_leave_network()
    state.revoke_group(1)
    assert state.audit_log[-1] == "group 1 revoked by BS"
    before = (membership_record(state), set(state.revoked_groups),
              set(state.revoked_key_ids), state._round, len(state.trace.records))
    state.revoke_group(1)
    assert state.audit_log[-2:] == ["group 1 revoked by BS",
                                    "revoke ignored: group 1 already revoked"]
    assert (membership_record(state), set(state.revoked_groups),
            set(state.revoked_key_ids), state._round, len(state.trace.records)) == before


def test_revoking_an_unknown_group_changes_nothing():
    # the audit note is the only change: the network stays the one its
    # constructor formed, in membership, round and trace
    plan = keying.build_plan(80, 9, 128, seed=1)
    radius = udg.radius_for_expected_degree(80, 500, 500, 4.0)
    g = protocol.deploy_graph(plan, 500, 500, radius, Placement.uniform(), seed=1)
    state, fresh = protocol.NetworkState(g, plan), protocol.NetworkState(g, plan)
    assert state.cluster_map.unreachable()
    gid = len(state.group_dominator) + 5
    state.revoke_group(gid)
    assert state.audit_log == [f"revoke ignored: no group {gid}"]
    assert fresh.audit_log == []
    assert membership_record(state) == membership_record(fresh)
    assert (state._round, set(state.revoked_groups), set(state.revoked_key_ids)) == (
        fresh._round, set(), set())
    assert state.trace.records == fresh.trace.records


def test_adversary_profiles_name_an_unknown_node_or_group():
    state = join_leave_network()
    with pytest.raises(ValueError, match="group 7"):
        AdversaryProfile.compromised_gd(state, 7)
    with pytest.raises(ValueError, match="node 0"):
        AdversaryProfile.compromised_os(state, 0)  # a dominator


def test_compromised_os_refuses_a_leaver_and_a_revoked_member():
    state = join_leave_network()
    assert state.leave_node(1)
    state.revoke_group(1)  # node 4's group
    for node in (1, 4):
        with pytest.raises(ValueError, match=f"node {node} "):
            AdversaryProfile.compromised_os(state, node)


def test_a_leaver_rejoins_its_group_without_the_keys_it_missed():
    # group 0 = {gd 0; 1, 2}: node 1 leaves, then node 2 leaves and node 5
    # joins, so group 0 rekeys three times while node 1 is away
    state = join_leave_network()
    assert state.leave_node(1)
    assert state.leave_node(2)
    assert state.join_node(5, 0)
    history = state.plan.vault.group_key_history[0]
    missed = {k.key_id for k in history[1:]}
    assert len(missed) == 3
    assert state.join_node(1, 0)
    cm = state.cluster_map
    assert cm.rekey_log[-1] == protocol.RekeyEvent(
        0, history[-2].key_id, history[-1].key_id, "join", state._round)
    # a rekey log entry is a named tuple, like the trace's records
    assert protocol.RekeyEvent._fields == ("group_id", "old_key_id", "new_key_id",
                                           "cause", "round")
    assert 1 in state.deployed and state.group_members[0] == {1, 5}
    assert cm.dominator_of[1] == 0
    assert state.group_key[0].key_id in state.rings[1]
    assert not missed & set(state.rings[1])


def test_join_into_a_promoted_group_is_confirmed_by_the_bs():
    g, state, held = held_back_network(Placement.uniform(), n=200, deg=8)
    assert 157 in held and 20 >= len(state.plan.groups)  # group 20 is promoted
    old = state.group_key[20]
    cut = len(state.trace.records)
    assert state.join_node(157, 20)
    # a promoted group's access list is empty, so the GD escalates to the BS
    assert [r.envelope.kind for r in state.trace.records[cut:]] == [
        Kind.JOIN_REQ, Kind.ORP_ERR, Kind.REKEY_TO_NEW, Kind.REKEY_TO_NEW,
        Kind.REKEY_BCAST]
    assert state.group_members[20] == {157}
    assert state.cluster_map.dominator_of[157] == state.group_dominator[20]
    assert state.group_key[20].key_id != old.key_id
    assert state.plan.vault.group_key_history[20] == [old, state.group_key[20]]
    assert state.group_key[20].key_id in state.rings[157]


@pytest.mark.parametrize("seed", range(3))
def test_no_forged_join_is_admitted_into_a_revoked_group(seed):
    # with every group revoked there is no group to forge a join into, so
    # the replay only reads the trace
    plan = keying.build_plan(30, 4, 128, seed=seed)
    radius = udg.radius_for_expected_degree(30, 100, 100, 8)
    placement = Placement.clustered(radius / 4)
    g = protocol.deploy_graph(plan, 100, 100, radius, placement, seed=seed)
    state = form_network(g, plan, placement, seed=seed)
    profile = AdversaryProfile.compromised_gd(state, 0)
    for gid in sorted(state.group_dominator):
        state.revoke_group(gid)
    report = state.simulate_adversary(profile, 200, seed=seed)
    assert report.attempts == []
    assert report.decrypted == state.simulate_adversary(profile, 0, seed=seed).decrypted
    assert report.decrypted  # the dominator still opens its group's traffic


def test_forged_joins_leave_the_trace_alone():
    replayed, untouched = join_leave_network(), join_leave_network()
    report = replayed.simulate_adversary(
        AdversaryProfile.compromised_os(replayed, 1), 50, seed=5)
    assert len(report.attempts) == 50
    for state in (replayed, untouched):
        assert state.join_node(5, 1)
    assert [r.envelope for r in replayed.trace.records] == \
        [r.envelope for r in untouched.trace.records]


def test_forged_join_is_admitted_only_onto_its_own_access_list():
    # group 0 = {gd 0; 1, 2}; group 1 = {gd 3; 4, 5}, where node 5 hears
    # only node 4 and is promoted to group 2.  Nodes 1 and 2 are held back,
    # since no forged join may claim a deployed node.
    plan = keying.build_plan(6, 2, 128, seed=11)
    g = udg.from_positions(
        [Point(0, 0), Point(1, 0), Point(0, 1),
         Point(10, 0), Point(11, 0), Point(13.5, 0)], 3.0)
    state = form_network(g, plan, Placement.uniform(), seed=1,
                         deployed=[0, 3, 4, 5])
    assert state.group_dominator[2] == 5
    profile = AdversaryProfile.compromised_gd(state, 0)
    report = state.simulate_adversary(profile, 200, seed=2)
    # the compromised GD holds the keys of its own members, 1 and 2
    for a in report.attempts:
        assert a.admitted == (a.target_group == 0 and a.claimed_id in (1, 2)), a
    assert report.admissions > 0
    assert any(a.target_group == 1 and a.claimed_id in (1, 2) for a in report.attempts)
    assert any(a.target_group == 2 and a.claimed_id in (1, 2) for a in report.attempts)
    # holding node 4's key admits it into its own group once it has left,
    # never while it is deployed and never into a promoted group
    held = {state.individual_key(4).key_id}
    assert not state._forged_join_admitted(4, 1, held)
    assert state.leave_node(4)
    assert state._forged_join_admitted(4, 1, held)
    assert not state._forged_join_admitted(4, 2, held)


def test_forged_join_never_claims_a_deployed_node():
    # the most loaded adopter holds its adopted orphans' individual keys, but
    # those orphans are deployed, so a forged join in their name is refused
    # as the real join_node refuses it
    state = churned_uniform_network()
    report = state.simulate_adversary(
        AdversaryProfile.compromised_gd(state, 6), 2000, seed=0)
    pairs = [(a.claimed_id, a.target_group) for a in report.attempts]
    # the attempts the replay draws from seed 0, whatever the profile holds
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == \
        "1452f4405e766d3a3edf53324ef2d26eda9b0f105e90301d235f3831f7b486e4"
    # orphans 33, 34 and 49, adopted into group 6, claimed into their planned
    # groups under keys the adversary holds
    assert {(33, 3), (34, 3), (49, 4)} <= set(pairs)
    assert [p for p, a in zip(pairs, report.attempts) if a.admitted] == []
    assert 2 not in state.deployed



def test_forged_join_refuses_a_revoked_key_as_join_node_does():
    # Node 4 is planned in group 0 and adopted into group 19, whose
    # dominator therefore holds its individual key.  Revoking group 19
    # withdraws node 4 and revokes that key, so a forged join claiming
    # node 4 into group 0 must be refused, as join_node refuses it.
    radius = udg.radius_for_expected_degree(200, 500, 500, 6.0)
    state = analysis.realize(200, 9, radius, Placement.uniform(), 0, 500, 500, 128)
    event = next(e for e in state.cluster_map.orphan_events if e.resolution == "ADOPTED")
    assert (event.node, state.group_of_node(4)) == (4, 19)
    assert state.plan.group_of(4).group_id == 0
    profile = AdversaryProfile.compromised_gd(state, 19)
    state.revoke_group(19)
    assert state.individual_key(4).key_id in state.revoked_key_ids & profile.held_keys
    report = state.simulate_adversary(profile, 20000, seed=1)
    assert (4, 0) in {(a.claimed_id, a.target_group) for a in report.attempts}
    assert report.admissions == 0


@st.composite
def churned_small_networks(draw):
    """A small UDG with some nodes held back from formation, then one leave
    and one revocation, each drawn at random (a leave may be refused)."""
    n = draw(st.integers(8, 40))
    radius = udg.radius_for_expected_degree(n, 100, 100, draw(st.floats(3.0, 8.0)))
    placement = draw(st.sampled_from([Placement.uniform(), Placement.clustered(radius / 4)]))
    seed = draw(st.integers(0, 2 ** 16))
    plan = keying.build_plan(n, draw(st.integers(1, 5)), 128, seed)
    g = protocol.deploy_graph(plan, 100, 100, radius, placement, seed)
    held = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    state = form_network(g, plan, placement, seed, deployed=set(range(n)) - held)
    state.leave_node(draw(st.integers(0, n - 1)))
    state.revoke_group(draw(st.sampled_from(sorted(state.group_dominator))))
    return state


@given(churned_small_networks(), st.data())
def test_forged_join_admission_is_exactly_predicted(state, data):
    # oracle.forged_join_admitted states the rule
    sensors = sorted(v for v, rank in state.cluster_map.ranks.items() if rank is Rank.OS)
    profiles = [AdversaryProfile.outsider(),
                AdversaryProfile.compromised_gd(
                    state, data.draw(st.sampled_from(sorted(state.group_dominator))))]
    if sensors:
        profiles.append(AdversaryProfile.compromised_os(
            state, data.draw(st.sampled_from(sensors))))
    for profile in profiles:
        report = state.simulate_adversary(profile, 200, data.draw(st.integers(0, 99)))
        for a in report.attempts:
            assert a.admitted == forged_join_admitted(
                state, profile, a.claimed_id, a.target_group), (profile.mode, a)


@given(churned_small_networks(), st.data())
def test_every_profile_makes_the_same_attempts_under_one_seed(state, data):
    # The replay's seed draws each attempt's target and claimed node and
    # nothing else, so a compromised dominator and a compromised sensor make
    # the outsider's attempts; only a draw of the captured node itself moves
    # on to the next id.
    seed = data.draw(st.integers(0, 99))
    paired = state.simulate_adversary(AdversaryProfile.outsider(), 200, seed).attempts
    sensors = sorted(v for v, rank in state.cluster_map.ranks.items() if rank is Rank.OS)
    profiles = [AdversaryProfile.compromised_gd(
        state, data.draw(st.sampled_from(sorted(state.group_dominator))))]
    if sensors:
        profiles.append(AdversaryProfile.compromised_os(
            state, data.draw(st.sampled_from(sensors))))
    for profile in profiles:
        attempts = state.simulate_adversary(profile, 200, seed).attempts
        assert len(attempts) == len(paired)
        for a, b in zip(attempts, paired):
            claimed = b.claimed_id
            if claimed == profile.node:
                claimed = (claimed + 1) % state.graph.n
            assert (a.claimed_id, a.target_group) == (claimed, b.target_group), \
                (profile.mode, a, b)


def test_one_plan_forms_the_same_network_twice(tmp_path):
    placement = Placement.uniform()
    plan = keying.build_plan(80, 9, 128, seed=0)
    radius = udg.radius_for_expected_degree(80, 500, 500, 4)
    g = protocol.deploy_graph(plan, 500, 500, radius, placement, seed=0)
    held = {v for v in range(80) if v % 7 == 3}

    def run(name):
        state = form_network(g, plan, placement, seed=0,
                             deployed=set(range(80)) - held)
        v, gid = next((v, gid) for v in sorted(held)
                      for gid in sorted(state.group_dominator)
                      if v in g.neighbors(state.group_dominator[gid]))
        assert state.join_node(v, gid)
        cm = state.cluster_map
        assert state.leave_node(min(v for v, d in cm.dominator_of.items() if d != v))
        report = state.simulate_adversary(
            AdversaryProfile.compromised_gd(state, gid), 200, seed=0)
        protocol.write_trace_csv(state.trace, tmp_path / name)
        return state, report

    a, report_a = run("a.csv")
    b, report_b = run("b.csv")
    assert len(a.group_dominator) > len(plan.groups)  # promoted groups
    assert len(a.cluster_map.rekey_log) == 2
    assert a.cluster_map == b.cluster_map
    assert report_a == report_b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # neither network wrote the plan's vault
    assert plan.vault == reference_plan(80, 9, 128, 0).vault


def test_a_formed_network_pickles_and_deep_copies(tmp_path):
    placement = Placement.uniform()
    plan = keying.build_plan(80, 9, 128, seed=0)
    radius = udg.radius_for_expected_degree(80, 500, 500, 4)
    g = protocol.deploy_graph(plan, 500, 500, radius, placement, seed=0)
    deployed = {v for v in range(80) if v % 7 != 3}

    def churn(state, name):
        # a leave rotates a key, so the copy must hold a vault of its own
        cm = state.cluster_map
        assert state.leave_node(min(v for v, d in cm.dominator_of.items() if d != v))
        protocol.write_trace_csv(state.trace, tmp_path / name)
        return cm, (tmp_path / name).read_bytes()

    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        state = form_network(g, plan, placement, seed=0, deployed=deployed)
        copied = copy_of(state)
        assert copied.plan == state.plan and copied.rings == state.rings
        assert copied.trace.records == state.trace.records
        assert churn(copied, "copy.csv") == churn(state, "original.csv")
        assert copied.plan.vault == state.plan.vault
        # a network formed from a copied plan is the same network
        again = form_network(g, copy_of(plan), placement, seed=0, deployed=deployed)
        assert again.rings == form_network(g, plan, placement, seed=0,
                                           deployed=deployed).rings
    assert plan.vault == reference_plan(80, 9, 128, 0).vault


def test_attack_report_is_deterministic():
    def run():
        state = join_leave_network()
        state.join_node(5, 1)
        report = state.simulate_adversary(AdversaryProfile.outsider(), 200, seed=9)
        return report.attempts, report.decrypted

    assert run() == run()


# -- exports -----------------------------------------------------------------

def test_clustermap_csv_schema(tmp_path):
    g, plan = two_groups_linear()
    state = form_network(g, plan, Placement.uniform(), seed=1)
    path = tmp_path / "cm.csv"
    protocol.write_clustermap_csv(state.cluster_map, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,rank,dominator,is_mediator,orphan_resolution"
    assert lines[1] == "0,GD,0,false,"
    assert lines[2] == "1,Os,0,true,"
    assert len(lines) == 5


def test_trace_csv_schema(tmp_path):
    g, plan = ideal_group()
    state = form_network(g, plan, Placement.uniform(), seed=1)
    path = tmp_path / "trace.csv"
    protocol.write_trace_csv(state.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,sender,kind,key_fingerprint,receivers"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "JOIN_REQ"
    assert first[4] == "0;2;3"


def reference_trace_csv(events, path):
    """The trace writer as csv.writer rows, kept to pin the output bytes."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["round", "sender", "kind", "key_fingerprint", "receivers"])
        for ev in events:
            w.writerow([
                ev.round,
                ev.transmitter,
                ev.envelope.kind.value,
                ev.envelope.key_fingerprint,
                ";".join(str(r) for r in ev.receivers),
            ])


def test_trace_csv_matches_the_csv_writer_byte_for_byte(tmp_path):
    state = churned_uniform_network()
    events = state.trace
    assert {ev.envelope.kind for ev in events} == set(Kind)
    assert any(ev.receivers == () for ev in events)  # an isolated orphan
    assert any(ev.transmitter == BS_ID for ev in events)
    assert any(BS_ID in ev.receivers for ev in events)
    protocol.write_trace_csv(events, tmp_path / "fast.csv")
    reference_trace_csv(events, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
