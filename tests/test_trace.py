import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from secluster import keying, protocol, udg
from secluster.protocol import AdversaryProfile, Kind, NetworkState, Placement, Rank
from secluster.trace import FloodEvent, Trace, TraceEvent
from secluster.udg import Point


class EagerFloodState(NetworkState):
    """Formation with the eager flood: every relay stored as its own event.

    This is the flood as it was before floods became single records, kept
    to pin what a flood record expands to.
    """

    def _flood(self, kind, origin, key, plaintext, group_id, nbrs, reach):
        env = self._send(kind, origin, key, plaintext, nbrs[origin], group_id)
        reached = {origin, *nbrs[origin]}
        queue = list(nbrs[origin])
        for relay in queue:  # the queue grows while it is walked
            receivers = nbrs[relay]
            self.trace.append(TraceEvent(self._round, env, receivers, group_id, relay))
            for nb in receivers:
                if nb not in reached:
                    reached.add(nb)
                    queue.append(nb)


@st.composite
def network_case(draw):
    """A random UDG, the arguments of its plan, and some nodes held back
    from formation."""
    n = draw(st.integers(2, 40))
    side = draw(st.floats(5.0, 60.0))
    pts = [Point(*draw(st.tuples(st.floats(0, side), st.floats(0, side))))
           for _ in range(n)]
    radius = draw(st.floats(2.0, 20.0))
    eta = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**16))
    held = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    return udg.from_positions(pts, radius), (n, eta, 64, seed), held


@st.composite
def churn_case(draw):
    """A `network_case` and a list of join, leave and revocation steps."""
    g, plan_args, held = draw(network_case())
    ops = draw(st.lists(st.tuples(st.sampled_from(["join", "leave", "revoke"]),
                                  st.integers(0, 10**6), st.integers(0, 10**6)),
                        max_size=12))
    return g, plan_args, held, ops


def churned(cls, g, plan, held, ops):
    """Form a network of class cls from plan, then run the steps on it."""
    state = cls(g, plan, deployed=set(range(g.n)) - held)
    state.form()
    for op, a, b in ops:
        # held-back nodes join, and so do leavers and revoked members
        away = sorted(set(range(g.n)) - state.deployed)
        if op == "join" and away:
            v = away[a % len(away)]
            gids = [gid for gid in sorted(state.group_dominator)
                    if v in g.neighbors(state.group_dominator[gid])]
            if gids:
                state.join_node(v, gids[b % len(gids)])
        elif op == "leave":
            members = sorted(m for ms in state.group_members.values() for m in ms)
            if members:
                state.leave_node(members[a % len(members)])
        elif op == "revoke":
            gids = sorted(state.group_dominator)
            state.revoke_group(gids[a % len(gids)])
    return state


@st.composite
def churned_pair(draw):
    """The same random UDG formed twice, lazily and eagerly, with some
    nodes held back, then the same joins, leaves and revocations on both."""
    g, plan_args, held, ops = draw(churn_case())
    return tuple(churned(cls, g, keying.build_plan(*plan_args), held, ops)
                 for cls in (NetworkState, EagerFloodState))


def assert_same(got, want):
    # item by item, so that a failure reports one event, not two traces
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"item {i}"


@given(churned_pair())
def test_flood_records_expand_to_the_eager_trace(tmp_path_factory, pair):
    state, eager = pair
    assert all(type(r) is TraceEvent for r in eager.trace.records)
    events = list(state.trace)
    expected = list(eager.trace)
    assert_same(events, expected)
    assert len(state.trace) == len(eager.trace) == len(expected)
    # one record per envelope: no relay is stored
    assert len(state.trace.records) == len({id(ev.envelope) for ev in events})

    # every relay carries its origin broadcast's Envelope object
    origin = None
    for ev in events:
        if ev.transmitter == ev.envelope.sender:
            origin = ev.envelope
        else:
            assert ev.envelope.kind is Kind.GD_ERR and ev.envelope is origin

    tmp = tmp_path_factory.mktemp("trace")
    protocol.write_trace_csv(state.trace, tmp / "lazy.csv")
    protocol.write_trace_csv(eager.trace, tmp / "eager.csv")
    assert_same((tmp / "lazy.csv").read_bytes().splitlines(keepends=True),
                (tmp / "eager.csv").read_bytes().splitlines(keepends=True))


def assert_membership_agrees(state):
    """Membership, dominators, current keys and the rekey log tell one story."""
    cm = state.cluster_map
    assert set(cm.dominator_of) <= state.deployed
    for gid, members in state.group_members.items():
        for m in members:
            assert m in state.deployed
            assert cm.dominator_of[m] == state.group_dominator[gid]
    for v in state.deployed:
        if cm.ranks[v] is Rank.OS and v in cm.dominator_of:
            assert [gid for gid, ms in state.group_members.items() if v in ms] == \
                [state.group_of_node(v)]
    histories = state.plan.vault.group_key_history
    assert state.group_key == {gid: h[-1] for gid, h in histories.items()}
    assert len(cm.rekey_log) == sum(len(h) - 1 for h in histories.values())
    for gid, h in histories.items():
        ids = [k.key_id for k in h]
        assert [(e.old_key_id, e.new_key_id) for e in cm.rekey_log
                if e.group_id == gid] == list(zip(ids, ids[1:]))


@given(churn_case())
def test_a_churned_network_leaves_its_plan_alone(tmp_path_factory, case):
    g, plan_args, held, ops = case
    plan = keying.build_plan(*plan_args)
    state = churned(NetworkState, g, plan, held, ops)
    assert_membership_agrees(state)
    state.simulate_adversary(AdversaryProfile.compromised_gd(state, 0), 20, seed=0)
    vault = state.plan.vault
    recorded = {k.key_id for k in vault.all_individual_keys.values()}
    recorded |= {k.key_id for h in vault.group_key_history.values() for k in h}
    for ring in state.rings.values():
        assert set(ring) <= recorded
    assert plan.vault == keying.build_plan(*plan_args).vault
    # so a second network of the same plan, churned the same way without
    # the replay, airs the same
    again = churned(NetworkState, g, plan, held, ops)
    tmp = tmp_path_factory.mktemp("trace")
    protocol.write_trace_csv(state.trace, tmp / "first.csv")
    protocol.write_trace_csv(again.trace, tmp / "second.csv")
    assert (tmp / "first.csv").read_bytes() == (tmp / "second.csv").read_bytes()


def assert_each_envelope_sealed_once(state):
    """The records' nonces are 1..N in order, so each envelope, a flood's
    included, was sealed once with the network's next nonce; and each
    opens under the key its fingerprint names in the network's vault."""
    vault = state.plan.vault
    keys = {k.key_id: k for k in vault.all_individual_keys.values()}
    keys.update((k.key_id, k) for h in vault.group_key_history.values() for k in h)
    envelopes = [rec.envelope for rec in state.trace.records]
    assert [int.from_bytes(env.payload[:keying.NONCE_BYTES], "big")
            for env in envelopes] == list(range(1, len(envelopes) + 1))
    for env in envelopes:
        keying.decrypt(keys[env.key_fingerprint], env.payload)


@given(churn_case())
def test_a_churned_network_seals_each_envelope_once(case):
    g, plan_args, held, ops = case
    state = churned(NetworkState, g, keying.build_plan(*plan_args), held, ops)
    # a replay's forged joins are sealed too, but never sent, so the leave
    # after it takes the next nonces
    state.simulate_adversary(AdversaryProfile.compromised_gd(state, 0), 20, seed=0)
    members = sorted(m for ms in state.group_members.values() for m in ms)
    if members:
        state.leave_node(members[0])
    assert_each_envelope_sealed_once(state)


@pytest.mark.parametrize("placement", ["uniform", "clustered"])
def test_the_golden_churned_network_seals_each_envelope_once(churned_form_network,
                                                              placement):
    state = churned_form_network(placement)
    assert any(type(rec) is FloodEvent for rec in state.trace.records)
    cm = state.cluster_map
    spy = min(v for v in cm.dominator_of if cm.ranks[v] is Rank.OS)
    state.simulate_adversary(AdversaryProfile.compromised_os(state, spy), 200, seed=0)
    assert state.leave_node(spy)
    assert_each_envelope_sealed_once(state)


def assert_views_match_the_live_map(state):
    """dominator_set() and mediators() equal a recomputation, pair by pair,
    from the graph, the deployed set and dominator_of."""
    cm, g = state.cluster_map, state.graph
    doms = {d for d in state.deployed if cm.dominator_of.get(d) == d}
    # the group records agree: a dominator is live iff it is deployed and
    # its group is not revoked
    assert doms == {gd for gid, gd in state.group_dominator.items()
                    if gid not in state.revoked_groups and gd in state.deployed}
    assert cm.dominator_set() == doms
    mediators = {}
    for s in state.deployed:
        own = cm.dominator_of.get(s)
        foreign = frozenset(d for d in doms if d != own and d in g.neighbors(s))
        if own is not None and own != s and foreign:
            mediators[s] = foreign
    assert cm.mediators() == mediators


@pytest.mark.parametrize("placement", ["uniform", "clustered"])
def test_the_golden_churned_network_reads_its_views_from_the_live_map(
        churned_form_network, placement):
    state = churned_form_network(placement)
    assert state.revoked_groups
    assert_views_match_the_live_map(state)


class ChurnedNetwork(RuleBasedStateMachine):
    """Joins, leaves, revocations and outsider replays on a small network,
    with the membership invariants checked after every step."""

    @initialize(case=network_case())
    def form(self, case):
        g, plan_args, held = case
        self.plan = keying.build_plan(*plan_args)
        self.fresh = keying.build_plan(*plan_args)  # never given to a network
        self.state = NetworkState(g, self.plan, deployed=set(range(g.n)) - held)
        self.state.form()
        # leaver -> (its group, that group's key count when it left)
        self.away: dict[int, tuple[int, int]] = {}
        # node -> key ids its groups minted while it was out, once it rejoined
        self.missed: dict[int, set[str]] = {}

    def _minted_since(self, gid, since):
        return {k.key_id for k in self.state.plan.vault.group_key_history[gid][since:]}

    @rule(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    def join(self, a, b):
        # held-back nodes, leavers and revoked members try to join a group
        # whose dominator hears them, operational or not
        state, g = self.state, self.state.graph
        out = sorted(set(range(g.n)) - state.deployed)
        if not out:
            return
        v = out[a % len(out)]
        gids = [gid for gid in sorted(state.group_dominator)
                if v in g.neighbors(state.group_dominator[gid])]
        if not gids:
            return
        pending = self._minted_since(*self.away[v]) if v in self.away else set()
        if state.join_node(v, gids[b % len(gids)]) and v in self.away:
            del self.away[v]
            self.missed.setdefault(v, set()).update(pending)

    @rule(a=st.integers(0, 10**6))
    def leave(self, a):
        # any deployed node: only a group member leaves, dominators and
        # UNREACHABLE orphans are refused
        state = self.state
        deployed = sorted(state.deployed)
        if not deployed:
            return
        v = deployed[a % len(deployed)]
        gid = next((gid for gid, ms in state.group_members.items() if v in ms), None)
        since = None if gid is None else len(state.plan.vault.group_key_history[gid])
        assert state.leave_node(v) == (gid is not None)
        if gid is not None:
            self.away[v] = (gid, since)

    @rule(a=st.integers(0, 10**6))
    def revoke(self, a):
        gids = sorted(self.state.group_dominator)
        self.state.revoke_group(gids[a % len(gids)])

    @rule(attempts=st.integers(0, 10), seed=st.integers(0, 2**16))
    def outsider_replay(self, attempts, seed):
        deployed = set(self.state.deployed)
        report = self.state.simulate_adversary(AdversaryProfile.outsider(),
                                               attempts, seed)
        assert report.decrypted == [] and report.admissions == 0
        assert self.state.deployed == deployed

    # The invariants assert on small values only: pytest's report of a
    # failed assert would print every object named in it, graph included,
    # on each of the shrinker's many runs.

    @invariant()
    def active_set_is_dominated(self):
        state = self.state
        doms = state.cluster_map.dominator_set()
        undominated = [v for v in state.deployed - state.cluster_map.unreachable()
                       if v not in doms and not state.graph.neighbors(v) & doms]
        assert undominated == []

    @invariant()
    def vault_covers_every_ring_and_the_plan_is_untouched(self):
        vault = self.state.plan.vault
        recorded = {k.key_id for k in vault.all_individual_keys.values()}
        recorded |= {k.key_id for h in vault.group_key_history.values() for k in h}
        held = {kid for ring in self.state.rings.values() for kid in ring}
        assert held - recorded == set()
        assert (self.plan.vault, self.plan.groups) == (self.fresh.vault, self.fresh.groups)

    @invariant()
    def leavers_hold_no_key_minted_while_out(self):
        rings = self.state.rings
        leaked = [v for v, (gid, since) in self.away.items()
                  if self._minted_since(gid, since) & rings[v].keys()]
        leaked += [v for v, missed in self.missed.items() if missed & rings[v].keys()]
        assert leaked == []

    @invariant()
    def membership_and_views_agree(self):
        assert_membership_agrees(self.state)
        assert_views_match_the_live_map(self.state)


TestChurnedNetwork = ChurnedNetwork.TestCase
TestChurnedNetwork.settings = settings(max_examples=100, stateful_step_count=30)


def test_empty_trace_has_no_events_and_a_header_only_csv(tmp_path):
    trace = Trace()
    assert len(trace) == 0 and list(trace) == [] and trace.records == []
    protocol.write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == \
        "round,sender,kind,key_fingerprint,receivers\n"


def test_uniform_formation_stores_one_record_per_flood():
    n = 300
    plan = keying.build_plan(n, 9, 128, seed=3)
    radius = udg.radius_for_expected_degree(n, 500, 500, 8.0)
    g = protocol.deploy_graph(plan, 500, 500, radius, Placement.uniform(), seed=3)
    state = protocol.form_network(g, plan, Placement.uniform(), seed=3)
    floods = [r for r in state.trace.records if isinstance(r, FloodEvent)]
    assert floods
    assert all(r.envelope.kind is Kind.GD_ERR for r in floods)
    assert all(r.envelope.kind is not Kind.GD_ERR for r in state.trace.records
               if not isinstance(r, FloodEvent))
    # each flood counts its origin's component, the transmissions it made
    comp_size = {v: len(c) for c in udg.connected_components(g) for v in c}
    assert all(r.reach == comp_size[r.envelope.sender] for r in floods)
    assert len(state.trace) == len(state.trace.records) + sum(r.reach - 1 for r in floods)
