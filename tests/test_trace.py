import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import oracle
from secluster import keying, protocol, udg
from secluster.keying import Key
from secluster.protocol import AdversaryProfile, Kind, NetworkState, Placement, Rank
from secluster.trace import Envelope, FloodEvent, Trace, TraceEvent
from secluster.udg import Point


class EagerFloodState(NetworkState):
    """Formation with the eager flood: every relay stored as its own event.

    This is the flood as it was before floods became single records, kept
    to pin what a flood record expands to.
    """

    def _flood(self, kind, origin, key, plaintext, group_id, nbrs, reach):
        self._send(kind, origin, key, plaintext, nbrs[origin], group_id)
        env = self.trace.records[-1].envelope
        reached = {origin, *nbrs[origin]}
        queue = list(nbrs[origin])
        for relay in queue:  # the queue grows while it is walked
            receivers = nbrs[relay]
            self.trace.records.append(
                TraceEvent(self._round, env, receivers, group_id, relay))
            for nb in receivers:
                if nb not in reached:
                    reached.add(nb)
                    queue.append(nb)


@st.composite
def network_case(draw):
    """A random UDG, the arguments of its plan, and some nodes held back
    from formation.

    Coordinates and radius are whole metres: up to 80 float coordinates
    shrink so slowly that a failing `TestChurnedNetwork` could use up
    hypothesis's five-minute shrink budget and still report 31 nodes.
    """
    n = draw(st.integers(2, 40))
    side = draw(st.integers(5, 60))
    pts = [Point(float(draw(st.integers(0, side))), float(draw(st.integers(0, side))))
           for _ in range(n)]
    radius = float(draw(st.integers(2, 20)))
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
    # the ranks follow the live map: one per deployed node, the non-Os ones
    # are the live dominators and GDos marks the live promoted ones
    ranks = cm.ranks
    assert set(ranks) ^ state.deployed == set()
    assert {v for v, r in ranks.items() if r is not Rank.OS} == cm.dominator_set()
    promoted = {gd for gid, gd in state.group_dominator.items()
                if gid >= len(state.plan.groups) and cm.dominator_of.get(gd) == gd}
    assert {v for v, r in ranks.items() if r is Rank.GDOS} == promoted
    for v in state.deployed:
        if ranks[v] is Rank.OS and v in cm.dominator_of:
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
    assert plan.vault == oracle.reference_plan(*plan_args).vault
    # so a second network of the same plan, churned the same way without
    # the replay, airs the same
    again = churned(NetworkState, g, plan, held, ops)
    tmp = tmp_path_factory.mktemp("trace")
    protocol.write_trace_csv(state.trace, tmp / "first.csv")
    protocol.write_trace_csv(again.trace, tmp / "second.csv")
    assert (tmp / "first.csv").read_bytes() == (tmp / "second.csv").read_bytes()


def assert_each_envelope_sealed_once(state):
    """Each record's envelope, a flood's included, sealed with its record's
    position as the nonce, opens under the key its fingerprint names in the
    network's vault, with the plan's secret for it."""
    vault = state.plan.vault
    keys = {k.key_id: k for k in vault.all_individual_keys.values()}
    keys.update((k.key_id, k) for h in vault.group_key_history.values() for k in h)
    for nonce, rec in enumerate(state.trace.records, 1):
        env = rec.envelope
        key = oracle.keyed(state.plan, keys[env.key_fingerprint])
        assert oracle.decrypt(key, oracle.seal(env, state.plan, nonce)) == env.plaintext


@given(churn_case())
def test_a_churned_network_seals_each_envelope_once(case):
    g, plan_args, held, ops = case
    state = churned(NetworkState, g, keying.build_plan(*plan_args), held, ops)
    # a replay puts nothing on the air, so the leave after it takes the
    # next records
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
    spy = min(v for v, d in cm.dominator_of.items() if d != v)
    state.simulate_adversary(AdversaryProfile.compromised_os(state, spy), 200, seed=0)
    assert state.leave_node(spy)
    assert_each_envelope_sealed_once(state)


def assert_receivers_ascend(state):
    """Every transmission's receivers are a tuple in ascending id order:
    `_send` records the tuple its caller passes, without sorting it."""
    for ev in state.trace:
        assert type(ev.receivers) is tuple
        assert all(a < b for a, b in zip(ev.receivers, ev.receivers[1:])), ev


@pytest.mark.parametrize("placement, kinds", [
    # orphans flood, their dominators in range report, and the base station
    # sends adoptions and promotions
    (Placement.uniform(), {Kind.GD_ERR, Kind.ORP_ERR, Kind.REKEY_TO_NEW}),
    (Placement.clustered(), {Kind.JOIN_REQ, Kind.JOIN_APRV}),
], ids=["uniform", "clustered"])
def test_formation_records_receivers_in_ascending_order(placement, kinds):
    n = 300
    plan = keying.build_plan(n, 9, 128, seed=5)
    radius = udg.radius_for_expected_degree(n, 500, 500, 8.0)
    g = protocol.deploy_graph(plan, 500, 500, radius, placement, seed=5)
    state = protocol.form_network(g, plan, placement, seed=5)
    assert {rec.envelope.kind for rec in state.trace.records} >= kinds
    assert_receivers_ascend(state)


@pytest.mark.parametrize("placement", ["uniform", "clustered"])
def test_the_golden_churned_network_records_receivers_in_ascending_order(
        churned_form_network, placement):
    state = churned_form_network(placement)
    kinds = {rec.envelope.kind for rec in state.trace.records}
    assert {Kind.REKEY_BCAST, Kind.LEAVE, Kind.ORP_ERR} <= kinds
    assert_receivers_ascend(state)


@given(churn_case())
def test_a_churned_network_records_receivers_in_ascending_order(case):
    g, plan_args, held, ops = case
    assert_receivers_ascend(churned(NetworkState, g, keying.build_plan(*plan_args),
                                    held, ops))


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


@given(network_case())
def test_formation_adjudicates_each_orphan_by_the_leads_in_its_range(case):
    """The verdict rule of formation, where a lead is a deployed planned
    dominator: the orphans are the deployed non-leads whose own lead is
    out of range, in id order; each is adopted by a lead in its range if
    there is one, else promoted if it has a deployed neighbour, else
    unreachable."""
    g, plan_args, held = case
    plan = keying.build_plan(*plan_args)
    deployed = set(range(g.n)) - held
    state = NetworkState(g, plan, deployed=deployed)
    leads = {grp.dominator for grp in plan.groups} & deployed
    orphans = [v for v in sorted(deployed - leads)
               if plan.group_of(v).dominator not in g.neighbors(v) & leads]
    events = state.cluster_map.orphan_events
    assert [e.node for e in events] == orphans
    for e in events:
        in_range = g.neighbors(e.node) & leads
        if in_range:
            assert e.resolution == "ADOPTED" and e.adopter in in_range
        elif g.neighbors(e.node) & deployed:
            assert e == protocol.OrphanEvent(e.node, "PROMOTED")
        else:
            assert e == protocol.OrphanEvent(e.node, "UNREACHABLE")


def formed_with_leads(case):
    """The network of a `network_case`, formed; its leads (deployed planned
    dominators); and the leads that approve a join in round 2, those with
    a deployed member of their own group in range."""
    g, plan_args, held = case
    plan = keying.build_plan(*plan_args)
    deployed = set(range(g.n)) - held
    state = NetworkState(g, plan, deployed=deployed)
    leads = {grp.dominator for grp in plan.groups} & deployed
    approving = {grp.dominator for grp in plan.groups if grp.dominator in leads
                 and g.neighbors(grp.dominator) & deployed & set(grp.members)}
    return state, leads, approving


@given(network_case())
def test_an_orphans_error_flood_names_the_approving_leads_in_its_range(case):
    """Each orphan floods one GD_ERR under its individual key, listing the
    leads in its range that approved a join: it heard their approvals,
    though it could open none of them."""
    state, _, approving = formed_with_leads(case)
    floods = [rec for rec in state.trace.records if rec.envelope.kind is Kind.GD_ERR]
    assert [rec.envelope.sender for rec in floods] == \
        [e.node for e in state.cluster_map.orphan_events]
    for rec in floods:
        s = rec.envelope.sender
        heard = ",".join(map(str, sorted(state.graph.neighbors(s) & approving)))
        assert rec.envelope.plaintext == f"GD_ERR|{s}|{heard}".encode()
        assert rec.envelope.key == state.individual_key(s)


@given(network_case())
def test_each_lead_in_an_orphans_range_reports_it_once(case):
    """Every lead in an orphan's range, in id order, files one ORP_ERR about
    it to the base station under its group's key."""
    state, leads, _ = formed_with_leads(case)
    plan = state.plan
    reports = [rec for rec in state.trace.records if rec.envelope.kind is Kind.ORP_ERR]
    assert [(rec.envelope.plaintext, rec.envelope.sender) for rec in reports] == [
        (f"ORP_ERR|{e.node}".encode(), gd) for e in state.cluster_map.orphan_events
        for gd in sorted(state.graph.neighbors(e.node) & leads)]
    for rec in reports:
        grp = plan.group_of(rec.envelope.sender)
        assert rec.receivers == (protocol.BS_ID,) and rec.group_id == grp.group_id
        assert rec.envelope.key == grp.group_key


@given(churn_case(), st.data())
def test_the_replay_opens_exactly_what_the_reference_cipher_opens(case, data):
    """The library decides every open by possession: the adversary opens an
    envelope iff it holds the id of its key.  The reference cipher referees
    that: for every record, some key the adversary holds by then opens its
    sealed payload iff the replay has the record's entry.  Forged joins
    are admitted by the forged-join rule."""
    g, plan_args, held, ops = case
    state = churned(NetworkState, g, keying.build_plan(*plan_args), held, ops)
    sensors = sorted(v for v, rank in state.cluster_map.ranks.items() if rank is Rank.OS)
    profiles = [AdversaryProfile.outsider(),
                AdversaryProfile.compromised_gd(
                    state, data.draw(st.sampled_from(sorted(state.group_dominator))))]
    if sensors:
        profiles.append(AdversaryProfile.compromised_os(
            state, data.draw(st.sampled_from(sensors))))
    for profile in profiles:
        report = state.simulate_adversary(profile, 50, data.draw(st.integers(0, 99)))
        opened, _ = oracle.reference_replay(state, profile, relays=False)
        assert report.decrypted == [
            (ev.envelope.kind.value, ev.group_id, ev.envelope.key_fingerprint)
            for ev in opened], profile.mode
        for a in report.attempts:
            assert a.admitted == oracle.forged_join_admitted(
                state, profile, a.claimed_id, a.target_group), (profile.mode, a)


KEY_LABEL = re.compile(r"group:\d+|individual:\d+|rekey:\d+:\d+")


@given(churn_case())
def test_every_key_id_is_the_label_it_was_derived_from(case):
    """Every key id the network records, grants, airs, carries in a key
    payload or lets a replay open is a plan label, which holds no `,`, `;`,
    `|` or newline; a vault key is its id alone, so no id names two keys,
    and a key payload carries the plan's secret for the id it names."""
    g, plan_args, held, ops = case
    state = churned(NetworkState, g, keying.build_plan(*plan_args), held, ops)
    vault = state.plan.vault
    keys = [*vault.all_individual_keys.values(),
            *(k for h in vault.group_key_history.values() for k in h)]
    by_id = {}
    for key in keys:
        assert key == Key(key.key_id)
        assert by_id.setdefault(key.key_id, key) == key
    ids = set(by_id).union(*state.rings.values())
    for rec in state.trace.records:
        ids.add(rec.envelope.key_fingerprint)
        carried = protocol._carried_key_id(rec.envelope.plaintext)
        if carried is not None:
            assert carried in by_id
            secret_hex = rec.envelope.plaintext.split(b"|", 3)[2]
            assert secret_hex == state.plan.secret(carried).hex().encode()
    sensors = sorted(v for v, rank in state.cluster_map.ranks.items() if rank is Rank.OS)
    profiles = [AdversaryProfile.outsider(), AdversaryProfile.compromised_gd(state, 0)]
    profiles += [AdversaryProfile.compromised_os(state, v) for v in sensors[:1]]
    for profile in profiles:
        report = state.simulate_adversary(profile, 20, seed=0)
        ids.update(kid for _, _, kid in report.decrypted)
    assert all(KEY_LABEL.fullmatch(kid) for kid in ids), sorted(ids)
    assert ids <= set(by_id)


def keys_given(state):
    """Each node's key ids as the plan, the vault history and the trace
    account for them: its planned keys, the keys minted for a group it
    leads, the individual keys vouched to it and the keys carried by a KEY
    record that names it as a receiver."""
    given = {v: set() for v in range(state.graph.n)}
    for grp in state.plan.groups:
        given[grp.dominator].add(grp.group_key.key_id)
        given[grp.dominator].update(k.key_id for k in grp.individual_keys.values())
        for m in grp.members:
            given[m].update((grp.group_key.key_id, grp.individual_keys[m].key_id))
    for gid, history in state.plan.vault.group_key_history.items():
        given[state.group_dominator[gid]].update(k.key_id for k in history)
    individual = state.plan.vault.all_individual_keys
    for rec in state.trace.records:
        word, _, rest = rec.envelope.plaintext.partition(b"|")
        if word in (b"ADOPT", b"CONFIRM"):  # the base station vouches
            given[rec.receivers[0]].add(individual[int(rest)].key_id)
        elif word == b"KEY":
            for r in rec.receivers:
                given[r].add(protocol._carried_key_id(rec.envelope.plaintext))
    return given


class ChurnedNetwork(RuleBasedStateMachine):
    """Joins, leaves, revocations and outsider replays on a small network,
    with the membership invariants checked after every step."""

    @initialize(case=network_case())
    def form(self, case):
        g, plan_args, held = case
        self.plan = keying.build_plan(*plan_args)
        self.fresh = oracle.reference_plan(*plan_args)  # never given to a network
        self.state = NetworkState(g, self.plan, deployed=set(range(g.n)) - held)
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
    def join_revoked(self, a):
        # a node out of the network that a revoked dominator hears asks to
        # join its group; `join` draws such a pair too rarely to rely on
        state, g = self.state, self.state.graph
        pairs = [(v, gid) for gid in sorted(state.revoked_groups)
                 for v in sorted(g.neighbors(state.group_dominator[gid]) - state.deployed)]
        if pairs:
            assert not state.join_node(*pairs[a % len(pairs)])

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
    def each_ring_holds_what_its_node_was_given(self):
        # custody: a key enters a ring only by the plan, a mint for a group
        # the node leads, a vouch or a key message, and never leaves it
        rings, given = self.state.rings, keys_given(self.state)
        assert sorted(rings) == sorted(given)
        assert [v for v in sorted(given) if rings[v] != given[v]] == []

    @invariant()
    def each_record_holds_its_own_envelope(self):
        # the reference cipher numbers each envelope by its object (see
        # oracle.nonces), and formation's JOIN_REQs come from a memo shared
        # by every network of the plan's shape
        records = self.state.trace.records
        assert len({id(rec.envelope) for rec in records}) == len(records)

    @invariant()
    def leavers_hold_no_key_minted_while_out(self):
        rings = self.state.rings
        leaked = [v for v, (gid, since) in self.away.items()
                  if self._minted_since(gid, since) & rings[v]]
        leaked += [v for v, missed in self.missed.items() if missed & rings[v]]
        assert leaked == []

    @invariant()
    def revoked_groups_stay_empty(self):
        # a revoked group is silent for good: no join may land in it
        state = self.state
        assert [gid for gid in sorted(state.revoked_groups)
                if state.group_members[gid]] == []

    @invariant()
    def membership_and_views_agree(self):
        assert_membership_agrees(self.state)
        assert_views_match_the_live_map(self.state)


TestChurnedNetwork = ChurnedNetwork.TestCase
TestChurnedNetwork.settings = settings(max_examples=100, stateful_step_count=30)


def test_records_hold_only_what_the_readers_of_a_trace_read():
    # the benchmark reads sender, kind, key_fingerprint and transmitter, and
    # the reference cipher the key and plaintext; a message's nonce is its
    # record's position, so no record stores one
    assert Envelope._fields == ("sender", "kind", "key", "plaintext")
    assert TraceEvent._fields == ("round", "envelope", "receivers", "group_id",
                                  "transmitter")


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
