from hypothesis import given
from hypothesis import strategies as st

from secluster import keying, protocol, udg
from secluster.protocol import Kind, NetworkState, Placement
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
def churned_pair(draw):
    """The same random UDG formed twice, lazily and eagerly, with some
    nodes held back, then the same joins, leaves and revocations on both."""
    n = draw(st.integers(2, 40))
    side = draw(st.floats(5.0, 60.0))
    pts = [Point(*draw(st.tuples(st.floats(0, side), st.floats(0, side))))
           for _ in range(n)]
    radius = draw(st.floats(2.0, 20.0))
    eta = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**16))
    held = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    ops = draw(st.lists(st.tuples(st.sampled_from(["join", "leave", "revoke"]),
                                  st.integers(0, 10**6), st.integers(0, 10**6)),
                        max_size=12))
    g = udg.from_positions(pts, radius)
    states = []
    for cls in (NetworkState, EagerFloodState):
        plan = keying.build_plan(n, eta, 64, seed=seed)
        state = cls(g, plan, Placement.uniform(), seed,
                    deployed=set(range(n)) - held)
        state.form()
        states.append(state)
    for op, a, b in ops:
        state = states[0]
        planned = len(state.plan.groups)
        if op == "join" and held:
            v = sorted(held)[a % len(held)]
            # joins into promoted groups are left out: they raise IndexError
            gids = [gid for gid in sorted(state.group_dominator)
                    if gid < planned and v in g.neighbors(state.group_dominator[gid])]
            if gids:
                for s in states:
                    s.join_node(v, gids[b % len(gids)])
        elif op == "leave":
            members = sorted(m for ms in state.group_members.values() for m in ms)
            if members:
                for s in states:
                    s.leave_node(members[a % len(members)])
        elif op == "revoke":
            gid = sorted(state.group_dominator)[a % len(state.group_dominator)]
            for s in states:
                s.revoke_group(gid)
    return states[0], states[1]


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
