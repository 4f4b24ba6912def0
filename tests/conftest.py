"""Test-wide settings and shared fixtures.

Hypothesis runs derandomized, with no deadline and no example database, so
every run of the suite tries the same examples and a slow shared host
cannot fail a test on time alone.  A derandomized run ignores
`--hypothesis-seed`, so a mutation check that sweeps seeds selects the
`explore` profile, which draws its examples from the seed:

    pytest --hypothesis-profile=explore --hypothesis-seed=N
"""

import pytest
from hypothesis import settings

from secluster import keying, protocol, udg
from secluster.analysis import derive_seed
from secluster.protocol import Placement

settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.register_profile("explore", deadline=None, derandomize=False,
                          database=None)
settings.load_profile("deterministic")


def _churned_form_network(placement_name, n=300, seed=1):
    """An n=300, degree-6 network at `form`'s default placements (uniform, or
    clustered at rho = r/4), planned and landed from the stage seeds
    `derive_seed("plan", seed)` and `derive_seed("graph", seed)`.  These
    leave n out, so neither `form` nor a sweep row builds this network; it
    keeps them so that the digests pinned on it hold.  Every v % 7 == 3 is
    held back from formation, then a fixed script runs: a join onto the
    access list, a join the base station confirms, a join into a promoted
    group, a leave, the revocation of the confirmed join's group, and a
    refused join by each of its stranded members that hears an operational
    dominator."""
    radius = udg.radius_for_expected_degree(n, 500.0, 500.0, 6.0)
    placement = (Placement.uniform() if placement_name == "uniform"
                 else Placement.clustered(radius * 0.25))
    plan = keying.build_plan(n, 9, 128, derive_seed("plan", seed))
    g = protocol.deploy_graph(plan, 500.0, 500.0, radius, placement,
                              derive_seed("graph", seed))
    held = {v for v in range(n) if v % 7 == 3}
    state = protocol.form_network(g, plan, placement, seed,
                                  deployed=set(range(n)) - held)

    def hears(v):
        # the operational groups whose dominator is in range of v, by id
        return [gid for gid in sorted(state.group_dominator)
                if state._gid_valid(gid) and v in g.neighbors(state.group_dominator[gid])]

    def join_first(fits):
        v, gid = min((v, gid) for v in held - state.deployed
                     if state.individual_key(v) is not None
                     for gid in hears(v) if fits(v, gid))
        assert state.join_node(v, gid)
        return gid

    def own(v):
        return plan.group_of(v).group_id

    join_first(lambda v, gid: gid == own(v))
    confirmed = join_first(lambda v, gid: gid != own(v) and gid < len(plan.groups))
    join_first(lambda v, gid: gid >= len(plan.groups))
    cm = state.cluster_map
    assert state.leave_node(min(v for v, d in cm.dominator_of.items() if d != v))
    stranded = sorted(state.group_members[confirmed])
    state.revoke_group(confirmed)
    refused = [(v, hears(v)[0]) for v in stranded if hears(v)]
    assert refused
    for v, gid in refused:
        assert not state.join_node(v, gid)
    return state


@pytest.fixture
def churned_form_network():
    """Builds a fresh `_churned_form_network(placement_name)` per call."""
    return _churned_form_network
