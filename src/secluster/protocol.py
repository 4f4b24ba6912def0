"""Message-passing simulation of secure cluster formation.

Building a `NetworkState` forms the network: every planned node gets its
pre-distributed keys, then formation runs in four synchronous rounds over
the proximity graph:

1. every ordinary sensor local-broadcasts a join request under its
   individual key;
2. every dominator that heard a request from a sensor on its access list
   broadcasts a join approval under the group key;
3. sensors left without an approval flood an error report toward the base
   station (relayed blindly, with duplicate suppression), while dominators
   adjacent to such sensors file their own reports;
4. the base station matches the reports and either assigns an adopter
   dominator, promotes the sensor to a one-node group (GDos), or gives up
   on nodes with no radio path at all.

After formation the network is live: nodes can join (group key rotates,
delivered to the newcomer under its individual key and to the old members
under the previous group key) or leave (group key rotates, delivered to
each remaining member under its individual key so the leaver learns
nothing).  Formation and every membership change go through steps, each
the only writer of its facts: `_predistribute` (every planned ring),
`_open_group` (a group, its lead and its first key), `_enroll`/`_withdraw`
(deployment, membership, dominator), `_rekey` (the next key and the rekey
log), `_grant` (a key held without a message that carries it: a group's
first key, a minted rekey or a vouched key), `_deliver` (a key sealed to
its receivers, who then hold it), `_vouch` (the base station hands a
dominator a node's individual key) and `_adjudicate` (orphan verdicts).
Formation's rounds 1 and 2 write their JOIN_REQ and JOIN_APRV records and
the memberships they approve in `_form` itself, and `_predistribute` its
rings, each in one pass with no call per node; what the plan's shape
alone decides, the planned rings and the JOIN_REQ envelopes, is built
once per shape (`_offline`).  The ranks, the dominator set and the
mediators are read from the dominator record, so they describe the live
network; `ClusterMap.ranks` builds a dict on each read, so a caller
reads it once.  An adversary can be injected to measure what the key
discipline actually leaks.

Everything is deterministic: ties break toward smaller node ids, rounds
are processed in sorted order, and a delivered key's secret comes from
the plan's seed.
"""

from __future__ import annotations

import csv
import math
import random
import weakref
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Optional

from .keying import BaseStationVault, DeploymentPlan, Key, PlanShape
# write_trace_csv is exported from here, beside write_clustermap_csv
from .trace import (  # noqa: F401
    Envelope,
    FloodEvent,
    Kind,
    Trace,
    TraceEvent,
    from_fields,
    write_trace_csv,
)
from .udg import UnitDiskGraph, Point, from_positions, generate_uniform, walk

BS_ID = -1  # the base station is a logical entity, not a graph node


class Rank(Enum):
    GD = "GD"
    OS = "Os"
    GDOS = "GDos"


class PlacementMode(Enum):
    UNIFORM = "UNIFORM"
    CLUSTERED = "CLUSTERED"


@dataclass(frozen=True)
class Placement:
    """How the sensors were dropped onto the field.

    For CLUSTERED, `rho` is the landing dispersion in meters; None means
    "one transmission range", resolved against the graph radius at
    deployment time.
    """

    mode: PlacementMode
    rho: Optional[float] = None

    @classmethod
    def uniform(cls) -> "Placement":
        return cls(PlacementMode.UNIFORM)

    @classmethod
    def clustered(cls, rho: Optional[float] = None) -> "Placement":
        if rho is not None and not rho > 0:  # NaN fails too
            raise ValueError("rho must be > 0")
        return cls(PlacementMode.CLUSTERED, rho)

    def describe(self) -> str:
        if self.mode is PlacementMode.CLUSTERED:
            rho = "radius" if self.rho is None else repr(self.rho)
            return f"CLUSTERED(rho={rho})"
        return "UNIFORM"


@dataclass(frozen=True)
class OrphanEvent:
    node: int
    resolution: str  # ADOPTED | PROMOTED | UNREACHABLE
    adopter: Optional[int] = None

    def describe(self) -> str:
        if self.resolution == "ADOPTED":
            return f"ADOPTED({self.adopter})"
        return self.resolution


class RekeyEvent(NamedTuple):
    group_id: int
    old_key_id: str
    new_key_id: str
    cause: str  # join | leave
    round: int  # trace round of the rekey transaction


@dataclass
class ClusterMap:
    """Outcome of cluster formation plus the membership-change history.

    `dominator_of` is the one record of who leads whom in the live network;
    d is a live dominator iff `dominator_of.get(d) == d`.  The ranks, the
    dominator set and the mediators are derived from it on read, so they
    follow churn; each read builds them afresh, so read them once.
    """

    graph: UnitDiskGraph = field(repr=False, compare=False)
    dominator_of: dict[int, int]  # deployed nodes only; absent for UNREACHABLE
    orphan_events: list[OrphanEvent]
    rekey_log: list[RekeyEvent]

    @property
    def ranks(self) -> dict[int, Rank]:
        """Each deployed node's rank: GDos for a live dominator formation
        promoted, GD for any other, Os for the rest (UNREACHABLE included)."""
        promoted = {e.node for e in self.orphan_events if e.resolution == "PROMOTED"}
        ranks = dict.fromkeys(self.unreachable(), Rank.OS)
        for v, d in self.dominator_of.items():
            ranks[v] = Rank.OS if v != d else Rank.GDOS if v in promoted else Rank.GD
        return ranks

    def dominator_set(self) -> frozenset[int]:
        """The live dominators."""
        return frozenset(v for v, d in self.dominator_of.items() if v == d)

    def mediators(self) -> dict[int, frozenset[int]]:
        """Each deployed member that hears a live dominator other than its
        own, mapped to those foreign dominators."""
        doms = self.dominator_set()
        out = {}
        for s, own in self.dominator_of.items():
            foreign = (self.graph.neighbors(s) & doms) - {own}
            if s != own and foreign:
                out[s] = foreign
        return out

    def unreachable(self) -> frozenset[int]:
        return frozenset(e.node for e in self.orphan_events
                         if e.resolution == "UNREACHABLE")


@dataclass(frozen=True)
class AdversaryProfile:
    """What the attacker starts with: nothing, one sensor, or one dominator."""

    mode: str  # OUTSIDER | COMPROMISED_OS | COMPROMISED_GD
    node: Optional[int] = None
    held_keys: frozenset[str] = frozenset()

    @classmethod
    def outsider(cls) -> "AdversaryProfile":
        return cls(mode="OUTSIDER")

    @classmethod
    def compromised_os(cls, state: "NetworkState", node: int) -> "AdversaryProfile":
        ring = state.rings.get(node)
        if ring is None or state.cluster_map.ranks.get(node) is not Rank.OS:
            raise ValueError(f"node {node} is not an ordinary sensor")
        return cls(mode="COMPROMISED_OS", node=node, held_keys=frozenset(ring))

    @classmethod
    def compromised_gd(cls, state: "NetworkState", group: int) -> "AdversaryProfile":
        gd = state.group_dominator.get(group)
        if gd is None:
            raise ValueError(f"no group {group}")
        return cls(mode="COMPROMISED_GD", node=gd, held_keys=frozenset(state.rings[gd]))


@dataclass(frozen=True)
class AttackAttempt:
    claimed_id: int
    target_group: int
    admitted: bool


@dataclass
class AttackReport:
    attempts: list[AttackAttempt]
    # one (kind, group, key fingerprint) entry per distinct trace envelope
    # sealed under a key the adversary held; flood relays repeat their
    # origin's envelope
    decrypted: list[tuple[str, Optional[int], str]]

    @property
    def admissions(self) -> int:
        return sum(1 for a in self.attempts if a.admitted)


class _Offline(NamedTuple):
    """What formation takes from a plan's shape alone: each node's planned
    key ids, by node id, and round 1's JOIN_REQs, one `(sender, its group,
    that group's dominator, envelope)` per planned member, by sender id."""

    rings: tuple[frozenset[str], ...]
    join_requests: tuple[tuple[int, int, int, Envelope], ...]


# each shape's _Offline, built on its first formation and kept while the
# shape lives
_OFFLINE: weakref.WeakKeyDictionary[PlanShape, _Offline] = weakref.WeakKeyDictionary()


def _offline(shape: PlanShape) -> _Offline:
    got = _OFFLINE.get(shape)
    if got is None:
        rings: list[frozenset[str]] = []
        requests = []
        for g in shape.groups:
            group_key, keys = g.group_key.key_id, g.individual_keys
            rings.append(frozenset([group_key, *(k.key_id for k in keys.values())]))
            for m in g.members:
                rings.append(frozenset([keys[m].key_id, group_key]))
                env = Envelope(m, Kind.JOIN_REQ, keys[m], f"JOIN_REQ|{m}".encode())
                requests.append((m, g.group_id, g.dominator, env))
        got = _OFFLINE[shape] = _Offline(tuple(rings), tuple(requests))
    return got


def _carried_key_id(plaintext: bytes) -> Optional[str]:
    if not plaintext.startswith(b"KEY|"):
        return None
    return plaintext.split(b"|", 2)[1].decode()


class NetworkState:
    """Live network: key rings, group membership, and the message trace."""

    def __init__(self, graph: UnitDiskGraph, plan: DeploymentPlan,
                 deployed: Optional[Iterable[int]] = None):
        if plan.n != graph.n:
            raise ValueError(
                f"plan covers {plan.n} nodes but graph has {graph.n}")
        self.graph = graph
        # the network records the keys it adds in a vault of its own
        # (sharing the plan's individual keys, which it only reads), so the
        # caller's plan is never written and can form any number of networks
        self.plan = replace(plan, vault=BaseStationVault(plan.vault.all_individual_keys))
        if deployed is None:
            self.deployed: set[int] = set(range(graph.n))
        else:
            self.deployed = set(deployed)
            for v in self.deployed:
                if not 0 <= v < graph.n:
                    raise ValueError(f"deployed node {v} not in graph")

        # key rings: node -> ids of the keys it holds; _predistribute writes
        # the planned rings, _grant adds the keys held without a message,
        # _deliver the keys a message carries
        self.rings: dict[int, set[str]] = {}

        # current (post-formation) group structure; access lists stay in plan
        self.group_dominator: dict[int, int] = {}
        self._gid_of_dominator: dict[int, int] = {}
        self.group_members: dict[int, set[int]] = {}
        self.revoked_groups: set[int] = set()
        self.revoked_key_ids: set[str] = set()

        self.trace = Trace()
        self.audit_log: list[str] = []
        self._round = 0

        self.cluster_map = ClusterMap(
            graph=graph, dominator_of={}, orphan_events=[], rekey_log=[])

        offline = _offline(plan.shape)
        self._predistribute(offline)
        self._form(offline)

    # -- key plumbing ------------------------------------------------------

    def _grant(self, node: int, key: Key) -> None:
        self.rings[node].add(key.key_id)  # every planned node has a ring

    def _predistribute(self, offline: _Offline) -> None:
        """Offline phase: every node in the plan holds its planned ring,
        deployed or not, written in one pass, and every planned group opens."""
        # the shape's rings are in node id order, as the chunking is
        self.rings.update(enumerate(map(set, offline.rings)))
        for g in self.plan.groups:
            self._open_group(g.group_id, g.dominator, g.group_key)

    def _open_group(self, gid: int, dominator: int, key: Key) -> None:
        # the one writer of lead entries and of each key history's first key
        self.plan.vault.group_key_history[gid] = [key]
        self.group_dominator[gid] = dominator
        self._gid_of_dominator[dominator] = gid
        self.group_members[gid] = set()
        if dominator in self.deployed:
            self.cluster_map.dominator_of[dominator] = dominator
        self._grant(dominator, key)

    def _enroll(self, node: int, gid: int) -> None:
        """Make node a deployed ordinary member of group gid."""
        self.deployed.add(node)
        self.cluster_map.dominator_of[node] = self.group_dominator[gid]
        self.group_members[gid].add(node)

    def _withdraw(self, node: int, gid: int) -> None:
        """Take node out of group gid and out of the deployed network."""
        self.deployed.discard(node)
        self.cluster_map.dominator_of.pop(node, None)
        self.group_members[gid].discard(node)

    def _rekey(self, gid: int, cause: str) -> tuple[Key, Key]:
        """Rotate the group key; the dominator holds the new one."""
        # the network's vault lists every key the group has had, so its
        # length numbers the next rekey
        history = self.plan.vault.group_key_history[gid]
        old = history[-1]
        new = Key(f"rekey:{gid}:{len(history)}")
        history.append(new)
        self._grant(self.group_dominator[gid], new)
        self.cluster_map.rekey_log.append(
            RekeyEvent(gid, old.key_id, new.key_id, cause, self._round))
        return old, new

    def _deliver(self, sender: int, gid: int, key: Key,
                 copies: Iterable[tuple[Kind, Key, tuple[int, ...]]]) -> None:
        """Send group gid's key once per `(kind, under, receivers)` of
        `copies`, in order, as a `kind` message sealed under `under`; each
        copy's receivers then hold it.  The plaintext is the same in every
        copy, so it is built once; it carries the key's secret, which the
        plan computes here and nowhere else.  Each copy is one record and
        one ring insert per receiver, with no method call: this is the hot
        path of every membership change."""
        kid = key.key_id
        plaintext = f"KEY|{kid}|{self.plan.secret(kid).hex()}|group:{gid}".encode()
        append, rnd, rings = self.trace.records.append, self._round, self.rings
        for kind, under, receivers in copies:
            env = from_fields(Envelope, (sender, kind, under, plaintext))
            append(from_fields(TraceEvent, (rnd, env, receivers, gid, sender)))
            for r in receivers:
                rings[r].add(kid)

    def _send(self, kind: Kind, sender: int, key: Key, plaintext: bytes,
              receivers: tuple[int, ...], group_id: Optional[int]) -> None:
        """Seal plaintext under key and record its broadcast by sender to
        `receivers`, a tuple in ascending id order, which is recorded as
        given."""
        env = from_fields(Envelope, (sender, kind, key, plaintext))
        self.trace.records.append(
            from_fields(TraceEvent, (self._round, env, receivers, group_id, sender)))

    def group_of_node(self, node: int) -> Optional[int]:
        """Group the node currently belongs to (dominators map to their own)."""
        dom = self.cluster_map.dominator_of.get(node)
        if dom is None:
            return None
        return self._gid_of_dominator.get(dom)

    @property
    def group_key(self) -> dict[int, Key]:
        """Each group's current key: the last entry of its vault history."""
        return {gid: h[-1] for gid, h in self.plan.vault.group_key_history.items()}

    def _current_key(self, gid: int) -> Key:
        return self.plan.vault.group_key_history[gid][-1]

    def individual_key(self, node: int) -> Optional[Key]:
        return self.plan.vault.all_individual_keys.get(node)

    def _on_access_list(self, node: int, group_id: int) -> bool:
        # A group's access list is the members it was planned with, so a
        # promoted group's list is empty and every join into it goes through
        # base-station confirmation.
        return (self.individual_key(node) is not None
                and self.plan.group_of(node).group_id == group_id)

    # -- formation ---------------------------------------------------------

    def _form(self, offline: _Offline) -> None:
        """Rounds 1-4 over the deployed nodes; the constructor's last step.
        Rounds 1 and 2 write their records and memberships in one pass
        each, with no call per node."""
        cm = self.cluster_map
        # deployed does not change during formation, so each node's sorted
        # deployed neighbourhood is built once and shared by every round;
        # when no node is held back, every neighbour is deployed
        adj, deployed = self.graph.adjacency, self.deployed
        everyone = len(deployed) == self.graph.n
        nbrs = {v: tuple(sorted(adj[v] if everyone else adj[v] & deployed))
                for v in deployed}
        append = self.trace.records.append

        # round 1: join requests, sealed offline; s is on its planned
        # group's access list only, so only its own dominator, if deployed
        # in range, approves it
        self._round = 1
        approvals: dict[int, list[int]] = {}  # approving groups only
        for s, gid, gd, env in offline.join_requests:
            if s in deployed:
                heard = nbrs[s]
                append(from_fields(TraceEvent, (1, env, heard, gid, s)))
                if gd in heard:
                    approvals.setdefault(gid, []).append(s)

        # round 2: join approvals under the group key; an approved member
        # is deployed already, so enrolling it writes its membership only
        self._round = 2
        lead, dominator_of = self.group_dominator, cm.dominator_of
        for gid, approved in sorted(approvals.items()):
            gd = lead[gid]
            plaintext = ("JOIN_APRV|" + ",".join(map(str, approved))).encode()
            self._send(Kind.JOIN_APRV, gd, self._current_key(gid), plaintext,
                       nbrs[gd], gid)
            self.group_members[gid].update(approved)
            for s in approved:
                dominator_of[s] = gd

        self._adjudicate(deployed - dominator_of.keys(), nbrs,
                         {lead[gid] for gid in approvals})

    def _adjudicate(self, orphans: Collection[int], nbrs: dict[int, tuple[int, ...]],
                    approving: Collection[int]) -> None:
        """Rounds 3-4 for the deployed nodes in `orphans`, which no dominator
        enrolled; `approving` holds the dominators that sent a JOIN_APRV."""
        cm = self.cluster_map
        gid_of = self._gid_of_dominator

        # round 3: orphan error floods and dominator reports
        self._round = 3
        reports: dict[int, list[int]] = {}  # orphan -> dominators in range, by id
        reach: dict[int, int] = {}  # node -> size of its component in nbrs
        for s in sorted(orphans):
            gds = reports[s] = [nb for nb in nbrs[s] if cm.dominator_of.get(nb) == nb]
            # the orphan heard the approvals of these; its own dominator is not
            # in range, so it could open none of them
            heard = [gd for gd in gds if gd in approving]
            plaintext = ("GD_ERR|" + str(s) + "|"
                         + ",".join(str(g) for g in heard)).encode()
            self._flood(Kind.GD_ERR, s, self.individual_key(s), plaintext,
                        self.plan.group_of(s).group_id, nbrs, reach)
            for gd in gds:
                self._send(Kind.ORP_ERR, gd, self._current_key(gid_of[gd]),
                           f"ORP_ERR|{s}".encode(), (BS_ID,), gid_of[gd])

        # round 4: base-station verdicts
        self._round = 4
        for s, gds in reports.items():  # in id order, as they reported
            ind = self.individual_key(s)
            if gds:
                adopter = min(gds,
                              key=lambda g: (len(self.group_members[gid_of[g]]), g))
                gid = gid_of[adopter]
                self._vouch(adopter, gid, s, "ADOPT")
                self._deliver(BS_ID, gid, self._current_key(gid),
                              [(Kind.REKEY_TO_NEW, ind, (s,))])
                self._enroll(s, gid)
                cm.orphan_events.append(OrphanEvent(s, "ADOPTED", adopter))
            elif nbrs[s]:
                gid = len(self.group_dominator)  # group ids are dense
                new_key = Key(f"group:{gid}")
                self._open_group(gid, s, new_key)
                self._deliver(BS_ID, gid, new_key, [(Kind.REKEY_TO_NEW, ind, (s,))])
                cm.orphan_events.append(OrphanEvent(s, "PROMOTED"))
            else:
                cm.orphan_events.append(OrphanEvent(s, "UNREACHABLE"))

    def _vouch(self, gd: int, gid: int, node: int, word: str) -> None:
        """The base station vouches for node to gd, dominator of group gid,
        which then holds node's individual key."""
        # The command only names the node: raw key material inside
        # group-keyed traffic would be readable by every group member.  The
        # key itself moves over the protected BS channel (bookkeeping).
        self._send(Kind.REKEY_TO_NEW, BS_ID, self._current_key(gid),
                   f"{word}|{node}".encode(), (gd,), gid)
        self._grant(gd, self.individual_key(node))

    def _flood(self, kind: Kind, origin: int, key: Key, plaintext: bytes,
               group_id: Optional[int], nbrs: dict[int, tuple[int, ...]],
               reach: dict[int, int]) -> None:
        # BFS flood with duplicate suppression; relayers rebroadcast the
        # envelope unopened.  It is stored as one record, and its relays are
        # expanded from nbrs when read.  `reach` caches component sizes, so
        # each component that holds an orphan is walked once per formation.
        if origin not in reach:
            component = walk(nbrs, origin)
            reach.update(dict.fromkeys(component, len(component)))
        env = Envelope(origin, kind, key, plaintext)
        self.trace.records.append(FloodEvent(self._round, env, group_id, reach[origin], nbrs))

    # -- membership dynamics -----------------------------------------------

    def _gid_valid(self, group_id: int) -> bool:
        # operational iff its dominator is live: deployed and not revoked
        gd = self.group_dominator.get(group_id)
        return gd is not None and self.cluster_map.dominator_of.get(gd) == gd

    def join_node(self, new_node: int, target_group: int) -> bool:
        """Deploy a pre-provisioned node into a group.  True iff admitted."""
        self._round += 1
        if not self._gid_valid(target_group):
            self.audit_log.append(f"join denied: group {target_group} not operational")
            return False
        gd = self.group_dominator[target_group]
        if new_node in self.deployed:
            self.audit_log.append(f"join denied: node {new_node} already deployed")
            return False
        ind = self.plan.vault.all_individual_keys.get(new_node)
        if ind is None:
            # unknown id or a node provisioned as a dominator; nothing to verify
            self.audit_log.append(f"join denied: node {new_node} has no individual key")
            return False
        if new_node not in self.graph.neighbors(gd):
            self.audit_log.append(f"join denied: node {new_node} out of range of GD {gd}")
            return False

        self._send(Kind.JOIN_REQ, new_node, ind, f"JOIN_REQ|{new_node}".encode(),
                   tuple(sorted(self.graph.adjacency[new_node] & self.deployed)),
                   target_group)

        if not self._on_access_list(new_node, target_group):
            # GD escalates the unknown id; BS confirms legitimacy and supplies
            # the individual key, rejecting revoked material
            self._send(Kind.ORP_ERR, gd, self._current_key(target_group),
                       f"ORP_ERR|{new_node}".encode(), (BS_ID,), target_group)
            if ind.key_id in self.revoked_key_ids:
                self.audit_log.append(f"join denied: BS rejected node {new_node}")
                return False
            self._vouch(gd, target_group, new_node, "CONFIRM")
        elif ind.key_id in self.revoked_key_ids:
            self.audit_log.append(f"join denied: node {new_node} key revoked")
            return False

        # one message, built once: to the newcomer under its individual key,
        # then to the members under the key they hold
        old_key, new_key = self._rekey(target_group, "join")
        self._deliver(gd, target_group, new_key, [
            (Kind.REKEY_TO_NEW, ind, (new_node,)),
            (Kind.REKEY_BCAST, old_key, tuple(sorted(self.group_members[target_group])))])
        self._enroll(new_node, target_group)
        return True

    def leave_node(self, node: int) -> bool:
        """Withdraw a member from its group.  True iff a rekey happened."""
        self._round += 1
        if self.cluster_map.dominator_of.get(node) == node:
            self.audit_log.append(f"leave denied: node {node} is a dominator")
            return False
        gid = self.group_of_node(node)
        if gid is None:
            self.audit_log.append(f"leave ignored: node {node} is not a group member")
            return False
        gd = self.group_dominator[gid]
        keys = self.plan.vault.all_individual_keys  # every member has one
        self._send(Kind.LEAVE, node, keys[node], f"LEAVE|{node}".encode(), (gd,), gid)
        self._withdraw(node, gid)
        _old_key, new_key = self._rekey(gid, "leave")
        self._deliver(gd, gid, new_key, [(Kind.REKEY_TO_NEW, keys[m], (m,))
                                         for m in sorted(self.group_members[gid])])
        return True

    def revoke_group(self, group_id: int) -> None:
        """BS bookkeeping after a dominator compromise: retire the group.

        The group key and every member individual key the dominator held are
        revoked; the group goes silent.  Re-forming the stranded members is a
        dominator-failure protocol and out of scope.  Revoking a group
        again, or one that does not exist, changes nothing and takes no
        round; it only records that in the audit log.
        """
        if group_id in self.revoked_groups:
            self.audit_log.append(f"revoke ignored: group {group_id} already revoked")
            return
        if group_id not in self.group_dominator:
            self.audit_log.append(f"revoke ignored: no group {group_id}")
            return
        self._round += 1
        self.revoked_groups.add(group_id)
        gd = self.group_dominator[group_id]
        # the dominator holds the group key and every member's individual key
        self.revoked_key_ids.update(self.rings[gd])
        for v in [*self.group_members[group_id], gd]:
            self._withdraw(v, group_id)
        self.audit_log.append(f"group {group_id} revoked by BS")

    # -- adversary ---------------------------------------------------------

    def simulate_adversary(self, profile: AdversaryProfile, attempts: int,
                           seed: int) -> AttackReport:
        """Replay the trace through the adversary's keys and try forged joins.

        Secrecy is key possession: the adversary opens an envelope iff it
        holds the id of the key the envelope is sealed under.  It starts
        with the profile's key ids that are in the compromised node's ring.
        It observes every envelope sent so far, in order, and tries each
        distinct envelope once: a flood's relays re-air its origin's
        envelope unopened, so the trace's records are its envelopes.  When
        the adversary opens a rekey message it learns the id of the key it
        carries, so a compromised member keeps up with its own group's
        rotations but nothing else.  Each forged join claims a random
        identity the adversary does not legitimately control and targets a
        random operational group; when no group is operational the replay
        makes no forged joins.  A request passes the dominator's check iff the
        adversary holds the claimed node's individual key.  `seed` draws
        only the attempts, so every profile makes the same ones, save that a
        draw of the compromised node moves on to the next id.  No group
        admits a node that is already deployed.
        """
        rng = random.Random(seed)
        held = self.rings.get(profile.node, set()) & profile.held_keys

        opened: list[tuple[str, Optional[int], str]] = []
        for rec in self.trace.records:
            env = rec.envelope
            if env.key.key_id not in held:
                continue
            opened.append((env.kind.value, rec.group_id, env.key.key_id))
            learned = _carried_key_id(env.plaintext)
            if learned is not None:
                held.add(learned)

        attempt_log: list[AttackAttempt] = []
        group_ids = sorted(gid for gid in self.group_dominator
                           if self._gid_valid(gid))
        for _ in range(attempts if group_ids else 0):
            target = rng.choice(group_ids)
            claimed = rng.randrange(self.graph.n)
            if profile.node is not None and claimed == profile.node:
                claimed = (claimed + 1) % self.graph.n
            admitted = self._forged_join_admitted(claimed, target, held)
            attempt_log.append(AttackAttempt(claimed, target, admitted))
        return AttackReport(attempts=attempt_log, decrypted=opened)

    def _forged_join_admitted(self, claimed: int, target_group: int,
                              held: Collection[str]) -> bool:
        # dominator-side validation: the target, an operational group, admits
        # an undeployed node on its access list, unless its individual key is
        # revoked, as join_node refuses it, and only if the request is sealed
        # under that key, which the adversary can do iff it holds its id
        real = self.individual_key(claimed)
        if (claimed in self.deployed or not self._on_access_list(claimed, target_group)
                or real.key_id in self.revoked_key_ids):
            return False
        return real.key_id in held


# -- deployment ------------------------------------------------------------


def deploy_graph(plan: DeploymentPlan, width: float, height: float,
                 radius: float, placement: Placement, seed: int) -> UnitDiskGraph:
    """Drop the plan's sensors onto the field per the placement model.

    UNIFORM scatters every node i.i.d. over the rectangle.  CLUSTERED lands
    one group at a time: the dominator at a uniformly chosen anchor, its
    members uniform in a disk of radius rho around the anchor, everything
    clamped to the field (clamping only shrinks distances, so members stay
    within rho of their dominator).
    """
    if not (width > 0 and height > 0):
        raise ValueError("field dimensions must be > 0")
    if placement.mode is PlacementMode.UNIFORM:
        return generate_uniform(plan.n, width, height, radius, seed)

    rng = random.Random(seed)
    rho = placement.rho if placement.rho is not None else radius
    positions: list[Optional[Point]] = [None] * plan.n
    # w * rng.random() is exactly rng.uniform(0.0, w), which adds it to 0.0
    for g in plan.groups:
        ax = width * rng.random()
        ay = height * rng.random()
        positions[g.dominator] = Point(ax, ay)
        for m in g.members:
            dist = rho * math.sqrt(rng.random())
            theta = math.tau * rng.random()
            x = ax + dist * math.cos(theta)
            y = ay + dist * math.sin(theta)
            # clamped to the field, as min(max(x, 0.0), width) clamps it
            positions[m] = Point(0.0 if x < 0.0 else width if x > width else x,
                                 0.0 if y < 0.0 else height if y > height else y)
    return from_positions(positions, radius)


def form_network(g: UnitDiskGraph, plan: DeploymentPlan, placement: Placement,
                 seed: int, deployed: Optional[Iterable[int]] = None) -> NetworkState:
    """The network `NetworkState(g, plan, deployed)` forms; `placement` and
    `seed` are ignored and kept because the benchmark passes them."""
    return NetworkState(g, plan, deployed)


# -- exports ----------------------------------------------------------------


def write_clustermap_csv(cm: ClusterMap, path: Path | str) -> None:
    resolution = {e.node: e.describe() for e in cm.orphan_events}
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["node_id", "rank", "dominator", "is_mediator",
                    "orphan_resolution"])
        mediators = cm.mediators()
        for node, rank in sorted(cm.ranks.items()):
            w.writerow([
                node,
                rank.value,
                cm.dominator_of.get(node, -1),
                "true" if node in mediators else "false",
                resolution.get(node, ""),
            ])
