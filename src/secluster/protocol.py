"""Message-passing simulation of secure cluster formation.

Formation runs in four synchronous rounds over the proximity graph:

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
nothing).  Every membership change goes through three steps, each the
only writer of its facts: `_enroll`/`_withdraw` (deployment, membership
and dominator), `_rekey` (the group's key history and rekey log) and
`_deliver` (a key sealed to its receivers, who then hold it).  The
dominator set and the mediators are read from the dominator record, so
they describe the live network.  An adversary can be injected to
measure what the key discipline actually leaks.

Everything is deterministic: ties break toward smaller node ids, rounds
are processed in sorted order, and key material comes from the plan's
seeded factory.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Collection, Iterable, Optional

from .keying import (
    NONCE_BYTES,
    BaseStationVault,
    DecryptError,
    DeploymentPlan,
    Key,
    decrypt,
    encrypt,
)
# write_trace_csv is exported from here, beside write_clustermap_csv
from .trace import (  # noqa: F401
    Envelope,
    FloodEvent,
    Kind,
    Trace,
    TraceEvent,
    flood_order,
    write_trace_csv,
)
from .udg import UnitDiskGraph, Point, from_positions, generate_uniform

BS_ID = -1  # the base station is a logical entity, not a graph node
# nonce of forged requests; the network's counter starts at 1, so never yields it
_FORGED_NONCE = bytes(NONCE_BYTES)


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
        if rho is not None and rho <= 0:
            raise ValueError("rho must be > 0")
        return cls(PlacementMode.CLUSTERED, rho)

    def describe(self) -> str:
        if self.mode is PlacementMode.CLUSTERED:
            rho = "radius" if self.rho is None else f"{self.rho:g}"
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


@dataclass(frozen=True)
class RekeyEvent:
    group_id: int
    old_key_id: str
    new_key_id: str
    cause: str  # join | leave
    round: int = 0  # trace round of the rekey transaction


@dataclass
class ClusterMap:
    """Outcome of cluster formation plus the membership-change history.

    `dominator_of` is the one record of who leads whom in the live network;
    d is a live dominator iff `dominator_of.get(d) == d`.  The dominator
    set and the mediators are derived from it on read, so they follow churn.
    """

    graph: UnitDiskGraph = field(repr=False, compare=False)
    ranks: dict[int, Rank]
    dominator_of: dict[int, int]  # deployed nodes only; absent for UNREACHABLE
    orphan_events: list[OrphanEvent]
    rekey_log: list[RekeyEvent]

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
    # the adversary could open; flood relays repeat their origin's envelope
    decrypted: list[tuple[str, Optional[int], str]]

    @property
    def admissions(self) -> int:
        return sum(1 for a in self.attempts if a.admitted)


def _key_payload(key: Key, note: str) -> bytes:
    return b"KEY|" + key.key_id.encode() + b"|" + key.secret.hex().encode() + b"|" + note.encode()


def _parse_key_payload(plaintext: bytes) -> Optional[Key]:
    if not plaintext.startswith(b"KEY|"):
        return None
    _, kid, secret_hex, _note = plaintext.split(b"|", 3)
    secret = bytes.fromhex(secret_hex.decode())
    return Key(key_id=kid.decode(), bits=len(secret) * 8, secret=secret)


class NetworkState:
    """Live network: key rings, group membership, and the message trace."""

    def __init__(self, graph: UnitDiskGraph, plan: DeploymentPlan,
                 deployed: Optional[Iterable[int]] = None):
        if plan.n != graph.n:
            raise ValueError(
                f"plan covers {plan.n} nodes but graph has {graph.n}")
        self.graph = graph
        # the network records the keys it mints in a vault of its own, so the
        # caller's plan is never written and can form any number of networks
        self.plan = replace(plan, vault=BaseStationVault(
            dict(plan.vault.all_individual_keys),
            {gid: list(h) for gid, h in plan.vault.group_key_history.items()}))
        self.deployed: set[int] = (set(range(graph.n)) if deployed is None
                                   else set(deployed))
        for v in self.deployed:
            if not 0 <= v < graph.n:
                raise ValueError(f"deployed node {v} not in graph")

        # key rings: node -> {fingerprint: Key}; mutated only through _grant
        self.rings: dict[int, dict[str, Key]] = {}

        # current (post-formation) group structure; access lists stay in plan
        self.group_dominator: dict[int, int] = {}
        self._gid_of_dominator: dict[int, int] = {}
        self.group_members: dict[int, set[int]] = {}
        self.revoked_groups: set[int] = set()
        self.revoked_key_ids: set[str] = set()

        self.trace = Trace()
        self.audit_log: list[str] = []
        self._round = 0
        self._nonce_counter = 0

        self.cluster_map = ClusterMap(
            graph=graph, ranks={}, dominator_of={},
            orphan_events=[], rekey_log=[],
        )

        self._predistribute()

    # -- key plumbing ------------------------------------------------------

    def _grant(self, node: int, key: Key) -> None:
        self.rings.setdefault(node, {}).setdefault(key.key_id, key)

    def _predistribute(self) -> None:
        # Offline phase: every node in the plan gets its keys, deployed or not.
        for g in self.plan.groups:
            self._open_group(g.group_id, g.dominator, g.group_key)
            for m in g.members:
                self._grant(m, g.individual_keys[m])
                self._grant(m, g.group_key)
                self._grant(g.dominator, g.individual_keys[m])

    def _open_group(self, gid: int, dominator: int, key: Key) -> None:
        # planned and promoted groups alike start empty under their first key
        self.plan.vault.group_key_history.setdefault(gid, [key])
        self.group_dominator[gid] = dominator
        self._gid_of_dominator[dominator] = gid
        self.group_members[gid] = set()
        self._grant(dominator, key)

    def _enroll(self, node: int, gid: int) -> None:
        """Make node a deployed ordinary member of group gid."""
        self.deployed.add(node)
        self.cluster_map.ranks[node] = Rank.OS
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
        new = self.plan.factory.derive(f"rekey:{gid}:{len(history)}")
        history.append(new)
        self._grant(self.group_dominator[gid], new)
        self.cluster_map.rekey_log.append(
            RekeyEvent(gid, old.key_id, new.key_id, cause, self._round))
        return old, new

    def _deliver(self, kind: Kind, sender: int, gid: int, key: Key,
                 copies: Iterable[tuple[Key, Collection[int]]]) -> None:
        """Send group gid's key once per `(under, receivers)` of `copies`,
        sealed under `under`; every receiver holds it.  The plaintext is the
        same in every copy, so it is built once."""
        plaintext = _key_payload(key, f"group:{gid}")
        for under, receivers in copies:
            self._send(kind, sender, under, plaintext, receivers, gid)
            for r in receivers:
                self._grant(r, key)

    def _seal(self, kind: Kind, sender: int, key: Key, plaintext: bytes) -> Envelope:
        """Seal plaintext under key with the network's next nonce; the only
        writer of the nonce sequence."""
        self._nonce_counter += 1
        return Envelope(sender, kind, key.key_id, encrypt(
            key, self._nonce_counter.to_bytes(NONCE_BYTES, "big"), plaintext))

    def _send(self, kind: Kind, sender: int, key: Key, plaintext: bytes,
              receivers: Iterable[int], group_id: Optional[int]) -> Envelope:
        """Seal plaintext and record its broadcast by sender."""
        env = self._seal(kind, sender, key, plaintext)
        self.trace.append(TraceEvent(self._round, env, tuple(sorted(receivers)),
                                     group_id, sender))
        return env

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

    def form(self) -> ClusterMap:
        cm = self.cluster_map
        plan = self.plan
        # deployed does not change during formation, so each node's sorted
        # deployed neighbourhood is built once and shared by every round
        nbrs = {v: tuple(sorted(self.graph.neighbors(v) & self.deployed))
                for v in self.deployed}

        for g in plan.groups:
            if g.dominator in self.deployed:
                cm.ranks[g.dominator] = Rank.GD
                cm.dominator_of[g.dominator] = g.dominator

        # round 1: join requests; s is on its planned group's access list
        # only, so only its own dominator, if deployed in range, approves it
        self._round = 1
        approvals: dict[int, list[int]] = {gid: [] for gid in self.group_dominator}
        for s in sorted(self.deployed):
            if cm.ranks.get(s) is Rank.GD:
                continue
            cm.ranks[s] = Rank.OS
            gid = plan.group_of(s).group_id
            self._send(Kind.JOIN_REQ, s, self.individual_key(s),
                       f"JOIN_REQ|{s}".encode(), nbrs[s], gid)
            gd = self.group_dominator[gid]
            if cm.ranks.get(gd) is Rank.GD and gd in self.graph.neighbors(s):
                approvals[gid].append(s)

        # round 2: join approvals under the group key
        self._round = 2
        for gid in sorted(approvals):
            approved = approvals[gid]
            if not approved:
                continue
            gd = self.group_dominator[gid]
            plaintext = ("JOIN_APRV|" + ",".join(str(v) for v in approved)).encode()
            self._send(Kind.JOIN_APRV, gd, self._current_key(gid), plaintext,
                       nbrs[gd], gid)
            for s in approved:
                self._enroll(s, gid)

        # round 3: orphan error floods and dominator reports
        self._round = 3
        gid_of = self._gid_of_dominator
        orphans = sorted(s for s in self.deployed
                         if cm.ranks.get(s) is Rank.OS and s not in cm.dominator_of)
        reports: dict[int, list[int]] = {}  # orphan -> dominators in range, by id
        reach: dict[int, int] = {}  # node -> size of its component in nbrs
        for s in orphans:
            gds = reports[s] = [nb for nb in nbrs[s] if cm.ranks.get(nb) is Rank.GD]
            # the orphan heard the approvals of these; its own dominator is not
            # in range, so it could open none of them
            heard = [gd for gd in gds if approvals[gid_of[gd]]]
            plaintext = ("GD_ERR|" + str(s) + "|"
                         + ",".join(str(g) for g in heard)).encode()
            self._flood(Kind.GD_ERR, s, self.individual_key(s), plaintext,
                        plan.group_of(s).group_id, nbrs, reach)
            for gd in gds:
                self._send(Kind.ORP_ERR, gd, self._current_key(gid_of[gd]),
                           f"ORP_ERR|{s}".encode(), [BS_ID], gid_of[gd])

        # round 4: base-station verdicts
        self._round = 4
        for s in orphans:
            ind = self.individual_key(s)
            if reports[s]:
                adopter = min(reports[s],
                              key=lambda g: (len(self.group_members[gid_of[g]]), g))
                gid = gid_of[adopter]
                # The adopter command names the orphan but never carries its
                # individual key: raw key material inside group-keyed traffic
                # would be readable by every group member.  The key itself is
                # provisioned over the protected BS channel (bookkeeping).
                self._send(Kind.REKEY_TO_NEW, BS_ID, self._current_key(gid),
                           f"ADOPT|{s}".encode(), [adopter], gid)
                self._grant(adopter, ind)
                self._deliver(Kind.REKEY_TO_NEW, BS_ID, gid, self._current_key(gid),
                              [(ind, [s])])
                self._enroll(s, gid)
                cm.orphan_events.append(OrphanEvent(s, "ADOPTED", adopter))
            elif nbrs[s]:
                gid = len(self.group_dominator)  # group ids are dense
                new_key = self.plan.factory.derive(f"group:{gid}")
                self._open_group(gid, s, new_key)
                self._deliver(Kind.REKEY_TO_NEW, BS_ID, gid, new_key, [(ind, [s])])
                cm.ranks[s] = Rank.GDOS
                cm.dominator_of[s] = s
                cm.orphan_events.append(OrphanEvent(s, "PROMOTED"))
            else:
                cm.orphan_events.append(OrphanEvent(s, "UNREACHABLE"))
        return cm

    def _flood(self, kind: Kind, origin: int, key: Key, plaintext: bytes,
               group_id: Optional[int], nbrs: dict[int, tuple[int, ...]],
               reach: dict[int, int]) -> None:
        # BFS flood with duplicate suppression; relayers rebroadcast the
        # envelope unopened.  It is stored as one record, and its relays are
        # expanded from nbrs when read.  `reach` caches component sizes, so
        # each component that holds an orphan is walked once per formation.
        if origin not in reach:
            component = flood_order(nbrs, origin)
            reach.update(dict.fromkeys(component, len(component)))
        env = self._seal(kind, origin, key, plaintext)
        self.trace.append(FloodEvent(self._round, env, group_id, reach[origin], nbrs))

    # -- membership dynamics -----------------------------------------------

    def _audit(self, message: str) -> None:
        self.audit_log.append(message)

    def _gid_valid(self, group_id: int) -> bool:
        # operational iff its dominator is live: deployed and not revoked
        gd = self.group_dominator.get(group_id)
        return gd is not None and self.cluster_map.dominator_of.get(gd) == gd

    def join_node(self, new_node: int, target_group: int) -> bool:
        """Deploy a pre-provisioned node into a group.  True iff admitted."""
        self._round += 1
        if not self._gid_valid(target_group):
            self._audit(f"join denied: group {target_group} not operational")
            return False
        gd = self.group_dominator[target_group]
        if new_node in self.deployed:
            self._audit(f"join denied: node {new_node} already deployed")
            return False
        ind = self.individual_key(new_node)
        if ind is None:
            # unknown id or a node provisioned as a dominator; nothing to verify
            self._audit(f"join denied: node {new_node} has no individual key")
            return False
        if new_node not in self.graph.neighbors(gd):
            self._audit(f"join denied: node {new_node} out of range of GD {gd}")
            return False

        self._send(Kind.JOIN_REQ, new_node, ind, f"JOIN_REQ|{new_node}".encode(),
                   self.graph.neighbors(new_node) & self.deployed, target_group)

        if not self._on_access_list(new_node, target_group):
            # GD escalates the unknown id; BS confirms legitimacy and supplies
            # the individual key (rejecting revoked material).  The over-the-air
            # confirmation only names the node; the key itself moves over the
            # protected BS channel, never inside group-keyed traffic.
            self._send(Kind.ORP_ERR, gd, self._current_key(target_group),
                       f"ORP_ERR|{new_node}".encode(), [BS_ID], target_group)
            if ind.key_id in self.revoked_key_ids:
                self._audit(f"join denied: BS rejected node {new_node}")
                return False
            self._send(Kind.REKEY_TO_NEW, BS_ID, self._current_key(target_group),
                       f"CONFIRM|{new_node}".encode(), [gd], target_group)
            self._grant(gd, ind)
        elif ind.key_id in self.revoked_key_ids:
            self._audit(f"join denied: node {new_node} key revoked")
            return False

        old_key, new_key = self._rekey(target_group, "join")
        self._deliver(Kind.REKEY_TO_NEW, gd, target_group, new_key, [(ind, [new_node])])
        self._deliver(Kind.REKEY_BCAST, gd, target_group, new_key,
                      [(old_key, self.group_members[target_group])])
        self._enroll(new_node, target_group)
        return True

    def leave_node(self, node: int) -> bool:
        """Withdraw a member from its group.  True iff a rekey happened."""
        self._round += 1
        if self.cluster_map.dominator_of.get(node) == node:
            self._audit(f"leave denied: node {node} is a dominator")
            return False
        gid = self.group_of_node(node)
        if node not in self.deployed or gid is None:
            self._audit(f"leave ignored: node {node} is not a group member")
            return False
        gd = self.group_dominator[gid]
        self._send(Kind.LEAVE, node, self.individual_key(node),
                   f"LEAVE|{node}".encode(), [gd], gid)
        self._withdraw(node, gid)
        _old_key, new_key = self._rekey(gid, "leave")
        self._deliver(Kind.REKEY_TO_NEW, gd, gid, new_key,
                      [(self.individual_key(m), [m])
                       for m in sorted(self.group_members[gid])])
        return True

    def revoke_group(self, group_id: int) -> None:
        """BS bookkeeping after a dominator compromise: retire the group.

        The group key and every member individual key the dominator held are
        revoked; the group goes silent.  Re-forming the stranded members is a
        dominator-failure protocol and out of scope.  Revoking a group
        again only records that in the audit log.
        """
        if group_id in self.revoked_groups:
            self._audit(f"revoke ignored: group {group_id} already revoked")
            return
        self._round += 1
        if group_id not in self.group_dominator:
            self._audit(f"revoke ignored: no group {group_id}")
            return
        self.revoked_groups.add(group_id)
        gd = self.group_dominator[group_id]
        # the dominator holds the group key and every member's individual key
        self.revoked_key_ids.update(self.rings[gd])
        for v in [*self.group_members[group_id], gd]:
            self._withdraw(v, group_id)
        self._audit(f"group {group_id} revoked by BS")

    # -- adversary ---------------------------------------------------------

    def simulate_adversary(self, profile: AdversaryProfile, attempts: int,
                           seed: int) -> AttackReport:
        """Replay the trace through the adversary's keys and try forged joins.

        The adversary starts with the profile's keys, taken from the
        compromised node's ring.  It observes every envelope sent so far, in
        order, and tries each distinct envelope once: a flood's relays re-air
        its origin's envelope unopened, so the trace's records are its
        envelopes.  When the adversary can open a rekey message it learns the
        carried key, so a compromised member keeps up with its own group's
        rotations but nothing else.  Each forged join claims a random
        identity the adversary does not legitimately control and targets a
        random operational group; when no group is operational the replay
        makes no forged joins.  No group admits a node that is already
        deployed.
        """
        rng = random.Random(seed)
        ring = self.rings.get(profile.node, {})
        held = {fp: ring[fp] for fp in profile.held_keys if fp in ring}

        decrypted: list[tuple[str, Optional[int], str]] = []
        for rec in self.trace.records:
            key = held.get(rec.envelope.key_fingerprint)
            if key is None:
                continue
            try:
                plaintext = decrypt(key, rec.envelope.payload)
            except DecryptError:
                continue
            decrypted.append((rec.envelope.kind.value, rec.group_id,
                              rec.envelope.key_fingerprint))
            learned = _parse_key_payload(plaintext)
            if learned is not None:
                held[learned.key_id] = learned

        attempt_log: list[AttackAttempt] = []
        group_ids = sorted(gid for gid in self.group_dominator
                           if self._gid_valid(gid))
        for _ in range(attempts if group_ids else 0):
            target = rng.choice(group_ids)
            claimed = rng.randrange(self.graph.n)
            if profile.node is not None and claimed == profile.node:
                claimed = (claimed + 1) % self.graph.n
            admitted = self._forged_join_admitted(claimed, target, held, rng)
            attempt_log.append(AttackAttempt(claimed, target, admitted))
        return AttackReport(attempts=attempt_log, decrypted=decrypted)

    def _forged_join_admitted(self, claimed: int, target_group: int,
                              held: dict[str, Key], rng: random.Random) -> bool:
        # The forgery spoofs the claimed node's public fingerprint but cannot
        # seal the payload under that key; the dominator's authenticated
        # decryption must therefore fail unless the adversary truly holds it.
        real = self.individual_key(claimed)
        spoofed_fp = real.key_id if real is not None else "0" * 16
        if spoofed_fp in held:
            sealing_key = held[spoofed_fp]  # genuinely compromised identity
        elif held:
            sealing_key = held[sorted(held)[rng.randrange(len(held))]]
        else:
            sealing_key = None
        plaintext = f"JOIN_REQ|{claimed}".encode()
        if sealing_key is not None:
            # the adversary's own nonce: a replay must not advance the network's
            payload = encrypt(sealing_key, _FORGED_NONCE, plaintext)
        else:
            payload = bytes(rng.randrange(256) for _ in range(len(plaintext) + 24))

        # dominator-side validation: the target, an operational group, admits
        # an undeployed node on its access list whose request opens under its
        # individual key
        if claimed in self.deployed or not self._on_access_list(claimed, target_group):
            return False
        try:
            decrypt(real, payload)
        except DecryptError:
            return False
        return True


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
    if placement.mode is PlacementMode.UNIFORM:
        return generate_uniform(plan.n, width, height, radius, seed)

    rng = random.Random(seed)
    rho = placement.rho if placement.rho is not None else radius
    positions: list[Optional[Point]] = [None] * plan.n
    for g in plan.groups:
        ax = rng.uniform(0.0, width)
        ay = rng.uniform(0.0, height)
        positions[g.dominator] = Point(ax, ay)
        for m in g.members:
            dist = rho * math.sqrt(rng.random())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            x = min(max(ax + dist * math.cos(theta), 0.0), width)
            y = min(max(ay + dist * math.sin(theta), 0.0), height)
            positions[m] = Point(x, y)
    return from_positions([p for p in positions], radius)


def form_network(g: UnitDiskGraph, plan: DeploymentPlan, placement: Placement,
                 seed: int, deployed: Optional[Iterable[int]] = None) -> NetworkState:
    """Run cluster formation and return the live network state.

    `placement` and `seed` are ignored: formation draws no random numbers,
    and `deploy_graph` has already placed the nodes.  Both stay in the
    signature until the benchmark stops passing them.
    """
    state = NetworkState(g, plan, deployed)
    state.form()
    return state


# -- exports ----------------------------------------------------------------


def write_clustermap_csv(cm: ClusterMap, path: Path | str) -> None:
    resolution = {e.node: e.describe() for e in cm.orphan_events}
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["node_id", "rank", "dominator", "is_mediator",
                    "orphan_resolution"])
        mediators = cm.mediators()
        for node in sorted(cm.ranks):
            w.writerow([
                node,
                cm.ranks[node].value,
                cm.dominator_of.get(node, -1),
                "true" if node in mediators else "false",
                resolution.get(node, ""),
            ])
