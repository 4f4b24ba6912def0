"""Offline rank assignment and key pre-distribution.

The sensor population is split into groups of one group dominator (GD)
plus up to `eta` ordinary sensors (Os).  Every Os carries two keys: its
own individual key (shared with its GD) and the group key.  A GD carries
the group key plus the individual keys of all its members, so its storage
is (eta + 1) * key_bits while an Os needs 2 * key_bits.  The base station
vault keeps every key in the network.  The plan's vault has the keys
assigned offline; each formed network keeps a vault of its own, which
records the keys its promotions and rekeys add.

Everything the offline phase decides depends on (n, eta) alone, the
plan's shape (`PlanShape`): the groups, each node's key ring (`rings`)
and formation's sealed join requests (`join_requests`).  The seed feeds
only the keys' secrets, and a plan's n, eta and groups are read from its
shape.  `build_plan` therefore keeps the last two shapes it built, and
for either builds only a plan's vault: the seeds of one sweep size come
in a row, and a churn experiment may form networks of two sizes in turn.
Every plan of one shape shares its `PlanShape` and `GroupRecord`s, which
are immutable tuples all the way down; each plan's vault dicts are its
own, built from the shape, so no plan can write another.  Plans, shapes
and group records pickle and deep-copy as plain data.

A key is its id alone, the label it was planned under (`group:3`,
`individual:17`, `rekey:3:1`).  Its secret is seeded SHA-256 of that
label, so a deployment plan is reproducible from its seed, and the plan
computes a secret only when a message carries the key.  Secrecy is
decided by key possession: a holder of the key an envelope is sealed
under opens it, and anyone else cannot, so the library compares key ids
and runs no cipher.  The tests keep an authenticated cipher as the
reference (`tests/oracle.py`), and check that it opens an envelope
exactly when possession says it does.
"""

from __future__ import annotations

import csv
import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .trace import Envelope, Kind

SUPPORTED_KEY_BITS = (64, 128, 256)

class Key(NamedTuple):
    """A symmetric key, named by its id: the label it was planned under.

    Ids are plan-scoped, like node ids: the labels `group:{gid}`,
    `individual:{node}` and `rekey:{gid}:{k}` are unique within a plan, so
    keys with one id are one key.  The key's secret is the plan's
    (`DeploymentPlan.secret`).
    """

    key_id: str


class GroupRecord(NamedTuple):
    """One pre-assigned group: a dominator, its members, and their keys.

    Every plan of one shape shares its group records, so they are
    immutable named tuples; `individual_keys` is derived from the members.
    """

    group_id: int
    dominator: int
    members: tuple[int, ...]
    group_key: Key

    @property
    def individual_keys(self) -> dict[int, Key]:
        """Each member's individual key, by member, in a new dict per read."""
        return {m: Key(f"individual:{m}") for m in self.members}


@dataclass(frozen=True)
class PlanShape:
    """The offline structure of n sensors in groups of eta + 1: the groups,
    every member's individual key as `(node, key)` pairs in node id order,
    each node's planned key ids (`rings`, by node id, group key first, as
    `plan.csv` lists them) and formation round 1's sealed JOIN_REQs, one
    `(sender, its group, that group's dominator, envelope)` per planned
    member, by sender id.  `build_plan` makes it from (n, eta) alone.
    Shapes are tuples all the way down and compare by value."""

    n: int
    eta: int
    groups: tuple[GroupRecord, ...]
    individual_keys: tuple[tuple[int, Key], ...]
    rings: tuple[tuple[str, ...], ...]
    join_requests: tuple[tuple[int, int, int, Envelope], ...]


@dataclass
class BaseStationVault:
    """Complete key material held by the (trusted, attack-free) base station.

    `group_key_history[g]` lists every key group g has had, the current
    one last; superseded keys stay so the vault remains a superset of
    every key ring in the network, stale copies included.
    """

    all_individual_keys: dict[int, Key] = field(default_factory=dict)
    group_key_history: dict[int, list[Key]] = field(default_factory=dict)


@dataclass
class DeploymentPlan:
    """Partition of n sensors into groups plus their pre-distributed keys,
    with the seed their secrets come from.

    The groups are the plan's `shape`, shared with every plan of its
    (n, eta); `vault` is the plan's own.
    """

    shape: PlanShape
    key_bits: int
    vault: BaseStationVault
    seed: int

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def eta(self) -> int:
        return self.shape.eta

    @property
    def groups(self) -> tuple[GroupRecord, ...]:
        return self.shape.groups

    def secret(self, key_id: str) -> bytes:
        """SHA-256 of `key|{seed}|{key_id}`, cut to key_bits, computed on
        each call: one (seed, id) always yields one secret, which makes
        rekey sequences replayable, and two seeds give one id two."""
        digest = hashlib.sha256(f"key|{self.seed}|{key_id}".encode()).digest()
        return digest[:self.key_bits // 8]

    def group_of(self, node: int) -> GroupRecord:
        """The group node was planned into; `build_plan` chunks ids in order."""
        shape = self.shape
        if not 0 <= node < shape.n:
            raise KeyError(node)
        return shape.groups[node // (shape.eta + 1)]


def build_plan(n: int, eta: int, key_bits: int, seed: int) -> DeploymentPlan:
    """Assign ranks and pre-distribute keys for n sensors.

    Nodes are chunked in id order into ceil(n / (eta+1)) groups; the first
    node of each chunk is the dominator.  When (eta+1) does not divide n
    the final group simply gets the remainder, possibly a bare GD with no
    members.  The seed is recorded for the keys' secrets only.

    The shape is one of the last two built if n and eta match (see the
    module docstring): a plan shares its immutable shape with every plan
    of that shape, and its vault holds fresh dicts of its own.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if key_bits not in SUPPORTED_KEY_BITS:
        raise ValueError(
            f"key_bits must be one of {SUPPORTED_KEY_BITS}, got {key_bits}")
    shape = _shape(n, eta)
    vault = BaseStationVault(
        dict(shape.individual_keys),
        {g.group_id: [g.group_key] for g in shape.groups})
    return DeploymentPlan(shape=shape, key_bits=key_bits, vault=vault, seed=seed)


# the last two shapes built: a sweep builds every seed of one n in a row,
# and a churn experiment forms its network and a small fixed one in turn
@functools.lru_cache(maxsize=2)
def _shape(n: int, eta: int) -> PlanShape:
    group_size = eta + 1
    groups = []
    individual: list[tuple[int, Key]] = []
    rings: list[tuple[str, ...]] = []
    requests = []
    for gid, start in enumerate(range(0, n, group_size)):
        members = tuple(range(start + 1, min(start + group_size, n)))
        group_key = Key(f"group:{gid}")
        group = GroupRecord(gid, start, members, group_key)
        groups.append(group)
        keys = group.individual_keys.items()
        individual.extend(keys)
        rings.append((group_key.key_id, *(k.key_id for _, k in keys)))
        for m, key in keys:
            rings.append((group_key.key_id, key.key_id))
            requests.append((m, gid, start, join_request(m, key)))
    return PlanShape(n, eta, tuple(groups), tuple(individual),
                     tuple(rings), tuple(requests))


def join_request(node: int, key: Key) -> Envelope:
    """The JOIN_REQ node sends, sealed under its individual key."""
    return Envelope(node, Kind.JOIN_REQ, key, f"JOIN_REQ|{node}".encode())


def storage_gd_bits(eta: int, key_bits: int) -> int:
    """Key storage for one group dominator: eta individual keys + 1 group key."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if key_bits <= 0:
        raise ValueError("key_bits must be > 0")
    return (eta + 1) * key_bits


def storage_os_bits(key_bits: int) -> int:
    """Key storage for one ordinary sensor: its individual key + the group key."""
    if key_bits <= 0:
        raise ValueError("key_bits must be > 0")
    return 2 * key_bits


def storage_network_bits(alpha: int, beta: int, eta: int, key_bits: int) -> int:
    """Network-wide key storage for alpha dominators and beta ordinary sensors."""
    if alpha < 0 or beta < 0:
        raise ValueError("counts must be >= 0")
    return alpha * storage_gd_bits(eta, key_bits) + beta * storage_os_bits(key_bits)


def write_plan_csv(plan: DeploymentPlan, path: Path | str) -> None:
    """Export node ranks and key ids (labels, never secrets) as CSV."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["node_id", "rank", "group_id", "key_ids"])
        for node, ring in enumerate(plan.shape.rings):
            group = plan.group_of(node)
            rank = "GD" if group.dominator == node else "Os"
            w.writerow([node, rank, group.group_id, ";".join(ring)])
