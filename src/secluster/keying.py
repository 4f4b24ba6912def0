"""Offline rank assignment and key pre-distribution.

The sensor population is split into groups of one group dominator (GD)
plus up to `eta` ordinary sensors (Os).  Every Os carries two keys: its
own individual key (shared with its GD) and the group key.  A GD carries
the group key plus the individual keys of all its members, so its storage
is (eta + 1) * key_bits while an Os needs 2 * key_bits.  The base station
vault holds every key in the network, including keys minted later by
rekeying.

Keys come from a seeded SHA-256 counter generator, so a deployment plan is
reproducible from its seed.  Secrecy is modeled: the encrypt/decrypt pair
below behaves like an authenticated cipher (wrong or missing key => a
detectable failure, never silent garbage), which is the only property the
simulation observes.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

SUPPORTED_KEY_BITS = (64, 128, 256)

NONCE_BYTES = 8
_TAG_LEN = 16


class DecryptError(Exception):
    """Authenticated decryption failed (wrong key or tampered payload)."""


@dataclass(frozen=True)
class Key:
    """A symmetric key: opaque secret plus a public fingerprint."""

    key_id: str
    bits: int
    secret: bytes

    def __post_init__(self):
        if len(self.secret) * 8 != self.bits:
            raise ValueError("secret length does not match key bits")


def fingerprint(secret: bytes) -> str:
    return hashlib.sha256(b"fp|" + secret).hexdigest()[:16]


class KeyFactory:
    """Deterministic key generator (SHA-256 counter mode over a seed).

    Distinct labels give independent keys; the same (seed, label) always
    yields the same key, which is what makes rekey sequences replayable.
    """

    def __init__(self, seed: int, key_bits: int):
        if key_bits not in SUPPORTED_KEY_BITS:
            raise ValueError(
                f"key_bits must be one of {SUPPORTED_KEY_BITS}, got {key_bits}")
        self._seed = seed
        self.key_bits = key_bits
        self._issued: dict[str, str] = {}  # key_id -> label, collision guard

    def derive(self, label: str) -> Key:
        material = hashlib.sha256(
            f"key|{self._seed}|{label}".encode()).digest()
        secret = material[: self.key_bits // 8]
        kid = fingerprint(secret)
        prev = self._issued.get(kid)
        if prev is not None and prev != label:
            raise RuntimeError(f"fingerprint collision between {prev!r} and {label!r}")
        self._issued[kid] = label
        return Key(key_id=kid, bits=self.key_bits, secret=secret)


def _keystream(secret: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            b"ks|" + secret + nonce + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    # one big-integer XOR instead of a per-byte loop; stream is as long as data
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


def encrypt(key: Key, nonce: bytes, plaintext: bytes) -> bytes:
    """Seal plaintext under key; stand-in for a fielded AEAD cipher.

    The nonce must be NONCE_BYTES long: `decrypt` splits it off at that
    length, so any other length would open to garbage under a valid tag.
    """
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")
    ct = _xor(plaintext, _keystream(key.secret, nonce, len(plaintext)))
    tag = hashlib.sha256(b"tag|" + key.secret + nonce + ct).digest()[:_TAG_LEN]
    return nonce + ct + tag


def decrypt(key: Key, blob: bytes) -> bytes:
    """Open a sealed blob; raises DecryptError unless key and tag match."""
    if len(blob) < NONCE_BYTES + _TAG_LEN:
        raise DecryptError("ciphertext too short")
    nonce, ct, tag = (blob[:NONCE_BYTES], blob[NONCE_BYTES:-_TAG_LEN], blob[-_TAG_LEN:])
    expect = hashlib.sha256(b"tag|" + key.secret + nonce + ct).digest()[:_TAG_LEN]
    if tag != expect:
        raise DecryptError("authentication tag mismatch")
    return _xor(ct, _keystream(key.secret, nonce, len(ct)))


@dataclass
class GroupRecord:
    """One pre-assigned group: a dominator, its members, and their keys."""

    group_id: int
    dominator: int
    members: tuple[int, ...]
    group_key: Key
    individual_keys: dict[int, Key]


@dataclass
class BaseStationVault:
    """Complete key material held by the (trusted, attack-free) base station.

    `group_key_history[g]` lists every key group g has had, the current
    one last; superseded keys stay so the vault remains a superset of
    every key ring in the network, stale copies included.  `by_id` indexes
    every key ever recorded by fingerprint, kept up to date by record_*;
    like a superseded group key, a replaced individual key stays in it.
    """

    all_individual_keys: dict[int, Key] = field(default_factory=dict)
    group_key_history: dict[int, list[Key]] = field(default_factory=dict)
    by_id: dict[str, Key] = field(default_factory=dict, init=False,
                                  compare=False, repr=False)

    def __post_init__(self):
        for k in self.all_individual_keys.values():
            self.by_id[k.key_id] = k
        for hist in self.group_key_history.values():
            for k in hist:
                self.by_id[k.key_id] = k

    def record_individual(self, node: int, key: Key) -> None:
        self.all_individual_keys[node] = key
        self.by_id[key.key_id] = key

    def record_group(self, group_id: int, key: Key) -> None:
        self.group_key_history.setdefault(group_id, []).append(key)
        self.by_id[key.key_id] = key

    def holds(self, key_id: str) -> bool:
        return key_id in self.by_id


@dataclass
class DeploymentPlan:
    """Partition of n sensors into groups plus their pre-distributed keys."""

    n: int
    eta: int
    key_bits: int
    seed: int
    groups: tuple[GroupRecord, ...]
    vault: BaseStationVault
    factory: KeyFactory

    @property
    def gd_count(self) -> int:
        return len(self.groups)

    @property
    def os_count(self) -> int:
        return self.n - len(self.groups)

    def distinct_key_count(self) -> int:
        """Group keys plus individual keys; equals n under this partition."""
        return len(self.groups) + sum(len(g.members) for g in self.groups)

    def group_of(self, node: int) -> GroupRecord:
        return self.groups[self._node_group[node]]

    def __post_init__(self):
        self._node_group: dict[int, int] = {}
        for g in self.groups:
            self._node_group[g.dominator] = g.group_id
            for m in g.members:
                self._node_group[m] = g.group_id


def build_plan(n: int, eta: int, key_bits: int, seed: int) -> DeploymentPlan:
    """Assign ranks and pre-distribute keys for n sensors.

    Nodes are chunked in id order into ceil(n / (eta+1)) groups; the first
    node of each chunk is the dominator.  When (eta+1) does not divide n
    the final group simply gets the remainder, possibly a bare GD with no
    members.  The seed drives key generation only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    factory = KeyFactory(seed, key_bits)
    vault = BaseStationVault()
    group_size = eta + 1
    groups = []
    for gid, start in enumerate(range(0, n, group_size)):
        chunk = list(range(start, min(start + group_size, n)))
        dominator, members = chunk[0], tuple(chunk[1:])
        group_key = factory.derive(f"group:{gid}")
        individual = {m: factory.derive(f"individual:{m}") for m in members}
        vault.record_group(gid, group_key)
        for m, k in individual.items():
            vault.record_individual(m, k)
        groups.append(GroupRecord(
            group_id=gid,
            dominator=dominator,
            members=members,
            group_key=group_key,
            individual_keys=individual,
        ))
    return DeploymentPlan(
        n=n, eta=eta, key_bits=key_bits, seed=seed,
        groups=tuple(groups), vault=vault, factory=factory,
    )


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
    return key_bits * (alpha * (eta + 1) + 2 * beta)


def write_plan_csv(plan: DeploymentPlan, path: Path | str) -> None:
    """Export node ranks and key fingerprints (never secrets) as CSV."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["node_id", "rank", "group_id", "key_ids"])
        for node in range(plan.n):
            group = plan.group_of(node)
            if group.dominator == node:
                kids = [group.group_key.key_id]
                kids += [group.individual_keys[m].key_id for m in group.members]
                rank = "GD"
            else:
                kids = [group.group_key.key_id, group.individual_keys[node].key_id]
                rank = "Os"
            w.writerow([node, rank, group.group_id, ";".join(kids)])
