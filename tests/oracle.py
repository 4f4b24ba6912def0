"""Fixture graphs, the exhaustive minimum-set oracle and the reference
cipher, for the tests.

The library's domination code takes any graph with an integer `n` and
`adjacency[v]`, v's neighbour set; `Graph` is the smallest such object,
built from an edge list.  `min_set_exhaustive` is the reference the
greedy baselines and the formed dominator sets are measured against: it
finds a minimum set by enumerating subsets, so it is guarded to
n <= EXHAUSTIVE_NODE_LIMIT.

The library decides who can read an envelope by key possession alone.
`encrypt` and `decrypt` are an authenticated cipher that the tests hold
that rule against: a holder of the right key opens a sealed payload, and
any other key fails detectably, never to silent garbage.  The cipher
works on `(key_id, secret)` pairs, which `keyed(plan, key)` builds from a
plan key and the plan's secret for it.  Its keystream is SHA-256 of
`ks|`, the secret, the nonce and an 8-byte big-endian block counter, 32
bytes per block, XORed onto the message; its tag is the first 16 bytes
of SHA-256 of `tag|`, the secret, the nonce and the ciphertext.
`seal(env, plan, nonce)` is an envelope's payload: its plaintext sealed
under its key and the given nonce.  An envelope's nonce is its record's
1-based position in `trace.records`, which `nonces(trace)` maps from each
envelope object; the library keeps no nonce.  `reference_replay` is the
adversary's replay refereed by that cipher, and `forged_join_admitted` is
the rule a forged join is admitted by.

`reference_plan` is the deployment plan built straight from the chunking
rule, with no memo and nothing shared: the tests compare a caller's plan
with it to show that no network wrote the plan, which a second
`build_plan` of the same shape cannot show if the two share an object.
"""

import hashlib
import itertools

from secluster.domsets import classify
from secluster.keying import BaseStationVault, DeploymentPlan, GroupRecord, Key, PlanShape
from secluster.trace import Envelope, Kind

# Subset enumeration is exponential; refuse graphs where 2^n is unreasonable.
EXHAUSTIVE_NODE_LIMIT = 20


class Graph:
    """An undirected graph on nodes 0..n-1 from an edge list."""

    def __init__(self, n, edges):
        self.n = n
        self.adjacency = [set() for _ in range(n)]
        for u, v in edges:
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    """K(1,leaves) with the center at node 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# The three verdicts over the whole graph, as the oracle takes them.

def is_dominating(g, s):
    return classify(g, s, range(g.n)).is_dominating


def is_cds(g, s):
    return classify(g, s, range(g.n)).is_cds


def is_wcds(g, s):
    return classify(g, s, range(g.n)).is_wcds


def min_set_exhaustive(g, verdict):
    """Minimum-cardinality s with `verdict(g, s)`, by subset enumeration.

    Subsets are enumerated in increasing cardinality and, within one
    cardinality, in lexicographic member order, so the first hit is both
    minimum-size and the lexicographically smallest winner.  Returns None
    when no valid set exists (CDS/WCDS on a disconnected graph).
    """
    if g.n > EXHAUSTIVE_NODE_LIMIT:
        raise ValueError(
            f"exhaustive search limited to n <= {EXHAUSTIVE_NODE_LIMIT}, got n={g.n}")
    if g.n == 0:
        return frozenset()
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            s = frozenset(combo)
            if verdict(g, s):
                return s
    return None


# -- the reference plan --------------------------------------------------------

def reference_plan(n, eta, key_bits, seed):
    """The plan of n sensors in groups of eta + 1, built from the chunking
    rule alone: group g is ids g*(eta+1) onwards, its first id the
    dominator; each member has key `individual:{id}` and each group key
    `group:{g}`.  A dominator's ring is its group key, then its members'
    keys; a member's is its group key, then its own; each member's
    JOIN_REQ carries `JOIN_REQ|{id}` under its own key.  Every object in
    it is new."""
    groups, individual, history, rings, requests = [], {}, {}, [], []
    for gid, start in enumerate(range(0, n, eta + 1)):
        members = tuple(range(start + 1, min(start + eta + 1, n)))
        keys = {m: Key(f"individual:{m}") for m in members}
        individual.update(keys)
        history[gid] = [Key(f"group:{gid}")]
        groups.append(GroupRecord(gid, start, members, Key(f"group:{gid}")))
        rings.append((f"group:{gid}", *(f"individual:{m}" for m in members)))
        for m in members:
            rings.append((f"group:{gid}", f"individual:{m}"))
            env = Envelope(m, Kind.JOIN_REQ, Key(f"individual:{m}"), b"JOIN_REQ|%d" % m)
            requests.append((m, gid, start, env))
    shape = PlanShape(n, eta, tuple(groups), tuple(individual.items()), tuple(rings),
                      tuple(requests))
    return DeploymentPlan(shape, key_bits, BaseStationVault(dict(individual), history), seed)


# -- the reference cipher ------------------------------------------------------

NONCE_BYTES = 8
_TAG_LEN = 16


class DecryptError(Exception):
    """Authenticated decryption failed (wrong key or tampered payload)."""


def _xor_stream(secret, nonce, data):
    """data XOR the keystream of (secret, nonce): SHA-256 blocks of `ks|`,
    secret, nonce and counter, joined in one pass, cut to data's length and
    applied as one big-integer XOR."""
    n, prefix = len(data), b"ks|" + secret + nonce
    stream = b"".join([hashlib.sha256(prefix + i.to_bytes(8, "big")).digest()
                       for i in range((n + 31) >> 5)])
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")


def _tag(secret, nonce, ct):
    return hashlib.sha256(b"tag|" + secret + nonce + ct).digest()[:_TAG_LEN]


def keyed(plan, key):
    """The `(key_id, secret)` pair of a plan key, as the cipher takes it."""
    return key.key_id, plan.secret(key.key_id)


def encrypt(key, nonce, plaintext):
    """Seal plaintext under key, a `(key_id, secret)` pair.

    The nonce must be NONCE_BYTES long: `decrypt` splits it off at that
    length, so any other length would open to garbage under a valid tag.
    """
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")
    _, secret = key
    ct = _xor_stream(secret, nonce, plaintext)
    return nonce + ct + _tag(secret, nonce, ct)


def decrypt(key, blob):
    """Open a sealed blob; raises DecryptError unless key and tag match."""
    if len(blob) < NONCE_BYTES + _TAG_LEN:
        raise DecryptError("ciphertext too short")
    _, secret = key
    nonce, ct, tag = (blob[:NONCE_BYTES], blob[NONCE_BYTES:-_TAG_LEN], blob[-_TAG_LEN:])
    if tag != _tag(secret, nonce, ct):
        raise DecryptError("authentication tag mismatch")
    return _xor_stream(secret, nonce, ct)


def nonces(trace):
    """Each record's envelope, by `id`, to its record's 1-based position in
    `trace.records`: the nonce it is sealed with.  Every event of a flood
    carries its record's envelope object, so it maps to the same nonce."""
    return {id(rec.envelope): i for i, rec in enumerate(trace.records, 1)}


def seal(env, plan, nonce):
    """The payload of `env`: its plaintext sealed under its key, with the
    plan's secret for it, and `nonce` written as NONCE_BYTES big-endian
    bytes."""
    return encrypt(keyed(plan, env.key), nonce.to_bytes(NONCE_BYTES, "big"),
                   env.plaintext)


# -- the adversary's replay, refereed by the cipher ----------------------------

def carried_key(plaintext):
    """The `(key_id, secret)` pair a `KEY|id|secret hex|note` payload
    carries; None for any other payload.  The library reads only the id."""
    if not plaintext.startswith(b"KEY|"):
        return None
    _, kid, secret_hex, _note = plaintext.split(b"|", 3)
    return kid.decode(), bytes.fromhex(secret_hex.decode())


def reference_replay(state, profile, relays):
    """The adversary's trace replay by brute force, relays optionally included.

    Each event's payload is opened with every key the adversary holds at
    that point, whatever its fingerprint says; an opened rekey teaches the
    key it carries.  Returns the events it opened and every `(key_id,
    secret)` pair it ends up holding, by id.
    """
    plan = state.plan
    recorded = [k for g in plan.groups for k in g.individual_keys.values()]
    recorded += [k for h in plan.vault.group_key_history.values() for k in h]
    held = {fp: keyed(plan, next(k for k in recorded if k.key_id == fp))
            for fp in profile.held_keys}
    opened, nonce = [], nonces(state.trace)
    for ev in state.trace:
        if not relays and ev.transmitter != ev.envelope.sender:
            continue
        payload = seal(ev.envelope, plan, nonce[id(ev.envelope)])
        for key in list(held.values()):
            try:
                plaintext = decrypt(key, payload)
            except DecryptError:
                continue
            opened.append(ev)
            learned = carried_key(plaintext)
            if learned is not None:
                held[learned[0]] = learned
            break
    return opened, held


def forged_join_admitted(state, profile, claimed, target_group):
    """A forged join is admitted iff the claimed node is undeployed, on the
    target's planned access list, and its individual key is held by the
    adversary and not revoked.  A replay learns only group keys, so the
    individual keys the adversary holds are the profile's."""
    key = state.individual_key(claimed)
    return (claimed not in state.deployed
            and key is not None
            and state.plan.group_of(claimed).group_id == target_group
            and key.key_id in profile.held_keys
            and key.key_id not in state.revoked_key_ids)
