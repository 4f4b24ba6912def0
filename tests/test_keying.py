import copy
import dataclasses
import hashlib
import pickle
import random
import types

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracle import NONCE_BYTES, DecryptError, decrypt, encrypt, keyed, reference_plan
from secluster import analysis, keying, udg
from secluster.keying import (
    SUPPORTED_KEY_BITS,
    DeploymentPlan,
    Key,
    build_plan,
    storage_gd_bits,
    storage_network_bits,
    storage_os_bits,
)
from secluster.protocol import NetworkState, Placement
from secluster.udg import Point


def test_single_group_plan():
    plan = build_plan(10, 9, 128, seed=1)
    assert len(plan.groups) == 1
    g = plan.groups[0]
    assert g.dominator == 0
    assert g.members == tuple(range(1, 10))
    # 9 individual keys + 1 group key
    assert len(plan.vault.all_individual_keys) == 9
    assert len(plan.vault.group_key_history) == 1


def test_hundred_nodes_ten_groups():
    plan = build_plan(100, 9, 128, seed=1)
    assert len(plan.groups) == 10
    assert len(plan.vault.group_key_history) == 10
    assert len(plan.vault.all_individual_keys) == 90


def test_remainder_group_is_bare_gd():
    plan = build_plan(101, 9, 128, seed=1)
    assert len(plan.groups) == 11
    last = plan.groups[-1]
    assert last.dominator == 100
    assert last.members == ()
    # every id lies in its own group, and an id outside 0..n-1 has none
    for v in range(101):
        g = plan.group_of(v)
        assert v == g.dominator or v in g.members
    for v in (-1, 101):
        with pytest.raises(KeyError):
            plan.group_of(v)


def test_all_keys_distinct():
    plan = build_plan(120, 7, 128, seed=5)
    ids = [g.group_key.key_id for g in plan.groups]
    for g in plan.groups:
        ids.extend(k.key_id for k in g.individual_keys.values())
    secrets = [plan.secret(kid) for kid in ids]
    assert len(set(ids)) == len(ids)
    assert len(set(secrets)) == len(secrets)


def test_ring_sizes_match_storage_model():
    # a GD remembers eta individual keys + 1 group key; an Os two keys
    plan = build_plan(24, 5, 128, seed=2)
    for g in plan.groups:
        assert len(g.individual_keys) == len(g.members)
        assert len(g.members) <= 5


def test_vault_covers_everything():
    plan = build_plan(30, 4, 128, seed=3)
    for g in plan.groups:
        assert plan.vault.group_key_history[g.group_id] == [g.group_key]
        for m, k in g.individual_keys.items():
            assert plan.vault.all_individual_keys[m] == k
    # and nothing else: one history per group, one key per ordinary sensor
    assert len(plan.vault.group_key_history) == len(plan.groups)
    assert len(plan.vault.all_individual_keys) == 30 - len(plan.groups)


def test_plan_is_deterministic():
    a = build_plan(40, 3, 128, seed=11)
    b = build_plan(40, 3, 128, seed=11)
    c = build_plan(40, 3, 128, seed=12)
    assert [g.group_key for g in a.groups] == [g.group_key for g in b.groups]
    # ids are labels, so they agree across seeds; the secrets do not
    assert [g.group_key.key_id for g in a.groups] == \
           [g.group_key.key_id for g in c.groups]
    assert [a.secret(g.group_key.key_id) for g in a.groups] == \
           [b.secret(g.group_key.key_id) for g in b.groups]
    assert [a.secret(g.group_key.key_id) for g in a.groups] != \
           [c.secret(g.group_key.key_id) for g in c.groups]


@given(n=st.integers(1, 250), eta=st.integers(0, 30),
       key_bits=st.sampled_from(SUPPORTED_KEY_BITS), seed=st.integers(0, 2**64 - 1))
@example(n=1, eta=0, key_bits=64, seed=0)
@example(n=101, eta=9, key_bits=128, seed=7)  # a bare remainder group
def test_a_plan_is_the_chunking_rule_applied(n, eta, key_bits, seed):
    plan, ref = build_plan(n, eta, key_bits, seed), reference_plan(n, eta, key_bits, seed)
    for f in dataclasses.fields(DeploymentPlan):
        if f.compare:
            assert getattr(plan, f.name) == getattr(ref, f.name), f.name
    assert (plan.n, plan.eta, plan.groups) == (n, eta, plan.shape.groups)
    assert dict(plan.shape.individual_keys) == plan.vault.all_individual_keys


def test_plans_of_one_shape_share_their_groups_but_no_vault():
    a, b = build_plan(55, 4, 128, seed=1), build_plan(55, 4, 64, seed=2)
    assert a.shape is b.shape and a.groups is b.groups
    assert all(x is y for x, y in zip(a.groups, b.groups))
    assert a.vault == b.vault
    assert a.vault.all_individual_keys is not b.vault.all_individual_keys
    assert a.vault.group_key_history is not b.vault.group_key_history
    assert all(a.vault.group_key_history[gid] is not b.vault.group_key_history[gid]
               for gid in a.vault.group_key_history)
    # so writing one plan's vault leaves the other, and the shape, as built
    a.vault.all_individual_keys.clear()
    a.vault.group_key_history[0].append(Key("rekey:0:1"))
    assert b.vault == reference_plan(55, 4, 64, 2).vault
    assert build_plan(55, 4, 128, seed=1).vault == reference_plan(55, 4, 128, 1).vault


def test_the_shared_offline_structure_cannot_be_written():
    plan = build_plan(30, 9, 128, seed=0)
    group = plan.groups[1]
    with pytest.raises(AttributeError):
        group.dominator = 11
    with pytest.raises(AttributeError):
        group.individual_keys = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.shape.groups = ()
    with pytest.raises(TypeError):
        plan.shape.individual_keys[0] = (11, Key("individual:0"))
    with pytest.raises(TypeError):
        del plan.shape.individual_keys[0]
    # a group's key map is derived on each read, so writing one leaves the
    # group, the next read and the plan as built
    keys = group.individual_keys
    keys[11] = Key("individual:0")
    del keys[12]
    assert group.individual_keys == {m: Key(f"individual:{m}") for m in group.members}
    assert group == reference_plan(30, 9, 128, 0).groups[1]
    assert plan == reference_plan(30, 9, 128, 0)


def test_the_shape_memo_keeps_the_last_two_shapes_built():
    first = build_plan(7, 1, 128, seed=0).shape
    assert build_plan(7, 1, 256, seed=5).shape is first
    second = build_plan(8, 1, 128, seed=0).shape
    assert build_plan(7, 1, 128, seed=1).shape is first
    build_plan(9, 1, 128, seed=0)
    assert build_plan(7, 1, 128, seed=2).shape is first  # used last but one
    # evicted: the next plan gets a new shape, equal to the old one
    again = build_plan(8, 1, 128, seed=0)
    assert again.shape is not second and again.shape == second
    assert again == reference_plan(8, 1, 128, 0)


def test_a_plan_pickles_and_deep_copies():
    plan = build_plan(23, 4, 64, seed=3)
    for copied in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
        assert copied == plan == reference_plan(23, 4, 64, 3)
        assert copied.vault.all_individual_keys is not plan.vault.all_individual_keys
        assert copied.secret("group:2") == plan.secret("group:2")
        # the copy's shared structure is as immutable as the original's
        with pytest.raises(TypeError):
            copied.shape.individual_keys[0] = (6, Key("individual:0"))
        copied.groups[1].individual_keys[6] = Key("individual:0")
        assert copied.groups[1].individual_keys == plan.groups[1].individual_keys
        assert copied == reference_plan(23, 4, 64, 3)


def test_the_offline_records_pickle_and_deep_copy_as_plain_data():
    assert keying.GroupRecord._fields == ("group_id", "dominator", "members", "group_key")
    shape = build_plan(23, 4, 64, seed=3).shape
    for record in (shape.groups[1], shape):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert copied == record
    assert pickle.loads(pickle.dumps(shape)) == reference_plan(23, 4, 64, 3).shape


def test_unsupported_key_length_rejected():
    with pytest.raises(ValueError):
        build_plan(10, 3, 100, seed=0)
    with pytest.raises(ValueError):
        build_plan(0, 3, 128, seed=0)
    with pytest.raises(ValueError):
        build_plan(10, -1, 128, seed=0)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_supported_key_lengths(bits):
    plan = build_plan(6, 2, bits, seed=0)
    assert len(plan.secret(plan.groups[0].group_key.key_id)) == bits // 8


# -- storage formulas --------------------------------------------------------

@pytest.mark.parametrize("eta,k,expected", [
    (0, 128, 128),   # a promoted one-node group carries just its group key
    (5, 128, 768),
    (10, 256, 2816),
])
def test_storage_gd(eta, k, expected):
    assert storage_gd_bits(eta, k) == expected


@pytest.mark.parametrize("k", [64, 128, 256])
def test_storage_os(k):
    assert storage_os_bits(k) == 2 * k


def test_storage_network_examples():
    assert storage_network_bits(10, 90, 9, 128) == 35840
    assert storage_network_bits(1, 0, 0, 128) == 128


@pytest.mark.parametrize("formula, args", [
    (storage_gd_bits, (-1, 128)),
    (storage_gd_bits, (5, 0)),
    (storage_os_bits, (-64,)),
    (storage_network_bits, (-1, 90, 9, 128)),
    (storage_network_bits, (10, -1, 9, 128)),
    (storage_network_bits, (1, 1, -5, 128)),
    (storage_network_bits, (1, 1, 9, -128)),
    (storage_network_bits, (1, 1, 9, 0)),
])
def test_storage_formulas_reject_out_of_range_inputs(formula, args):
    with pytest.raises(ValueError):
        formula(*args)


def test_storage_decomposition_identity():
    """Network storage = alpha * per-GD + beta * per-Os, for random tuples."""
    rng = random.Random(77)
    for _ in range(100):
        alpha = rng.randrange(0, 200)
        beta = rng.randrange(0, 2000)
        eta = rng.randrange(0, 50)
        k = rng.choice([64, 128, 256])
        assert storage_network_bits(alpha, beta, eta, k) == \
            alpha * storage_gd_bits(eta, k) + beta * storage_os_bits(k)


# -- the tests' reference cipher (oracle.py) ---------------------------------

def test_encrypt_decrypt_round_trip():
    plan = build_plan(4, 3, 128, seed=9)
    key = keyed(plan, plan.groups[0].group_key)
    blob = encrypt(key, b"\x00" * 8, b"hello sensors")
    assert decrypt(key, blob) == b"hello sensors"


def test_wrong_key_fails_detectably():
    plan = build_plan(4, 3, 128, seed=9)
    key = keyed(plan, plan.groups[0].group_key)
    other = keyed(plan, plan.groups[0].individual_keys[1])
    blob = encrypt(key, b"\x00" * 8, b"payload")
    with pytest.raises(DecryptError):
        decrypt(other, blob)


def test_tampered_payload_fails():
    plan = build_plan(4, 3, 128, seed=9)
    key = keyed(plan, plan.groups[0].group_key)
    blob = bytearray(encrypt(key, b"\x01" * 8, b"payload"))
    blob[10] ^= 0xFF
    with pytest.raises(DecryptError):
        decrypt(key, bytes(blob))
    # a blob shorter than its nonce and tag cannot be split at all
    with pytest.raises(DecryptError, match="too short"):
        decrypt(key, bytes(blob[:NONCE_BYTES + 15]))


@pytest.mark.parametrize("length", [0, 4, 7, 9, 16])
def test_nonce_of_another_length_is_refused(length):
    # decrypt splits the nonce off at NONCE_BYTES; a 4-byte nonce used to
    # seal a blob that opened under a valid tag to the wrong plaintext
    plan = build_plan(4, 3, 128, seed=9)
    key = keyed(plan, plan.groups[0].group_key)
    with pytest.raises(ValueError):
        encrypt(key, bytes(length), b"hello")
    blob = encrypt(key, bytes(NONCE_BYTES), b"hello")
    assert decrypt(key, blob) == b"hello"


def reference_keystream(secret, nonce, length):
    """The keystream as first written: a counter loop over SHA-256 blocks."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            b"ks|" + secret + nonce + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:length])


def per_byte_encrypt(key, nonce, plaintext):
    """The cipher as first written, XOR one byte at a time; pins the output."""
    _, secret = key
    stream = reference_keystream(secret, nonce, len(plaintext))
    ct = bytes(a ^ b for a, b in zip(plaintext, stream))
    tag = hashlib.sha256(b"tag|" + secret + nonce + ct).digest()[:16]
    return nonce + ct + tag


def per_byte_decrypt(key, blob):
    _, secret = key
    nonce, ct = blob[:8], blob[8:-16]
    return bytes(a ^ b for a, b in zip(ct, reference_keystream(secret, nonce, len(ct))))


# one keystream block is 32 bytes
@given(bits=st.sampled_from(keying.SUPPORTED_KEY_BITS), label=st.text(max_size=8),
       nonce=st.binary(min_size=8, max_size=8), plaintext=st.binary(max_size=200))
@example(bits=64, label="", nonce=bytes(8), plaintext=b"")
@example(bits=128, label="a", nonce=bytes(8), plaintext=bytes(31))
@example(bits=128, label="a", nonce=bytes(8), plaintext=bytes(32))
@example(bits=128, label="a", nonce=bytes(8), plaintext=bytes(33))
@example(bits=128, label="a", nonce=bytes(8), plaintext=bytes(64))
@example(bits=128, label="a", nonce=bytes(8), plaintext=bytes(65))
@example(bits=256, label="g", nonce=bytes(range(8)), plaintext=bytes(range(200)))
def test_cipher_matches_the_per_byte_xor(bits, label, nonce, plaintext):
    key = label, build_plan(1, 0, bits, seed=5).secret(label)
    blob = encrypt(key, nonce, plaintext)
    assert blob == per_byte_encrypt(key, nonce, plaintext)
    assert decrypt(key, blob) == per_byte_decrypt(key, blob) == plaintext


@given(bits=st.sampled_from(keying.SUPPORTED_KEY_BITS),
       seed=st.integers(-2 ** 64, 2 ** 64), label=st.text(max_size=24))
@example(bits=64, seed=0, label="")
@example(bits=256, seed=-1, label="individual:12|\u00e9")
def test_derive_is_sha256_of_the_seed_and_label(bits, seed, label):
    # the key bytes from scratch, not through the plan
    secret = hashlib.sha256(f"key|{seed}|{label}".encode()).digest()[:bits // 8]
    assert build_plan(1, 0, bits, seed).secret(label) == secret


def test_a_key_is_an_immutable_value():
    key = Key("a")
    assert key._fields == ("key_id",)
    with pytest.raises(AttributeError):
        key.key_id = "b"
    # a key built again is another object of equal value and hash
    twin = Key("a")
    assert twin is not key
    assert twin == key and hash(twin) == hash(key) and {key, twin} == {key}
    assert key != Key("b")
    assert key.key_id == "a"
    # a plan's keys are their labels
    plan = build_plan(2, 1, 128, seed=3)
    assert plan.groups[0].group_key == Key("group:0")
    assert plan.groups[0].individual_keys == {1: Key("individual:1")}


def test_a_network_whose_groups_land_intact_computes_no_secret(monkeypatch):
    # a plan computes a secret only when a message carries its key, and a
    # network whose every group lands intact delivers none
    calls = []

    def sha256(data):
        calls.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(keying, "hashlib", types.SimpleNamespace(sha256=sha256))
    radius = udg.radius_for_expected_degree(200, 500, 500, 6)
    state = analysis.realize(200, 9, radius, Placement.clustered(None),
                             0, 500, 500, 128)
    assert state.cluster_map.orphan_events == []
    for g in state.plan.groups:
        assert state.group_members[g.group_id] == set(g.members)
    assert calls == []


def test_a_membership_change_computes_its_new_key_secret_once(monkeypatch):
    # a join sends its new key to the newcomer and to the members, and a
    # leave to each remaining member: one message in every copy, so one
    # secret per change
    plan = build_plan(6, 2, 128, seed=3)
    g = udg.from_positions([Point(0, 0), Point(1, 0), Point(0, 1),
                            Point(10, 0), Point(11, 0), Point(5, 0)], 6.0)
    state = NetworkState(g, plan, deployed=[0, 1, 2, 3, 4])
    calls = []

    def sha256(data):
        calls.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(keying, "hashlib", types.SimpleNamespace(sha256=sha256))
    assert state.join_node(5, 1)
    assert calls == [b"key|3|rekey:1:1"]
    assert state.leave_node(1)
    assert calls == [b"key|3|rekey:1:1", b"key|3|rekey:0:1"]


# -- export ------------------------------------------------------------------

def test_plan_csv_has_fingerprints_not_secrets(tmp_path):
    plan = build_plan(12, 3, 128, seed=21)
    path = tmp_path / "plan.csv"
    keying.write_plan_csv(plan, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "node_id,rank,group_id,key_ids"
    assert len(lines) == 13
    assert lines[1].startswith("0,GD,0,")
    assert lines[2].startswith("1,Os,0,")
    for g in plan.groups:
        assert g.group_key.key_id in text
        assert plan.secret(g.group_key.key_id).hex() not in text
        for k in g.individual_keys.values():
            assert plan.secret(k.key_id).hex() not in text
