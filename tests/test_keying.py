import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from secluster import keying
from secluster.keying import (
    DecryptError,
    build_plan,
    decrypt,
    encrypt,
    storage_gd_bits,
    storage_network_bits,
    storage_os_bits,
)


def test_single_group_plan():
    plan = build_plan(10, 9, 128, seed=1)
    assert len(plan.groups) == 1
    g = plan.groups[0]
    assert g.dominator == 0
    assert g.members == tuple(range(1, 10))
    assert plan.distinct_key_count() == 10  # 9 individual + 1 group


def test_hundred_nodes_ten_groups():
    plan = build_plan(100, 9, 128, seed=1)
    assert len(plan.groups) == 10
    assert plan.gd_count == 10
    assert plan.os_count == 90
    assert plan.distinct_key_count() == 100


def test_remainder_group_is_bare_gd():
    plan = build_plan(101, 9, 128, seed=1)
    assert len(plan.groups) == 11
    last = plan.groups[-1]
    assert last.dominator == 100
    assert last.members == ()


def test_all_keys_distinct():
    plan = build_plan(120, 7, 128, seed=5)
    ids = [g.group_key.key_id for g in plan.groups]
    secrets = [g.group_key.secret for g in plan.groups]
    for g in plan.groups:
        ids.extend(k.key_id for k in g.individual_keys.values())
        secrets.extend(k.secret for k in g.individual_keys.values())
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
            assert plan.vault.holds(k.key_id)


def test_vault_holds_what_it_was_built_with_and_recorded():
    plan = build_plan(12, 3, 128, seed=4)
    built = keying.BaseStationVault(
        all_individual_keys=dict(plan.vault.all_individual_keys),
        group_key_history={g: list(h) for g, h in plan.vault.group_key_history.items()})
    assert built == plan.vault
    fresh = plan.factory.derive("rekey:0:1")
    assert not built.holds(fresh.key_id)
    built.record_group(0, fresh)
    assert built.holds(fresh.key_id)
    assert built.holds(plan.groups[0].group_key.key_id)  # superseded, still held
    for k in plan.vault.all_individual_keys.values():
        assert built.holds(k.key_id)
    assert not built.holds("0" * 16)


def test_plan_is_deterministic():
    a = build_plan(40, 3, 128, seed=11)
    b = build_plan(40, 3, 128, seed=11)
    c = build_plan(40, 3, 128, seed=12)
    assert [g.group_key.key_id for g in a.groups] == \
           [g.group_key.key_id for g in b.groups]
    assert [g.group_key.key_id for g in a.groups] != \
           [g.group_key.key_id for g in c.groups]


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
    assert plan.groups[0].group_key.bits == bits
    assert len(plan.groups[0].group_key.secret) == bits // 8


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


# -- modeled cipher ----------------------------------------------------------

def test_encrypt_decrypt_round_trip():
    plan = build_plan(4, 3, 128, seed=9)
    key = plan.groups[0].group_key
    blob = encrypt(key, b"\x00" * 8, b"hello sensors")
    assert decrypt(key, blob) == b"hello sensors"


def test_wrong_key_fails_detectably():
    plan = build_plan(4, 3, 128, seed=9)
    key = plan.groups[0].group_key
    other = plan.groups[0].individual_keys[1]
    blob = encrypt(key, b"\x00" * 8, b"payload")
    with pytest.raises(DecryptError):
        decrypt(other, blob)


def test_tampered_payload_fails():
    plan = build_plan(4, 3, 128, seed=9)
    key = plan.groups[0].group_key
    blob = bytearray(encrypt(key, b"\x01" * 8, b"payload"))
    blob[10] ^= 0xFF
    with pytest.raises(DecryptError):
        decrypt(key, bytes(blob))


@pytest.mark.parametrize("length", [0, 4, 7, 9, 16])
def test_nonce_of_another_length_is_refused(length):
    # decrypt splits the nonce off at NONCE_BYTES; a 4-byte nonce used to
    # seal a blob that opened under a valid tag to the wrong plaintext
    key = build_plan(4, 3, 128, seed=9).groups[0].group_key
    with pytest.raises(ValueError):
        encrypt(key, bytes(length), b"hello")
    blob = encrypt(key, bytes(keying.NONCE_BYTES), b"hello")
    assert decrypt(key, blob) == b"hello"


def per_byte_encrypt(key, nonce, plaintext):
    """The cipher as first written, XOR one byte at a time; pins the output."""
    stream = keying._keystream(key.secret, nonce, len(plaintext))
    ct = bytes(a ^ b for a, b in zip(plaintext, stream))
    tag = hashlib.sha256(b"tag|" + key.secret + nonce + ct).digest()[:16]
    return nonce + ct + tag


def per_byte_decrypt(key, blob):
    nonce, ct = blob[:8], blob[8:-16]
    return bytes(a ^ b for a, b in zip(ct, keying._keystream(key.secret, nonce, len(ct))))


@given(bits=st.sampled_from(keying.SUPPORTED_KEY_BITS), label=st.text(max_size=8),
       nonce=st.binary(min_size=8, max_size=8), plaintext=st.binary(max_size=200))
@example(bits=64, label="", nonce=bytes(8), plaintext=b"")
@example(bits=256, label="g", nonce=bytes(range(8)), plaintext=bytes(range(200)))
def test_cipher_matches_the_per_byte_xor(bits, label, nonce, plaintext):
    key = keying.KeyFactory(seed=5, key_bits=bits).derive(label)
    blob = encrypt(key, nonce, plaintext)
    assert blob == per_byte_encrypt(key, nonce, plaintext)
    assert decrypt(key, blob) == per_byte_decrypt(key, blob) == plaintext


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
        assert g.group_key.secret.hex() not in text
        for k in g.individual_keys.values():
            assert k.secret.hex() not in text
