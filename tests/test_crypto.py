"""Primitive-level checks, including the published deterministic-ECDSA vector."""

from random import Random

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature
from hypothesis import given, settings
from hypothesis import strategies as st

from pulldisc import crypto

# RFC 6979 A.2.5, P-256 with SHA-256, message "sample".
RFC6979_KEY = bytes.fromhex("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721")
RFC6979_R = "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"
RFC6979_S = "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.fixture
def keypair():
    return crypto.generate_keypair(Random(42))


def test_sign_matches_published_deterministic_vector():
    sig = crypto.sign(RFC6979_KEY, b"sample")
    assert sig[:32].hex() == RFC6979_R
    assert sig[32:].hex() == RFC6979_S


def test_sign_verify_roundtrip(keypair):
    sig = crypto.sign(keypair.private_key, b"hello")
    assert len(sig) == crypto.SIGNATURE_LEN
    assert crypto.verify(keypair.public_key, b"hello", sig)


def test_sign_is_deterministic(keypair):
    assert crypto.sign(keypair.private_key, b"m") == crypto.sign(keypair.private_key, b"m")


def test_verify_rejects_mutations(keypair):
    rng = Random(7)
    message = rng.randbytes(80)
    sig = crypto.sign(keypair.private_key, message)
    for _ in range(1000):
        target = rng.randrange(2)
        if target == 0:
            mutated = bytearray(message)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            assert not crypto.verify(keypair.public_key, bytes(mutated), sig)
        else:
            bad = bytearray(sig)
            bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
            assert not crypto.verify(keypair.public_key, message, bytes(bad))


def test_verify_rejects_zero_signature(keypair):
    assert not crypto.verify(keypair.public_key, b"m", bytes(64))


def test_verify_rejects_cross_key():
    k1 = crypto.generate_keypair(Random(1))
    k2 = crypto.generate_keypair(Random(2))
    sig = crypto.sign(k1.private_key, b"m")
    assert not crypto.verify(k2.public_key, b"m", sig)


def test_verify_rejects_malformed_point(keypair):
    sig = crypto.sign(keypair.private_key, b"m")
    assert not crypto.verify(b"\x04" + bytes(64), b"m", sig)
    assert not crypto.verify(b"", b"m", sig)


def _verify_uncached(public_key, message, signature):
    """Reference verdict: checks the whole message, keeps nothing."""
    if len(signature) != crypto.SIGNATURE_LEN:
        return False
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (0 < r < crypto.GROUP_ORDER and 0 < s < crypto.GROUP_ORDER):
        return False
    try:
        pub = ec.EllipticCurvePublicKey.from_encoded_point(crypto.CURVE, public_key)
        pub.verify(encode_dss_signature(r, s), message, ec.ECDSA(hashes.SHA256()))
    except (InvalidSignature, ValueError):
        return False
    return True


_KEYS = [crypto.generate_keypair(Random(f"verify-cache/{i}")) for i in range(3)]
_ORDER = crypto.GROUP_ORDER.to_bytes(32, "big")
_ONE = (1).to_bytes(32, "big")


def _flip(data: bytes, bit: int) -> bytes:
    bit %= 8 * len(data)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# Each case turns (key index, message, signature, bit) into verify's arguments.
_CASES = {
    "valid": lambda k, m, sig, bit: (_KEYS[k].public_key, m, sig),
    "message-bit": lambda k, m, sig, bit: (_KEYS[k].public_key, _flip(m, bit), sig),
    "signature-bit": lambda k, m, sig, bit: (_KEYS[k].public_key, m, _flip(sig, bit)),
    "wrong-key": lambda k, m, sig, bit: (_KEYS[(k + 1) % len(_KEYS)].public_key, m, sig),
    "malformed-point": lambda k, m, sig, bit: (b"\x04" + bytes(64), m, sig),
    "truncated-point": lambda k, m, sig, bit: (_KEYS[k].public_key[:33], m, sig),
    "r-zero": lambda k, m, sig, bit: (_KEYS[k].public_key, m, bytes(32) + sig[32:]),
    "s-zero": lambda k, m, sig, bit: (_KEYS[k].public_key, m, sig[:32] + bytes(32)),
    "r-order": lambda k, m, sig, bit: (_KEYS[k].public_key, m, _ORDER + sig[32:]),
    "s-order": lambda k, m, sig, bit: (_KEYS[k].public_key, m, sig[:32] + _ORDER),
    "r-s-one": lambda k, m, sig, bit: (_KEYS[k].public_key, m, _ONE + _ONE),
    "short-signature": lambda k, m, sig, bit: (_KEYS[k].public_key, m, sig[:63]),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(sorted(_CASES)),
    k=st.integers(0, len(_KEYS) - 1),
    message=st.binary(min_size=1, max_size=300),
    bit=st.integers(0, 8 * 300),
    repeat=st.integers(1, 3),
)
def test_verify_matches_an_uncached_reference(case, k, message, bit, repeat):
    args = _CASES[case](k, message, crypto.sign(_KEYS[k].private_key, message), bit)
    expected = _verify_uncached(*args)
    assert expected == (case == "valid")
    for _ in range(repeat):  # the first call may fill the cache, the rest read it
        assert crypto.verify(*args) == expected


@pytest.mark.parametrize("case", ["r-zero", "s-zero", "r-order", "s-order"])
def test_out_of_range_scalar_never_verifies(case):
    message = b"scalar range"
    args = _CASES[case](0, message, crypto.sign(_KEYS[0].private_key, message), 0)
    for _ in range(2):  # the second call reads the cached verdict
        assert not crypto.verify(*args)


def test_cached_verdict_answers_only_its_own_triple():
    key, other = _KEYS[0], _KEYS[1]
    message = b"cached once"
    sig = crypto.sign(key.private_key, message)
    assert crypto.verify(key.public_key, message, sig)
    hits = crypto._verify_digest.cache_info().hits
    assert crypto.verify(key.public_key, message, sig)
    assert crypto._verify_digest.cache_info().hits == hits + 1
    assert not crypto.verify(key.public_key, message + b"\x00", sig)
    assert not crypto.verify(key.public_key, _flip(message, 3), sig)
    assert not crypto.verify(other.public_key, message, sig)
    assert crypto.verify(key.public_key, message, sig)


def test_verdict_cache_stays_bounded_and_recomputes_evicted_verdicts():
    maxsize = crypto._verify_digest.cache_info().maxsize
    assert maxsize <= 256
    key = _KEYS[2]
    good = (key.public_key, b"evicted good", crypto.sign(key.private_key, b"evicted good"))
    bad = (key.public_key, b"evicted bad", crypto.sign(key.private_key, b"something else"))
    assert crypto.verify(*good) and not crypto.verify(*bad)
    sig = crypto.sign(key.private_key, b"filler")
    for i in range(10 * maxsize):
        assert not crypto.verify(key.public_key, i.to_bytes(4, "big"), sig)
        assert crypto._verify_digest.cache_info().currsize <= maxsize
    misses = crypto._verify_digest.cache_info().misses
    assert crypto.verify(*good) and not crypto.verify(*bad)
    assert crypto._verify_digest.cache_info().misses == misses + 2


def test_bad_private_scalar_raises():
    with pytest.raises(crypto.SigningKeyError):
        crypto.sign(bytes(32), b"m")  # zero scalar
    with pytest.raises(crypto.SigningKeyError):
        crypto.sign(b"\xff" * 32, b"m")  # above the group order


def test_hash_image_reference_vector():
    assert crypto.hash_image(b"").hex() == SHA256_EMPTY


def test_hash_image_properties():
    rng = Random(5)
    for _ in range(50):
        x = rng.randbytes(rng.randrange(200))
        assert crypto.hash_image(x) == crypto.hash_image(x)
        assert crypto.hash_image(x) != crypto.hash_image(x + b"\x00")
        assert len(crypto.hash_image(x)) == 32


def test_aead_roundtrip():
    rng = Random(9)
    key, iv = rng.randbytes(16), rng.randbytes(12)
    plaintext = rng.randbytes(96)
    sealed = crypto.aead_seal(key, iv, plaintext, b"ad")
    assert len(sealed) == len(plaintext) + crypto.AEAD_TAG_LEN
    assert crypto.aead_open(key, iv, sealed, b"ad") == plaintext


def test_aead_rejects_any_mutation():
    rng = Random(10)
    key, iv = rng.randbytes(16), rng.randbytes(12)
    sealed = crypto.aead_seal(key, iv, rng.randbytes(40), b"ad")
    for _ in range(200):
        bad = bytearray(sealed)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        with pytest.raises(crypto.AeadAuthenticationError):
            crypto.aead_open(key, iv, bytes(bad), b"ad")
    with pytest.raises(crypto.AeadAuthenticationError):
        crypto.aead_open(key, iv, sealed, b"other-ad")


def test_aead_distinct_ivs_distinct_ciphertexts():
    key = Random(11).randbytes(16)
    c1 = crypto.aead_seal(key, bytes(12), b"same plaintext")
    c2 = crypto.aead_seal(key, bytes(11) + b"\x01", b"same plaintext")
    assert c1 != c2



def _first_by_aead_open(keys, iv, sealed, ad):
    for position, key in enumerate(keys):
        try:
            return position, crypto.aead_open(key, iv, sealed, ad)
        except crypto.AeadAuthenticationError:
            continue
    return None


def _sealed_item(rng, keys, where):
    """(iv, sealed, associated data) opening first under the key at
    `where` ("first", "middle" or "last"), or under none ("miss")."""
    n = len(keys)
    target = {"first": 0, "middle": n // 2, "last": n - 1}.get(where) if n else None
    key = keys[target] if target is not None else rng.randbytes(16)
    iv, plaintext, ad = rng.randbytes(12), rng.randbytes(rng.randrange(120)), rng.randbytes(4)
    return (iv, crypto.aead_seal(key, iv, plaintext, ad), ad), target, plaintext


@pytest.mark.parametrize("where", ["first", "middle", "last", "miss", "empty"])
def test_aead_open_first_matches_a_loop_of_aead_open(where):
    rng = Random(f"open-first/{where}")
    for _ in range(20):
        n = 0 if where == "empty" else rng.randrange(1, 40)
        keys = [rng.randbytes(16) for _ in range(n)]
        item, target, plaintext = _sealed_item(rng, keys, where)
        expected = None if target is None else (target, plaintext)
        assert _first_by_aead_open(keys, *item) == expected
        assert crypto.aead_open_first(keys, *item) == expected

        # The sweep, on this item alone and among hits at the first, middle
        # and last key, misses and a repeated payload.
        assert crypto.aead_sweep(keys, [item]) == [target]
        items = [item, *(_sealed_item(rng, keys, rng.choice(["first", "middle", "last", "miss"]))[0]
                         for _ in range(rng.randrange(1, 6)))]
        items.append(rng.choice(items))
        rng.shuffle(items)
        by_open = [_first_by_aead_open(keys, *each) for each in items]
        assert crypto.aead_sweep(keys, items) == [None if hit is None else hit[0] for hit in by_open]
        assert crypto.aead_sweep(keys, []) == []


def test_aead_sweep_finds_the_first_of_two_opening_keys():
    rng = Random(14)
    keys = [rng.randbytes(16) for _ in range(10)]
    keys[7] = keys[3]
    items = [_sealed_item(rng, keys, "middle")[0] for _ in range(2)]  # key 5
    iv = rng.randbytes(12)
    items.append((iv, crypto.aead_seal(keys[3], iv, b"twice"), b""))
    assert crypto.aead_sweep(keys, items) == [5, 5, 3]


@pytest.mark.parametrize(
    "key_len, iv_len", [(15, 12), (0, 12), (16, 4), (16, 0)], ids=["key15", "key0", "iv4", "iv0"]
)
def test_aead_open_first_refuses_bad_lengths_as_aead_open_does(key_len, iv_len):
    rng = Random(13)
    good = rng.randbytes(16)
    sealed = crypto.aead_seal(good, rng.randbytes(12), b"payload")
    keys, iv = [rng.randbytes(key_len), good], rng.randbytes(iv_len)
    with pytest.raises(ValueError) as by_open:
        _first_by_aead_open(keys, iv, sealed, b"")
    with pytest.raises(ValueError) as by_first:
        crypto.aead_open_first(keys, iv, sealed)
    # The bad item shares the sweep with one that only the second key opens.
    other_iv = rng.randbytes(12)
    items = [(other_iv, crypto.aead_seal(good, other_iv, b"other"), b""), (iv, sealed, b"")]
    with pytest.raises(ValueError) as by_sweep:
        crypto.aead_sweep(keys, items)
    assert type(by_first.value) is type(by_sweep.value) is type(by_open.value) is ValueError
    assert str(by_first.value) == str(by_sweep.value) == str(by_open.value)


def test_prf_eval():
    rng = Random(12)
    k1, k2 = rng.randbytes(16), rng.randbytes(16)
    assert crypto.prf_eval(k1, b"x") == crypto.prf_eval(k1, b"x")
    assert crypto.prf_eval(k1, b"x") != crypto.prf_eval(k2, b"x")
    for _ in range(50):
        assert len(crypto.prf_eval(rng.randbytes(16), rng.randbytes(20))) == 16
