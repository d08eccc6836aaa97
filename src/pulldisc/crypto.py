"""Fixed cryptographic primitives shared by every protocol module.

Everything here is deterministic given its inputs: ECDSA uses RFC 6979
nonces, the PRF is a keyed hash, and randomness always comes from a caller
supplied seeded generator. That makes byte-exact golden fixtures possible,
which the wire and protocol tests rely on.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterable, Sequence

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

CURVE = ec.SECP256R1()
# Order of the P-256 base point; private scalars live in [1, GROUP_ORDER).
GROUP_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

PRIVATE_KEY_LEN = 32
SIGNATURE_LEN = 64  # raw r || s, 32 bytes each
SYMMETRIC_KEY_LEN = 16
PRF_OUTPUT_LEN = 16
AEAD_IV_LEN = 12
AEAD_TAG_LEN = 16

# Both configurations are immutable, so one of each serves every call.
_SIGN_ALGORITHM = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_VERIFY_ALGORITHM = ec.ECDSA(Prehashed(hashes.SHA256()))


class SigningKeyError(ValueError):
    """Raised for private scalars outside [1, group order)."""


class AeadAuthenticationError(ValueError):
    """Raised when an AEAD tag does not verify."""


@dataclass(frozen=True)
class KeyPair:
    """P-256 signing key pair in raw byte form."""

    public_key: bytes  # 65-byte uncompressed point
    private_key: bytes  # 32-byte big-endian scalar


def generate_keypair(rng: Random) -> KeyPair:
    """Derive a fresh key pair from a seeded generator.

    Drawing 48 bytes and reducing mod (order - 1) keeps the modulo bias
    below 2^-128, which is fine for a reproducible test harness.
    """
    scalar = int.from_bytes(rng.randbytes(48), "big") % (GROUP_ORDER - 1) + 1
    priv = ec.derive_private_key(scalar, CURVE)
    pub = priv.public_key().public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)
    return KeyPair(public_key=pub, private_key=scalar.to_bytes(32, "big"))


@lru_cache(maxsize=256)
def _private_obj(private_key: bytes) -> ec.EllipticCurvePrivateKey:
    if len(private_key) != PRIVATE_KEY_LEN:
        raise SigningKeyError(f"private key must be {PRIVATE_KEY_LEN} bytes")
    scalar = int.from_bytes(private_key, "big")
    if not 1 <= scalar < GROUP_ORDER:
        raise SigningKeyError("private scalar out of range")
    return ec.derive_private_key(scalar, CURVE)


@lru_cache(maxsize=1024)
def _public_obj(public_key: bytes) -> ec.EllipticCurvePublicKey:
    return ec.EllipticCurvePublicKey.from_encoded_point(CURVE, public_key)


def sign(private_key: bytes, message: bytes) -> bytes:
    """ECDSA P-256 / SHA-256 signature as raw 64-byte r||s.

    The per-message nonce is derived deterministically (RFC 6979), so
    signing the same message twice yields identical bytes.
    """
    der = _private_obj(private_key).sign(message, _SIGN_ALGORITHM)
    r, s = decode_dss_signature(der)
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is a valid P-256/SHA-256 signature of message.

    Malformed points, bad lengths, and r/s out of range all return False
    rather than raising: rejects are ordinary protocol outcomes.
    """
    if len(signature) != SIGNATURE_LEN:
        return False
    return _verify_digest(public_key, hashlib.sha256(message).digest(), signature)


# Every receiver in a broadcast domain checks the same frame within a few
# milliseconds, so a small bound catches the repeats and keeps memory flat.
@lru_cache(maxsize=128)
def _verify_digest(public_key: bytes, digest: bytes, signature: bytes) -> bool:
    """Verdict for a 64-byte signature over a message's SHA-256 digest.
    ECDSA-SHA256 reads the message only through that digest, so the cache
    key is exact."""
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (0 < r < GROUP_ORDER and 0 < s < GROUP_ORDER):
        return False
    try:
        _public_obj(public_key).verify(encode_dss_signature(r, s), digest, _VERIFY_ALGORITHM)
    except (InvalidSignature, ValueError):
        return False
    return True


def hash_image(image: bytes) -> bytes:
    """SHA-256 digest of a software image (or any byte string)."""
    return hashlib.sha256(image).digest()


def aead_seal(key: bytes, iv: bytes, plaintext: bytes, associated_data: bytes = b"") -> bytes:
    """AES-128-GCM encrypt; returns ciphertext || 16-byte tag."""
    if len(key) != SYMMETRIC_KEY_LEN:
        raise ValueError(f"key must be {SYMMETRIC_KEY_LEN} bytes")
    if len(iv) != AEAD_IV_LEN:
        raise ValueError(f"iv must be {AEAD_IV_LEN} bytes")
    return AESGCM(key).encrypt(iv, plaintext, associated_data or None)


def aead_open(key: bytes, iv: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """Inverse of aead_seal; raises AeadAuthenticationError on a bad tag."""
    try:
        return AESGCM(key).decrypt(iv, sealed, associated_data or None)
    except InvalidTag:
        raise AeadAuthenticationError("AEAD tag verification failed") from None


def aead_open_first(
    keys: Iterable[bytes], iv: bytes, sealed: bytes, associated_data: bytes = b""
) -> tuple[int, bytes] | None:
    """(position, plaintext) for the first of `keys` that opens `sealed`,
    or None if none does.

    The trial-decryption loop: one `AESGCM` per key, built inline and
    dropped at once, so the scan holds no per-key state and a miss costs
    no call or exception translation beyond the library's own.
    """
    ad = associated_data or None
    for position, key in enumerate(keys):
        try:
            return position, AESGCM(key).decrypt(iv, sealed, ad)
        except InvalidTag:
            continue
    return None


def aead_sweep(
    keys: Iterable[bytes], items: Sequence[tuple[bytes, bytes, bytes]]
) -> list[int | None]:
    """For each (iv, sealed, associated data) item, the position of the
    first of `keys` that opens it, or None if none does.

    One trial-decryption loop for many payloads: one `AESGCM` per key,
    tried on every item still unopened and dropped before the next key's.
    Each item costs the decrypts `aead_open_first` would make for it; the
    key setups are shared, and the sweep stops once every item is open.
    A single item takes `aead_open_first`'s leaner loop.
    """
    if len(items) == 1:
        hit = aead_open_first(keys, *items[0])
        return [None if hit is None else hit[0]]
    found: list[int | None] = [None] * len(items)
    pending = [(i, iv, sealed, ad or None) for i, (iv, sealed, ad) in enumerate(items)]
    for position, key in enumerate(keys):
        if not pending:
            break
        decrypt = AESGCM(key).decrypt
        opened = False
        for i, iv, sealed, ad in pending:
            try:
                decrypt(iv, sealed, ad)
            except InvalidTag:
                continue
            found[i] = position
            opened = True
        if opened:
            pending = [entry for entry in pending if found[entry[0]] is None]
    return found


def prf_eval(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 truncated to 16 bytes."""
    return _hmac.new(key, data, hashlib.sha256).digest()[:PRF_OUTPUT_LEN]
