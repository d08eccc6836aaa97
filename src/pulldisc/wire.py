"""Bit-exact wire formats for every protocol message.

This module is the single source of truth for byte layouts. All integers
are big-endian, protocol identifiers are 6 ASCII bytes, and every message
type has a fixed layout:

    request        "DP-REQ" | nonce(12)                              = 18
    response       "DP-RES" | dev_nonce(12) | count(1) | count*nonce(12)
                   | url(14) | att_report(5) | signature(64)          = 102 + 12*count
    announcement   "DP-ANN" | same layout with count = 0              = 102
    im request     "IM-REQ" | owner_nonce(12) | signature(64)         = 82
    im response    "IM-RES" | header(L*16) | iv(12) | sealed(112)     = 130 + 16*L

A response carries 1..129 pooled nonces; 129 fills the 1650-byte broadcast
budget exactly. `sign` signs every signed message over all bytes before its
signature field (the identifier and count byte are included deliberately:
binding them blocks cross-protocol replay and truncation games). A receiver
takes that region from the bytes it got through `parse_signed`, the one
shared parse of a signed payload for users and inventory devices alike.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass, replace

from . import crypto

NONCE_LEN = 12
URL_TOKEN_LEN = 14
ATT_REPORT_LEN = 5
ATT_AGE_MAX = 2**32 - 1  # the attestation age field is an unsigned 32-bit count of seconds
REQUEST_LEN = 18
RESPONSE_BASE_LEN = 102  # every fixed field, zero pooled nonces
RESPONSE_MAX_NONCES = 129
MAX_PAYLOAD = 1650
IM_REQUEST_LEN = 82
IM_PLAINTEXT_LEN = 96
IM_DEVICE_INFO_LEN = 83
IM_RESPONSE_BASE_LEN = 130  # id + iv + sealed plaintext, no header fields

ID_REQUEST = b"DP-REQ"
ID_RESPONSE = b"DP-RES"
ID_ANNOUNCE = b"DP-ANN"
ID_IM_REQUEST = b"IM-REQ"
ID_IM_RESPONSE = b"IM-RES"

ATT_SUCCESS = 0x01
ATT_FAIL = 0x00


class WireError(ValueError):
    """Base class for encode/decode failures."""


class InvariantError(WireError):
    """A field violates its declared size or range."""


class CapacityError(WireError):
    """Message would exceed the broadcast payload budget."""


class UnknownProtocolError(WireError):
    """Leading identifier is not one of ours."""


class MalformedError(WireError):
    """Byte string inconsistent with its declared layout."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")


def _check_nonce(value: bytes, name: str) -> None:
    if len(value) != NONCE_LEN:
        raise InvariantError(f"{name} must be {NONCE_LEN} bytes, got {len(value)}")


@dataclass(frozen=True)
class AttReport:
    """Attestation outcome plus whole seconds since the last attestation."""

    result: int  # ATT_SUCCESS or ATT_FAIL
    seconds_since: int

    def __post_init__(self):
        if self.result not in (ATT_SUCCESS, ATT_FAIL):
            raise InvariantError("attestation result flag must be 0x00 or 0x01")
        if not 0 <= self.seconds_since <= ATT_AGE_MAX:
            raise InvariantError("attestation age must fit an unsigned 32-bit field")

    def encode(self) -> bytes:
        return struct.pack(">BI", self.result, self.seconds_since)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "AttReport":
        result, seconds = struct.unpack_from(">BI", data, offset)
        if result not in (ATT_SUCCESS, ATT_FAIL):
            raise MalformedError("bad attestation result flag", offset)
        return cls(result, seconds)


@dataclass(frozen=True)
class RequestMsg:
    nonce: bytes

    def __post_init__(self):
        _check_nonce(self.nonce, "request nonce")

    def encode(self) -> bytes:
        return ID_REQUEST + self.nonce


@dataclass(frozen=True)
class ResponseMsg:
    """Signed pull response covering every pooled request nonce."""

    device_nonce: bytes
    pooled_nonces: tuple[bytes, ...]
    url: bytes
    att_report: AttReport
    signature: bytes

    def __post_init__(self):
        _check_nonce(self.device_nonce, "device nonce")
        if len(self.pooled_nonces) > RESPONSE_MAX_NONCES:
            raise CapacityError(
                f"{len(self.pooled_nonces)} pooled nonces exceeds the "
                f"{RESPONSE_MAX_NONCES}-nonce broadcast budget"
            )
        if not self.pooled_nonces:
            raise InvariantError("a response carries at least one pooled nonce")
        if set(map(len, self.pooled_nonces)) != {NONCE_LEN}:  # the loop names the bad one
            for n in self.pooled_nonces:
                _check_nonce(n, "pooled nonce")
        _check_url(self.url)
        _check_signature(self.signature)

    @property
    def count(self) -> int:
        return len(self.pooled_nonces)

    def encode(self) -> bytes:
        return _encode_response_layout(
            ID_RESPONSE, self.device_nonce, self.pooled_nonces, self.url,
            self.att_report, self.signature,
        )


@dataclass(frozen=True)
class AnnouncementMsg:
    """Push-mode announcement: response layout with zero pooled nonces."""

    device_nonce: bytes
    url: bytes
    att_report: AttReport
    signature: bytes

    def __post_init__(self):
        _check_nonce(self.device_nonce, "device nonce")
        _check_url(self.url)
        _check_signature(self.signature)

    def encode(self) -> bytes:
        return _encode_response_layout(
            ID_ANNOUNCE, self.device_nonce, (), self.url, self.att_report, self.signature
        )


@dataclass(frozen=True)
class ImRequestMsg:
    """Owner-signed inventory request."""

    owner_nonce: bytes
    signature: bytes

    def __post_init__(self):
        _check_nonce(self.owner_nonce, "owner nonce")
        _check_signature(self.signature)

    def encode(self) -> bytes:
        return ID_IM_REQUEST + self.owner_nonce + self.signature


@dataclass(frozen=True)
class ImResponseMsg:
    """Encrypted inventory response with optional key-lookup header.

    `sealed` is ciphertext || tag as produced by the AEAD; the plaintext
    is always IM_PLAINTEXT_LEN bytes so every response in a deployment
    encodes to the same length (an unlinkability precondition).
    """

    lkh_header: tuple[bytes, ...]
    iv: bytes
    sealed: bytes

    def __post_init__(self):
        for f in self.lkh_header:
            if len(f) != crypto.PRF_OUTPUT_LEN:
                raise InvariantError("header fields must be PRF-output sized")
        if len(self.iv) != crypto.AEAD_IV_LEN:
            raise InvariantError("iv must be 12 bytes")
        if len(self.sealed) != IM_PLAINTEXT_LEN + crypto.AEAD_TAG_LEN:
            raise InvariantError("sealed payload must be plaintext + tag sized")

    @property
    def ciphertext(self) -> bytes:
        return self.sealed[:IM_PLAINTEXT_LEN]

    @property
    def tag(self) -> bytes:
        return self.sealed[IM_PLAINTEXT_LEN:]

    def encode(self) -> bytes:
        return ID_IM_RESPONSE + b"".join(self.lkh_header) + self.iv + self.sealed


WireMessage = RequestMsg | ResponseMsg | AnnouncementMsg | ImRequestMsg | ImResponseMsg
SignedMessage = ResponseMsg | AnnouncementMsg | ImRequestMsg


_PRINTABLE_ASCII = re.compile(rb"[\x20-\x7e]*")


def _check_url(url: bytes) -> None:
    if len(url) != URL_TOKEN_LEN:
        raise InvariantError(f"url token must be {URL_TOKEN_LEN} bytes")
    if _PRINTABLE_ASCII.fullmatch(url) is None:
        raise InvariantError("url token must be printable ASCII")


def _check_signature(sig: bytes) -> None:
    if len(sig) != crypto.SIGNATURE_LEN:
        raise InvariantError(f"signature must be {crypto.SIGNATURE_LEN} bytes")


def _encode_response_layout(proto_id, device_nonce, pooled, url, att, signature) -> bytes:
    parts = [proto_id, device_nonce, bytes([len(pooled)])]
    parts.extend(pooled)
    parts.append(url)
    parts.append(att.encode())
    parts.append(signature)
    out = b"".join(parts)
    if len(out) > MAX_PAYLOAD:
        raise CapacityError(f"encoded response is {len(out)} bytes, max {MAX_PAYLOAD}")
    return out


def signed_region(message: SignedMessage) -> bytes:
    """Bytes covered by the message signature: every encoded byte before
    the trailing signature field, for each signed kind."""
    if not isinstance(message, SignedMessage):
        raise TypeError(f"no signed region for {type(message).__name__}")
    return message.encode()[: -crypto.SIGNATURE_LEN]


def sign(message: SignedMessage, private_key: bytes) -> SignedMessage:
    """`message` carrying the signature of its signed region; whatever
    signature it held is a placeholder."""
    return replace(message, signature=crypto.sign(private_key, signed_region(message)))


def _decode_response_layout(data: bytes, announcement: bool):
    kind = "announcement" if announcement else "response"
    if len(data) < RESPONSE_BASE_LEN:
        raise MalformedError(f"{kind} shorter than fixed fields", len(data))
    count = data[18]
    if announcement and count != 0:
        raise MalformedError("announcement with nonzero nonce count", 18)
    if not announcement:
        if count == 0:
            raise MalformedError("response with zero nonce count", 18)
        if count > RESPONSE_MAX_NONCES:
            raise MalformedError(f"nonce count {count} over the {RESPONSE_MAX_NONCES} cap", 18)
    expect = RESPONSE_BASE_LEN + NONCE_LEN * count
    if len(data) != expect:
        raise MalformedError(
            f"{kind} with count {count} must be {expect} bytes, got {len(data)}",
            min(len(data), expect),
        )
    off = 6
    device_nonce = data[off : off + NONCE_LEN]
    off += NONCE_LEN + 1  # skip count byte, already read
    pooled = tuple(data[off + i * NONCE_LEN : off + (i + 1) * NONCE_LEN] for i in range(count))
    off += NONCE_LEN * count
    url = data[off : off + URL_TOKEN_LEN]
    try:
        _check_url(url)
    except InvariantError as exc:
        raise MalformedError(str(exc), off) from None
    off += URL_TOKEN_LEN
    att = AttReport.decode(data, off)
    off += ATT_REPORT_LEN
    signature = data[off:]
    if announcement:
        return AnnouncementMsg(device_nonce, url, att, signature)
    return ResponseMsg(device_nonce, pooled, url, att, signature)


def decode(data: bytes) -> WireMessage:
    """Parse a payload, dispatching on the 6-byte protocol identifier.

    decode(encode(m)) == m for every valid message; anything else raises
    UnknownProtocolError or MalformedError with a byte offset.
    """
    if len(data) < 6:
        raise MalformedError("payload shorter than a protocol identifier", len(data))
    proto = bytes(data[:6])
    if proto == ID_REQUEST:
        if len(data) != REQUEST_LEN:
            raise MalformedError(f"request must be {REQUEST_LEN} bytes, got {len(data)}", 6)
        return RequestMsg(bytes(data[6:18]))
    if proto == ID_RESPONSE:
        return _decode_response_layout(bytes(data), announcement=False)
    if proto == ID_ANNOUNCE:
        return _decode_response_layout(bytes(data), announcement=True)
    if proto == ID_IM_REQUEST:
        if len(data) != IM_REQUEST_LEN:
            raise MalformedError(f"im request must be {IM_REQUEST_LEN} bytes, got {len(data)}", 6)
        return ImRequestMsg(bytes(data[6:18]), bytes(data[18:82]))
    if proto == ID_IM_RESPONSE:
        body = len(data) - IM_RESPONSE_BASE_LEN
        if body < 0 or body % crypto.PRF_OUTPUT_LEN != 0:
            raise MalformedError("im response length inconsistent with any header depth", len(data))
        levels = body // crypto.PRF_OUTPUT_LEN
        off = 6
        header = tuple(
            bytes(data[off + i * crypto.PRF_OUTPUT_LEN : off + (i + 1) * crypto.PRF_OUTPUT_LEN])
            for i in range(levels)
        )
        off += body
        iv = bytes(data[off : off + crypto.AEAD_IV_LEN])
        sealed = bytes(data[off + crypto.AEAD_IV_LEN :])
        return ImResponseMsg(header, iv, sealed)
    raise UnknownProtocolError(f"unrecognized protocol id {proto!r}")


@functools.lru_cache(maxsize=16)
def parse_signed(payload: bytes) -> tuple[SignedMessage, frozenset[bytes], bytes] | None:
    """A signed payload's message, the request nonces it pools and the
    bytes its signature covers, sliced as received; None for any other
    payload. A parse, not a trust decision: every receiver that checks a
    signature shares it, so a payload heard again soon is a cache hit."""
    try:
        message = decode(payload)
    except WireError:
        return None
    if not isinstance(message, SignedMessage):
        return None
    nonces = message.pooled_nonces if isinstance(message, ResponseMsg) else ()
    return message, frozenset(nonces), payload[: -crypto.SIGNATURE_LEN]


def encoded_response_len(count: int) -> int:
    """Length of a response carrying `count` pooled nonces."""
    return RESPONSE_BASE_LEN + NONCE_LEN * count
