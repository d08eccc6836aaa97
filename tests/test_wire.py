"""Codec exactness: frozen lengths, round-trips, and tamper bridging."""

import dataclasses
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulldisc import crypto, wire

URL = b"ab0123456789Cd"


def _att(rng):
    return wire.AttReport(rng.choice([wire.ATT_SUCCESS, wire.ATT_FAIL]), rng.randrange(2**32))


def _response(rng, count):
    return wire.ResponseMsg(
        device_nonce=rng.randbytes(12),
        pooled_nonces=tuple(rng.randbytes(12) for _ in range(count)),
        url=URL,
        att_report=_att(rng),
        signature=rng.randbytes(64),
    )


def test_request_layout():
    msg = wire.RequestMsg(bytes(12))
    assert msg.encode() == b"DP-REQ" + bytes(12)
    assert len(msg.encode()) == 18


@pytest.mark.parametrize("count,length", [(1, 114), (2, 126), (129, 1650)])
def test_response_lengths(count, length):
    rng = Random(count)
    assert len(_response(rng, count).encode()) == length
    assert wire.encoded_response_len(count) == length


def test_response_over_capacity():
    rng = Random(3)
    with pytest.raises(wire.CapacityError):
        _response(rng, 130)


def test_response_needs_a_nonce():
    rng = Random(4)
    with pytest.raises(wire.InvariantError):
        _response(rng, 0)


def test_announcement_layout():
    rng = Random(5)
    ann = wire.AnnouncementMsg(rng.randbytes(12), URL, _att(rng), rng.randbytes(64))
    encoded = ann.encode()
    assert len(encoded) == 102
    assert encoded[:6] == b"DP-ANN"
    assert encoded[18] == 0
    assert wire.decode(encoded) == ann


def test_im_request_layout():
    rng = Random(6)
    msg = wire.ImRequestMsg(rng.randbytes(12), rng.randbytes(64))
    assert len(msg.encode()) == 82
    assert wire.decode(msg.encode()) == msg


@pytest.mark.parametrize("levels", [0, 1, 8])
def test_im_response_layout(levels):
    rng = Random(levels)
    key, iv = rng.randbytes(16), rng.randbytes(12)
    header = tuple(rng.randbytes(16) for _ in range(levels))
    sealed = crypto.aead_seal(key, iv, bytes(96), b"IM-RES" + b"".join(header))
    msg = wire.ImResponseMsg(header, iv, sealed)
    assert len(msg.encode()) == 130 + 16 * levels
    assert wire.decode(msg.encode()) == msg


def test_signed_region_sizes():
    rng = Random(7)
    assert len(wire.signed_region(_response(rng, 1))) == 50  # 114 - 64
    ann = wire.AnnouncementMsg(rng.randbytes(12), URL, _att(rng), rng.randbytes(64))
    assert len(wire.signed_region(ann)) == 38
    imr = wire.ImRequestMsg(rng.randbytes(12), rng.randbytes(64))
    assert len(wire.signed_region(imr)) == 18
    assert wire.signed_region(imr) == b"IM-REQ" + imr.owner_nonce


def _unsigned_kinds(rng):
    """One message of each signed kind, responses at 1, 2 and 129 nonces,
    each holding a random placeholder signature."""
    responses = [_response(rng, count) for count in (1, 2, 129)]
    return responses + [
        wire.AnnouncementMsg(rng.randbytes(12), URL, _att(rng), rng.randbytes(64)),
        wire.ImRequestMsg(rng.randbytes(12), rng.randbytes(64)),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_sign_matches_the_reference_encoding(seed):
    """`wire.sign` gives the bytes of signing the encoding before the
    signature field and putting that signature in place."""
    rng = Random(f"wire.sign/{seed}")
    keypair = crypto.generate_keypair(rng)
    for unsigned in _unsigned_kinds(rng):
        region = unsigned.encode()[:-64]
        reference = dataclasses.replace(
            unsigned, signature=crypto.sign(keypair.private_key, region)
        ).encode()
        signed = wire.sign(unsigned, keypair.private_key)
        assert signed.encode() == reference
        assert wire.signed_region(unsigned) == region
        assert wire.signed_region(signed) == signed.encode()[:-64] == region
        assert crypto.verify(keypair.public_key, reference[:-64], signed.signature)


def test_unsigned_kinds_have_no_signed_region():
    rng = Random(12)
    key = crypto.generate_keypair(rng).private_key
    for message in (
        wire.RequestMsg(rng.randbytes(12)),
        wire.ImResponseMsg((rng.randbytes(16),), rng.randbytes(12), rng.randbytes(112)),
    ):
        with pytest.raises(TypeError):
            wire.signed_region(message)
        with pytest.raises(TypeError):
            wire.sign(message, key)


def test_roundtrip_bulk_random_responses():
    rng = Random(8)
    for _ in range(10_000):
        msg = _response(rng, rng.randrange(1, 130))
        assert wire.decode(msg.encode()) == msg


@given(st.integers(1, 129), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_roundtrip_hypothesis(count, hrng):
    msg = _response(hrng, count)
    decoded = wire.decode(msg.encode())
    assert decoded == msg
    assert decoded.encode() == msg.encode()


def test_decode_malformed_lengths():
    with pytest.raises(wire.MalformedError):
        wire.decode(b"DP-REQ" + bytes(11))  # 17 bytes
    with pytest.raises(wire.MalformedError):
        wire.decode(b"DP-REQ" + bytes(13))  # trailing byte
    with pytest.raises(wire.UnknownProtocolError):
        wire.decode(b"XX-XXX" + bytes(12))
    with pytest.raises(wire.MalformedError):
        wire.decode(b"DP")


def test_decode_count_length_mismatch():
    rng = Random(9)
    encoded = bytearray(_response(rng, 2).encode())
    encoded[18] = 3  # claims one more nonce than present
    with pytest.raises(wire.MalformedError):
        wire.decode(bytes(encoded))
    encoded[18] = 0
    with pytest.raises(wire.MalformedError):
        wire.decode(bytes(encoded))


def test_decode_announcement_with_nonzero_count():
    rng = Random(10)
    encoded = bytearray(_response(rng, 1).encode())
    encoded[:6] = b"DP-ANN"
    with pytest.raises(wire.MalformedError):
        wire.decode(bytes(encoded))


def test_url_token_accepts_exactly_printable_ascii():
    msg = _response(Random(12), 1)
    encoded = msg.encode()
    url_at = encoded.index(URL)
    for position in range(wire.URL_TOKEN_LEN):
        for value in range(256):
            url = URL[:position] + bytes([value]) + URL[position + 1 :]
            payload = encoded[:url_at] + url + encoded[url_at + wire.URL_TOKEN_LEN :]
            if 0x20 <= value <= 0x7E:
                assert wire.decode(payload) == dataclasses.replace(msg, url=url)
            else:
                with pytest.raises(wire.MalformedError):
                    wire.decode(payload)
                with pytest.raises(wire.InvariantError):
                    dataclasses.replace(msg, url=url)


def test_decode_im_response_bad_body():
    with pytest.raises(wire.MalformedError):
        wire.decode(b"IM-RES" + bytes(100))  # not base + k*16


def test_signed_region_tamper_bridges_to_verify():
    """Flipping any byte of the signed region must defeat verification."""
    rng = Random(11)
    keypair = crypto.generate_keypair(rng)
    unsigned = _response(rng, 3)
    signature = crypto.sign(keypair.private_key, wire.signed_region(unsigned))
    import dataclasses

    msg = dataclasses.replace(unsigned, signature=signature)
    payload = msg.encode()
    region_len = len(payload) - 64
    assert crypto.verify(keypair.public_key, payload[:region_len], msg.signature)
    for offset in range(region_len):
        tampered = bytearray(payload)
        tampered[offset] ^= 0x01
        assert not crypto.verify(
            keypair.public_key, bytes(tampered[:region_len]), msg.signature
        )
