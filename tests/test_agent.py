"""User-side verification pipeline and its typed discard reasons."""

from random import Random

from unittest import mock

import pytest

from pulldisc import crypto, registration, wire
from pulldisc.agent import DeviceReport, DiscardReason, ReportSource, UserAgent, dedup
from pulldisc.device import Device


@pytest.fixture
def world(mfr, record, store):
    agent = UserAgent((mfr.public_key,), store, Random(21))
    device = Device(record, b"\x7fELF camera firmware v2.3" * 40, Random(22))
    device.boot(0.0)
    return agent, device


def run_device_round(device, request_payload, at):
    from pulldisc.device import TimerKind, Transmit

    device.on_frame(request_payload, at)
    deadline = device.gen_deadline
    device.on_timer(TimerKind.GEN_DEADLINE, deadline)
    actions = device.on_timer(TimerKind.GEN_COMPLETE, deadline + 0.233)
    (tx,) = [a for a in actions if isinstance(a, Transmit)]
    return tx.payload


def test_make_request_shape(world):
    agent, _ = world
    payload, pending = agent.make_request(3.0)
    assert len(payload) == 18
    assert pending.sent_at == 3.0
    payload2, pending2 = agent.make_request(4.0)
    assert pending.nonce != pending2.nonce


def test_honest_round_verifies(world):
    agent, device = world
    payload, pending = agent.make_request(5.0)
    response = run_device_round(device, payload, 5.0)
    report = agent.on_response(pending, response, 6.5)
    assert isinstance(report, DeviceReport)
    assert report.verified and report.att_result == wire.ATT_SUCCESS
    assert report.source is ReportSource.RESPONSE
    assert report.manifest.device_type == "camera"


def test_foreign_nonce_is_stale_or_replay(world):
    agent, device = world
    payload, _ = agent.make_request(5.0)
    response = run_device_round(device, payload, 5.0)
    _, fresh_pending = agent.make_request(30.0)  # nonce rotated
    assert agent.on_response(fresh_pending, response, 31.0) is DiscardReason.STALE_OR_REPLAY


def test_tamper_sweep_never_verifies(world):
    agent, device = world
    payload, pending = agent.make_request(5.0)
    response = bytearray(run_device_round(device, payload, 5.0))
    rng = Random(23)
    for _ in range(300):
        mutated = bytearray(response)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        result = agent.on_response(pending, bytes(mutated), 6.0)
        assert not isinstance(result, DeviceReport)


def test_flipped_signature_byte_is_signature_invalid(world):
    agent, device = world
    payload, pending = agent.make_request(5.0)
    response = bytearray(run_device_round(device, payload, 5.0))
    response[-1] ^= 0x01
    assert agent.on_response(pending, bytes(response), 6.0) is DiscardReason.SIGNATURE_INVALID


def test_unknown_url_is_manifest_unavailable(mfr, record, store):
    empty_store = registration.ManifestStore()
    agent = UserAgent((mfr.public_key,), empty_store, Random(24))
    device = Device(record, b"\x7fELF camera firmware v2.3" * 40, Random(25))
    device.boot(0.0)
    payload, pending = agent.make_request(5.0)
    response = run_device_round(device, payload, 5.0)
    assert agent.on_response(pending, response, 6.0) is DiscardReason.MANIFEST_UNAVAILABLE


def test_tampered_manifest_is_manifest_invalid(mfr, record, store):
    manifest_bytes, signature = store.get(record.url)
    bad_store = registration.ManifestStore()
    tampered = bytearray(manifest_bytes)
    tampered[40] ^= 0x01
    bad_store.put(record.url, bytes(tampered), signature)
    agent = UserAgent((mfr.public_key,), bad_store, Random(26))
    device = Device(record, b"\x7fELF camera firmware v2.3" * 40, Random(27))
    device.boot(0.0)
    payload, pending = agent.make_request(5.0)
    response = run_device_round(device, payload, 5.0)
    assert agent.on_response(pending, response, 6.0) is DiscardReason.MANIFEST_INVALID


def test_garbage_is_malformed(world):
    agent, _ = world
    _, pending = agent.make_request(5.0)
    assert agent.on_response(pending, b"junk", 5.1) is DiscardReason.MALFORMED
    assert agent.on_response(pending, b"XX-XXX" + bytes(96), 5.1) is DiscardReason.MALFORMED


def test_shared_decode_of_malformed_and_bytearray_payloads(world, record):
    """The shared parse of a signed payload, cold or warm, equals an
    uncached one and a fresh decode with the region its message re-encodes
    to; any other payload parses to None."""
    agent, device = world
    payload, pending = agent.make_request(5.0)
    response = run_device_round(device, payload, 5.0)
    announcement = device._generate_announcement(7.0).encode()
    rng = Random(23)
    key = crypto.generate_keypair(rng).private_key
    att = wire.AttReport(wire.ATT_SUCCESS, 9)
    pooled = [tuple(rng.randbytes(12) for _ in range(count)) for count in (1, 2, 129)]
    signed = [
        *(wire.ResponseMsg(rng.randbytes(12), nonces, record.url, att, bytes(64))
          for nonces in pooled),
        wire.AnnouncementMsg(rng.randbytes(12), record.url, att, bytes(64)),
        wire.ImRequestMsg(rng.randbytes(12), bytes(64)),
    ]
    sent = [response, announcement, *(wire.sign(m, key).encode() for m in signed)]
    for payload in sent:
        message = wire.decode(payload)
        nonces = message.pooled_nonces if isinstance(message, wire.ResponseMsg) else ()
        fresh = (message, frozenset(nonces), wire.signed_region(message))
        wire.parse_signed.cache_clear()
        assert wire.parse_signed(payload) == fresh  # cold
        assert wire.parse_signed(payload) == fresh  # warm
        assert wire.parse_signed.__wrapped__(payload) == fresh
    unsigned = (
        wire.RequestMsg(rng.randbytes(12)).encode(),
        wire.ImResponseMsg((rng.randbytes(16),), rng.randbytes(12), rng.randbytes(112)).encode(),
    )
    for junk in (b"", b"junk", wire.ID_RESPONSE + bytes(5), b"XX-XXX" + bytes(96), *unsigned):
        assert wire.parse_signed(junk) is None
        assert wire.parse_signed.__wrapped__(junk) is None
    report = agent.on_response(pending, bytearray(response), 6.5)
    assert isinstance(report, DeviceReport) and report.verified


def test_announcement_skips_nonce_check(world):
    agent, device = world
    device.mode = device.mode  # pull device still signs announcements fine
    announcement = device._generate_announcement(7.0)
    _, pending = agent.make_request(5.0)
    report = agent.on_response(pending, announcement.encode(), 7.5)
    assert isinstance(report, DeviceReport)
    assert report.source is ReportSource.ANNOUNCEMENT


def test_memoised_agent_matches_fresh_agents(mfr, descriptor, record, store, monkeypatch):
    """A long-lived agent reuses the shared decode and its manifest
    verdicts; each of its results must equal that of a fresh agent, which
    decodes without the shared cache and verifies from scratch, on a
    stream that mixes every outcome."""
    side_store = registration.ManifestStore()

    def side_device(seed):
        side = registration.provision_db_device(
            mfr, descriptor, t_att=300.0, t_gen=1.0, pool_max=129, store=side_store,
            rng=Random(seed),
        )
        device = Device(side, b"\x7fELF camera firmware v2.3" * 40, Random(seed + 1))
        device.boot(0.0)
        return side, device

    late, late_device = side_device(31)  # token reaches the store mid-stream
    tampered, tampered_device = side_device(33)
    _, unknown_device = side_device(35)  # token never stored
    # the genuine device's manifest and signature, one byte changed
    manifest_bytes, signature = store.get(record.url)
    store.put(tampered.url, manifest_bytes[:40] + b"X" + manifest_bytes[41:], signature)
    genuine = Device(record, b"\x7fELF camera firmware v2.3" * 40, Random(22))
    genuine.boot(0.0)
    devices = [genuine, late_device, tampered_device, unknown_device]

    manifest_checks = {"memo": 0, "fresh": 0}
    counting = ["fresh"]
    real_verify_manifest = registration.verify_manifest

    def counted_verify_manifest(*args):
        manifest_checks[counting[0]] += 1
        return real_verify_manifest(*args)

    monkeypatch.setattr(registration, "verify_manifest", counted_verify_manifest)
    memo = UserAgent((mfr.public_key,), store, Random(21))
    rng = Random(37)
    outcomes = set()

    def check(pending, payload, now):
        counting[0] = "memo"
        got = memo.on_response(pending, payload, now)
        counting[0] = "fresh"
        fresh = UserAgent((mfr.public_key,), store, Random(0))
        with mock.patch.object(wire, "parse_signed", wire.parse_signed.__wrapped__):
            assert got == fresh.on_response(pending, payload, now)
        outcomes.add(type(got) if isinstance(got, DeviceReport) else got)

    earlier = []
    t = 5.0
    for round_index in range(30):
        if round_index == 10:
            store.put(late.url, *side_store.get(late.url))
            for payload in responses:  # the previous round's, now a known token
                check(pending, payload, t)
        request, pending = memo.make_request(t)
        responses = [run_device_round(d, request, t) for d in devices]
        announcement = genuine._generate_announcement(t).encode()
        forged = wire.ResponseMsg(
            rng.randbytes(12), (pending.nonce,), record.url,
            wire.AttReport(wire.ATT_SUCCESS, 7), rng.randbytes(64),
        ).encode()
        now = t + 1.3
        for copy in range(3):  # retransmitted copies
            for payload in responses + [announcement, forged]:
                check(pending, payload, now + 0.03 * copy)
        for _ in range(4):  # 1-bit mutations of a payload already accepted
            mutated = bytearray(responses[0])
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            check(pending, bytes(mutated), now + 0.1)
        if earlier:
            # A replay is stale for this request. For its own request it
            # meets the manifest verdict memoised when it was first seen.
            old_pending, old_payload = rng.choice(earlier)
            check(pending, old_payload, now + 0.2)
            check(old_pending, old_payload, now + 0.2)
        earlier.append((pending, responses[0]))
        t += 2.0

    assert outcomes == {DeviceReport, *DiscardReason}
    # One manifest check each for the genuine, late and tampered tokens.
    assert manifest_checks["memo"] == 3


def make_report(manifest, nonce, at):
    return DeviceReport(
        manifest=manifest,
        att_result=wire.ATT_SUCCESS,
        att_age=0,
        verified=True,
        received_at=at,
        source=ReportSource.RESPONSE,
        device_nonce=nonce,
    )


def test_dedup(world, store, record, mfr):
    manifest = registration.verify_manifest(*store.get(record.url), [mfr.public_key])
    same = Random(28).randbytes(12)
    other = Random(29).randbytes(12)
    reports = [make_report(manifest, same, 1.0 + 0.03 * i) for i in range(10)]
    reports.append(make_report(manifest, other, 2.0))
    collapsed = dedup(reports)
    assert len(collapsed) == 2
    kept = {r.device_nonce: r for r in collapsed}
    assert kept[same].received_at == pytest.approx(1.27)
    # distinct device nonces from the same device stay distinct reports
    assert other in kept
