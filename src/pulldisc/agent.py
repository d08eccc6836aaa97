"""User side: issue discovery requests, verify responses, build reports.

Verification runs a strict pipeline; the first failing step maps to a
typed discard reason and no partial report ever escapes:

    decode -> own-nonce membership (responses only) -> store lookup
           -> manifest + cert chain verification -> response signature

Announcements from push/blend devices go through the same pipeline minus
the nonce check and are marked with their source.

A payload is decoded once for every user that hears it: `wire.parse_signed`
keeps the last few payloads with their message, the set of nonces a
response pools and the signed region, which the request-nonce lookup, the
reports for each pending request and the signature check share. Manifest
verdicts are memoised per agent, because users verify independently. A
signature checked again is caught by `crypto.verify`'s verdict cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

from . import crypto, ranges, registration, wire


class DiscardReason(enum.Enum):
    MALFORMED = "malformed"
    STALE_OR_REPLAY = "stale-or-replay"
    MANIFEST_UNAVAILABLE = "manifest-unavailable"
    MANIFEST_INVALID = "manifest-invalid"
    SIGNATURE_INVALID = "signature-invalid"


class ReportSource(enum.Enum):
    RESPONSE = "response"
    ANNOUNCEMENT = "announcement"


@dataclass(frozen=True)
class PendingRequest:
    nonce: bytes
    sent_at: float
    scan_window: float


@dataclass(frozen=True, slots=True)
class DeviceReport:
    manifest: registration.Manifest
    att_result: int
    att_age: int
    verified: bool
    received_at: float
    source: ReportSource
    device_nonce: bytes

    def to_json_fields(self) -> dict:
        return {
            "device_type": self.manifest.device_type,
            "software_version": self.manifest.software_version,
            "sensors_actuators": list(self.manifest.sensors_actuators),
            "coarse_location": self.manifest.coarse_location,
            "attestation": "success" if self.att_result == wire.ATT_SUCCESS else "fail",
            "attestation_age_s": self.att_age,
            "verified": self.verified,
            "received_at": self.received_at,
            "source": self.source.value,
            "device_nonce": self.device_nonce.hex(),
        }


class UserAgent:
    """One logical user; verification is pure, agents are independent."""

    hears = frozenset({wire.ID_RESPONSE, wire.ID_ANNOUNCE})  # the frame kinds it checks

    def __init__(
        self,
        trust_keys: tuple[bytes, ...],
        store: registration.ManifestStore,
        rng: Random,
        scan_window: float = 10.0,
    ):
        ranges.check(scan_window=scan_window)
        self.trust_keys = trust_keys
        self.store = store
        self.rng = rng
        self.scan_window = scan_window
        # Keyed on the exact stored (manifest bytes, signature). The store
        # never replaces an entry, so this holds at most one verdict per
        # token; an unknown token is looked up again on every call.
        self._manifests: dict[tuple[bytes, bytes], registration.Manifest | DiscardReason] = {}

    def make_request(self, now: float) -> tuple[bytes, PendingRequest]:
        nonce = self.rng.randbytes(wire.NONCE_LEN)
        pending = PendingRequest(nonce=nonce, sent_at=now, scan_window=self.scan_window)
        return wire.RequestMsg(nonce).encode(), pending

    def on_response(
        self, pending: PendingRequest, payload: bytes, now: float
    ) -> DeviceReport | DiscardReason:
        message, pooled, region = wire.parse_signed(bytes(payload)) or (None, None, None)
        if isinstance(message, wire.ResponseMsg):
            if pending.nonce not in pooled:
                return DiscardReason.STALE_OR_REPLAY
            source = ReportSource.RESPONSE
        elif isinstance(message, wire.AnnouncementMsg):
            source = ReportSource.ANNOUNCEMENT
        else:
            return DiscardReason.MALFORMED

        entry = self.store.get(message.url)
        if entry is None:
            return DiscardReason.MANIFEST_UNAVAILABLE

        manifest = self._verified_manifest(*entry)
        if manifest is DiscardReason.MANIFEST_INVALID:
            return manifest

        if not crypto.verify(manifest.device_public_key, region, message.signature):
            return DiscardReason.SIGNATURE_INVALID

        return DeviceReport(
            manifest=manifest,
            att_result=message.att_report.result,
            att_age=message.att_report.seconds_since,
            verified=True,
            received_at=now,
            source=source,
            device_nonce=message.device_nonce,
        )

    def _verified_manifest(
        self, manifest_bytes: bytes, signature: bytes
    ) -> registration.Manifest | DiscardReason:
        key = (manifest_bytes, signature)
        verdict = self._manifests.get(key)
        if verdict is None:
            try:
                verdict = registration.verify_manifest(
                    manifest_bytes, signature, self.trust_keys
                )
            except registration.ManifestVerificationError:
                verdict = DiscardReason.MANIFEST_INVALID
            self._manifests[key] = verdict
        return verdict


def dedup(reports: list[DeviceReport]) -> list[DeviceReport]:
    """Keep the latest report per device nonce (each response carries a
    fresh one): one response that pools several of a user's pending
    requests yields a report for each, and they collapse to one here."""
    latest: dict[bytes, DeviceReport] = {}
    for report in reports:
        held = latest.get(report.device_nonce)
        if held is None or report.received_at >= held.received_at:
            latest[report.device_nonce] = report
    return list(latest.values())
