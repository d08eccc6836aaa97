"""User side: issue discovery requests, verify responses, build reports.

Verification runs a strict pipeline; the first failing step maps to a
typed discard reason and no partial report ever escapes:

    decode -> own-nonce membership (responses only) -> manifest fetch
           -> manifest + cert chain verification -> response signature

Announcements from push/blend devices go through the same pipeline minus
the nonce check and are marked with their source.

Each agent remembers what it decoded and verified, keyed on exact bytes:
ECDSA signatures here are deterministic (RFC 6979), so byte-identical
payloads are the same response. The memos belong to one agent because
users verify independently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from random import Random

from . import crypto, registration, wire


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


@dataclass(frozen=True)
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


@dataclass
class _Seen:
    """One distinct payload as this agent first decoded it."""

    first_seen: float
    message: wire.WireMessage | None  # None when the payload does not decode
    pooled: frozenset[bytes] | None  # request nonces, for responses only
    signer: bytes | None = None  # device key the signature was checked against
    signature_ok: bool = False


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
        if type(scan_window) is bool or not 0 < scan_window < math.inf:  # a bool is an int to Python
            raise ValueError(f"scan_window must be positive and finite, got {scan_window!r}")
        self.trust_keys = trust_keys
        self.store = store
        self.rng = rng
        self.scan_window = scan_window
        # Insertion order is first-seen order; entries older than a scan
        # window are dropped, and a payload seen again later is re-verified.
        self._payloads: dict[bytes, _Seen] = {}
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
        seen = self._seen(payload, now)
        message = seen.message
        if isinstance(message, wire.ResponseMsg):
            if pending.nonce not in seen.pooled:
                return DiscardReason.STALE_OR_REPLAY
            source = ReportSource.RESPONSE
        elif isinstance(message, wire.AnnouncementMsg):
            source = ReportSource.ANNOUNCEMENT
        else:
            return DiscardReason.MALFORMED

        try:
            manifest_bytes, manifest_sig = registration.resolve_manifest(
                self.store, message.url
            )
        except registration.ManifestNotFound:
            return DiscardReason.MANIFEST_UNAVAILABLE

        manifest = self._verified_manifest(manifest_bytes, manifest_sig)
        if manifest is DiscardReason.MANIFEST_INVALID:
            return manifest

        if seen.signer != manifest.device_public_key:
            seen.signer = manifest.device_public_key
            seen.signature_ok = crypto.verify(
                seen.signer, wire.signed_region(message), message.signature
            )
        if not seen.signature_ok:
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

    def pooled_nonces(self, payload: bytes, now: float) -> frozenset[bytes] | None:
        """Request nonces a response pools, or None if the payload does
        not decode as a response."""
        return self._seen(payload, now).pooled

    def _seen(self, payload: bytes, now: float) -> _Seen:
        seen = self._payloads.get(payload)
        if seen is not None:
            return seen
        while self._payloads:
            oldest = next(iter(self._payloads))
            if self._payloads[oldest].first_seen >= now - self.scan_window:
                break
            del self._payloads[oldest]
        try:
            message = wire.decode(payload)
        except wire.WireError:
            message = None
        pooled = (
            frozenset(message.pooled_nonces) if isinstance(message, wire.ResponseMsg) else None
        )
        seen = self._payloads[payload] = _Seen(now, message, pooled)
        return seen

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
    """Collapse retransmission duplicates: keep the latest report per
    device nonce (each response carries a fresh one)."""
    latest: dict[bytes, DeviceReport] = {}
    for report in reports:
        held = latest.get(report.device_nonce)
        if held is None or report.received_at >= held.received_at:
            latest[report.device_nonce] = report
    return list(latest.values())
