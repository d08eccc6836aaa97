"""Provisioning: key generation, manifests, certificates, and URL tokens.

The manufacturer signs a canonical manifest for each discovery-enabled
device and hosts it under a short URL token; user agents look it up in
the store and verify it before trusting a response. Inventory-mode
devices instead get a compact secret record shared with their owner and
need no manifest.

Manifests are canonicalized as key-sorted compact JSON with byte fields
hex-encoded, and signatures always cover the exact stored bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, NamedTuple

from . import crypto, ranges, wire

_TOKEN_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_TOKEN_RETRIES = 32


class ProvisioningError(ValueError):
    """Bad provisioning parameters (pool cap, timer values, ...)."""


class ManifestVerificationError(ValueError):
    """Manifest bytes, signature, or certificate chain failed to verify."""


def _cert_signing_bytes(subject: str, subject_key: bytes) -> bytes:
    return subject.encode("utf-8") + subject_key


@dataclass(frozen=True)
class CertRecord:
    subject: str
    subject_key: bytes
    issuer_key: bytes
    signature: bytes

    def verify(self) -> bool:
        return crypto.verify(
            self.issuer_key, _cert_signing_bytes(self.subject, self.subject_key), self.signature
        )

    def to_fields(self) -> dict:
        return {
            "subject": self.subject,
            "subject_key": self.subject_key.hex(),
            "issuer_key": self.issuer_key.hex(),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_fields(cls, fields: Mapping) -> "CertRecord":
        return cls(
            subject=fields["subject"],
            subject_key=bytes.fromhex(fields["subject_key"]),
            issuer_key=bytes.fromhex(fields["issuer_key"]),
            signature=bytes.fromhex(fields["signature"]),
        )


# RFC 6979 signing is deterministic, so the memo is exact: every manifest of
# one manufacturer shares one signed self-certificate (`CertRecord` is frozen).
@lru_cache(maxsize=16)
def issue_cert(subject: str, subject_key: bytes, issuer: crypto.KeyPair) -> CertRecord:
    sig = crypto.sign(issuer.private_key, _cert_signing_bytes(subject, subject_key))
    return CertRecord(subject, subject_key, issuer.public_key, sig)


@dataclass(frozen=True)
class Manifest:
    """Manufacturer-maintained device description."""

    device_public_key: bytes
    mfr_certificate: CertRecord
    device_certificate: CertRecord
    device_type: str
    sensors_actuators: tuple[str, ...]
    software_version: str
    coarse_location: str
    full_url: str

    def to_canonical(self) -> bytes:
        doc = {
            "coarse_location": self.coarse_location,
            "device_certificate": self.device_certificate.to_fields(),
            "device_public_key": self.device_public_key.hex(),
            "device_type": self.device_type,
            "full_url": self.full_url,
            "mfr_certificate": self.mfr_certificate.to_fields(),
            "sensors_actuators": list(self.sensors_actuators),
            "software_version": self.software_version,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_canonical(cls, data: bytes) -> "Manifest":
        try:
            doc = json.loads(data.decode("utf-8"))
            return cls(
                device_public_key=bytes.fromhex(doc["device_public_key"]),
                mfr_certificate=CertRecord.from_fields(doc["mfr_certificate"]),
                device_certificate=CertRecord.from_fields(doc["device_certificate"]),
                device_type=doc["device_type"],
                sensors_actuators=tuple(doc["sensors_actuators"]),
                software_version=doc["software_version"],
                coarse_location=doc["coarse_location"],
                full_url=doc["full_url"],
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise ManifestVerificationError(f"manifest not in canonical form: {exc}") from None


@dataclass(frozen=True)
class DeviceDescriptor:
    """Manufacturer-side inputs for one device."""

    device_type: str
    sensors_actuators: tuple[str, ...]
    software_version: str
    coarse_location: str
    software_image: bytes
    full_url: str

    def __post_init__(self):
        # Both go into the signed manifest, device_type into the certificate too.
        for name in ("device_type", "software_version"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ProvisioningError(f"{name} must be a string, got {value!r}")


def stand_in_descriptor(key, device_type="sensor", sensors_actuators=("temperature",),
                        software_version="1.0", coarse_location="site") -> DeviceDescriptor:
    """A simulated device's descriptor: a field not given takes a stand-in
    value, and the image and URL are derived from `key`."""
    return DeviceDescriptor(device_type, tuple(sensors_actuators), software_version,
                            coarse_location, f"image/{key}".encode(),
                            f"https://devices.example/{key}")


@dataclass(frozen=True)
class DeviceProvisioningRecord:
    """Secrets and parameters installed on a pull-mode device."""

    keypair: crypto.KeyPair
    url: bytes
    software_hash: bytes
    t_att: float = 300.0  # attestation interval
    t_gen: float = 1.0  # response delay
    pool_max: int = wire.RESPONSE_MAX_NONCES

    def __post_init__(self):
        ranges.check(ProvisioningError, pool_max=self.pool_max, t_att=self.t_att, t_gen=self.t_gen)


class ImProvisioningRecord(NamedTuple):
    """Inventory-mode secret record: owner key, shared key, software hash."""

    owner_public_key: bytes
    shared_key: bytes
    software_hash: bytes


class ManifestStore:
    """Token-addressed manifest hosting (a hermetic stand-in for a URL
    shortener plus HTTPS hosting)."""

    def __init__(self):
        self._entries: dict[bytes, tuple[bytes, bytes]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: bytes) -> bool:
        return token in self._entries

    def put(self, token: bytes, manifest_bytes: bytes, signature: bytes) -> None:
        if token in self._entries:
            raise ProvisioningError(f"token {token!r} already in use")
        self._entries[token] = (manifest_bytes, signature)

    def get(self, token: bytes) -> tuple[bytes, bytes] | None:
        """The exact stored (manifest bytes, signature) for a token, or None."""
        return self._entries.get(token)

    def tokens(self) -> list[bytes]:
        return sorted(self._entries)

    # -- persistence (one manifest + detached signature per token) --

    def save_dir(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for token, (manifest_bytes, signature) in sorted(self._entries.items()):
            stem = token.decode("ascii")
            (directory / f"{stem}.manifest").write_bytes(manifest_bytes)
            (directory / f"{stem}.sig").write_bytes(signature)


def write_trust_file(path: str | Path, mfr_keys: Iterable[bytes]) -> None:
    """Persist trusted manufacturer public keys, one hex key per line."""
    Path(path).write_text("".join(k.hex() + "\n" for k in mfr_keys), "ascii")


def fresh_url_token(rng: Random) -> bytes:
    return "".join(rng.choice(_TOKEN_ALPHABET) for _ in range(wire.URL_TOKEN_LEN)).encode("ascii")


def provision_db_device(
    mfr: crypto.KeyPair,
    descriptor: DeviceDescriptor,
    *,
    store: ManifestStore,
    rng: Random,
    **settings,
) -> DeviceProvisioningRecord:
    """Generate device keys, publish the signed manifest, return the record.

    The device key pair never leaves the returned record; the manifest is
    stored under a fresh URL token and signed by the manufacturer key.
    `settings` are the record's `t_att`, `t_gen` and `pool_max`; one left
    out takes the record's default.
    """
    keypair = crypto.generate_keypair(rng)
    mfr_cert = issue_cert("mfr", mfr.public_key, mfr)
    device_cert = issue_cert(descriptor.device_type, keypair.public_key, mfr)
    manifest = Manifest(
        device_public_key=keypair.public_key,
        mfr_certificate=mfr_cert,
        device_certificate=device_cert,
        device_type=descriptor.device_type,
        sensors_actuators=descriptor.sensors_actuators,
        software_version=descriptor.software_version,
        coarse_location=descriptor.coarse_location,
        full_url=descriptor.full_url,
    )
    manifest_bytes = manifest.to_canonical()
    signature = crypto.sign(mfr.private_key, manifest_bytes)

    token = fresh_url_token(rng)
    for _ in range(_TOKEN_RETRIES):
        if token not in store:
            break
        token = fresh_url_token(rng)
    else:
        raise ProvisioningError("could not find an unused url token")
    store.put(token, manifest_bytes, signature)

    return DeviceProvisioningRecord(
        keypair=keypair,
        url=token,
        software_hash=crypto.hash_image(descriptor.software_image),
        **settings,
    )


def provision_im_device(
    owner_public_key: bytes, software_hash: bytes, rng: Random
) -> ImProvisioningRecord:
    """Inventory-mode provisioning: fresh shared key, no manifest or URL."""
    return ImProvisioningRecord(
        owner_public_key, rng.randbytes(crypto.SYMMETRIC_KEY_LEN), software_hash
    )


def verify_manifest(
    manifest_bytes: bytes, signature: bytes, trusted_mfr_keys: Iterable[bytes]
) -> Manifest:
    """Parse and authenticate a manifest against the trusted key set.

    Checks, in order: canonical form, self-signed manufacturer cert whose
    key is trusted, manifest signature under that key, device cert signed
    by it, and device cert subject key matching the manifest device key.
    Raises ManifestVerificationError on the first failure; never returns
    partially verified data.
    """
    manifest = Manifest.from_canonical(manifest_bytes)
    mfr_cert = manifest.mfr_certificate
    if mfr_cert.issuer_key != mfr_cert.subject_key:
        raise ManifestVerificationError("manufacturer certificate is not self-signed")
    if not mfr_cert.verify():
        raise ManifestVerificationError("manufacturer certificate signature invalid")
    trusted = set(trusted_mfr_keys)
    if mfr_cert.subject_key not in trusted:
        raise ManifestVerificationError("manufacturer key is not trusted")
    if not crypto.verify(mfr_cert.subject_key, manifest_bytes, signature):
        raise ManifestVerificationError("manifest signature invalid")
    dev_cert = manifest.device_certificate
    if dev_cert.issuer_key != mfr_cert.subject_key:
        raise ManifestVerificationError("device certificate not issued by the manufacturer")
    if not dev_cert.verify():
        raise ManifestVerificationError("device certificate signature invalid")
    if dev_cert.subject_key != manifest.device_public_key:
        raise ManifestVerificationError("device certificate key mismatch")
    return manifest
