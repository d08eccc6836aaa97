"""Provisioning chain: manifests, certs, store persistence, trust file."""

from random import Random

import pytest

from conftest import load_manifest_dir, read_trust_file
from pulldisc import crypto, registration


def test_provision_resolve_verify_roundtrip(mfr, record, store):
    manifest_bytes, signature = store.get(record.url)
    manifest = registration.verify_manifest(manifest_bytes, signature, [mfr.public_key])
    assert manifest.device_public_key == record.keypair.public_key
    assert manifest.device_type == "camera"


def test_two_provisions_distinct(mfr, descriptor, store, rng):
    records = [
        registration.provision_db_device(
            mfr, descriptor, t_att=300, t_gen=1, pool_max=10, store=store, rng=rng
        )
        for _ in range(20)
    ]
    assert len({r.url for r in records}) == 20
    assert len({r.keypair.public_key for r in records}) == 20


def test_pool_max_cap(mfr, descriptor, store, rng):
    with pytest.raises(registration.ProvisioningError):
        registration.provision_db_device(
            mfr, descriptor, t_att=300, t_gen=1, pool_max=130, store=store, rng=rng
        )
    with pytest.raises(registration.ProvisioningError):
        registration.provision_db_device(
            mfr, descriptor, t_att=300, t_gen=1, pool_max=0, store=store, rng=rng
        )


def test_resolve_unknown_token(store):
    assert store.get(b"nosuchtoken000") is None


def test_store_refuses_overwrite(store):
    store.put(b"t" * 14, b"data", b"sig")
    with pytest.raises(registration.ProvisioningError):
        store.put(b"t" * 14, b"other", b"sig")


def test_tampered_manifest_fails_downstream(mfr, record, store):
    manifest_bytes, signature = store.get(record.url)
    tampered = bytearray(manifest_bytes)
    tampered[len(tampered) // 2] ^= 0x01
    with pytest.raises(registration.ManifestVerificationError):
        registration.verify_manifest(bytes(tampered), signature, [mfr.public_key])


def test_wrong_mfr_key_rejected(record, store, rng):
    other_mfr = crypto.generate_keypair(rng)
    manifest_bytes, signature = store.get(record.url)
    with pytest.raises(registration.ManifestVerificationError):
        registration.verify_manifest(manifest_bytes, signature, [other_mfr.public_key])


def test_cert_subject_key_mismatch_rejected(mfr, descriptor, rng):
    keypair = crypto.generate_keypair(rng)
    imposter = crypto.generate_keypair(rng)
    mfr_cert = registration.issue_cert("mfr", mfr.public_key, mfr)
    device_cert = registration.issue_cert("camera", imposter.public_key, mfr)
    manifest = registration.Manifest(
        device_public_key=keypair.public_key,  # differs from cert subject
        mfr_certificate=mfr_cert,
        device_certificate=device_cert,
        device_type="camera",
        sensors_actuators=("video",),
        software_version="1",
        coarse_location="x",
        full_url="https://example/x",
    )
    manifest_bytes = manifest.to_canonical()
    signature = crypto.sign(mfr.private_key, manifest_bytes)
    with pytest.raises(registration.ManifestVerificationError, match="key mismatch"):
        registration.verify_manifest(manifest_bytes, signature, [mfr.public_key])


def test_non_self_signed_mfr_cert_rejected(mfr, descriptor, rng):
    rogue = crypto.generate_keypair(rng)
    keypair = crypto.generate_keypair(rng)
    mfr_cert = registration.issue_cert("mfr", rogue.public_key, mfr)  # issuer != subject
    device_cert = registration.issue_cert("camera", keypair.public_key, mfr)
    manifest = registration.Manifest(
        keypair.public_key, mfr_cert, device_cert, "camera", ("video",), "1", "x", "u"
    )
    manifest_bytes = manifest.to_canonical()
    signature = crypto.sign(mfr.private_key, manifest_bytes)
    with pytest.raises(registration.ManifestVerificationError, match="self-signed"):
        registration.verify_manifest(manifest_bytes, signature, [mfr.public_key])


@pytest.mark.parametrize(
    "names_the_manufacturer, message",
    [(False, "not issued by the manufacturer"), (True, "device certificate signature invalid")],
    ids=["issued-by-another-key", "bad-signature"],
)
def test_device_cert_not_signed_by_the_manufacturer_rejected(
    mfr, rng, names_the_manufacturer, message
):
    keypair = crypto.generate_keypair(rng)
    other = crypto.generate_keypair(rng)
    device_cert = registration.issue_cert("camera", keypair.public_key, other)
    if names_the_manufacturer:  # claims the manufacturer as issuer, signed by another key
        device_cert = registration.CertRecord(
            "camera", keypair.public_key, mfr.public_key, device_cert.signature
        )
    mfr_cert = registration.issue_cert("mfr", mfr.public_key, mfr)
    manifest = registration.Manifest(
        keypair.public_key, mfr_cert, device_cert, "camera", ("video",), "1", "x", "u"
    )
    manifest_bytes = manifest.to_canonical()
    signature = crypto.sign(mfr.private_key, manifest_bytes)
    with pytest.raises(registration.ManifestVerificationError, match=message):
        registration.verify_manifest(manifest_bytes, signature, [mfr.public_key])


def test_canonical_form_is_byte_stable(mfr, record, store):
    manifest_bytes, _ = store.get(record.url)
    manifest = registration.Manifest.from_canonical(manifest_bytes)
    assert manifest.to_canonical() == manifest_bytes


def test_store_persistence_roundtrip(tmp_path, mfr, record, store):
    store.save_dir(tmp_path / "manifests")
    loaded = load_manifest_dir(tmp_path / "manifests")
    assert loaded.get(record.url) == store.get(record.url)
    assert loaded.tokens() == store.tokens()


def test_trust_file_roundtrip(tmp_path, mfr, rng):
    other = crypto.generate_keypair(rng)
    registration.write_trust_file(tmp_path / "trust.keys", [mfr.public_key, other.public_key])
    keys = read_trust_file(tmp_path / "trust.keys")
    assert keys == (mfr.public_key, other.public_key)


def test_im_provisioning_distinct_keys(rng):
    owner = crypto.generate_keypair(rng)
    records = [
        registration.provision_im_device(owner.public_key, crypto.hash_image(b"image"), rng)
        for _ in range(1000)
    ]
    assert len({r.shared_key for r in records}) == 1000
    assert all(r.software_hash == crypto.hash_image(b"image") for r in records)
    assert all(r.owner_public_key == owner.public_key for r in records)


def test_one_manufacturer_certificate_signed_once(descriptor, store, rng, monkeypatch):
    # A key no other test uses, so no earlier provisioning signed its certificate.
    mfr = crypto.generate_keypair(Random("one manufacturer certificate"))
    signed = []
    sign = crypto.sign

    def counting_sign(private_key, message):
        signed.append(message)
        return sign(private_key, message)

    monkeypatch.setattr(crypto, "sign", counting_sign)
    manifests = []
    for _ in range(2):
        record = registration.provision_db_device(mfr, descriptor, store=store, rng=rng)
        manifest_bytes, signature = store.get(record.url)
        manifests.append(registration.verify_manifest(manifest_bytes, signature, [mfr.public_key]))
    first, second = (m.mfr_certificate for m in manifests)
    assert first.to_fields() == second.to_fields()
    assert signed.count(b"mfr" + mfr.public_key) == 1
    assert len(signed) == 5  # plus a device certificate and a manifest per device
    assert registration.issue_cert("mfr", mfr.public_key, mfr) == first
