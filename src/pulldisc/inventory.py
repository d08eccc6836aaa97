"""Inventory variant: owner-signed requests, encrypted uniform responses.

Only the enrolled owner can solicit; devices verify the request signature
before doing anything else, attest on every request, and answer with an
AEAD-sealed, fixed-size payload. The owner recovers the responding device
either by exhaustive trial decryption or through the key-tree header (see
keytree). Response payloads carry no identifying plaintext and every
response in a deployment has identical length, so third parties cannot
link responses to devices.
"""

from __future__ import annotations

import enum
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from random import Random
from typing import Callable, Iterable, Sequence

from . import crypto, keytree, wire
from .device import Counters
from .registration import ImProvisioningRecord, provision_im_device

DEVICE_ID_LEN = 12
_INFO_PAD = bytes(wire.IM_DEVICE_INFO_LEN - DEVICE_ID_LEN - 4)


def build_device_info(device_id: bytes, type_code: int, sw_version: int) -> bytes:
    """Fixed-layout device info: id(12) | type(2) | version(2) | zero pad."""
    if len(device_id) != DEVICE_ID_LEN:
        raise ValueError(f"device id must be {DEVICE_ID_LEN} bytes")
    return device_id + struct.pack(">HH", type_code, sw_version) + _INFO_PAD


def parse_device_info(info: bytes) -> tuple[bytes, int, int]:
    device_id = info[:DEVICE_ID_LEN]
    type_code, sw_version = struct.unpack_from(">HH", info, DEVICE_ID_LEN)
    return device_id, type_code, sw_version


class ImDiscard(enum.Enum):
    MALFORMED = "malformed"
    FORGED_OR_FOREIGN = "forged-or-foreign"
    REPLAY = "replay"


@dataclass(frozen=True, slots=True)
class ImReceipt:
    """Successful owner-side decryption of one inventory response."""

    device_id: bytes
    att_result: int
    device_info: bytes
    # 1-based enrollment position of the opening key: the tag checks an
    # enrollment-order scan makes (0 in tree mode).
    trials: int
    prf_evals: int  # tree PRF evaluations (0 in naive mode)


# What the owner makes of one payload: a receipt and the enrollment index
# of its device, or a reject reason and None.
_Outcome = tuple[ImReceipt | ImDiscard, int | None]


class ImDevice:
    """Inventory-mode device: verify, attest, seal, reply."""

    hears = frozenset({wire.ID_IM_REQUEST})  # the frame kind `respond` answers

    def __init__(
        self,
        record: ImProvisioningRecord,
        device_info: bytes,
        memory_image: bytearray | bytes,
        seed: int,
        lkh_vector: tuple[bytes, ...] | None = None,
    ):
        if len(device_info) != wire.IM_DEVICE_INFO_LEN:
            raise ValueError(f"device info must be {wire.IM_DEVICE_INFO_LEN} bytes")
        if lkh_vector is not None and lkh_vector[-1] != record.shared_key:
            raise ValueError("tree leaf key must equal the provisioned shared key")
        self.record = record
        self.device_info = device_info
        self.memory_image = bytearray(memory_image)
        self.seed = seed
        self.lkh_vector = lkh_vector

    @cached_property
    def counters(self) -> Counters:
        """Built at first use, as `rng` is: most enrolled devices never tally."""
        return Counters()

    @cached_property
    def rng(self) -> Random:
        """The IV generator, built at the first response: seeding one costs
        about half an enrollment, and most enrolled devices never answer."""
        return Random(self.seed)

    def respond(self, payload: bytes) -> bytes | None:
        """Handle one frame; returns an encoded response or None (silent drop)."""
        # A direct caller may pass any frame: drop anything that cannot be
        # a request before paying for a decode.
        if len(payload) != wire.IM_REQUEST_LEN or not payload.startswith(wire.ID_IM_REQUEST):
            return None
        message, _, region = wire.parse_signed(bytes(payload))  # all that passes the guard parses
        if not crypto.verify(self.record.owner_public_key, region, message.signature):
            self.counters.wasted_verifications += 1
            return None

        attested = crypto.hash_image(bytes(self.memory_image)) == self.record.software_hash
        result = wire.ATT_SUCCESS if attested else wire.ATT_FAIL
        plaintext = message.owner_nonce + bytes([result]) + self.device_info

        header: tuple[bytes, ...] = ()
        if self.lkh_vector is not None:
            header = keytree.build_header(self.lkh_vector, message.owner_nonce)
        iv = self.rng.randbytes(crypto.AEAD_IV_LEN)
        sealed = crypto.aead_seal(
            self.record.shared_key, iv, plaintext, _associated_data(header)
        )
        self.counters.responses += 1
        self.counters.attestations += 1
        return wire.ImResponseMsg(header, iv, sealed).encode()


def _associated_data(header: Sequence[bytes]) -> bytes:
    # Binding the identifier and header to the ciphertext stops header
    # swaps from redirecting a response to a different tree path.
    return wire.ID_IM_RESPONSE + b"".join(header)


class Owner:
    """The single authorized solicitor for an inventory fleet."""

    hears = frozenset({wire.ID_IM_RESPONSE})  # the frame kind `receive` opens

    def __init__(self, keypair: crypto.KeyPair, rng: Random):
        self.keypair = keypair
        self.rng = rng
        self.device_ids: list[bytes] = []
        self.key_table: dict[bytes, bytes] = {}
        self.tree: keytree.KeyTree | None = None
        self.outstanding_nonce: bytes | None = None
        self.counters = Counters()
        # The naive scan's order for the outstanding request (enrollment
        # indices) and the keys in that order; see make_request.
        self._scan_order = array("I")
        self._scan_keys: list[bytes] = []
        self._responders: set[int] = set()  # indices with a receipt since the last request
        # The payloads queued to this owner, one per copy (`OwnerNode` points
        # it at `World.queued_to`); alone, nothing is in flight.
        self.upcoming: Callable[[], Iterable[bytes]] = lambda: ()
        # Payload -> outcome, for the payloads of the last identification.
        # An outcome depends only on the payload, the outstanding nonce,
        # the tree and the scan keys, so `make_request` and
        # `_extend_scan_order` clear the table when those change.
        self._verdicts: dict[bytes, _Outcome] = {}
        self._image: tuple[bytes | None, bytes] = (None, b"")  # the last image enrolled, hashed

    # -- enrollment ---------------------------------------------------------

    def enroll_naive(
        self, device_info: bytes, software_image: bytes, rng: Random
    ) -> ImDevice:
        """Provision one device with a fresh random shared key. A fleet shares
        one image, so its digest is reused while the image compares equal."""
        if software_image != self._image[0]:  # kept as bytes: a bytearray may change
            self._image = (bytes(software_image), crypto.hash_image(software_image))
        record = provision_im_device(self.keypair.public_key, self._image[1], rng)
        return self._enroll(record, device_info, software_image, rng)

    def enroll_lkh_fleet(
        self, device_infos: Sequence[bytes], software_image: bytes, p: int, rng: Random
    ) -> list[ImDevice]:
        """Build the key tree and provision every device from its leaf."""
        if self.key_table:
            raise ValueError("fleet already enrolled")
        if any(len(info) != wire.IM_DEVICE_INFO_LEN for info in device_infos):
            raise ValueError(f"device info must be {wire.IM_DEVICE_INFO_LEN} bytes")
        _check_unique([info[:DEVICE_ID_LEN] for info in device_infos])
        tree = keytree.build_tree(len(device_infos), p, rng)
        software_hash = crypto.hash_image(software_image)
        devices = []
        for index, info in enumerate(device_infos):
            vector = keytree.device_key_vector(tree, index)  # ends with the leaf key
            record = ImProvisioningRecord(self.keypair.public_key, vector[-1], software_hash)
            devices.append(self._enroll(record, info, software_image, rng, vector))
        self.tree = tree
        return devices

    def _enroll(self, record: ImProvisioningRecord, device_info: bytes, software_image: bytes,
                rng: Random, lkh_vector: tuple[bytes, ...] | None = None) -> ImDevice:
        # Built first: a device info it refuses leaves the owner unchanged.
        # Its seed is drawn before that check, so a refused device info
        # still takes its draws.
        device = ImDevice(record, device_info, software_image, rng.getrandbits(64), lkh_vector)
        self._remember(device_info[:DEVICE_ID_LEN], record.shared_key)
        return device

    def _remember(self, device_id: bytes, key: bytes) -> None:
        if device_id in self.key_table:
            raise ValueError(f"duplicate device id {device_id.hex()}")
        self.device_ids.append(device_id)
        self.key_table[device_id] = key

    # The reference path, for tests only: each copy received is identified
    # alone, and no verdict is kept.
    _scan_alone = False

    # -- solicitation -------------------------------------------------------

    def make_request(self) -> bytes:
        """Sign a fresh nonce; rotates the outstanding-nonce window."""
        nonce = self.rng.randbytes(wire.NONCE_LEN)
        unsigned = wire.ImRequestMsg(nonce, bytes(crypto.SIGNATURE_LEN))
        request = wire.sign(unsigned, self.keypair.private_key)
        self.outstanding_nonce = nonce
        self.counters.signatures += 1
        # An owner solicits the same premises round after round, so the
        # devices that answered the last request are scanned first; every
        # other key follows, each part in enrollment order.
        responders, self._responders = self._responders, set()
        first = sorted(responders)
        self._scan_order = array("I", first)
        self._scan_order.extend(i for i in range(len(self.device_ids)) if i not in responders)
        self._scan_keys = [self.key_table[self.device_ids[i]] for i in first]
        self._scan_keys += (
            key for i, key in enumerate(self.key_table.values()) if i not in responders
        )
        self._verdicts.clear()
        return request.encode()

    def receive(self, payload: bytes) -> ImReceipt | ImDiscard:
        payload = bytes(payload)
        self._extend_scan_order()
        if self._scan_alone:
            result, index = self._identify([payload])[payload]
        else:
            if payload not in self._verdicts:
                # Identified with every payload queued to the owner, each once
                # while a copy is in flight; the table keeps just their verdicts.
                batch = dict.fromkeys([payload, *self.upcoming()])
                fresh = self._identify([p for p in batch if p not in self._verdicts])
                self._verdicts = {p: fresh.get(p) or self._verdicts[p] for p in batch}
            result, index = self._verdicts[payload]
        if index is None:
            self.counters.rejects[result.value] = self.counters.rejects.get(result.value, 0) + 1
        else:
            self._responders.add(index)
            self.counters.receipts += 1
        return result

    def _identify(self, payloads: Sequence[bytes]) -> dict[bytes, _Outcome]:
        """The outcome of each payload under the outstanding request.

        A payload the tree walk opens is settled there; the rest share one
        sweep of the scan order, last round's responders first (AES-GCM is
        deterministic, so sharing cannot change a first opening key). The
        order can change the verdict only for a payload that opens under
        two enrolled keys, and sealing one takes an adversary who holds
        both (AES-GCM is not key-committing); the tree walk already returns
        its leaf without trying lower indices. `trials` stays the cost of
        the paper's enrollment-order scan, not the host's."""
        outcomes: dict[bytes, _Outcome] = {}
        unwalked: dict[bytes, tuple[bytes, bytes, bytes]] = {}  # payload -> (iv, sealed, ad)
        for payload in payloads:
            try:
                message = wire.decode(payload)
            except wire.WireError:
                message = None
            if not isinstance(message, wire.ImResponseMsg):
                outcomes[payload] = ImDiscard.MALFORMED, None
            elif self.outstanding_nonce is None:
                outcomes[payload] = ImDiscard.REPLAY, None
            else:
                item = message.iv, message.sealed, _associated_data(message.lkh_header)
                walked = self._walk(message.lkh_header, item)
                if walked is None:
                    unwalked[payload] = item
                else:
                    index, prf_evals, plaintext = walked
                    outcomes[payload] = self._outcome(index, plaintext, 0, prf_evals)
        if unwalked:
            positions, _ = keytree.retrieve_naive(self._scan_keys, list(unwalked.values()))
            for (payload, item), position in zip(unwalked.items(), positions):
                if position is None:
                    outcomes[payload] = ImDiscard.FORGED_OR_FOREIGN, None
                else:  # the sweep keeps only the position: open the winner once
                    plaintext = crypto.aead_open(self._scan_keys[position], *item)
                    index = self._scan_order[position]
                    outcomes[payload] = self._outcome(index, plaintext, index + 1, 0)
        return outcomes

    def _walk(
        self, header: Sequence[bytes], item: tuple[bytes, bytes, bytes]
    ) -> tuple[int, int, bytes] | None:
        """(index, PRF evaluations, plaintext) when the tree walk under the
        outstanding nonce opens the (iv, sealed, ad) `item`, else None.

        A stale response carries header fields over an older nonce, so the
        walk lands on the wrong leaf (or a padding one); a miss falls
        through to the exhaustive scan so replays are still told apart
        from junk."""
        if self.tree is None:
            return None
        try:
            index, prf_evals = keytree.retrieve_lkh(self.tree, header, self.outstanding_nonce)
            key = self.key_table[self.device_ids[index]]
            return index, prf_evals, crypto.aead_open(key, *item)
        except (keytree.RetrievalError, IndexError, crypto.AeadAuthenticationError):
            return None

    def _outcome(self, index: int, plaintext: bytes, trials: int, prf_evals: int) -> _Outcome:
        """A receipt from the device enrolled at `index`, or REPLAY when
        the plaintext echoes another nonce than the outstanding one."""
        if plaintext[: wire.NONCE_LEN] != self.outstanding_nonce:
            return ImDiscard.REPLAY, None
        receipt = ImReceipt(
            device_id=self.device_ids[index],
            att_result=plaintext[wire.NONCE_LEN],
            device_info=plaintext[wire.NONCE_LEN + 1 :],
            trials=trials,
            prf_evals=prf_evals,
        )
        return receipt, index

    def _extend_scan_order(self) -> None:
        """Append the keys enrolled since the order was built, so a device
        enrolled mid-round is found too; `key_table` is in enrollment order
        (`_remember` is its one writer). New keys may open a payload swept
        without them, so the verdicts go."""
        built = len(self._scan_order)
        if built < len(self.device_ids):
            self._scan_order.extend(range(built, len(self.device_ids)))
            self._scan_keys.extend(islice(self.key_table.values(), built, None))
            self._verdicts.clear()


def _check_unique(device_ids: Sequence[bytes]) -> None:
    """Refuse a batch with a repeated id before any of it is enrolled."""
    repeated = sorted(d.hex() for d, count in Counter(device_ids).items() if count > 1)
    if repeated:
        raise ValueError(f"duplicate device id(s) {repeated}")
