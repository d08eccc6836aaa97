"""Inventory variant: authenticated requests, sealed uniform responses,
and owner-side identification in both retrieval modes."""

import copy
from collections import Counter
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulldisc import crypto, inventory, keytree, simnet, wire
from pulldisc.inventory import (
    ImDiscard,
    ImReceipt,
    Owner,
    build_device_info,
    parse_device_info,
)


def info(i):
    return build_device_info(f"unit-{i:07d}".encode(), type_code=3, sw_version=9)


@pytest.fixture
def naive_fleet():
    rng = Random(31)
    owner = Owner(crypto.generate_keypair(rng), Random(32))
    devices = [owner.enroll_naive(info(i), b"inventory image", rng) for i in range(12)]
    return owner, devices


@pytest.fixture
def lkh_fleet():
    rng = Random(33)
    owner = Owner(crypto.generate_keypair(rng), Random(34))
    devices = owner.enroll_lkh_fleet([info(i) for i in range(12)], b"inventory image", 2, rng)
    return owner, devices


def test_device_info_layout():
    data = build_device_info(b"unit-0000001", 3, 9)
    assert len(data) == wire.IM_DEVICE_INFO_LEN
    assert parse_device_info(data) == (b"unit-0000001", 3, 9)
    with pytest.raises(ValueError):
        build_device_info(b"short", 0, 0)


def test_request_shape_and_rotation(naive_fleet):
    owner, _ = naive_fleet
    first = owner.make_request()
    second = owner.make_request()
    assert len(first) == len(second) == 82
    assert first[6:18] != second[6:18]
    assert first[18:] != second[18:]  # distinct signatures too


def test_honest_round_naive(naive_fleet):
    owner, devices = naive_fleet
    request = owner.make_request()
    response = devices[7].respond(request)
    assert response is not None
    result = owner.receive(response)
    assert isinstance(result, ImReceipt)
    assert result.device_id == b"unit-0000007"
    assert result.att_result == wire.ATT_SUCCESS
    assert parse_device_info(result.device_info)[0] == b"unit-0000007"
    assert result.trials == 8  # table scanned in enrollment order


def test_honest_round_lkh(lkh_fleet):
    owner, devices = lkh_fleet
    request = owner.make_request()
    for i, dev in enumerate(devices):
        result = owner.receive(dev.respond(request))
        assert isinstance(result, ImReceipt)
        assert result.device_id == info(i)[:12]
        assert result.trials == 0  # tree walk, no exhaustive scan
        assert result.prf_evals <= owner.tree.height


def test_lkh_receive_opens_the_ciphertext_once(lkh_fleet, monkeypatch):
    owner, devices = lkh_fleet
    request = owner.make_request()
    responses = [dev.respond(request) for dev in devices]
    opens = []
    aead_open = crypto.aead_open

    def counting_open(*args):
        opens.append(args)
        return aead_open(*args)

    monkeypatch.setattr(crypto, "aead_open", counting_open)
    for response in responses:
        assert isinstance(owner.receive(response), ImReceipt)
    assert len(opens) == len(devices)


def test_forged_requests_never_answered(naive_fleet):
    owner, devices = naive_fleet
    rng = Random(35)
    for _ in range(10_000):
        forged = wire.ImRequestMsg(rng.randbytes(12), rng.randbytes(64)).encode()
        assert devices[0].respond(forged) is None
    assert devices[0].counters.wasted_verifications == 10_000
    assert devices[0].counters.responses == 0


def test_non_owner_key_rejected(naive_fleet):
    owner, devices = naive_fleet
    rng = Random(36)
    intruder = crypto.generate_keypair(rng)
    nonce = rng.randbytes(12)
    sig = crypto.sign(intruder.private_key, wire.ID_IM_REQUEST + nonce)
    assert devices[0].respond(wire.ImRequestMsg(nonce, sig).encode()) is None


def test_tampered_image_reports_fail(naive_fleet):
    owner, devices = naive_fleet
    devices[4].memory_image[3] ^= 0x40
    result = owner.receive(devices[4].respond(owner.make_request()))
    assert isinstance(result, ImReceipt)
    assert result.att_result == wire.ATT_FAIL


def test_replay_rejected_after_rotation(naive_fleet):
    owner, devices = naive_fleet
    stale = devices[2].respond(owner.make_request())
    owner.make_request()  # rotates the outstanding nonce
    assert owner.receive(stale) is ImDiscard.REPLAY


def test_replay_rejected_after_rotation_lkh(lkh_fleet):
    owner, devices = lkh_fleet
    stale = devices[2].respond(owner.make_request())
    owner.make_request()
    assert owner.receive(stale) is ImDiscard.REPLAY


def test_a_response_before_any_request_is_a_replay(naive_fleet):
    owner, devices = naive_fleet
    twin = Owner(owner.keypair, Random(38))  # signs with the same key
    response = devices[4].respond(twin.make_request())
    assert owner.receive(response) is ImDiscard.REPLAY
    assert owner.counters.rejects == {"replay": 1} and owner.counters.receipts == 0


def test_garbage_is_forged_or_foreign(naive_fleet):
    owner, _ = naive_fleet
    owner.make_request()
    rng = Random(37)
    for _ in range(50):
        junk = wire.ID_IM_RESPONSE + rng.randbytes(124)  # valid id and shape
        assert owner.receive(junk) is ImDiscard.FORGED_OR_FOREIGN
    assert owner.receive(b"IM-RES" + bytes(5)) is ImDiscard.MALFORMED


def test_header_swap_rejected(lkh_fleet):
    """The header is bound to the ciphertext as associated data: grafting
    one device's header onto another's payload must fail, not misroute."""
    owner, devices = lkh_fleet
    request = owner.make_request()
    a = wire.decode(devices[1].respond(request))
    b = wire.decode(devices[2].respond(request))
    grafted = wire.ImResponseMsg(a.lkh_header, b.iv, b.sealed)
    assert owner.receive(grafted.encode()) is ImDiscard.FORGED_OR_FOREIGN


def test_uniform_response_size(lkh_fleet):
    owner, devices = lkh_fleet
    request = owner.make_request()
    sizes = {len(dev.respond(request)) for dev in devices}
    assert len(sizes) == 1  # unlinkability precondition: one length fleet-wide


def test_unlinkability_surrogate_two_rounds(lkh_fleet):
    owner, devices = lkh_fleet
    first = wire.decode(devices[5].respond(owner.make_request()))
    second = wire.decode(devices[5].respond(owner.make_request()))
    assert first.iv != second.iv
    assert first.sealed != second.sealed
    assert all(x != y for x, y in zip(first.lkh_header, second.lkh_header))


def test_naive_and_lkh_agree():
    rng_a, rng_b = Random(38), Random(38)
    naive_owner = Owner(crypto.generate_keypair(rng_a), Random(39))
    lkh_owner = Owner(crypto.generate_keypair(rng_b), Random(39))
    infos = [info(i) for i in range(10)]
    lkh_devices = lkh_owner.enroll_lkh_fleet(infos, b"img", 2, Random(40))
    # Mirror the key table so the naive owner can open the same payloads.
    for device_id, key in lkh_owner.key_table.items():
        naive_owner.device_ids.append(device_id)
        naive_owner.key_table[device_id] = key
    request = lkh_owner.make_request()
    naive_owner.outstanding_nonce = lkh_owner.outstanding_nonce
    for i, dev in enumerate(lkh_devices):
        payload = dev.respond(request)
        via_tree = lkh_owner.receive(payload)
        via_scan = naive_owner.receive(payload)
        assert isinstance(via_tree, ImReceipt) and isinstance(via_scan, ImReceipt)
        assert via_tree.device_id == via_scan.device_id == infos[i][:12]


def _verdict(result):
    if isinstance(result, ImDiscard):
        return result
    return result.device_id, result.att_result, result.device_info


@given(
    st.integers(2, 40),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_lkh_and_naive_owners_agree_on_any_payload(n, p, hrng):
    lkh_owner = Owner(crypto.generate_keypair(Random(60)), Random(61))
    naive_owner = Owner(lkh_owner.keypair, Random(62))
    devices = lkh_owner.enroll_lkh_fleet([info(i) for i in range(n)], b"img", p, Random(63))
    # Mirror the key table so the naive owner can open the same payloads.
    for device_id, key in lkh_owner.key_table.items():
        naive_owner.device_ids.append(device_id)
        naive_owner.key_table[device_id] = key
    previous = [dev.respond(lkh_owner.make_request()) for dev in devices]
    request = lkh_owner.make_request()
    naive_owner.outstanding_nonce = lkh_owner.outstanding_nonce
    honest = [dev.respond(request) for dev in devices]

    def graft(a, b):
        a, b = wire.decode(a), wire.decode(b)
        return wire.ImResponseMsg(a.lkh_header, b.iv, b.sealed).encode()

    size = len(honest[0])
    payloads = [
        *honest,
        *previous,  # replays from the previous round
        *(wire.ID_IM_RESPONSE + hrng.randbytes(size - 6) for _ in range(8)),
        *(graft(hrng.choice(honest), hrng.choice(honest)) for _ in range(4)),
        *(graft(hrng.choice(previous), hrng.choice(honest)) for _ in range(2)),
        *(hrng.choice(honest)[: hrng.randrange(size)] for _ in range(4)),
        request,
        wire.RequestMsg(hrng.randbytes(12)).encode(),
        hrng.randbytes(size),
    ]
    bound = (p - 1) * lkh_owner.tree.height
    verdicts = []
    for payload in payloads:
        via_tree = lkh_owner.receive(payload)
        via_scan = naive_owner.receive(payload)
        assert _verdict(via_tree) == _verdict(via_scan)
        if isinstance(via_scan, ImReceipt):
            assert via_scan.trials == naive_owner.device_ids.index(via_scan.device_id) + 1
            assert via_tree.prf_evals <= bound
        verdicts.append(_verdict(via_scan))
    assert [v[0] for v in verdicts[:n]] == naive_owner.device_ids
    assert verdicts[n : 2 * n] == [ImDiscard.REPLAY] * n


def _graft(header_from, iv_from, sealed_from):
    return wire.ImResponseMsg(
        wire.decode(header_from).lkh_header, wire.decode(iv_from).iv, wire.decode(sealed_from).sealed
    ).encode()


@given(
    st.booleans(),
    st.integers(2, 16),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_scan_order_never_changes_a_verdict(tree, n, rounds, hrng):
    """Multi-round sessions against a twin owner that never makes a
    request, so it always scans in enrollment order."""
    rng = Random(70)
    owner = Owner(crypto.generate_keypair(rng), Random(71))
    if tree:
        devices = owner.enroll_lkh_fleet([info(i) for i in range(n)], b"img", 2, rng)
    else:
        devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(n)]
    twin = Owner(owner.keypair, Random(72))
    twin.device_ids, twin.key_table, twin.tree = owner.device_ids, owner.key_table, owner.tree
    stranger = Owner(owner.keypair, Random(73)).enroll_naive(info(n + 1), b"img", rng)
    late_round = hrng.randrange(rounds)
    earlier, last = [], []
    for r in range(rounds):
        request = owner.make_request()
        twin.outstanding_nonce = owner.outstanding_nonce
        if r == late_round:  # enrolled after the request went out, and answers it
            devices.append(owner.enroll_naive(info(n), b"img", rng))
        responders = [i for i in range(len(devices)) if hrng.random() < 0.6]
        honest = {devices[i].respond(request): i for i in responders}
        foreign = stranger.respond(request)
        pool = [*honest, *last, foreign]
        payloads = [
            *honest,
            *last,  # replays of last round's responses
            *hrng.sample(earlier, min(3, len(earlier))),
            foreign,
            *(wire.ID_IM_RESPONSE + hrng.randbytes(len(hrng.choice(pool)) - 6) for _ in range(3)),
            *(_graft(*(hrng.choice(pool) for _ in range(3))) for _ in range(4)),
            *(p[: hrng.randrange(len(p))] for p in (hrng.choice(pool) for _ in range(2))),
        ]
        hrng.shuffle(payloads)
        verdicts = {}
        for payload in payloads:
            verdicts[payload] = owner.receive(payload)
            assert verdicts[payload] == twin.receive(payload)
        for payload, i in honest.items():
            receipt = verdicts[payload]
            assert isinstance(receipt, ImReceipt) and receipt.device_id == info(i)[:12]
            assert receipt.trials == (0 if tree and i < n else i + 1)
        assert all(verdicts[payload] is ImDiscard.REPLAY for payload in last)
        earlier += last
        last = list(honest)


@pytest.fixture
def scan_cost(monkeypatch, aesgcm_counts):
    """Host-side cost of owner scans: `retrieve_naive` calls (sweeps), the
    trials they make for the payload received, and the AES-GCM contexts
    built and decrypts attempted. Reset with `.clear()`."""
    cost = aesgcm_counts
    retrieve = keytree.retrieve_naive

    def counting_retrieve(keys, items):
        cost["calls"] += 1
        positions, decrypts = retrieve(keys, items)
        cost["trials"] += len(keys) if positions[0] is None else positions[0] + 1
        return positions, decrypts

    monkeypatch.setattr(keytree, "retrieve_naive", counting_retrieve)
    return cost


@pytest.fixture
def fleet_of_64():
    rng = Random(80)
    owner = Owner(crypto.generate_keypair(rng), Random(81))
    devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(64)]
    stranger = Owner(owner.keypair, Random(82)).enroll_naive(info(99), b"img", rng)
    return owner, devices, stranger


def test_last_rounds_responders_are_scanned_first(fleet_of_64, scan_cost):
    owner, devices, _ = fleet_of_64
    first = sorted(Random(83).sample(range(64), 8))
    request = owner.make_request()
    for i in first:
        assert isinstance(owner.receive(devices[i].respond(request)), ImReceipt)
    request = owner.make_request()
    for i in reversed(first):
        response = devices[i].respond(request)
        scan_cost.clear()
        receipt = owner.receive(response)
        assert isinstance(receipt, ImReceipt) and receipt.device_id == info(i)[:12]
        assert receipt.trials == i + 1  # the modeled enrollment-order cost
        assert scan_cost["trials"] == first.index(i) + 1 <= len(first)
        assert scan_cost["contexts"] == scan_cost["trials"] + 1  # one more open of the winner
    newcomer = next(i for i in range(40, 64) if i not in first)
    response = devices[newcomer].respond(request)
    scan_cost.clear()
    receipt = owner.receive(response)
    assert receipt.device_id == info(newcomer)[:12] and receipt.trials == newcomer + 1
    # After the responders, the rest in enrollment order.
    assert scan_cost["trials"] == len(first) + sum(i not in first for i in range(newcomer)) + 1


def test_a_payload_no_key_opens_costs_exactly_n_trials(fleet_of_64, scan_cost):
    owner, devices, stranger = fleet_of_64
    for _ in range(3):
        request = owner.make_request()
        for device in devices[::5]:
            owner.receive(device.respond(request))
        for payload in (stranger.respond(request), wire.ID_IM_RESPONSE + bytes(124)):
            scan_cost.clear()
            assert owner.receive(payload) is ImDiscard.FORGED_OR_FOREIGN
            assert scan_cost == {"calls": 1, "trials": 64, "contexts": 64, "decrypts": 64}


@pytest.mark.parametrize("mode", ["naive", "lkh"])
def test_each_response_makes_one_scan_at_most(mode, scan_cost):
    rng = Random(84)
    owner = Owner(crypto.generate_keypair(rng), Random(85))
    if mode == "lkh":
        devices = owner.enroll_lkh_fleet([info(i) for i in range(16)], b"img", 2, rng)
    else:
        devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(16)]
    stale = []
    for _ in range(3):
        request = owner.make_request()
        honest = [device.respond(request) for device in devices[::2]]
        for payload in [*honest, *stale, wire.ID_IM_RESPONSE + rng.randbytes(len(honest[0]) - 6)]:
            scan_cost.clear()
            owner.receive(payload)
            assert scan_cost["calls"] <= 1
            assert scan_cost["trials"] <= len(devices)
        stale = honest


# -- one sweep for every response in flight to the owner ------------------------


class _ResponseForger(simnet.Node):
    """Broadcasts `count` junk inventory responses of `size` bytes at each
    of `times`, every payload twice."""

    hears = frozenset()

    def __init__(self, name, times, count, size, seed):
        super().__init__(name)
        self.times, self.count, self.size, self.rng = times, count, size, Random(seed)

    def start(self, now):
        for t in self.times:
            self.world.schedule_action(t, self._burst)

    def _burst(self, now):
        for _ in range(self.count):
            payload = wire.ID_IM_RESPONSE + self.rng.randbytes(self.size - 6)
            self.world.broadcast(self.name, payload, now)
            self.world.broadcast(self.name, payload, now)


def _watch_verdicts(owner, world, node):
    """Check after every receipt that the owner's verdict table holds the
    payloads of its last identification and no other: the payload received
    and every payload then queued to it (none while each copy is identified
    alone). Returns what it keeps: that last batch and the table's peak."""
    receive, identify = owner.receive, owner._identify
    watch, identified = {"last": set(), "peak": 0}, []

    def counting_identify(payloads):
        identified.append(payloads)
        return identify(payloads)

    def checked_receive(payload):
        identified.clear()
        result = receive(payload)
        if identified:
            watch["last"] = {payload, *world.queued_to(node)}
        assert owner._verdicts.keys() == (set() if owner._scan_alone else watch["last"])
        watch["peak"] = max(watch["peak"], len(owner._verdicts))
        return result

    owner.receive, owner._identify = checked_receive, counting_identify
    return watch


def _check_the_table_waits_for_a_new_request(owner, watch):
    """At the end of a run the table holds only the payloads of the last
    identification, and the next request empties it."""
    assert owner._verdicts.keys() <= watch["last"]
    owner.make_request()
    assert owner._verdicts == {}


def _answering_12_of_64():
    """A 64-key naive owner soliciting at 1 s and 2 s, and the 12 devices
    in range. Every frame takes 50 ms, so all responses to a round are
    queued to the owner before the first lands."""
    rng = Random(86)
    owner = Owner(crypto.generate_keypair(rng), Random(87))
    devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(64)]
    answering = sorted(Random(88).sample(range(64), 12))
    world = simnet.World(seed=89, link=simnet.LinkConfig(latency_min=0.05, latency_max=0.05))
    node = world.add_node(simnet.OwnerNode("owner", owner, [1.0, 2.0]))
    for i in answering:
        world.add_node(simnet.ImDeviceNode(f"d{i}", devices[i]))
    return world, node, answering


def test_responses_in_flight_together_share_one_sweep(scan_cost):
    world, node, answering = _answering_12_of_64()
    owner, k = node.owner, len(answering)
    watch = _watch_verdicts(owner, world, node)
    for round_end, positions in ((1.5, answering), (2.5, range(k))):  # responders first
        scan_cost.clear()
        world.run_until(round_end)
        assert [r.trials for _, r in node.receipts[-k:]] == [i + 1 for i in answering]
        # One sweep to the highest opening position; each device seals once
        # and the owner opens each winner once more.
        assert scan_cost["calls"] == 1
        assert scan_cost["contexts"] == max(positions) + 1 + 2 * k
        assert scan_cost["decrypts"] == sum(p + 1 for p in positions) + k
        assert len(watch["last"]) == k  # the round's one identification
    assert world.queued_to(node) == []
    _check_the_table_waits_for_a_new_request(owner, watch)


def test_a_second_copy_reads_its_verdict_instead_of_scanning(scan_cost):
    def run(alone):
        world, node, _ = _answering_12_of_64()
        world.add_node(_ResponseForger("forger", [1.5], 5, 130, 90))
        scan_cost.clear()
        with mock.patch.object(Owner, "_scan_alone", alone):
            world.run_until(3.0)
        return node.receipts, dict(node.rejects), Counter(scan_cost)

    swept, alone = run(False), run(True)
    assert swept[:2] == alone[:2]
    assert swept[1] == {"forged-or-foreign": 10}
    # Each copy of a junk payload costs every key alone; swept, only its first.
    assert alone[2]["decrypts"] - swept[2]["decrypts"] == 5 * 64
    assert swept[2]["contexts"] < alone[2]["contexts"] - 5 * 64


def test_in_flight_records_hold_only_payloads_still_queued(scan_cost):
    rng = Random(91)
    owner = Owner(crypto.generate_keypair(rng), Random(92))
    devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(64)]
    world = simnet.World(seed=93)
    node = world.add_node(simnet.OwnerNode("owner", owner, [1.0, 3.0]))
    for i in range(0, 64, 8):
        world.add_node(simnet.ImDeviceNode(f"d{i}", devices[i]))
    world.add_node(_ResponseForger("forger", [2.0], 30, 130, 94))
    watch = _watch_verdicts(owner, world, node)
    world.run_until(1.9)
    scan_cost.clear()
    world.run_until(2.005)  # within the burst: some copies have landed, not all
    queued = world.queued_to(node)
    assert 0 < len(queued) < 60
    # The first copy to land was identified with the whole burst.
    assert set(queued) < owner._verdicts.keys() == watch["last"]
    assert len(watch["last"]) == 30
    world.run_until(2.5)
    # The whole burst was swept once: every key built once, tried on each payload.
    assert scan_cost == {"calls": 1, "trials": 64, "contexts": 64, "decrypts": 64 * 30}
    world.run_until(5.0)
    assert world.queued_to(node) == []
    _check_the_table_waits_for_a_new_request(owner, watch)
    assert node.rejects == {"forged-or-foreign": 60}
    assert len(node.receipts) == 16


def test_the_verdict_table_stays_bounded_over_a_long_round():
    rng = Random(97)
    owner = Owner(crypto.generate_keypair(rng), Random(98))
    devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(64)]
    world = simnet.World(seed=99)
    node = world.add_node(simnet.OwnerNode("owner", owner, [1.0]))  # one 60 s round
    for i in range(0, 64, 8):
        world.add_node(simnet.ImDeviceNode(f"d{i}", devices[i]))
    bursts = [1.5 + 0.5 * k for k in range(118)]  # every 0.5 s up to 60 s
    world.add_node(_ResponseForger("forger", bursts, 10, 130, 100))
    watch = _watch_verdicts(owner, world, node)
    world.run_until(2.0)
    first_burst = watch["peak"]
    world.run_until(61.0)
    # Each burst replaces the last one's verdicts: the table never holds
    # more than one burst, however long the round runs.
    assert watch["peak"] == first_burst == 10
    assert node.rejects == {"forged-or-foreign": 2 * 10 * len(bursts)}
    assert len(node.receipts) == 8
    _check_the_table_waits_for_a_new_request(owner, watch)


def test_a_key_enrolled_while_its_response_is_in_flight_opens_it(scan_cost):
    def run(alone):
        rng = Random(62)
        owner = Owner(crypto.generate_keypair(rng), Random(63))
        devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(32)]
        late = Owner(owner.keypair, Random(64)).enroll_naive(info(32), b"img", rng)
        # Every frame takes 50 ms: the six enrolled devices' answers land
        # from 1.333 s to 1.338 s, and the unknown device's at 1.340 s.
        world = simnet.World(seed=65, link=simnet.LinkConfig(latency_min=0.05, latency_max=0.05))
        node = world.add_node(simnet.OwnerNode("owner", owner, [1.0]))
        for i, device in enumerate(devices[:6]):
            world.add_node(simnet.ImDeviceNode(f"d{i}", device, t_res=0.233 + 0.001 * i))
        world.add_node(simnet.ImDeviceNode("late", late, t_res=0.24))
        with mock.patch.object(Owner, "_scan_alone", alone):
            world.run_until(1.3385)
            (late_payload,) = world.queued_to(node)
            # Swept with no key for it: its outcome waits in the table.
            assert alone or owner._verdicts[late_payload] == (ImDiscard.FORGED_OR_FOREIGN, None)
            owner._remember(info(32)[:12], late.record.shared_key)  # enrolled: now it opens
            world.run_until(2.0)
        return node.receipts, dict(node.rejects)

    swept, alone = run(False), run(True)
    assert swept == alone and not swept[1]
    assert [r.trials for _, r in swept[0]] == [1, 2, 3, 4, 5, 6, 33]


def _naive_world():
    rng = Random(51)
    owner = Owner(crypto.generate_keypair(rng), Random(52))
    devices = [owner.enroll_naive(info(i), b"inventory image", rng) for i in range(512)]
    world = simnet.World(seed=53, link=simnet.LinkConfig(p_loss=0.05))
    # The second request goes out while answers to the first are in flight.
    node = world.add_node(simnet.OwnerNode("owner", owner, [1.0, 1.243, 2.5, 4.0]))
    for i in sorted(Random(54).sample(range(512), 20)):
        world.add_node(simnet.ImDeviceNode(f"d{i}", devices[i]))
    world.add_node(_ResponseForger("forger", [1.238, 3.0], 6, 130, 55))
    return world, node


def _lkh_world():
    rng = Random(56)
    owner = Owner(crypto.generate_keypair(rng), Random(57))
    fleet = owner.enroll_lkh_fleet([info(i) for i in range(16)], b"inventory image", 2, rng)
    world = simnet.World(seed=58, link=simnet.LinkConfig(p_loss=0.05))
    node = world.add_node(simnet.OwnerNode("owner", owner, [1.0, 2.5, 4.0]))
    for i, device in enumerate(fleet):
        world.add_node(simnet.ImDeviceNode(f"d{i}", device))
    world.add_node(simnet.AdversaryNode(
        "replayer", "replay", Random(59), record_until=1.6, replay_at=[3.3]))
    world.add_node(simnet.AdversaryNode("forger", "forge_request", Random(60), rate=2.0))
    world.add_node(_ResponseForger("junk", [1.238, 3.3], 6, 130 + 4 * 16, 61))
    return world, node


@pytest.mark.parametrize(
    "build, splits",
    [(_naive_world, ()), (_lkh_world, ()), (_naive_world, (1.24, 3.0004))],
    ids=["naive", "lkh-replay-forge", "naive-split-in-flight"],
)
def test_shared_sweeps_match_scanning_each_payload_alone(build, splits, scan_cost):
    def run(alone):
        world, node = build()
        watch = _watch_verdicts(node.owner, world, node)
        scan_cost.clear()
        with mock.patch.object(Owner, "_scan_alone", alone):
            for split in splits:
                world.run_until(split)
                assert world.queued_to(node)  # responses in flight across the split
            metrics = world.run_until(6.0).to_json()
            outputs, sweeps = (node.receipts, dict(node.rejects), metrics), scan_cost["calls"]
            _check_the_table_waits_for_a_new_request(node.owner, watch)
        return outputs, sweeps

    (swept, sweeps), (alone, scans) = run(False), run(True)
    assert swept == alone
    assert sweeps < scans / 2  # the runs did share sweeps
    receipts, rejects, _ = swept
    assert len(receipts) > 40 and rejects.get("forged-or-foreign")
    if build is _lkh_world:
        assert rejects.get("replay")


def test_each_payload_is_decoded_and_walked_once_while_in_flight(monkeypatch):
    """Within a round, the owner decodes and walks a payload at most once
    while a copy of it is in flight; its other copies read the verdict."""
    world, node = _lkh_world()
    owner = node.owner
    decode, retrieve_lkh = wire.decode, keytree.retrieve_lkh
    receive, make_request = owner.receive, owner.make_request
    headers = {}  # id of a decoded header -> (header, payload): walks name no payload
    work = {}  # payload -> Counter of decodes, walks and copies since its first copy queued
    inside = []  # the owner is receiving: other nodes decode too
    settled = Counter()

    def counting_decode(payload):
        if inside:
            work.setdefault(bytes(payload), Counter())["decodes"] += 1
        message = decode(payload)
        if inside:
            headers[id(message.lkh_header)] = (message.lkh_header, bytes(payload))
        return message

    def counting_retrieve_lkh(tree, header, nonce):
        work[headers[id(header)][1]]["walks"] += 1
        return retrieve_lkh(tree, header, nonce)

    def settle(payload):
        counts = work.pop(payload, Counter())
        assert counts["decodes"] <= 1 and counts["walks"] <= 1, counts
        settled.update(counts)

    def checked_receive(payload):
        inside.append(True)
        try:
            result = receive(payload)
        finally:
            inside.pop()
        work.setdefault(payload, Counter())["copies"] += 1
        if payload not in world.queued_to(node):  # its last copy has landed
            settle(payload)
        return result

    def checked_make_request():
        for payload in list(work):  # a new round: every verdict goes
            settle(payload)
        return make_request()

    monkeypatch.setattr(wire, "decode", counting_decode)
    monkeypatch.setattr(keytree, "retrieve_lkh", counting_retrieve_lkh)
    owner.receive, owner.make_request = checked_receive, checked_make_request
    world.run_until(6.0)
    for payload in list(work):
        settle(payload)
    # Some payloads landed twice, and replays and junk were seen.
    assert settled["copies"] > settled["decodes"] >= settled["walks"] > 40
    assert node.rejects.get("replay") and node.rejects.get("forged-or-foreign")


def test_receipt_counters(naive_fleet):
    owner, devices = naive_fleet
    owner.receive(devices[0].respond(owner.make_request()))
    owner.make_request()
    owner.receive(b"IM-RES" + bytes(124))
    assert owner.counters.receipts == 1
    assert owner.counters.rejects.get("forged-or-foreign") == 1


@pytest.mark.parametrize(
    "bad_info",
    [info(0), info(1), b"unit-too-short"],
    ids=["repeated-in-batch", "repeated-last", "short-info"],
)
def test_failed_fleet_enrollment_changes_nothing(bad_info):
    rng = Random(41)
    owner = Owner(crypto.generate_keypair(rng), Random(42))
    with pytest.raises(ValueError):
        owner.enroll_lkh_fleet([info(0), info(1), bad_info], b"img", 2, Random(43))
    assert owner.tree is None and owner.device_ids == [] and owner.key_table == {}
    devices = owner.enroll_lkh_fleet([info(0), info(1), info(2)], b"img", 2, Random(43))
    assert owner.tree.leaf_count == 3
    assert owner.device_ids == [info(i)[:12] for i in range(3)]
    request = owner.make_request()
    assert all(isinstance(owner.receive(dev.respond(request)), ImReceipt) for dev in devices)


def test_failed_naive_enrollment_changes_nothing(naive_fleet):
    owner, _ = naive_fleet
    ids, table = list(owner.device_ids), dict(owner.key_table)
    rng = Random(44)
    for bad_info in (info(3), b"unit-too-short"):
        with pytest.raises(ValueError):
            owner.enroll_naive(bad_info, b"inventory image", rng)
        assert owner.device_ids == ids and owner.key_table == table
    device = owner.enroll_naive(info(12), b"inventory image", rng)
    assert owner.device_ids == [*ids, info(12)[:12]]
    assert isinstance(owner.receive(device.respond(owner.make_request())), ImReceipt)


def test_fleet_enrollment_after_naive_enrollment_is_refused(naive_fleet):
    owner, devices = naive_fleet
    ids, table = list(owner.device_ids), dict(owner.key_table)
    with pytest.raises(ValueError, match="fleet already enrolled"):
        owner.enroll_lkh_fleet([info(20), info(21)], b"inventory image", 2, Random(45))
    assert owner.tree is None and owner.device_ids == ids and owner.key_table == table
    result = owner.receive(devices[5].respond(owner.make_request()))
    assert isinstance(result, ImReceipt) and result.trials == 6


def test_respond_decodes_only_im_requests(naive_fleet, monkeypatch):
    # Fleet devices hear each other's sealed responses; only a frame that
    # can be an owner request is worth decoding.
    owner, devices = naive_fleet
    request = owner.make_request()
    rng = Random(38)
    not_requests = [
        wire.RequestMsg(rng.randbytes(12)).encode(),
        wire.ResponseMsg(
            rng.randbytes(12),
            (rng.randbytes(12),),
            b"ZZzzZZzzZZzzZZ",
            wire.AttReport(wire.ATT_SUCCESS, 1),
            rng.randbytes(64),
        ).encode(),
        devices[1].respond(request),
        request[: wire.IM_REQUEST_LEN - 1],
    ]
    decoded = []
    decode = wire.decode

    def counting_decode(payload):
        decoded.append(payload)
        return decode(payload)

    monkeypatch.setattr(wire, "decode", counting_decode)
    wire.parse_signed.cache_clear()  # device 1's answer above parsed the request
    for payload in not_requests:
        assert devices[0].respond(payload) is None
    assert decoded == []
    assert devices[0].respond(request) is not None
    assert devices[2].respond(request) is not None
    assert decoded == [request]  # two devices answering one request parse it once


def test_respond_answers_alike_with_the_shared_parse_cold_or_warm(naive_fleet):
    owner, devices = naive_fleet
    request = owner.make_request()
    twin = copy.deepcopy(devices[0])
    wire.parse_signed.cache_clear()
    cold = devices[0].respond(request)
    assert cold is not None
    assert twin.respond(bytearray(request)) == cold  # warm
    assert owner.receive(cold).device_id == owner.device_ids[0]


def test_a_device_builds_its_generator_at_its_first_response(monkeypatch):
    built = []

    class CountingRandom(Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(inventory, "Random", CountingRandom)
    rng = Random(81)
    owner = Owner(crypto.generate_keypair(rng), Random(82))
    devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(1000)]
    assert built == []
    request = owner.make_request()
    assert devices[7].respond(request) is not None
    assert len(built) == 1
    assert devices[7].respond(request) is not None
    assert len(built) == 1


def test_each_device_attests_against_its_own_image():
    # The owner reuses the last image's digest only while the next image
    # compares equal, so alternating images, one of them a bytearray that
    # changes between enrollments, still give every device its own hash.
    rng = Random(91)
    owner = Owner(crypto.generate_keypair(rng), Random(92))
    images = [b"image A" * 40, bytearray(b"image B" * 40)]
    devices = [owner.enroll_naive(info(i), images[i % 2], rng) for i in range(4)]
    expected = [crypto.hash_image(bytes(images[i % 2])) for i in range(4)]
    images[1][0] ^= 1
    devices.append(owner.enroll_naive(info(4), images[1], rng))
    expected.append(crypto.hash_image(bytes(images[1])))
    assert [device.record.software_hash for device in devices] == expected
    assert expected[3] != expected[4]

    devices[2].memory_image[0] ^= 1
    request = owner.make_request()
    results = [owner.receive(device.respond(request)).att_result for device in devices]
    assert results == [wire.ATT_SUCCESS, wire.ATT_SUCCESS, wire.ATT_FAIL] + [wire.ATT_SUCCESS] * 2


def test_enrollment_hashes_one_image_once_and_builds_no_counters(monkeypatch):
    rng = Random(93)
    owner = Owner(crypto.generate_keypair(rng), Random(94))
    hashed, built = [], []
    hash_image = crypto.hash_image

    def counting_hash(image):
        hashed.append(image)
        return hash_image(image)

    class CountingCounters(inventory.Counters):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(crypto, "hash_image", counting_hash)
    monkeypatch.setattr(inventory, "Counters", CountingCounters)
    devices = [owner.enroll_naive(info(i), b"img", rng) for i in range(1000)]
    assert hashed == [b"img"]
    assert built == []
    assert devices[7].respond(owner.make_request()) is not None
    assert len(built) == 1 and built[0] is devices[7].counters
    assert devices[7].counters.responses == 1
