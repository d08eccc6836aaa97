"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test registers a PASS line (with its runtime) that the conftest
summary hook prints at the end of the run; a criterion that fails or
errors shows up there as FAIL.
"""

import math
import time
from random import Random

import pytest

import conftest
from conftest import DevicePump
from pulldisc import analytics, crypto, keytree, registration, scenario, wire
from pulldisc.agent import DeviceReport, DiscardReason, ReportSource, UserAgent
from pulldisc.device import Device, TimerKind, Transmit
from pulldisc.inventory import ImDiscard, ImReceipt, Owner, build_device_info
from pulldisc import simnet

IMAGE = b"\x7fELF firmware image" * 64

conftest.ACCEPTANCE_EXPECTED.update(range(1, 15))


@pytest.fixture
def accept():
    """Yields a recorder; the test body runs inside the timed window."""
    start = time.perf_counter()

    def record(number: int, text: str) -> None:
        elapsed = time.perf_counter() - start
        conftest.ACCEPTANCE_RESULTS[number] = (
            f"PASS criterion {number:2d} ({elapsed:6.2f}s): {text}"
        )

    return record


def provision_one(seed=1, t_att=300.0, t_gen=1.0, pool_max=129):
    rng = Random(seed)
    mfr = crypto.generate_keypair(rng)
    store = registration.ManifestStore()
    descriptor = registration.DeviceDescriptor(
        "camera", ("video",), "1.0", "lobby", IMAGE, "https://devices.example/1"
    )
    record = registration.provision_db_device(
        mfr, descriptor, t_att=t_att, t_gen=t_gen, pool_max=pool_max, store=store, rng=rng
    )
    return mfr, store, record


def test_criterion_1_wire_exactness(accept):
    rng = Random(1)
    assert len(wire.RequestMsg(rng.randbytes(12)).encode()) == 18
    att = wire.AttReport(wire.ATT_SUCCESS, 1)

    def response(count):
        return wire.ResponseMsg(
            rng.randbytes(12),
            tuple(rng.randbytes(12) for _ in range(count)),
            b"ab0123456789Cd",
            att,
            rng.randbytes(64),
        )

    assert len(response(1).encode()) == 114
    assert len(response(129).encode()) == 1650
    with pytest.raises(wire.CapacityError):
        response(130)
    accept(1, "request 18 B, response 114 B (1 nonce) / 1650 B (129), 130 rejected")


def test_criterion_2_usage_grid_push_column(accept):
    model = analytics.CostModel(t_ann=0.235)
    expected = {1: 19.03, 2: 10.51, 3: 7.26, 4: 5.55, 5: 4.49}
    for interval, target in expected.items():
        got = 100.0 * analytics.ubusy_push(model, float(interval), "inclusive")
        assert abs(got - target) <= 0.01, (interval, got, target)
    accept(2, "inclusive push column 19.03/10.51/7.26/5.55/4.49 within 0.01 pp")


def test_criterion_3_simulator_matches_formula(accept):
    config = scenario.ScenarioConfig.from_dict(
        {
            "seed": 33,
            "horizon": 7200.0,
            "devices": [{"name": "dev0", "t_gen": 0.0, "t_res": 0.233}],
            "users": [
                {"name": "user0", "arrival": {"kind": "periodic", "interval": 10.0, "start": 10.0}}
            ],
        }
    )
    built, report = scenario.run_scenario(config)
    busy = report.metrics.per_node["dev0"].busy_seconds
    measured_pct = 100.0 * busy / 7200.0
    predicted_pct = 100.0 * analytics.ubusy_pull(analytics.CostModel(), 10.0, "exclusive")
    assert abs(measured_pct - predicted_pct) <= 0.1
    accept(3, f"measured busy {measured_pct:.3f}% vs formula {predicted_pct:.2f}% (±0.1 pp)")


def test_criterion_4_lazy_response_pooling(accept):
    config = scenario.ScenarioConfig.from_dict(
        {
            "seed": 44,
            "horizon": 12.0,
            "devices": [{"name": "dev0", "t_gen": 1.0, "pool_max": 129}],
            "users": [
                {
                    "name": "user0",
                    "arrival": {"kind": "burst", "start": 1.0, "count": 1000},
                    "scan_window": 11.0,
                }
            ],
        }
    )
    built, _report = scenario.run_scenario(config, capture_frames=True)
    responses, sent = {}, []
    for _, sender, frame in built.world.captured:
        if frame.payload.startswith(wire.ID_RESPONSE):
            responses[frame.payload] = wire.decode(frame.payload)
        elif sender == "user0":
            sent.append(wire.decode(frame.payload).nonce)
    assert len(responses) == 8  # ceil(1000 / 129)
    assert len(sent) == 1000
    pooled = [n for msg in responses.values() for n in msg.pooled_nonces]
    for nonce in sent:  # brute-force coverage check, one by one
        assert pooled.count(nonce) == 1
    assert len(pooled) == 1000
    accept(4, "burst of 1000 -> exactly 8 responses, every nonce answered once")


def _honest_exchange(agent, device, pump, at):
    payload, pending = agent.make_request(at)
    pump.frame(payload, at=at)
    pump.run_until(at + 0.5)
    return pending, pump.transmissions[-1][1]


def test_criterion_5_verification_chain(accept):
    mfr, store, record = provision_one(seed=5, t_gen=0.0)
    agent = UserAgent((mfr.public_key,), store, Random(55))
    device = Device(record, IMAGE, Random(56))
    pump = DevicePump(device)

    rounds = 10_000
    t = 1.0
    exchanges = []
    for i in range(rounds):
        pending, response = _honest_exchange(agent, device, pump, t)
        report = agent.on_response(pending, response, t + 0.4)
        assert isinstance(report, DeviceReport) and report.verified
        if len(exchanges) < 64:
            exchanges.append((pending, response))
        t += 1.0

    manifest_bytes, manifest_sig = store.get(record.url)
    cert_start = manifest_bytes.index(b'"device_certificate"')
    cert_end = manifest_bytes.index(b'"device_public_key"')
    mutation_rng = Random(57)
    false_accepts = 0
    for i in range(rounds):
        pending, response = exchanges[i % len(exchanges)]
        kind = i % 3
        if kind == 0:  # message byte
            mutated = bytearray(response)
            mutated[mutation_rng.randrange(len(mutated))] ^= 1 << mutation_rng.randrange(8)
            result = agent.on_response(pending, bytes(mutated), 1.0)
        else:
            tampered = bytearray(manifest_bytes)
            if kind == 1:  # anywhere in the manifest
                offset = mutation_rng.randrange(len(tampered))
            else:  # inside the certificate fields
                offset = mutation_rng.randrange(cert_start, cert_end)
            tampered[offset] ^= 1 << mutation_rng.randrange(8)
            bad_store = registration.ManifestStore()
            bad_store.put(record.url, bytes(tampered), manifest_sig)
            bad_agent = UserAgent((mfr.public_key,), bad_store, mutation_rng)
            result = bad_agent.on_response(pending, response, 1.0)
        if isinstance(result, DeviceReport):
            false_accepts += 1
    assert false_accepts == 0
    accept(5, f"{rounds} honest rounds all verified; {rounds} tampered rounds, 0 false accepts")


def test_criterion_6_replay_rejection(accept):
    mfr, store, record = provision_one(seed=6, t_gen=0.0)
    agent = UserAgent((mfr.public_key,), store, Random(66))
    device = Device(record, IMAGE, Random(67))
    pump = DevicePump(device)

    recorded = []
    t = 1.0
    for _ in range(100):
        pending, response = _honest_exchange(agent, device, pump, t)
        recorded.append(response)
        t += 1.0
    _, fresh = agent.make_request(t + 1.0)  # nonce rotated
    outcomes = {agent.on_response(fresh, r, t + 2.0) for r in recorded}
    assert outcomes == {DiscardReason.STALE_OR_REPLAY}

    for mode in ("naive", "lkh"):
        rng = Random(68)
        owner = Owner(crypto.generate_keypair(rng), Random(69))
        infos = [build_device_info(f"unit-{i:07d}".encode(), 1, 1) for i in range(20)]
        if mode == "lkh":
            devices = owner.enroll_lkh_fleet(infos, IMAGE, 2, rng)
        else:
            devices = [owner.enroll_naive(info, IMAGE, rng) for info in infos]
        request = owner.make_request()
        stale = [dev.respond(request) for dev in devices]
        owner.make_request()  # rotate
        results = {owner.receive(s) for s in stale}
        assert results == {ImDiscard.REPLAY}, mode
    accept(6, "100% stale-or-replay (discovery), 100% replay (inventory, both modes)")


def test_criterion_7_lkh_oracle_equivalence(accept):
    rng = Random(7)
    trials = 0
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        for p in (2, 4, 8):
            tree = keytree.build_tree(n, p, rng)
            bound = (p - 1) * math.ceil(math.log(n, p))
            leaf_keys = [tree.leaf_key(i) for i in range(n)]
            for _ in range(100):
                device = rng.randrange(n)
                nonce = rng.randbytes(12)
                header = keytree.build_header(
                    keytree.device_key_vector(tree, device), nonce
                )
                iv = rng.randbytes(12)
                sealed = crypto.aead_seal(leaf_keys[device], iv, nonce + bytes(84))
                via_tree, evals = keytree.retrieve_lkh(tree, header, nonce)
                (via_scan,), _ = keytree.retrieve_naive(leaf_keys, [(iv, sealed, b"")])
                assert via_tree == device == via_scan
                assert evals <= max(bound, tree.height * (p - 1))
                assert evals <= (p - 1) * tree.height
                trials += 1
    accept(7, f"{trials} retrievals: tree walk == constructing device == naive scan")


def test_criterion_8_storage_counts(accept):
    rng = Random(8)
    c2 = keytree.storage_counts(keytree.build_tree(256, 2, rng))
    assert (c2.device_keys, c2.owner_keys, c2.header_bytes) == (8, 510, 128)
    c4 = keytree.storage_counts(keytree.build_tree(256, 4, rng))
    assert (c4.device_keys, c4.owner_keys, c4.header_bytes) == (4, 340, 64)
    accept(8, "counts (8, 510, 128) at arity 2 and (4, 340, 64) at arity 4, exact")


def test_criterion_9_naive_brute_force_at_scale(accept):
    rng = Random(9)
    n = 1_000_000
    keys = [rng.randbytes(16) for _ in range(n)]
    scanned = 0
    elapsed = 0.0
    for trial in range(20):
        target = rng.randrange(n)
        iv = rng.randbytes(12)
        sealed = crypto.aead_seal(keys[target], iv, bytes(96))
        t0 = time.perf_counter()
        (index,), trials = keytree.retrieve_naive(keys, [(iv, sealed, b"")])
        elapsed += time.perf_counter() - t0
        scanned += trials
        assert index == target
    rate = scanned / elapsed
    full_scan_ms = 1000.0 * n / rate
    # Informational only: throughput is environment-dependent. The analytic
    # reference for a million-key scan on a 2 GHz core is on the order of
    # tens of milliseconds with hardware GCM.
    accept(
        9,
        f"20/20 correct among 10^6 keys; {rate:,.0f} trials/s "
        f"(~{full_scan_ms:,.0f} ms per full scan; analytic reference ~32 ms)",
    )


def test_criterion_10_inventory_unlinkability(accept):
    rng = Random(10)
    owner = Owner(crypto.generate_keypair(rng), Random(101))
    infos = [build_device_info(f"unit-{i:07d}".encode(), 2, 1) for i in range(100)]
    devices = owner.enroll_lkh_fleet(infos, IMAGE, 2, rng)

    world = simnet.World(seed=1010, link=simnet.LinkConfig(randomize_addresses=True),
                         capture_frames=True)
    owner_node = world.add_node(
        simnet.OwnerNode("owner", owner, [0.5 * (k + 1) for k in range(50)])
    )
    for i, dev in enumerate(devices):
        world.add_node(simnet.ImDeviceNode(f"imdev{i:03d}", dev))
    world.run_until(30.0)

    response_frames = [
        frame for _, _, frame in world.captured
        if frame.payload.startswith(wire.ID_IM_RESPONSE)
    ]
    assert len(response_frames) == 5000  # 100 devices x 50 rounds
    assert len({len(f.payload) for f in response_frames}) == 1
    pairs = {(wire.decode(f.payload).iv, wire.decode(f.payload).sealed) for f in response_frames}
    assert len(pairs) == 5000
    assert len({f.src_addr for f in response_frames}) == 5000
    assert len(owner_node.receipts) == 5000  # every response identified
    accept(10, "5000 frames: uniform size, no repeated (iv, ciphertext), no repeated address")


def test_criterion_11_radio_silence_and_push_bandwidth(accept):
    quiet = scenario.ScenarioConfig.from_dict(
        {
            "seed": 111,
            "horizon": 86400.0,
            "devices": [{"name": "dev0", "mode": "pull", "t_gen": 1.0}],
        }
    )
    _, report = scenario.run_scenario(quiet)
    assert report.metrics.per_node["dev0"].tx_bytes == 0
    assert report.metrics.per_node["dev0"].tx_frames == 0

    push = scenario.ScenarioConfig.from_dict(
        {
            "seed": 112,
            "horizon": 86400.0,
            "devices": [
                {
                    "name": "dev0",
                    "mode": "push",
                    "announce_interval": 1.0,
                    "announce_wire_size": 128,
                }
            ],
        }
    )
    _, report = scenario.run_scenario(push)
    bps = 8.0 * report.metrics.per_node["dev0"].tx_bytes / 86400.0
    predicted = analytics.bandwidth_push(announcement_size=128, push_interval=1.0)
    assert predicted == 1024.0
    assert abs(bps - predicted) / predicted <= 0.01
    accept(11, f"24 h pull with no requests: 0 bytes; push at 1 s/128 B: {bps:.1f} bps")


def test_criterion_12_flood_resilience(accept):
    def flood_config(cap):
        devices = [{"name": "dev0", "t_gen": 1.0, "pool_max": 129}]
        if cap is not None:
            devices[0]["pool_tmp_cap"] = cap
        return scenario.ScenarioConfig.from_dict(
            {
                "seed": 122,
                "horizon": 60.0,
                "devices": devices,
                "adversaries": [
                    {"name": "adv", "behavior": "flood", "rate": 1000.0, "stop": 60.0}
                ],
            }
        )

    built = scenario.build_world(flood_config(None))
    counters = built.device_nodes[0].device.counters
    bound = math.ceil(1000 / 129) + 1  # responses per second
    for second in range(1, 61):
        before = counters.responses
        built.world.run_until(float(second))
        assert counters.responses - before <= bound, (second, counters.responses - before)
    assert counters.responses > 0

    built, _ = scenario.run_scenario(flood_config(2 * 129))
    dev = built.device_nodes[0].device
    assert dev.counters.pool_tmp_peak <= 2 * 129
    assert dev.counters.dropped_nonces > 0
    accept(12, f"response rate <= {bound}/s under 1000 req/s; overflow capped at 258")


def test_criterion_13_attestation_cadence(accept):
    config = scenario.ScenarioConfig.from_dict(
        {
            "seed": 133,
            "horizon": 3600.0,
            "devices": [{"name": "dev0", "t_att": 300.0, "t_gen": 1.0}],
            "users": [
                {"name": "user0", "arrival": {"kind": "periodic", "interval": 50.0, "start": 7.0}}
            ],
        }
    )
    built = scenario.build_world(config, capture_frames=True)
    device = built.device_nodes[0].device

    def tamper(_now):
        device.memory_image[0] ^= 0xFF

    built.world.schedule_action(1700.0, tamper)
    metrics = built.world.run_until(config.horizon)
    assert metrics.per_node["dev0"].attestations == 12

    seen = set()
    for at, _, frame in built.world.captured:
        if not frame.payload.startswith(wire.ID_RESPONSE) or frame.payload in seen:
            continue
        seen.add(frame.payload)
        msg = wire.decode(frame.payload)
        assert msg.att_report.seconds_since <= 301
        if at < 1700.0:
            assert msg.att_report.result == wire.ATT_SUCCESS
        elif at > 1802.0:  # tamper detected by the attestation at t = 1800
            assert msg.att_report.result == wire.ATT_FAIL
    assert seen
    accept(13, "12 attestations in 1 h; ages <= 301 s; tamper flips results to fail")


def test_criterion_14_blending(accept):
    config = scenario.ScenarioConfig.from_dict(
        {
            "seed": 144,
            "horizon": 60.0,
            "devices": [
                {
                    "name": "dev0",
                    "mode": "blend",
                    "t_gen": 1.0,
                    "blend": {
                        "switch_threshold": 5,
                        "window": 2.0,
                        "push_period": 20.0,
                        "announce_interval": 2.0,
                    },
                }
            ],
            "users": [
                {
                    "name": "watcher",
                    "arrival": {"kind": "periodic", "interval": 40.0, "start": 5.0, "count": 1},
                    "scan_window": 35.0,
                },
                {
                    "name": "crowd",
                    "arrival": {"kind": "burst", "start": 10.0, "count": 8},
                    "scan_window": 10.0,
                },
            ],
        }
    )
    built, _ = scenario.run_scenario(config)
    device = built.device_nodes[0].device
    expected = math.floor(20.0 / 2.0)
    assert abs(device.counters.announcements - expected) <= 1
    assert device.push_until is None  # reverted to pull behavior

    watcher = built.agent_nodes[0]
    sources = {r.source for r in watcher.reports}
    assert sources == {ReportSource.RESPONSE, ReportSource.ANNOUNCEMENT}
    assert all(r.verified for r in watcher.reports)
    crowd = built.agent_nodes[1]
    assert crowd.reports and all(r.verified for r in crowd.reports)
    accept(
        14,
        f"threshold crossing triggered {device.counters.announcements} announcements "
        f"(expected {expected} ±1), then reverted; both sub-modes verified in one scan",
    )
