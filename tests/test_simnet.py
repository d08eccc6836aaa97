"""Simulator behavior: delivery, loss, ordering, determinism, adversaries."""

import collections
import functools
import heapq
import inspect
import itertools
import json
import math
import tracemalloc
import types
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulldisc import agent, crypto, registration, scenario, simnet, wire
from pulldisc import device as device_mod
from pulldisc.agent import DiscardReason
from pulldisc.inventory import Owner, build_device_info


class Sink(simnet.Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle_deliver(self, frame, now):
        self.received.append((now, frame))


def test_broadcast_reaches_every_other_node():
    world = simnet.World(seed=1)
    a, b, c = (world.add_node(Sink(n)) for n in "abc")
    world.broadcast("a", b"DP-REQ" + bytes(12), 0.0)
    world.run_until(1.0)
    assert len(b.received) == 1 and len(c.received) == 1
    assert a.received == []


def test_a_repeated_node_name_is_refused():
    world = simnet.World(seed=1)
    first = world.add_node(Sink("a"))
    with pytest.raises(ValueError, match="duplicate node name 'a'"):
        world.add_node(Sink("a"))
    assert world.nodes == {"a": first} and list(world.metrics.per_node) == ["a"]


def test_total_loss_delivers_nothing():
    world = simnet.World(seed=1, link=simnet.LinkConfig(p_loss=1.0))
    world.add_node(Sink("a"))
    sink = world.add_node(Sink("b"))
    world.broadcast("a", b"x", 0.0)
    world.run_until(1.0)
    assert sink.received == []
    assert world.metrics.frames_dropped == 1


def test_loss_rate_within_binomial_band():
    """10^4 frames at 10 % loss: deliveries within 3 sigma of 9000."""
    world = simnet.World(seed=7, link=simnet.LinkConfig(p_loss=0.1))
    world.add_node(Sink("tx"))
    sink = world.add_node(Sink("rx"))
    for i in range(10_000):
        world.broadcast("tx", b"y", float(i))
    world.run_until(20_000.0)
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    assert abs(len(sink.received) - 9000) <= 3 * sigma


def test_latency_band_and_causality():
    world = simnet.World(seed=3)
    world.add_node(Sink("tx"))
    sink = world.add_node(Sink("rx"))
    for i in range(100):
        world.broadcast("tx", b"z", float(i))
    world.run_until(200.0)
    for sent, (received_at, _) in zip(range(100), sorted(sink.received)):
        assert 0.001 <= received_at - sent <= 0.010


def test_payload_over_budget_rejected():
    world = simnet.World(seed=4)
    world.add_node(Sink("a"))
    with pytest.raises(wire.CapacityError):
        world.broadcast("a", bytes(1651), 0.0)


def test_a_bytes_like_payload_reaches_every_receiver_as_bytes():
    world = simnet.World(seed=1, capture_frames=True)
    world.add_node(Sink("tx"))
    sink = world.add_node(Sink("rx"))
    user = agent.UserAgent((), registration.ManifestStore(), Random(2))
    node = world.add_node(simnet.AgentNode("user", user, simnet.ArrivalModel("burst", count=1)))
    payload = b"DP-RES" + bytes(120)
    world.broadcast("tx", bytearray(payload), 0.0)
    world.run_until(1.0)
    ((_, frame),) = [(t, f) for t, f in sink.received if f.payload.startswith(wire.ID_RESPONSE)]
    assert type(frame.payload) is bytes and frame.payload == payload
    assert [(sender, type(f.payload)) for _, sender, f in world.captured][0] == ("tx", bytes)
    assert node.discards == {"malformed": 1}


def test_retransmit_schedule_and_byte_accounting():
    world = simnet.World(seed=5)
    world.add_node(Sink("dev"))
    sink = world.add_node(Sink("usr"))
    payload = bytes(114)
    world.retransmit("dev", payload, 1.0)
    world.run_until(2.0)
    assert len(sink.received) == 10
    times = sorted(t for t, _ in sink.received)
    for k in range(10):
        assert times[k] == pytest.approx(1.0 + 0.030 * k, abs=0.010)
    assert world.metrics.per_node["dev"].tx_bytes == 10 * 114


class _TimerLog:
    """Device stand-in that logs what it handles; boots one timer of each
    kind at t = 1.0, in reverse priority order."""

    pools_until = -math.inf  # opens no window: every copy is queued to it

    def __init__(self, log):
        self.log = log
        self.counters = device_mod.Counters()

    def boot(self, now):
        return [device_mod.SetTimer(kind, 1.0) for kind in reversed(device_mod.TimerKind)]

    def on_frame(self, payload, now):
        self.log.append(("deliver", now))
        return []

    def on_timer(self, kind, at):
        self.log.append((kind, at))
        return []


def test_events_at_one_time_run_deliveries_then_timers_then_actions():
    log = []
    world = simnet.World(seed=1, link=simnet.LinkConfig(latency_min=0.5, latency_max=0.5))
    world.add_node(Sink("tx"))
    world.add_node(simnet.DeviceNode("dev", _TimerLog(log)))
    # Queued before the delivery and the timers, so only priority can order them.
    world.schedule_action(1.0, lambda now: log.append(("action", now)))
    world.broadcast("tx", b"x", 0.5)
    world.run_until(2.0)
    kinds = device_mod.TimerKind
    assert log == [
        ("deliver", 1.0),
        (kinds.GEN_COMPLETE, 1.0),
        (kinds.GEN_DEADLINE, 1.0),
        (kinds.ATTEST, 1.0),
        (kinds.ANNOUNCE, 1.0),
        ("action", 1.0),
    ]


@pytest.mark.parametrize(
    "arrival, times, next_draw",
    [
        pytest.param(simnet.ArrivalModel("periodic", interval=2.5, start=1.0, count=4),
                     [1.0, 3.5, 6.0, 8.5], 0.32383276483316237, id="periodic"),
        pytest.param(simnet.ArrivalModel("poisson", interval=3.0),
                     [1.173944532704413, 1.6644999037208474, 4.821986757933628,
                      5.047568137653465, 7.350417511718705], 0.36568891691258554, id="poisson"),
        pytest.param(simnet.ArrivalModel("poisson", interval=3.0, start=2.0, count=3),
                     [3.1739445327044127, 3.664499903720847, 6.821986757933628],
                     0.5358820043066892, id="poisson-capped"),
        pytest.param(simnet.ArrivalModel("burst", start=4.0, count=3),
                     [4.0, 4.0, 4.0], 0.32383276483316237, id="burst"),
    ],
)
def test_arrival_times(arrival, times, next_draw):
    # `next_draw` is the generator's next value once the first five times
    # are taken: it pins the Poisson draw order (one draw at `start`, then
    # one after each time) and that the other kinds draw nothing.
    rng = Random(7)
    assert list(itertools.islice(arrival.times(rng), 5)) == times
    assert rng.random() == next_draw


def test_address_randomization_per_frame():
    world = simnet.World(seed=6)
    world.add_node(Sink("dev"))
    sink = world.add_node(Sink("usr"))
    for i in range(50):
        world.broadcast("dev", b"q", float(i))
    world.run_until(100.0)
    addrs = {f.src_addr for _, f in sink.received}
    uuids = {f.uuid for _, f in sink.received}
    assert len(addrs) == 50 and len(uuids) == 50


def test_static_addresses_when_randomization_off():
    world = simnet.World(seed=6, link=simnet.LinkConfig(randomize_addresses=False))
    world.add_node(Sink("dev"))
    sink = world.add_node(Sink("usr"))
    for i in range(5):
        world.broadcast("dev", b"q", float(i))
    world.run_until(100.0)
    assert len({f.src_addr for _, f in sink.received}) == 1


def _hotel_config(**overrides):
    doc = {
        "seed": 99,
        "horizon": 120.0,
        "mode": "db",
        "devices": [{"name": "dev0", "t_gen": 1.0, "t_att": 300.0}],
        "users": [
            {"name": "user0", "arrival": {"kind": "periodic", "interval": 20.0, "start": 3.0}}
        ],
    }
    doc.update(overrides)
    return scenario.ScenarioConfig.from_dict(doc)


def test_determinism_byte_identical_metrics():
    run1 = scenario.run_scenario(_hotel_config())[1]
    run2 = scenario.run_scenario(_hotel_config())[1]
    assert run1.metrics.to_json() == run2.metrics.to_json()
    assert run1.to_json() == run2.to_json()


@pytest.mark.parametrize("horizon, split", [(120.0, 60.0), (600.0, 233.7)])
def test_split_run_matches_one_run(horizon, split):
    # A second run_until continues the run; it must not restart the nodes.
    doc = json.loads((Path(__file__).parent.parent / "scenarios" / "hotel.json").read_text())
    doc["horizon"] = horizon
    config = scenario.ScenarioConfig.from_dict(doc)
    whole = scenario.run_scenario(config)[1].metrics
    built = scenario.build_world(config)
    built.world.run_until(split)
    metrics = built.world.run_until(horizon)
    assert metrics.to_json() == whole.to_json()


@functools.cache
def _hotel_metrics_json() -> str:
    doc = json.loads((Path(__file__).parent.parent / "scenarios" / "hotel.json").read_text())
    return scenario.run_scenario(scenario.ScenarioConfig.from_dict(doc))[1].metrics.to_json()


@given(st.floats(0.0, 600.0, exclude_min=True, exclude_max=True))
@settings(max_examples=5, deadline=None)
def test_split_anywhere_matches_one_run(split):
    doc = json.loads((Path(__file__).parent.parent / "scenarios" / "hotel.json").read_text())
    built = scenario.build_world(scenario.ScenarioConfig.from_dict(doc))
    built.world.run_until(split)
    metrics = built.world.run_until(doc["horizon"])
    assert metrics.to_json() == _hotel_metrics_json()


def test_run_until_rejects_a_horizon_before_now():
    world = simnet.World(seed=1)
    world.add_node(Sink("a"))
    world.run_until(10.0)
    with pytest.raises(ValueError):
        world.run_until(5.0)
    assert world.now == 10.0
    world.run_until(10.0)  # the current time itself is allowed
    assert world.now == 10.0


class _StartLog(simnet.Node):
    def __init__(self, name):
        super().__init__(name)
        self.starts = []

    def start(self, now):
        self.starts.append(now)


def test_nodes_start_once_even_when_added_mid_run():
    world = simnet.World(seed=1)
    first = world.add_node(_StartLog("first"))
    world.run_until(5.0)
    late = world.add_node(_StartLog("late"))
    world.run_until(10.0)
    assert first.starts == [0.0] and late.starts == [5.0]


@pytest.mark.parametrize("at", [1.0, math.nan], ids=["past", "nan"])
def test_schedule_action_refuses_a_time_before_now(at):
    world = simnet.World(seed=1)
    world.run_until(5.0)
    calls = []
    with pytest.raises(ValueError):
        world.schedule_action(at, calls.append)
    world.run_until(10.0)
    assert calls == [] and world.now == 10.0


def _owner(seed=5):
    return Owner(crypto.generate_keypair(Random(seed)), Random(seed + 1))


@pytest.mark.parametrize(
    "round_times", [[math.nan, 1.0], [-1.0], [math.inf], [True], ["1.0"], 5, None],
    ids=["nan", "negative", "infinite", "bool", "string", "not-a-list", "none"],
)
def test_owner_refuses_bad_round_times(round_times):
    with pytest.raises(ValueError, match="round_times"):
        simnet.OwnerNode("owner", _owner(), round_times)


def test_inventory_device_refuses_a_negative_t_res():
    device = _owner().enroll_naive(build_device_info(b"unit-0000001", 1, 1), b"image", Random(7))
    with pytest.raises(ValueError):
        simnet.ImDeviceNode("d", device, t_res=-0.5)


def test_replayer_joining_after_its_replay_time_is_refused():
    world = simnet.World(seed=1)
    world.add_node(Sink("a"))
    world.run_until(5.0)
    owner = _owner()
    state = lambda: (list(world.nodes), list(world.metrics.per_node), len(world._queue))
    before = state()
    # Any time already past refuses the join, wherever the list puts it,
    # and the refused node leaves nothing behind.
    for late in (simnet.AdversaryNode("adv", "replay", Random(1), replay_at=[1.0]),
                 simnet.AdversaryNode("adv", "replay", Random(1), replay_at=[6.0, 2.0]),
                 simnet.OwnerNode("owner", owner, [9.0, 1.0])):
        with pytest.raises(ValueError):
            world.add_node(late)
        assert state() == before
    world.add_node(simnet.AdversaryNode("adv", "replay", Random(1), replay_at=[6.0]))
    world.run_until(10.0)
    assert owner.counters.signatures == 0


def test_seed_changes_change_the_run():
    run1 = scenario.run_scenario(_hotel_config())[1]
    run2 = scenario.run_scenario(_hotel_config(seed=100))[1]
    assert run1.metrics.to_json() != run2.metrics.to_json()


def test_attestation_count_one_hour():
    config = _hotel_config(horizon=3600.0, users=[])
    built, report = scenario.run_scenario(config)
    assert report.metrics.per_node["dev0"].attestations == 12


def test_conservation_lossless_single_domain():
    config = _hotel_config()
    built, report = scenario.run_scenario(config)
    metrics = report.metrics
    total_tx_frames = sum(m.tx_frames for m in metrics.per_node.values())
    total_rx_frames = sum(m.rx_frames for m in metrics.per_node.values())
    assert total_rx_frames == total_tx_frames * (len(metrics.per_node) - 1)
    assert metrics.frames_dropped == 0


def test_agent_receives_and_dedups():
    built, report = scenario.run_scenario(_hotel_config())
    node = built.agent_nodes[0]
    assert len(node.reports) == 6  # 6 rounds; retransmitted copies are not reported again
    assert len(agent.dedup(node.reports)) == 6
    assert node.discards == {}
    assert len(node.latencies) == 6  # one per report, not per copy
    assert all(lat >= 1.0 for lat in node.latencies)  # response delay floor


def test_response_pooling_two_requests_credits_both(monkeypatch):
    config = _hotel_config(
        users=[
            {"name": "user0", "arrival": {"kind": "periodic", "interval": 0.2, "start": 3.0, "count": 2}}
        ],
    )
    decoded = []
    real_decode = wire.decode

    def counted_decode(payload):
        if payload.startswith(wire.ID_RESPONSE):
            decoded.append(payload)
        return real_decode(payload)

    monkeypatch.setattr(wire, "decode", counted_decode)
    wire.parse_signed.cache_clear()  # an earlier test may have decoded the same payload
    built, report = scenario.run_scenario(config)
    node = built.agent_nodes[0]
    assert built.device_nodes[0].device.counters.responses == 1  # one response pools both
    assert len(decoded) == 1  # decoded once for both reports
    assert len(node.reports) == 2
    assert len(node.latencies) == 2
    assert max(node.latencies) - min(node.latencies) == pytest.approx(0.2)


def test_receive_state_stays_bounded_over_an_hour():
    doc = json.loads((Path(__file__).parent.parent / "scenarios" / "hotel.json").read_text())
    doc["horizon"] = 3600.0
    built = scenario.build_world(scenario.ScenarioConfig.from_dict(doc))
    world = built.world
    peaks = {"pending": 0, "manifests": 0, "handled": 0}

    def sample(now):
        for node in built.agent_nodes:
            peaks["pending"] = max(peaks["pending"], len(node.pending))
            peaks["manifests"] = max(peaks["manifests"], len(node.agent._manifests))
            peaks["handled"] = max(peaks["handled"], len(node.handled))
        world.schedule_action(now + 0.5, sample)

    world.schedule_action(0.0, sample)
    world.run_until(3600.0)
    sent = sum(node.counters.tx_frames for node in built.agent_nodes)
    reports = sum(len(agent.dedup(node.reports)) for node in built.agent_nodes)
    assert sent > 150 and reports > 150
    assert peaks["pending"] <= 4
    for node in built.agent_nodes:  # manifest verdicts are the agent's only store
        stores = [n for n, v in vars(node.agent).items() if isinstance(v, (dict, list, set))]
        assert stores == ["_manifests"]
    assert peaks["handled"] <= 12
    assert peaks["manifests"] == len(built.device_nodes)


# Run outputs grow with the horizon by design; everything else must not.
_RUN_OUTPUTS = {"reports", "latencies", "discards"}


def _container_sizes(node: simnet.AgentNode) -> dict[str, int]:
    sizes = {}
    for owner, obj in (("node", node), ("agent", node.agent)):
        for name, value in vars(obj).items():
            if name not in _RUN_OUTPUTS and isinstance(value, (list, tuple, dict, set)):
                sizes[f"{owner}.{name}"] = len(value)
    return sizes


def test_receive_state_stays_bounded_over_a_day():
    # One push device announcing every 30 s to a user whose requests
    # overlap, so some request is always pending when an announcement lands.
    hour, day = 3600.0, 86400.0
    config = _hotel_config(
        horizon=day,
        devices=[{"name": "pusher", "mode": "push", "announce_interval": 30.0}],
        users=[
            {
                "name": "user0",
                "arrival": {"kind": "periodic", "interval": 20.0, "start": 1.5},
                "scan_window": 60.0,
            }
        ],
    )
    built = scenario.build_world(config)
    world, node = built.world, built.agent_nodes[0]
    peaks: dict[str, dict[str, int]] = {"first hour": {}, "last hour": {}}

    def sample(now):
        peak = peaks["first hour" if now <= hour else "last hour"]
        for name, size in _container_sizes(node).items():
            peak[name] = max(peak.get(name, 0), size)
        if now + 0.5 <= hour or now + 0.5 >= day - hour:
            world.schedule_action(now + 0.5, sample)
        else:
            world.schedule_action(day - hour, sample)

    world.schedule_action(0.0, sample)
    world.run_until(day)
    assert {"node.pending", "node.handled", "agent._manifests"} <= set(
        peaks["first hour"]
    )
    assert len(node.reports) > 2000  # announcements kept arriving all day
    for name, first in peaks["first hour"].items():
        assert peaks["last hour"][name] <= first, name


def test_replayed_announcement_with_its_anchor_pending_is_not_reported_again():
    config = _hotel_config(
        horizon=20.0,
        devices=[{"name": "pusher", "mode": "push", "announce_interval": 2.0}],
        users=[
            {
                "name": "user0",
                "arrival": {"kind": "periodic", "interval": 100.0, "start": 1.0, "count": 1},
                "scan_window": 30.0,
            }
        ],
        adversaries=[
            {"name": "adv", "behavior": "replay", "record_until": 9.0, "replay_at": [10.0, 12.0]}
        ],
    )
    built, _ = scenario.run_scenario(config)
    node = built.agent_nodes[0]
    replayed = [p for p in built.world.nodes["adv"].recorded if p.startswith(wire.ID_ANNOUNCE)]
    assert len(replayed) == 4  # announced at 2, 4, 6 and 8 s, all after the request
    assert len(node.reports) == 9  # announced at 2, 4, ..., 18 s
    assert len({r.device_nonce for r in node.reports}) == len(node.reports)
    assert node.discards == {}


@pytest.mark.parametrize("behavior", ["flood", "forge_response", "forge_request"])
@pytest.mark.parametrize("stop, frames", [(0.0, 0), (0.6, 1)])
def test_adversary_stop_before_first_emission(behavior, stop, frames):
    config = _hotel_config(
        horizon=10.0,
        users=[],
        adversaries=[{"name": "adv", "behavior": behavior, "rate": 2.0, "stop": stop}],
    )
    built, report = scenario.run_scenario(config)
    assert report.metrics.per_node["adv"].tx_frames == frames


def test_flood_adversary_bounded_response_rate():
    config = _hotel_config(
        horizon=30.0,
        users=[],
        adversaries=[{"name": "adv", "behavior": "flood", "rate": 500.0, "stop": 30.0}],
    )
    built, report = scenario.run_scenario(config)
    dev = built.device_nodes[0].device
    # pooling bound: ceil(arrived / pool_max) + 1
    assert dev.counters.responses <= math.ceil(500 * 30 / 129) + 1
    assert dev.counters.responses > 0


def test_replay_adversary_classified_stale():
    config = _hotel_config(
        horizon=120.0,
        users=[
            {"name": "user0", "arrival": {"kind": "periodic", "interval": 20.0, "start": 3.0, "count": 3}}
        ],
        adversaries=[
            {
                "name": "adv",
                "behavior": "replay",
                "record_until": 30.0,
                "replay_at": [50.0, 51.0],
            }
        ],
    )
    built, report = scenario.run_scenario(config)
    node = built.agent_nodes[0]
    # requests at 3, 23, 43: the third scan window is open when replays land
    assert node.discards.get("stale-or-replay", 0) > 0
    assert all(r.verified for r in node.reports)


def test_forged_responses_rejected_by_signature():
    config = _hotel_config(
        horizon=40.0,
        adversaries=[
            {"name": "adv", "behavior": "forge_response", "rate": 5.0, "stop": 40.0}
        ],
    )
    built, report = scenario.run_scenario(config)
    node = built.agent_nodes[0]
    reject_kinds = set(node.discards)
    assert reject_kinds <= {"manifest-unavailable", "signature-invalid", "stale-or-replay"}
    assert node.discards  # forged frames landed inside scan windows
    assert all(r.verified for r in node.reports)


def test_unknown_scenario_keys_rejected():
    with pytest.raises(scenario.ConfigError):
        scenario.ScenarioConfig.from_dict({"seed": 1, "horizon": 10.0, "typo": True})
    with pytest.raises(scenario.ConfigError):
        scenario.ScenarioConfig.from_dict({"horizon": 10.0})  # seed is mandatory
    with pytest.raises(scenario.ConfigError):
        scenario.ScenarioConfig.from_dict(
            {"seed": 1, "horizon": 10.0, "devices": [{"name": "d", "nope": 1}]}
        )


@pytest.mark.parametrize("doc", [[], "scenario", None], ids=["list", "string", "null"])
def test_a_scenario_that_is_not_an_object_is_refused(doc):
    with pytest.raises(scenario.ConfigError, match="scenario must be a JSON object"):
        scenario.ScenarioConfig.from_dict(doc)


def test_load_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(scenario.ConfigError, match="scenario.json"):
        scenario.ScenarioConfig.load(path)


@pytest.mark.parametrize("mode", ["im", "blend", "push", None])
def test_only_db_scenario_mode_accepted(mode):
    with pytest.raises(scenario.ConfigError, match=repr(mode)):
        scenario.ScenarioConfig.from_dict({"seed": 1, "horizon": 10.0, "mode": mode})
    assert scenario.ScenarioConfig.from_dict({"seed": 1, "horizon": 10.0}).mode == "db"
    assert scenario.ScenarioConfig.from_dict({"seed": 1, "horizon": 10.0, "mode": "db"}).mode == "db"


@pytest.mark.parametrize(
    "arrival",
    [
        {"kind": "periodic", "interval": 0.0},
        {"kind": "periodic", "interval": -1.0},
        {"kind": "poisson", "interval": 0},
        {"kind": "periodic", "interval": "5"},
        {"kind": "sometimes"},
        {"interval": 5.0},
    ],
)
def test_bad_arrival_rejected_at_load(arrival):
    # Calls only from_dict: running a zero interval would repeat one instant forever.
    doc = {"seed": 1, "horizon": 10.0, "users": [{"name": "u", "arrival": arrival}]}
    with pytest.raises(scenario.ConfigError, match="arrival for user u"):
        scenario.ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("arrival", [{"kind": "burst"}, {"kind": "burst", "start": 2.0, "count": None}],
                         ids=["count-omitted", "count-null"])
def test_burst_without_count_is_refused_at_load(arrival):
    # A burst is `count` requests at `start`; without a count it used to
    # load and then send nothing.
    doc = {"seed": 1, "horizon": 60.0, "devices": [{"name": "d"}],
           "users": [{"name": "u", "arrival": arrival}]}
    with pytest.raises(scenario.ConfigError, match=r"arrival for user u: .*\bcount\b"):
        scenario.ScenarioConfig.from_dict(doc)
    with pytest.raises(ValueError, match=r"\bcount\b"):
        simnet.ArrivalModel(**arrival)


def test_burst_arrival_needs_no_interval():
    doc = {"seed": 1, "horizon": 10.0,
           "users": [{"name": "u", "arrival": {"kind": "burst", "interval": 0.0, "count": 3}}]}
    scenario.ScenarioConfig.from_dict(doc)


def test_a_burst_yields_without_building_its_schedule():
    burst = simnet.ArrivalModel("burst", start=2.0, count=10**7)
    tracemalloc.start()
    try:
        assert next(burst.times(Random(1))) == 2.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a list of the 10^7 times would take 80 MB


def test_per_node_record_is_the_nodes_own_counters():
    built, report = scenario.run_scenario(_hotel_config())
    for node in built.device_nodes:
        assert report.metrics.per_node[node.name] is node.device.counters
    for name, node in built.world.nodes.items():
        assert report.metrics.per_node[name] is node.counters
    records = list(report.metrics.per_node.values())
    assert len({id(m) for m in records}) == len(records)


def test_user_discards_are_its_counters_rejects():
    forger = {"name": "adv", "behavior": "forge_response", "rate": 5.0}
    built, report = scenario.run_scenario(_hotel_config(adversaries=[forger]))
    for node in built.agent_nodes:
        assert node.discards is report.metrics.per_node[node.name].rejects
    assert any(node.discards for node in built.agent_nodes)


def test_inventory_window_past_the_horizon_is_carried_into_the_next_run():
    def world():
        rng = Random(5)
        owner = Owner(crypto.generate_keypair(rng), Random(6))
        infos = [build_device_info(f"unit-{i:07d}".encode(), 1, 1) for i in range(2)]
        fleet = owner.enroll_lkh_fleet(infos, b"inventory image", 2, rng)
        w = simnet.World(seed=3)
        w.add_node(simnet.OwnerNode("owner", owner, [1.0, 1.1]))
        for i, d in enumerate(fleet):
            w.add_node(simnet.ImDeviceNode(f"d{i}", d))
        return w

    split = world()
    split.run_until(1.3)  # each device answers the second request after the first
    for name in ("d0", "d1"):
        m, t_res = split.nodes[name].counters, split.nodes[name].t_res
        first_start = m.busy_until - 2 * t_res
        assert 1.0 < first_start < 1.1 < m.busy_until - t_res < 1.3 < m.busy_until
        assert m.busy_seconds == pytest.approx(1.3 - first_start)
    metrics = split.run_until(5.0)
    assert all(metrics.per_node[name].busy_seconds == pytest.approx(0.466) for name in ("d0", "d1"))
    assert metrics.to_json() == world().run_until(5.0).to_json()


def test_no_response_leaves_before_its_busy_window_ends(monkeypatch):
    # Attestations every 0.5 ms keep work queued ahead of each response window.
    windows = []  # (payload, end of its window in the busy record)
    occupy = device_mod.Device._occupy

    def recorded(dev, transmit, now):
        timer = occupy(dev, transmit, now)
        windows.append((transmit.payload, dev.counters.busy_until))
        return timer

    monkeypatch.setattr(device_mod.Device, "_occupy", recorded)
    config = scenario.ScenarioConfig.from_dict({
        "seed": 1, "horizon": 2.0,
        "devices": [{"name": "d", "t_att": 0.0005, "t_gen": 0}],
        "users": [{"name": "u", "arrival": {"kind": "periodic", "interval": 0.5}}],
    })
    built, _ = scenario.run_scenario(config, capture_frames=True)
    first_copy = {}
    for at, sender, frame in built.world.captured:
        if sender == "d":
            first_copy.setdefault(frame.payload, at)
    for payload, end in windows:  # each goes out as its window ends, if within the horizon
        assert first_copy.get(payload) == (end if end <= 2.0 else None)
    assert len(windows) == 4 and len(first_copy) == 3
    assert built.world.nodes["d"].counters.busy_until < 2.01


@pytest.mark.parametrize("interval, horizon", [(0.5, 2.0), (2.0, 5.0)])
def test_attestation_is_stamped_when_its_window_starts(monkeypatch, interval, horizon):
    # Attestations due every 0.5 ms, each running 1 ms, queue behind one another;
    # 2 s between requests lets over 1 s of them queue ahead of a response.
    ticks = []  # (tick time, stamp), one per counted attestation
    attest = device_mod.Device._attest

    def recorded(dev, now, counted=True):
        attest(dev, now, counted)
        if counted:
            assert dev.counters.busy_until == dev.last_att_time + dev.t_att_exec
            ticks.append((now, dev.last_att_time))

    monkeypatch.setattr(device_mod.Device, "_attest", recorded)
    config = scenario.ScenarioConfig.from_dict({
        "seed": 1, "horizon": horizon,
        "devices": [{"name": "d", "t_att": 0.0005, "t_gen": 0}],
        "users": [{"name": "u", "arrival": {"kind": "periodic", "interval": interval}}],
    })
    built, _ = scenario.run_scenario(config, capture_frames=True)
    assert max(stamp - tick for tick, stamp in ticks) > 0.2  # queued well behind the tick
    ages = [wire.decode(frame.payload).att_report.seconds_since
            for _, sender, frame in built.world.captured if sender == "d"]
    assert ages and all(age == 0 for age in ages)


def test_inventory_per_node_record_is_the_roles_own_counters():
    rng = Random(5)
    owner = Owner(crypto.generate_keypair(rng), Random(6))
    infos = [build_device_info(f"unit-{i:07d}".encode(), 1, 1) for i in range(4)]
    fleet = owner.enroll_lkh_fleet(infos, b"inventory image", 2, rng)
    world = simnet.World(seed=3)
    owner_node = world.add_node(simnet.OwnerNode("owner", owner, [1.0, 2.0]))
    nodes = [world.add_node(simnet.ImDeviceNode(f"d{i}", d)) for i, d in enumerate(fleet)]
    assert all(node.counters is node.device.counters for node in nodes)
    metrics = world.run_until(5.0)
    assert metrics.per_node["owner"] is owner_node.owner.counters
    assert owner_node.rejects is owner.counters.rejects
    for node in nodes:
        assert metrics.per_node[node.name] is node.device.counters
        assert node.device.counters.responses == 2  # tallied by the device
        assert node.device.counters.attestations == 2  # one per answered request
        # and by the simulator: two requests and the other three devices' two responses each
        assert node.device.counters.rx_frames == 8 and node.device.counters.tx_frames == 2
        assert node.device.counters.busy_seconds == pytest.approx(2 * node.t_res)
    assert owner.counters.signatures == 2  # one per signed request
    assert owner.counters.receipts == len(owner_node.receipts) == 8


_BLEND = {"switch_threshold": 7, "window": 2.0, "push_period": 3.0, "announce_interval": 0.5}


# Each schedules more sends than a run allows, and the refusal names the key
# and the count. The first used to load and then need about 5x10^9 events.
_PAST_THE_SEND_BOUND = [
    ("announce-interval-1e-9",
     {"horizon": 5.0, "devices": [{"name": "d", "mode": "push", "announce_interval": 1e-9}]},
     r"device d: announce_interval 1e-09 schedules 5e\+09 sends"),
    ("flood-at-1e9-per-s", {"adversaries": [{"name": "a", "behavior": "flood", "rate": 1e9}]},
     r"adversary a: rate 1000000000.0 schedules 1e\+10 sends"),
    ("burst-of-1e12", {"users": [{"name": "u", "arrival": {"kind": "burst", "count": 10**12}}]},
     r"arrival for user u: count 1000000000000 schedules 1e\+12 sends"),
]


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"seed": "5"}, id="string-seed"),
        pytest.param({"horizon": "5"}, id="string-horizon"),
        pytest.param({"horizon": math.inf}, id="infinite-horizon"),
        pytest.param({"devices": {"d": {"t_gen": 1.0}}}, id="devices-object"),
        pytest.param({"devices": [{"t_gen": 1.0}]}, id="device-without-name"),
        pytest.param({"users": [{"arrival": {"kind": "burst", "count": 1}}]}, id="user-without-name"),
        pytest.param({"adversaries": [{"behavior": "flood"}]}, id="adversary-without-name"),
        pytest.param({"link": {"p_loss": 2.0}}, id="p_loss-above-1"),
        pytest.param({"link": {"latency_min": -1.0}}, id="negative-latency"),
        pytest.param({"link": {"latency_min": 0.02, "latency_max": 0.01}}, id="latency-min-above-max"),
        pytest.param({"link": {"manifest_fetch_delay": -1.0}}, id="negative-fetch-delay"),
        pytest.param({"devices": [{"name": "d", "mode": "pulse"}]}, id="unknown-device-mode"),
        pytest.param({"devices": [{"name": "d", "mode": "blend"}]}, id="blend-without-policy"),
        pytest.param({"devices": [{"name": "d", "mode": "blend", "blend": {"window": 1.0}}]},
                     id="incomplete-blend-policy"),
        pytest.param({"devices": [{"name": "d", "blend": _BLEND}]}, id="policy-on-pull-device"),
        pytest.param({"devices": [{"name": "d", "mode": "push", "blend": _BLEND}]},
                     id="policy-on-push-device"),
        pytest.param({"devices": [{"name": "d", "announce_interval": 2.0}]},
                     id="announce-interval-on-pull-device"),
        pytest.param(
            {"devices": [{"name": "d", "mode": "blend", "blend": _BLEND, "announce_interval": 2.0}]},
            id="announce-interval-on-blend-device",
        ),
        pytest.param({"users": [{"name": "u", "arrival": 5}]}, id="arrival-not-an-object"),
        pytest.param({"devices": [{"name": "d", "t_res": -1.0}]}, id="negative-t_res"),
        pytest.param({"devices": [{"name": "d", "t_res": "0.2"}]}, id="string-t_res"),
        pytest.param({"devices": [{"name": "d", "t_att_exec": -1.0}]}, id="negative-t_att_exec"),
        pytest.param({"devices": [{"name": "d", "pool_max": 0}]}, id="pool_max-0"),
        pytest.param({"devices": [{"name": "d", "pool_max": 130}]}, id="pool_max-130"),
        pytest.param({"devices": [{"name": "d", "t_att": 0}]}, id="zero-t_att"),
        pytest.param({"devices": [{"name": "d", "t_gen": -1.0}]}, id="negative-t_gen"),
        pytest.param({"devices": [{"name": "d", "pool_tmp_cap": -1}]}, id="negative-pool_tmp_cap"),
        pytest.param({"devices": [{"name": "d", "mode": "push", "announce_interval": 0.0}]},
                     id="zero-announce-interval"),
        pytest.param({"devices": [{"name": "d", "announce_wire_size": 50}]},
                     id="announce-wire-size-below-payload"),
        pytest.param({"devices": [{"name": "x"}], "users": [{"name": "x"}]}, id="duplicate-names"),
        pytest.param({"users": [{"name": "u", "scan_window": -1.0}]}, id="negative-scan-window"),
        pytest.param({"users": [{"name": "u", "arrival": {"kind": "burst", "count": "3"}}]},
                     id="string-arrival-count"),
        pytest.param({"users": [{"name": "u", "arrival": {"kind": "periodic", "start": -1.0}}]},
                     id="negative-arrival-start"),
        pytest.param({"adversaries": [{"name": "a", "behavior": "flood", "rate": 0}]},
                     id="zero-adversary-rate"),
        pytest.param({"adversaries": [{"name": "a", "behavior": "jam"}]},
                     id="unknown-adversary-behavior"),
        pytest.param({"adversaries": [{"name": "a"}]}, id="adversary-without-behavior"),
        pytest.param({"adversaries": [{"name": "a", "behavior": "flood", "stop": "9"}]},
                     id="string-adversary-stop"),
        pytest.param({"adversaries": [{"name": "a", "behavior": "replay", "replay_at": 5}]},
                     id="replay-at-not-a-list"),
        *(
            pytest.param({"devices": [{"name": "d", "device_type": value}]},
                         id=f"device-type-{json.dumps(value)}")
            for value in (5, True, None, [], {})
        ),
        pytest.param({"devices": [{"name": "d", "software_version": 2}]},
                     id="numeric-software-version"),
        *(
            pytest.param(
                {"users": [{"name": "u", "arrival": {"kind": kind, "interval": math.inf}}]},
                id=f"infinite-{kind}-interval",
            )
            for kind in ("poisson", "periodic")
        ),
        *(
            pytest.param({"adversaries": [{"name": "a", "behavior": "replay", "replay_at": at}]},
                         id=f"replay-at-{json.dumps(at)}")
            for at in ([-1.0], [math.nan], [math.inf], [True], {}, 0)
        ),
        pytest.param({"adversaries": [{"name": "a", "behavior": "flood", "stop": math.nan}]},
                     id="nan-adversary-stop"),
        pytest.param(
            {"adversaries": [{"name": "a", "behavior": "replay", "record_until": math.nan}]},
            id="nan-record-until",
        ),
        pytest.param({"adversaries": [{"name": "a", "behavior": "flood", "stop": True}]},
                     id="bool-adversary-stop"),
        pytest.param({"link": {"randomize_addresses": "false"}}, id="string-randomize-addresses"),
        pytest.param({"link": {"randomize_addresses": 0}}, id="numeric-randomize-addresses"),
        pytest.param(
            {"users": [{"name": "u", "arrival": {"kind": "periodic", "interval": 1e-300}}]},
            id="arrival-interval-below-clock-resolution",
        ),
        # Counted from a start just before the horizon, these make few sends,
        # but the clock cannot move by the interval there: the run would hang.
        pytest.param(
            {"users": [{"name": "u", "arrival": {"kind": "periodic", "interval": 1e-16,
                                                 "start": 10.0 - 1e-9}}]},
            id="arrival-interval-below-clock-resolution-near-the-horizon",
        ),
        pytest.param(
            {"users": [{"name": "u", "arrival": {"kind": "poisson", "interval": 1e-300,
                                                 "start": 10.0}}]},
            id="arrival-interval-below-clock-resolution-at-the-horizon",
        ),
        pytest.param({"adversaries": [{"name": "a", "behavior": "flood", "rate": 1e300}]},
                     id="adversary-rate-above-clock-resolution"),
        pytest.param({"devices": [{"name": "d", "t_att": 1e-300}]},
                     id="t_att-below-clock-resolution"),
        pytest.param({"devices": [{"name": "d", "mode": "push", "announce_interval": 1e-300}]},
                     id="announce-interval-below-clock-resolution"),
        pytest.param(
            {"devices": [{"name": "d", "mode": "blend",
                          "blend": dict(_BLEND, announce_interval=1e-300)}]},
            id="blend-announce-interval-below-clock-resolution",
        ),
        *(pytest.param(doc, id=name) for name, doc, _ in _PAST_THE_SEND_BOUND),
        *(
            pytest.param(
                {"devices": [{"name": "d", "mode": "blend", "blend": {**_BLEND, key: math.nan}}]},
                id=f"nan-blend-{key}",
            )
            for key in _BLEND
        ),
        pytest.param({"output": 5}, id="numeric-output"),
        pytest.param({"link": {"manifest_fetch_delay": math.inf}}, id="infinite-fetch-delay"),
        pytest.param({"link": {"latency_max": math.inf}}, id="infinite-latency-max"),
        pytest.param({"link": {"latency_min": math.inf, "latency_max": math.inf}},
                     id="infinite-latencies"),
        *(
            pytest.param(doc, id=f"bool-{name}")
            for name, doc in (
                ("p_loss", {"link": {"p_loss": True}}),
                ("latency_max", {"link": {"latency_max": True}}),
                ("manifest_fetch_delay", {"link": {"manifest_fetch_delay": True}}),
                ("t_res", {"devices": [{"name": "d", "t_res": True}]}),
                ("t_att_exec", {"devices": [{"name": "d", "t_att_exec": True}]}),
                ("t_gen", {"devices": [{"name": "d", "t_gen": True}]}),
                ("t_att", {"devices": [{"name": "d", "t_att": True}]}),
                ("announce_interval",
                 {"devices": [{"name": "d", "mode": "push", "announce_interval": True}]}),
                *((f"blend-{key}",
                   {"devices": [{"name": "d", "mode": "blend", "blend": {**_BLEND, key: True}}]})
                  for key in _BLEND),
                ("scan_window", {"users": [{"name": "u", "scan_window": True}]}),
                ("arrival-interval",
                 {"users": [{"name": "u", "arrival": {"kind": "periodic", "interval": True}}]}),
                ("arrival-start",
                 {"users": [{"name": "u", "arrival": {"kind": "periodic", "start": True}}]}),
                ("adversary-rate", {"adversaries": [{"name": "a", "behavior": "flood", "rate": True}]}),
            )
        ),
        *(
            pytest.param({section: [{"name": "n", **extra, "domain": value}]},
                         id=f"{section}-domain-{json.dumps(value)}")
            for section, extra in (("devices", {}), ("users", {}),
                                   ("adversaries", {"behavior": "flood"}))
            for value in (math.nan, 5, None)
        ),
    ],
)
def test_bad_config_rejected_at_load(overrides):
    # Calls only from_dict: each of these used to crash later, or to run
    # something other than what the config says.
    doc = {"seed": 1, "horizon": 10.0}
    doc.update(overrides)
    with pytest.raises(scenario.ConfigError):
        scenario.ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("doc, message", [case[1:] for case in _PAST_THE_SEND_BOUND],
                         ids=[case[0] for case in _PAST_THE_SEND_BOUND])
def test_a_schedule_past_the_send_bound_is_refused_naming_its_key(doc, message):
    with pytest.raises(scenario.ConfigError, match=message):
        scenario.ScenarioConfig.from_dict({"seed": 1, "horizon": 10.0, **doc})


def test_the_send_bound_counts_only_the_sends_a_schedule_makes():
    # Over 5x10^9 s, a pull device's default announce_interval (1.0) and a
    # replayer's rate would count 5x10^9 and 5x10^11 sends, but neither
    # schedules any; a flood sends only until its stop.
    scenario.ScenarioConfig.from_dict({
        "seed": 1, "horizon": 5e9, "devices": [{"name": "d", "t_att": 1e10}],
        "adversaries": [{"name": "r", "behavior": "replay"},
                        {"name": "f", "behavior": "flood", "rate": 1000.0, "stop": 12.0}]})
    # Arrivals count from their start and stop at their count: over 100 s,
    # an interval of 1e-7 s capped at 5 requests sends 5, and one that
    # starts after the horizon sends none.
    config = scenario.ScenarioConfig.from_dict({
        "seed": 1, "horizon": 100.0,
        "users": [{"name": "capped", "arrival": {"kind": "periodic", "interval": 1e-7, "count": 5}},
                  {"name": "late", "arrival": {"kind": "poisson", "interval": 1e-7, "start": 200.0}}]})
    metrics = scenario.run_scenario(config)[1].metrics
    assert metrics.per_node["capped"].tx_frames == 5
    assert metrics.per_node["late"].tx_frames == 0


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"link": {"typo": 1}}, "bad link: .*unexpected keyword argument 'typo'"),
        ({"users": [{"name": "u", "arrival": {"kind": "burst", "typo": 1}}]},
         "bad arrival for user u: .*unexpected keyword argument 'typo'"),
        ({"devices": [{"name": "d", "mode": "blend", "blend": dict(_BLEND, typo=1)}]},
         "bad device d: .*unexpected keyword argument 'typo'"),
        ({"adversaries": [{"name": "a", "behavior": "flood", "typo": 1}]},
         "bad adversary a: .*unexpected keyword argument 'typo'"),
        ({"adversaries": [{"name": "a", "behavior": "flood", "rng": 1}]},
         "bad adversary a: .*multiple values for keyword argument 'rng'"),
        ({"link": 5}, "bad link: .*must be a mapping"),
        ({"users": [{"name": "u", "arrival": [1]}]}, "bad arrival for user u: .*must be a mapping"),
        ({"devices": [{"name": "d", "mode": "blend", "blend": "on"}]},
         "bad device d: .*must be a mapping"),
    ],
    ids=["link-typo", "arrival-typo", "blend-typo", "adversary-typo", "adversary-rng",
         "link-not-an-object", "arrival-not-an-object", "blend-not-an-object"],
)
def test_constructor_names_the_bad_key(doc, message):
    with pytest.raises(scenario.ConfigError, match=message):
        scenario.ScenarioConfig.from_dict({"seed": 1, "horizon": 10.0, **doc})


def _signature_defaults(cls) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(cls).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def test_omitted_node_keys_take_the_constructors_defaults():
    doc = {
        "seed": 1,
        "horizon": 10.0,
        "devices": [{"name": "d"}],
        "users": [{"name": "u"}],
        "adversaries": [{"name": "a", "behavior": "flood"}],
    }
    nodes = scenario.build_world(scenario.ScenarioConfig.from_dict(doc)).world.nodes
    for obj, cls in [
        (nodes["d"].device, device_mod.Device),
        (nodes["d"], simnet.DeviceNode),
        (nodes["u"].agent, agent.UserAgent),
        (nodes["u"], simnet.AgentNode),
        (nodes["a"], simnet.AdversaryNode),
    ]:
        for name, default in _signature_defaults(cls).items():
            stored = [] if name == "replay_at" else default  # kept as `replay_at or []`
            assert getattr(obj, name) == stored, (cls.__name__, name)


def test_every_optional_node_key_reaches_its_constructor():
    push = {
        "name": "p", "mode": "push", "device_type": "camera", "software_version": "2.5",
        "t_att": 50.0, "t_gen": 0.5, "pool_max": 17, "t_res": 0.3, "t_att_exec": 0.002,
        "announce_interval": 4.0, "announce_wire_size": 200, "pool_tmp_cap": 33,
        "domain": "east",
    }
    arrival = {"kind": "poisson", "interval": 3.0, "start": 1.0, "count": 4}
    user = {"name": "u", "arrival": arrival, "scan_window": 6.0, "domain": "east"}
    adversary = {
        "name": "a", "behavior": "replay", "rate": 5.0, "stop": 9.0, "record_until": 2.0,
        "replay_at": [3.0], "domain": "east",
    }
    doc = {
        "seed": 1,
        "horizon": 10.0,
        "devices": [push, {"name": "b", "mode": "blend", "blend": _BLEND}],
        "users": [user],
        "adversaries": [adversary],
    }
    built = scenario.build_world(scenario.ScenarioConfig.from_dict(doc))
    nodes = built.world.nodes

    def passed(obj, cls, spec):
        for name, default in _signature_defaults(cls).items():
            if name in spec and name != "mode":  # mode is parsed into a device.Mode
                assert spec[name] != default, (cls.__name__, name)
                assert getattr(obj, name) == spec[name], (cls.__name__, name)

    passed(nodes["p"].device, device_mod.Device, push)
    passed(nodes["p"], simnet.DeviceNode, push)
    passed(nodes["u"].agent, agent.UserAgent, user)
    passed(nodes["u"], simnet.AgentNode, user)
    passed(nodes["a"], simnet.AdversaryNode, adversary)
    assert nodes["p"].device.mode is device_mod.Mode.PUSH
    record = nodes["p"].device.provisioning
    assert (record.t_att, record.t_gen, record.pool_max) == (50.0, 0.5, 17)
    manifest = registration.Manifest.from_canonical(built.store.get(record.url)[0])
    assert (manifest.device_type, manifest.software_version) == ("camera", "2.5")
    assert nodes["b"].device.mode is device_mod.Mode.BLEND
    assert nodes["b"].device.blend == device_mod.BlendPolicy(**_BLEND)
    assert nodes["u"].arrivals == simnet.ArrivalModel(**arrival)
    assert nodes["a"].behavior == "replay"


# Random configs. Per key: common values, then edge values (boundaries,
# wrong types, out-of-range and sub-resolution numbers). A key with no
# common values is only ever set by an edit. Common values include loads
# that keep a device busy past the horizon (a 50/s flood at `t_gen` 0).
_ODD = (None, True, "1", [], {}, math.nan, math.inf, -math.inf)
_OMIT = object()
_KEYS = {
    "scenario": {
        "seed": ([1, 2**64], [-3, 1.0]),
        "horizon": ([5.0, 12], [1e300, 0, -1.0]),
        "mode": (["db"], ["im"]),
        "output": ([None, "out"], [""]),
        "link": ([], []),
        "devices": ([], []),
        "users": ([], []),
        "adversaries": ([], []),
    },
    "link": {
        "p_loss": ([0.0, 0.1], [1.0, -0.1, 1.1]),
        "latency_min": ([0.001], [0.0, -1.0, 1e300]),
        "latency_max": ([0.01], [0.0, 1e300]),
        "randomize_addresses": ([True, False], ["false", 0]),
        "manifest_fetch_delay": ([1.3], [0.0, -1.0, 1e300]),
    },
    "device": {
        "name": ([], ["u0", 5]),
        "mode": ([], ["pull", "push", "blend", "pulse"]),
        "blend": ([], [dict(_BLEND), 5]),
        "device_type": (["sensor", "camera"], [5, ""]),
        "software_version": (["1.0"], [2]),
        "t_att": ([300.0, 2.0], [0.0005, 0, -1.0, 1e-300, 1e300]),
        "t_gen": ([1.0, 0.0], [-1.0, 1e300]),
        "pool_max": ([129, 1], [0, 130, 10.0]),
        "t_res": ([0.233, 0.0], [-1.0, 1e-300]),
        "t_att_exec": ([0.001, 0.0], [-1.0, 0.01]),
        "announce_interval": ([], [1.0, 0, 1e-300, 1e300]),
        "announce_wire_size": ([128], [102, 1650, 101, 1651, 128.0]),
        "pool_tmp_cap": ([None, 40], [0, -1, 1.5]),
        "domain": (["default"], ["east"]),
    },
    "blend": {
        "switch_threshold": ([1, 7], [0, -1, 2.5]),
        "window": ([2.0], [0, -1.0, 1e300]),
        "push_period": ([3.0], [0, 1e300]),
        "announce_interval": ([1.0, 2.0], [0, 1e-300, 1e300]),
    },
    "user": {
        "name": ([], ["d0", 5]),
        "arrival": ([], []),
        "scan_window": ([10.0, 0.5], [0, -1.0, 1e300]),
        "domain": (["default"], ["east"]),
    },
    "arrival": {
        "kind": (["periodic", "poisson", "burst"], ["sometimes"]),
        "interval": ([2.0, 5.0], [0, -1.0, 1e-300, 1e300]),
        "start": ([0.0, 1.0], [-1.0, 1e300]),
        "count": ([None, 3], [0, -1, 2.5]),
    },
    "adversary": {
        "name": ([], ["d0", 5]),
        "behavior": (["flood", "replay", "forge_response", "forge_request"], ["jam"]),
        "rate": ([0.5, 50.0, 1000.0], [0, 1e-300, 1e300]),
        "stop": ([3.0, math.inf], [-1.0]),
        "record_until": ([2.0, 0.0], [-1.0]),
        "replay_at": ([[1.0, 4.0], []], [[-1.0], [math.nan], [math.inf], [True], 5, 0]),
        "domain": (["default"], ["east"]),
    },
}


@st.composite
def _scenario_docs(draw, max_edits=4, min_nodes=0):
    """A runnable doc drawn from the common values, with at least `min_nodes`
    devices and users, then up to `max_edits` edits, each deleting one key
    of one section or setting it to an edge value."""
    sections = []

    def section(kind, out=None, always=()):
        out = {} if out is None else out
        for key, (common, _edge) in _KEYS[kind].items():
            if common:
                value = draw(st.sampled_from(common if key in always else [*common, _OMIT]))
                if value is not _OMIT:
                    out[key] = value
        sections.append((kind, out))
        return out

    def arrival():
        out = section("arrival", always=("kind",))
        if out["kind"] == "burst" and out.get("count") is None:  # a burst is `count` requests
            out["count"] = draw(st.sampled_from([c for c in _KEYS["arrival"]["count"][0] if c]))
        return out

    doc = section("scenario", always=("seed", "horizon"))
    doc["link"] = section("link")
    doc["devices"] = []
    for i in range(draw(st.integers(min_nodes, 2))):
        mode = draw(st.sampled_from(["pull", "push", "blend", _OMIT]))
        dev = {"name": f"d{i}"} if mode is _OMIT else {"name": f"d{i}", "mode": mode}
        if mode == "push":
            dev["announce_interval"] = draw(st.sampled_from([1.0, 4.0]))
        if mode == "blend":
            dev["blend"] = section("blend", always=tuple(_KEYS["blend"]))
        doc["devices"].append(section("device", dev))
    doc["users"] = [
        section("user", {"name": f"u{i}", "arrival": arrival()})
        for i in range(draw(st.integers(min_nodes, 2)))
    ]
    doc["adversaries"] = [
        section("adversary", {"name": f"a{i}"}, always=("behavior",))
        for i in range(draw(st.integers(0, 1)))
    ]
    for _ in range(draw(st.integers(0, max_edits))):
        kind, target = draw(st.sampled_from(sections))
        key = draw(st.sampled_from(sorted(_KEYS[kind])))
        value = draw(st.sampled_from([*_KEYS[kind][key][1], *_ODD, _OMIT]))
        if value is _OMIT:
            target.pop(key, None)
        else:
            target[key] = value
    return doc


def _budgeted_heapq(budget: int):
    """A stand-in for the simulator's heapq that refuses the event past `budget`."""
    pushed = itertools.count(1)

    def heappush(queue, item):
        if next(pushed) > budget:
            raise AssertionError(f"more than {budget} events queued")
        heapq.heappush(queue, item)

    return types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop)


@given(_scenario_docs())
@example({"seed": 1, "horizon": 5.0, "devices": [{"name": "d0", "device_type": 5}]})
@example({"seed": 1, "horizon": 5.0,
          "users": [{"name": "u0", "arrival": {"kind": "poisson", "interval": math.inf}}]})
@example({"seed": 1, "horizon": 5.0, "link": {"manifest_fetch_delay": math.inf},
          "devices": [{"name": "d0"}], "users": [{"name": "u0"}]})
# Attestation ages past the 32-bit wire field: one from a long wait between
# attestations, one from an attestation that keeps the device busy for years.
@example({"seed": 1, "horizon": 5e9, "devices": [{"name": "d", "t_att": 1e10}],
          "users": [{"name": "u", "arrival": {"kind": "burst", "count": 1, "start": 4.4e9}}]})
@example({"seed": 1, "horizon": 1000.0, "devices": [{"name": "d", "t_att": 10.0, "t_att_exec": 5e9}],
          "users": [{"name": "u", "arrival": {"kind": "periodic", "interval": 100.0}}]})
@settings(max_examples=80, deadline=None, derandomize=True)
def test_random_config_runs_as_written_or_is_rejected(doc):
    try:
        config = scenario.ScenarioConfig.from_dict(doc)
    except scenario.ConfigError:
        return
    with mock.patch.object(simnet, "heapq", _budgeted_heapq(100_000)):
        _, report = scenario.run_scenario(config)
    assert all(report.checks.values()), report.checks
    # metrics.json must be RFC 8259 JSON: no NaN or Infinity tokens. (report.json
    # echoes the config, so an infinite adversary stop legitimately appears there.)
    json.loads(report.metrics.to_json(), parse_constant=_refuse_constant)


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_capture_frames_record_payloads():
    built, report = scenario.run_scenario(_hotel_config(horizon=30.0), capture_frames=True)
    kinds = {bytes(f.payload[:6]) for _, _, f in built.world.captured}
    assert wire.ID_REQUEST in kinds and wire.ID_RESPONSE in kinds


def test_latency_includes_modeled_fetch_delay():
    built, report = scenario.run_scenario(_hotel_config(link={"manifest_fetch_delay": 1.3}))
    node = built.agent_nodes[0]
    # response delay floor (t_gen = 1.0) plus the modeled fetch cost
    assert all(lat >= 2.3 for lat in node.latencies)
    assert report.metrics.latencies["user0"] == node.latencies


def test_broadcast_domains_partition_the_medium():
    config = _hotel_config(
        devices=[
            {"name": "near", "t_gen": 1.0, "domain": "default"},
            {"name": "far", "t_gen": 1.0, "domain": "other-floor"},
        ]
    )
    built, report = scenario.run_scenario(config)
    assert report.metrics.per_node["near"].signatures > 0
    assert report.metrics.per_node["far"].signatures == 0  # out of range
    assert report.metrics.per_node["far"].rx_frames == 0


# -- interest filter: a node hears only the frame kinds it handles ------------


def _both_ways(run):
    """`run()` as built, then on the reference path that queues every
    unheard frame as an event counting it on arrival."""
    fast = run()
    with mock.patch.object(simnet.World, "_queue_unheard", True):
        reference = run()
    return fast, reference


_PULL_AND_PUSH = {
    "seed": 7,
    "horizon": 20.0,
    "devices": [{"name": "d0"}, {"name": "d1", "mode": "push", "announce_interval": 4.0}],
    "users": [
        {"name": "u0", "arrival": {"kind": "periodic", "interval": 5.0, "start": 1.0}},
        {"name": "u1", "arrival": {"kind": "poisson", "interval": 3.0}},
    ],
}


# The examples reach what the draws do not: a copy sent before the one
# before it lands; a handled record that lapses while a copy is in flight
# (every 30 ms copy takes 25 ms, a record lasts 100 ms); a lost first copy;
# replayed responses and announcements; and a run split while d0's first
# response (sent every 30 ms from 2.2352 s) is in flight.
@given(_scenario_docs(max_edits=0, min_nodes=1), st.just(None))
@example(dict(_PULL_AND_PUSH, link={"latency_max": 0.05}), None)
@example({"seed": 4, "horizon": 20.0, "link": {"latency_min": 0.025, "latency_max": 0.025},
          "devices": [{"name": "d0", "t_gen": 0.0}],
          "users": [{"name": "u0", "scan_window": 0.1,
                     "arrival": {"kind": "periodic", "interval": 0.05}}]}, None)
@example(dict(_PULL_AND_PUSH, link={"p_loss": 0.5}), None)
@example(dict(_PULL_AND_PUSH, adversaries=[
    {"name": "a0", "behavior": "replay", "record_until": 9.0, "replay_at": [10.0, 16.0]}]), None)
@example(_PULL_AND_PUSH, 2.27)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_interest_filter_matches_queueing_every_frame(doc, split):
    config = scenario.ScenarioConfig.from_dict(doc)

    def run():
        built = scenario.build_world(config)
        if split is not None:
            built.world.run_until(split)
        metrics = built.world.run_until(config.horizon)
        users = [
            ([r.to_json_fields() for r in node.reports], node.latencies, node.discards)
            for node in built.agent_nodes
        ]
        return metrics.to_json(), users

    fast, reference = _both_ways(run)
    assert fast == reference


def test_interest_filter_matches_queueing_every_frame_in_inventory():
    def run():
        rng = Random(21)
        owner = Owner(crypto.generate_keypair(rng), Random(22))
        infos = [build_device_info(f"unit-{i:07d}".encode(), 1, 1) for i in range(16)]
        fleet = owner.enroll_lkh_fleet(infos, b"inventory image", 2, rng)
        world = simnet.World(seed=23, link=simnet.LinkConfig(p_loss=0.05))
        owner_node = world.add_node(simnet.OwnerNode("owner", owner, [1.0, 2.5, 4.0]))
        for i, device in enumerate(fleet):
            world.add_node(simnet.ImDeviceNode(f"d{i}", device))
        world.add_node(simnet.AdversaryNode(
            "replayer", "replay", Random(24), record_until=1.6, replay_at=[3.3]))
        world.add_node(simnet.AdversaryNode("forger", "forge_request", Random(25), rate=2.0))
        metrics = world.run_until(6.0)
        rx = {name: (m.rx_bytes, m.rx_frames) for name, m in metrics.per_node.items()}
        return owner_node.receipts, dict(owner_node.rejects), rx, metrics.to_json()

    fast, reference = _both_ways(run)
    assert fast == reference
    receipts, rejects, rx, _ = fast
    assert receipts and rejects.get("replay")  # the replayer's copies were heard and refused
    assert all(frames > 0 for _, frames in rx.values())


def test_inventory_fleet_decodes_each_request_once(monkeypatch):
    delivered, decoded = [], []
    real_deliver, real_decode = simnet.ImDeviceNode.handle_deliver, wire.decode

    def recording_deliver(node, frame, now):
        delivered.append(frame.payload)
        real_deliver(node, frame, now)

    def counted_decode(payload):
        if payload.startswith(wire.ID_IM_REQUEST):
            decoded.append(payload)
        return real_decode(payload)

    monkeypatch.setattr(simnet.ImDeviceNode, "handle_deliver", recording_deliver)
    monkeypatch.setattr(wire, "decode", counted_decode)
    wire.parse_signed.cache_clear()
    rng = Random(41)
    owner = Owner(crypto.generate_keypair(rng), Random(42))
    infos = [build_device_info(f"unit-{i:07d}".encode(), 1, 1) for i in range(8)]
    world = simnet.World(seed=43)
    owner_node = world.add_node(simnet.OwnerNode("owner", owner, [1.0, 2.5, 4.0]))
    for i, device in enumerate(owner.enroll_lkh_fleet(infos, b"inventory image", 2, rng)):
        world.add_node(simnet.ImDeviceNode(f"d{i}", device))
    world.add_node(simnet.AdversaryNode("forger", "forge_request", Random(44), rate=2.0))
    world.run_until(6.0)
    requests = [p for p in delivered if p.startswith(wire.ID_IM_REQUEST)]
    assert len(set(requests)) >= 3 + 10  # the owner's rounds and the forger's
    assert len(requests) >= 8 * len(set(requests))  # every device hears each one
    assert sorted(decoded) == sorted(set(requests))
    assert len(owner_node.receipts) == 3 * 8


def test_a_node_added_after_a_run_hears_later_frames():
    def run():
        world = simnet.World(seed=1)
        world.add_node(Sink("tx"))
        early = world.add_node(Sink("early"))
        request = wire.RequestMsg(bytes(12)).encode()
        world.broadcast("tx", request, 0.0)
        world.broadcast("tx", wire.ID_RESPONSE, 0.0)
        world.run_until(1.0)  # both frame kinds have been fanned out once
        late, deaf = world.add_node(Sink("late")), world.add_node(_Deaf("deaf"))
        world.broadcast("tx", request, 1.0)
        world.broadcast("tx", wire.ID_RESPONSE, 1.0)
        metrics = world.run_until(2.0)
        received = [sorted((t > 1.0, f.payload) for t, f in n.received) for n in (early, late, deaf)]
        return received, metrics.to_json()

    fast, reference = _both_ways(run)
    assert fast == reference
    (early, late, deaf), doc = fast
    request = b"DP-REQ" + bytes(12)
    assert early == [(False, request), (False, b"DP-RES"), (True, request), (True, b"DP-RES")]
    assert late == early[2:]
    assert deaf == [(True, request)]
    assert json.loads(doc)["per_node"]["deaf"]["rx_frames"] == 2


# Perfbench's flood in miniature: pull devices that pool 129 nonces and drop
# overflow, a blend device that switches to push, a response forger and
# users that discard responses pooling none of their nonces.
_FLOOD = {
    "seed": 5,
    "horizon": 4.0,
    "link": {"p_loss": 0.01},
    "devices": [
        {"name": "pull0", "t_gen": 1.0, "pool_tmp_cap": 258},
        {"name": "pull1", "t_gen": 1.0, "pool_tmp_cap": 258},
        {"name": "blend0", "t_gen": 1.0, "pool_tmp_cap": 258, "mode": "blend",
         "blend": {"switch_threshold": 100, "window": 1.0, "push_period": 8.0,
                   "announce_interval": 1.0}},
    ],
    "users": [
        {"name": f"user{i}", "scan_window": 2.0,
         "arrival": {"kind": "periodic", "interval": 0.15, "start": 0.03 * i}}
        for i in range(4)
    ],
    "adversaries": [
        {"name": "flooder", "behavior": "flood", "rate": 1000.0, "stop": 3.0},
        {"name": "forger", "behavior": "forge_response", "rate": 2.0},
    ],
}


def _user_outputs(built):
    return [
        ([r.to_json_fields() for r in node.reports], node.latencies, node.discards)
        for node in built.agent_nodes
    ]


def _device_state(device):
    """What a batch of requests may change, and the state of the device's rng."""
    counters = device.counters
    return (list(device.pool), list(device.pool_tmp), list(device._arrivals), device.push_until,
            counters.dropped_nonces, counters.pool_tmp_peak, counters.announcements,
            device.rng.getstate())


def test_fanout_matches_queueing_every_frame_under_a_flood():
    config = scenario.ScenarioConfig.from_dict(_FLOOD)

    def run(splits):
        built = scenario.build_world(config)
        at_splits = []
        for split in splits:
            metrics = built.world.run_until(split)
            at_splits.append((metrics.to_json(), [n.device.in_gen for n in built.device_nodes],
                              [_device_state(n.device) for n in built.device_nodes]))
        metrics = built.world.run_until(config.horizon)
        devices = [_device_state(n.device) for n in built.device_nodes]
        return metrics.to_json(), _user_outputs(built), devices, at_splits

    # The second run splits while all three devices are in a generation window.
    for splits in ((), (0.5, 1.7, 2.9)):
        fast, reference = _both_ways(functools.partial(run, splits))
        assert fast == reference
        doc, users, devices, at_splits = fast
        assert all(all(in_gen) for _, in_gen, _ in at_splits)
        assert json.loads(doc)["frames_dropped"] > 0
        assert all(reports and discards for reports, _, discards in users)
        assert all(device[4] > 0 for device in devices) and devices[-1][6] > 0


def test_a_flood_queues_no_event_for_a_request_that_only_pools():
    """A request that lands in a device's generation window is batched, not
    queued: the flood queues under 6,000 events, 12,995 when each is queued."""
    with mock.patch.object(simnet, "heapq", _budgeted_heapq(6_000)):
        scenario.run_scenario(scenario.ScenarioConfig.from_dict(_FLOOD))


def _request_world(record, link, device, sends):
    """A sender "tx" and the device as node "dev"; `sends` is (time,
    payload) broadcasts from "tx"."""
    world = simnet.World(seed=2, link=link)
    world.add_node(Sink("tx"))
    node = world.add_node(simnet.DeviceNode("dev", device))
    for t, payload in sends:
        world.schedule_action(t, functools.partial(world.broadcast, "tx", payload))
    return world, node


def test_a_copy_queued_before_a_window_lands_after_batched_ones(record):
    """200 requests sent at 1.0 fill the pool as they land, so the window
    opens while the last 71 are in flight; requests sent in the window land
    among them, batched, and must pool before every later queued copy."""
    rng = Random(4)
    sends = [(t, wire.RequestMsg(rng.randbytes(12)).encode())
             for t in [1.0] * 200 + [1.0 + 0.01 * k for k in range(1, 40)]]

    def run():
        world, node = _request_world(
            record, simnet.LinkConfig(latency_min=0.0, latency_max=0.2),
            device_mod.Device(record, b"image", Random(3)), sends)
        deliver, early = node.handle_deliver, []

        def recording_deliver(frame, now):
            early.append(sum(t < now for t, _ in node.batch))
            deliver(frame, now)

        node.handle_deliver = recording_deliver
        states = []
        for horizon in (1.3, 3.0):
            metrics = world.run_until(horizon)
            states.append((list(node.device.pool_tmp), list(node.device.pool),
                           node.device.counters.responses, metrics.to_json()))
        return states, sum(early)

    fast, reference = _both_ways(run)
    assert fast[0] == reference[0]
    assert fast[1] > 0  # a queued copy found earlier ones in the batch
    assert len(fast[0][0][0]) > 71  # at 1.3 the window still pools


def test_push_that_ends_inside_a_window_batches_only_earlier_requests(record):
    """A blend device switches to push at 1.0 until 1.5 and announces at 1.0
    and 1.4, a window that ends at 1.633. With no latency, a request lands
    at 1.45, at 1.5 and at 1.55: only the first may be batched, since the
    one at 1.5 finds push over and switches the device to push again."""
    policy = device_mod.BlendPolicy(
        switch_threshold=3, window=1.0, push_period=0.5, announce_interval=0.4)
    rng = Random(5)
    sends = [(t, wire.RequestMsg(rng.randbytes(12)).encode())
             for t in (1.0, 1.0, 1.0, 1.0, 1.45, 1.5, 1.55)]

    def run():
        device = device_mod.Device(record, b"image", Random(6), mode=device_mod.Mode.BLEND,
                                   blend=policy)
        world, node = _request_world(
            record, simnet.LinkConfig(latency_min=0.0, latency_max=0.0), device, sends)
        pool_batch, batched = device.pool_batch, []

        def recording_batch(requests):
            batched.extend(t for t, _ in requests)
            pool_batch(requests)

        device.pool_batch = recording_batch
        metrics = world.run_until(1.6)
        state = _device_state(device)
        metrics = world.run_until(4.0)
        return state, _device_state(device), metrics.to_json(), batched

    fast, reference = _both_ways(run)
    assert fast[:3] == reference[:3]
    assert fast[3] == [1.45] and reference[3] == []
    assert fast[0][3] == 2.0  # push again from 1.5


def test_a_request_that_lands_as_a_window_closes_opens_the_next_one():
    """With no latency and one nonce per response, `a`'s request at 0.0
    opens a window that closes at 0.233, the instant `b`'s request lands:
    it must start the second response, not pool as if the window were open."""
    config = scenario.ScenarioConfig.from_dict({
        "seed": 3,
        "horizon": 2.0,
        "link": {"latency_min": 0.0, "latency_max": 0.0},
        "devices": [{"name": "d", "pool_max": 1}],
        "users": [{"name": name, "arrival": {"kind": "burst", "count": 1, "start": start}}
                  for name, start in (("a", 0.0), ("b", device_mod.T_RES))],
    })

    def run():
        built = scenario.build_world(config)
        metrics = built.world.run_until(config.horizon)
        (node,) = built.device_nodes
        return (metrics.to_json(), node.device.counters.responses, list(node.device.pool_tmp),
                [len(user.reports) for user in built.agent_nodes])

    fast, reference = _both_ways(run)
    assert fast == reference
    assert fast[1:] == (2, [], [1, 1])


def test_shared_decode_equals_a_fresh_decode_of_every_delivered_payload(monkeypatch):
    delivered, decoded = [], []
    real_deliver, real_decode = simnet.AgentNode.handle_deliver, wire.decode

    def recording_deliver(node, frame, now):
        delivered.append(frame.payload)
        real_deliver(node, frame, now)

    def counted_decode(payload):
        decoded.append(payload)
        return real_decode(payload)

    monkeypatch.setattr(simnet.AgentNode, "handle_deliver", recording_deliver)
    monkeypatch.setattr(wire, "decode", counted_decode)
    wire.parse_signed.cache_clear()
    scenario.run_scenario(scenario.ScenarioConfig.from_dict(_FLOOD))
    monkeypatch.undo()
    distinct = set(delivered)
    assert sorted(decoded) == sorted(distinct)  # one decode per payload, for every user
    kinds = set()
    for payload in distinct:
        wire.parse_signed.cache_clear()
        message, pooled, region = wire.parse_signed(payload)
        assert message == wire.decode(payload)
        kinds.add(type(message))
        nonces = message.pooled_nonces if isinstance(message, wire.ResponseMsg) else ()
        assert pooled == frozenset(nonces)
        assert region == wire.signed_region(message)
    assert kinds == {wire.ResponseMsg, wire.AnnouncementMsg}


def test_blend_rate_window_stays_bounded_under_a_long_flood():
    """The window keeps one request more than the threshold, which is all
    the switch reads: every switch time equals the unbounded window's."""
    config = scenario.ScenarioConfig.from_dict({
        "seed": 3,
        "horizon": 20.0,
        "devices": [{"name": "blend0", "t_gen": 1.0, "pool_tmp_cap": 258, "mode": "blend",
                     "blend": {"switch_threshold": 100, "window": 3600.0, "push_period": 8.0,
                               "announce_interval": 1.0}}],
        "users": [{"name": "user0", "arrival": {"kind": "periodic", "interval": 0.5}}],
        "adversaries": [{"name": "flooder", "behavior": "flood", "rate": 1000.0}],
    })

    def run(window):
        built = scenario.build_world(config)
        device = built.device_nodes[0].device
        if window is not None:
            device._arrivals = window
        sizes = []

        def sample(now):
            sizes.append(len(device._arrivals))
            built.world.schedule_action(now + 0.25, sample)

        built.world.schedule_action(0.0, sample)
        switches = []
        blend_step = device.blend_step

        def recording_step(now):
            actions = blend_step(now)
            switches.extend(a.at for a in actions)
            return actions

        device.blend_step = recording_step
        metrics = built.world.run_until(config.horizon)
        return max(sizes), switches, metrics.to_json(), _user_outputs(built)

    bounded, unbounded = run(None), run(collections.deque())
    assert bounded[0] == 101
    assert unbounded[0] > 19_000  # every request of the run
    assert len(bounded[1]) == 3  # at the 101st request, then once per push period
    assert bounded[1:] == unbounded[1:]


@pytest.mark.parametrize("threshold, cap", [(100, 101), (2.5, 3), (1e300, None), (math.inf, None)])
def test_blend_rate_window_cap(threshold, cap):
    policy = device_mod.BlendPolicy(threshold, 1.0, 1.0, 1.0)
    assert device_mod._arrivals_cap(policy) == cap
    assert device_mod._arrivals_cap(None) is None


def test_only_the_replay_adversary_hears_frames():
    config = _hotel_config(
        horizon=30.0,
        adversaries=[
            {"name": behavior, "behavior": behavior, "rate": 5.0}
            for behavior in ("flood", "forge_response", "forge_request")
        ],
    )

    def run():
        with mock.patch.object(simnet.AdversaryNode, "handle_deliver", autospec=True) as handler:
            _, report = scenario.run_scenario(config)
        rx = {name: m.rx_frames for name, m in report.metrics.per_node.items()}
        return handler.call_count, rx, report.metrics.to_json()

    fast, reference = _both_ways(run)
    assert fast == reference
    handled, rx, _ = fast
    assert handled == 0
    assert rx["flood"] > 0 and rx["forge_response"] > 0 and rx["forge_request"] > 0


def _recorded_heapq(pushed: list):
    """A stand-in for the simulator's heapq that records every pushed event."""

    def heappush(queue, item):
        pushed.append(item)
        heapq.heappush(queue, item)

    return types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop)


def _stale_copies(link: simnet.LinkConfig, scan_window: float, arrivals: simnet.ArrivalModel,
                  stale: bytes | None = None):
    """Ten copies, sent from 1.0 s, of `stale` (by default a response that
    pools none of one user's requests), run both ways: the user's discards
    and reports, its rx frames and the delivery events queued for it."""
    rng = Random(7)
    if stale is None:
        stale = wire.ResponseMsg(
            rng.randbytes(12), (rng.randbytes(12),), b"ZZzzZZzzZZzzZZ",
            wire.AttReport(wire.ATT_SUCCESS, 0), rng.randbytes(64),
        ).encode()

    def run():
        world = simnet.World(seed=1, link=link)
        world.add_node(Sink("tx"))
        user = agent.UserAgent((), registration.ManifestStore(), Random(2), scan_window)
        node = world.add_node(simnet.AgentNode("user", user, arrivals))
        world.schedule_action(1.0, functools.partial(world.retransmit, "tx", stale))
        pushed = []
        with mock.patch.object(simnet, "heapq", _recorded_heapq(pushed)):
            world.run_until(2.0)
        deliveries = sum(item[3] is node for item in pushed)
        return node.discards, len(node.reports), node.counters.rx_frames, deliveries

    return _both_ways(run)


def test_ten_copies_of_one_stale_response_make_one_discard():
    fast, reference = _stale_copies(simnet.LinkConfig(), 10.0, simnet.ArrivalModel("burst", count=1))
    assert fast == ({"stale-or-replay": 1}, 0, 10, 1)
    assert reference == ({"stale-or-replay": 1}, 0, 10, 10)  # every copy reaches handle_deliver


def test_a_copy_landing_after_its_record_lapses_is_handled_again():
    # Every frame takes 20 ms and a record lasts 50 ms. Copy 1 lands at
    # +20 ms; copy 3 is sent at +60 ms, before that record lapses at +70 ms,
    # and lands after it, at +80 ms.
    link = simnet.LinkConfig(latency_min=0.02, latency_max=0.02)
    fast, reference = _stale_copies(link, 0.05, simnet.ArrivalModel("periodic", interval=0.01))
    assert fast == ({"stale-or-replay": 5}, 0, 10, 5)  # copies 1, 3, 5, 7 and 9
    assert reference == ({"stale-or-replay": 5}, 0, 10, 10)


def test_copies_of_a_malformed_response_make_one_discard_per_window():
    malformed = wire.ID_RESPONSE + bytes(40)  # a response's identifier, then nothing that parses
    burst = simnet.ArrivalModel("burst", count=1)
    fast, reference = _stale_copies(simnet.LinkConfig(), 10.0, burst, malformed)
    assert fast == ({"malformed": 1}, 0, 10, 1)
    assert reference == ({"malformed": 1}, 0, 10, 10)
    # The record-lapse timing of the stale case above: copies 1, 3, 5, 7 and 9.
    link = simnet.LinkConfig(latency_min=0.02, latency_max=0.02)
    periodic = simnet.ArrivalModel("periodic", interval=0.01)
    fast, reference = _stale_copies(link, 0.05, periodic, malformed)
    assert fast == ({"malformed": 5}, 0, 10, 5)
    assert reference == ({"malformed": 5}, 0, 10, 10)


def test_manifest_published_between_copies_is_reported():
    config = _hotel_config(
        horizon=10.0, users=[{"name": "user0", "arrival": {"kind": "burst", "count": 1, "start": 3.0}}]
    )
    built, _ = scenario.run_scenario(config, capture_frames=True)
    first = min(t for t, _, f in built.world.captured if f.payload.startswith(wire.ID_RESPONSE))

    def run():
        built = scenario.build_world(config)
        token, entry = built.store._entries.popitem()  # the one device's manifest
        # Copies go out every 30 ms and land within 10 ms: two land before this.
        built.world.schedule_action(first + 0.045, lambda now: built.store.put(token, *entry))
        metrics = built.world.run_until(config.horizon)
        node = built.agent_nodes[0]
        return node.discards, [r.received_at for r in node.reports], metrics.to_json()

    fast, reference = _both_ways(run)
    assert fast == reference
    discards, received, _ = fast
    assert discards == {"manifest-unavailable": 2}
    assert len(received) == 1 and first + 0.06 < received[0] <= first + 0.07  # the third copy


class _Deaf(Sink):
    """A sink that hears requests only."""

    hears = frozenset({wire.ID_REQUEST})


def _queued_rx_counts(world):
    """Arrival times of the queued events that only count an unheard frame."""
    return sorted(
        at for at, _, _, node, call in world._queue
        if node is None and getattr(call, "func", None) is simnet._count_rx
    )


def _in_flight_world():
    """A response broadcast at t = 1.0 to a node that does not hear
    responses; every frame takes 0.5 s."""
    world = simnet.World(seed=1, link=simnet.LinkConfig(latency_min=0.5, latency_max=0.5))
    world.add_node(Sink("tx"))
    deaf = world.add_node(_Deaf("rx"))
    world.schedule_action(1.0, functools.partial(world.broadcast, "tx", wire.ID_RESPONSE + bytes(8)))
    return world, deaf


@pytest.mark.parametrize("queue_unheard", [False, True], ids=["filtered", "reference"])
def test_unheard_frame_in_flight_at_the_horizon_counts_in_the_next_run(queue_unheard):
    with mock.patch.object(simnet.World, "_queue_unheard", queue_unheard):
        world, deaf = _in_flight_world()
        for horizon in (1.2, 1.4):  # due at 1.5; a run that ended here never counts it
            world.run_until(horizon)
            assert (deaf.counters.rx_frames, deaf.counters.rx_bytes) == (0, 0)
            assert _queued_rx_counts(world) == [1.5]
        world.run_until(2.0)
    assert (deaf.counters.rx_frames, deaf.counters.rx_bytes) == (1, 14)
    assert deaf.received == [] and _queued_rx_counts(world) == []


def test_unheard_frame_due_at_the_horizon_counts_in_that_run_only_if_sent_within_it():
    world = simnet.World(seed=1, link=simnet.LinkConfig(latency_min=0.0, latency_max=0.0))
    world.add_node(Sink("tx"))
    deaf = world.add_node(_Deaf("rx"))
    world.schedule_action(1.0, functools.partial(world.broadcast, "tx", wire.ID_RESPONSE))
    world.run_until(1.0)
    assert deaf.counters.rx_frames == 1
    world.broadcast("tx", wire.ID_RESPONSE, 1.0)  # between runs: waits like a queued delivery
    assert deaf.counters.rx_frames == 1
    world.run_until(1.0)
    assert deaf.counters.rx_frames == 2


@functools.cache
def _hotel_send_times() -> tuple[float, ...]:
    doc = json.loads((Path(__file__).parent.parent / "scenarios" / "hotel.json").read_text())
    built, _ = scenario.run_scenario(scenario.ScenarioConfig.from_dict(doc), capture_frames=True)
    return tuple(sent for sent, _, _ in built.world.captured)


@given(st.lists(st.tuples(st.integers(0), st.floats(0.0, 0.01)), min_size=1, max_size=4))
@settings(max_examples=10, deadline=None)
def test_split_while_frames_are_in_flight_defers_only_those_frames(cuts):
    # Each horizon falls within 10 ms (the latency bound) after a broadcast.
    sent = _hotel_send_times()
    doc = json.loads((Path(__file__).parent.parent / "scenarios" / "hotel.json").read_text())
    built = scenario.build_world(scenario.ScenarioConfig.from_dict(doc))
    world = built.world
    for horizon in sorted(sent[i % len(sent)] + dt for i, dt in cuts):
        world.run_until(horizon)
        bound = horizon + world.link.latency_max + 1e-9
        assert all(horizon < at <= bound for at in _queued_rx_counts(world))
    metrics = world.run_until(doc["horizon"])
    assert metrics.to_json() == _hotel_metrics_json()
