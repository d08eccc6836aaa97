"""The three seeded workloads, their output checks and their digests.

Each workload is a fixed amount of simulated work. Users are open-loop in
simulated time: they send on their schedule whether or not anyone answers.
The benchmark seed is turned into a scenario config (discovery workloads)
or into the owner, fleet and adversary objects (inventory); the program
sees only those.

``build`` is the timed set-up, ``observe`` installs per-instance hooks that
record what the simulation produced, ``run`` is the timed
``World.run_until`` and ``outcome`` turns the hooks' records into
simulated latency samples, operation counts, output checks and a digest.
The hooks wrap public methods of single objects, so they cost the same on
every commit and leave the layers' class attributes to the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random

from pulldisc import agent, crypto, scenario, simnet, wire
from pulldisc.inventory import DEVICE_ID_LEN, ImDiscard, ImReceipt, Owner, build_device_info


@dataclass
class Outcome:
    latencies: list[float]  # simulated seconds, one per sample
    ops_attempted: int
    ops_failed: int
    checks: dict[str, bool]
    digest: dict = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)  # per-layer counts


def generic_checks(metrics: simnet.Metrics, horizon: float) -> dict[str, bool]:
    """The sanity checks ``scenario.run_scenario`` applies to every run."""
    nodes = metrics.per_node.values()
    total_tx = sum(m.tx_bytes for m in nodes)
    total_rx = sum(m.rx_bytes for m in nodes)
    return {
        "busy_within_horizon": all(m.busy_seconds <= horizon + 1e-9 for m in nodes),
        "conservation_rx_le_tx": total_rx <= total_tx * max(1, len(metrics.per_node) - 1),
        "counters_nonnegative": all(
            min(m.tx_bytes, m.rx_bytes, m.signatures, m.attestations) >= 0 for m in nodes
        ),
    }


# -- discovery workloads (crowd, flood) ---------------------------------------


class _DiscoveryObserver:
    """Records each request and the first verified report per
    (request nonce, device nonce) pair, independent of how many
    retransmitted copies the agent verifies; which device signed each
    response, and the first few responses; and every payload the
    ``forger`` node broadcast."""

    SAMPLES = 16  # genuine responses kept for the tampering check

    def __init__(self, built: scenario.BuiltScenario, forger: str | None):
        self.delay = built.world.link.manifest_fetch_delay
        self.sent: dict[bytes, float] = {}
        self.first: dict[tuple[bytes, bytes], float] = {}  # response-sourced
        self.distinct: set[tuple[bytes, bytes]] = set()  # any source
        self.signer: dict[bytes, bytes] = {}  # device nonce -> device public key
        self.samples: list[wire.ResponseMsg] = []
        self.forged: list[bytes] = []
        for node in built.agent_nodes:
            self._hook(node.agent)
        for node in built.device_nodes:
            self._hook_device(node.device)
        if forger is not None:
            self._hook_broadcast(built.world, forger)

    def _hook_broadcast(self, world: simnet.World, forger: str) -> None:
        broadcast = world.broadcast

        def observed_broadcast(sender, payload, now, wire_size=None):
            if sender == forger:
                self.forged.append(payload)
            return broadcast(sender, payload, now, wire_size)

        world.broadcast = observed_broadcast

    def _hook_device(self, device) -> None:
        generate_response, key = device.generate_response, device.provisioning.keypair.public_key

        def observed_generate_response(now):
            response = generate_response(now)
            self.signer[response.device_nonce] = key
            if len(self.samples) < self.SAMPLES:
                self.samples.append(response)
            return response

        device.generate_response = observed_generate_response

    def _hook(self, user: agent.UserAgent) -> None:
        make_request, on_response = user.make_request, user.on_response

        def observed_make_request(now):
            payload, pending = make_request(now)
            self.sent[pending.nonce] = now
            return payload, pending

        def observed_on_response(pending, payload, now):
            result = on_response(pending, payload, now)
            if isinstance(result, agent.DeviceReport):
                key = (pending.nonce, result.device_nonce)
                self.distinct.add(key)
                if result.source is agent.ReportSource.RESPONSE and key not in self.first:
                    self.first[key] = now - pending.sent_at + self.delay
            return result

        user.make_request = observed_make_request
        user.on_response = observed_on_response


class Discovery:
    """A scenario-file workload built with ``scenario.build_world``."""

    name = ""
    horizon = 0.0
    warmup_horizon = 0.0
    scan_window = 10.0
    forger: str | None = None  # adversary whose forged responses must not be accepted
    required_layers = (
        "scenario.build_world", "registration.provision", "simnet.broadcast",
        "device.on_frame", "device.on_timer", "device.generate_response", "crypto.sign",
        "wire.encode", "wire.decode", "wire.signed_region", "agent.on_response",
        "registration.verify_manifest", "crypto.verify",
    )

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def build(self, seed: int, horizon: float | None = None) -> scenario.BuiltScenario:
        doc = self.config(seed)
        if horizon is not None:
            doc["horizon"] = horizon
        return scenario.build_world(scenario.ScenarioConfig.from_dict(doc))

    def observe(self, built: scenario.BuiltScenario) -> _DiscoveryObserver:
        return _DiscoveryObserver(built, self.forger)

    def run(self, built: scenario.BuiltScenario) -> simnet.Metrics:
        return built.world.run_until(built.config.horizon)

    def outcome(self, built: scenario.BuiltScenario, obs: _DiscoveryObserver) -> Outcome:
        horizon = built.config.horizon
        # An operation is a request whose scan window closed before the
        # horizon; it fails if no verified response-sourced report came.
        ops = {n for n, t in obs.sent.items() if t + self.scan_window <= horizon}
        answered = {nonce for nonce, _ in obs.first}
        latencies = sorted(v for (nonce, _), v in obs.first.items() if nonce in ops)
        metrics = built.world.metrics
        discards: dict[str, int] = {}
        for node in built.agent_nodes:
            for reason, n in node.discards.items():
                discards[reason] = discards.get(reason, 0) + n
        reports = [r for node in built.agent_nodes for r in node.reports]
        devices = [node.device.counters for node in built.device_nodes]
        checks = generic_checks(metrics, horizon)
        # DeviceReport.verified is always True, so check instead that each
        # response-sourced report names the device that signed the response.
        checks["reports_name_their_signer"] = all(
            obs.signer.get(r.device_nonce) == r.manifest.device_public_key
            for r in reports
            if r.source is agent.ReportSource.RESPONSE
        )
        checks["enough_latency_samples"] = len(latencies) >= 1000
        checks.update(self.extra_checks(built, obs, reports, discards))
        digest = {
            "deliveries": sum(m.rx_frames for m in metrics.per_node.values()),
            "frames_dropped": metrics.frames_dropped,
            "reports": len(reports),
            "distinct_reports": len(obs.distinct),
            "discards": dict(sorted(discards.items())),
            "responses": [c.responses for c in devices],
            "announcements": [c.announcements for c in devices],
            "dropped_nonces": [c.dropped_nonces for c in devices],
            "latencies": latencies,
        }
        counters = {
            "agent.distinct_reports": len(obs.distinct),
            "device.responses": sum(c.responses for c in devices),
            "device.announcements": sum(c.announcements for c in devices),
            "device.dropped_nonces": sum(c.dropped_nonces for c in devices),
            "device.pool_tmp_peak": max(c.pool_tmp_peak for c in devices),
            "simnet.deliveries": digest["deliveries"],
            "simnet.frames_dropped": metrics.frames_dropped,
        }
        for reason in agent.DiscardReason:
            counters[f"agent.discards.{reason.value}"] = discards.get(reason.value, 0)
        return Outcome(latencies, len(ops), len(ops - answered), checks, digest, counters)

    def extra_checks(self, built, obs, reports, discards) -> dict[str, bool]:
        return {}


class Crowd(Discovery):
    """Discovery with no adversary: 8 pull devices, 12 Poisson users at a
    30 s mean interval, 1% loss, a 600 s horizon. Loads the user-side
    receive path (decode, manifest and signature verification) and keeps
    the long horizon so that growth of per-agent state shows."""

    name = "crowd"
    horizon = 600.0
    warmup_horizon = 30.0

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "horizon": self.horizon,
            "link": {"p_loss": 0.01},
            "devices": [{"name": f"dev{i:02d}", "t_gen": 1.0} for i in range(8)],
            "users": [
                {
                    "name": f"user{i:02d}",
                    "arrival": {"kind": "poisson", "interval": 30.0},
                    "scan_window": self.scan_window,
                }
                for i in range(12)
            ],
        }

    def extra_checks(self, built, obs, reports, discards):
        return {"only_stale_discards": set(discards) <= {"stale-or-replay"}}


class Flood(Discovery):
    """The DoS case: three pull devices with a capped overflow list and one
    blend device under a 1000 req/s request flood for the first 12 s, a
    2/s response forger, and 8 legitimate users each sending every
    0.15 s, enough for 1,000 latency samples. Devices pool 129 nonces per
    response, overflow and drop nonces; agents decode every response and
    discard those that pool none of their nonces. After the flood stops
    the blend device, still in its push period, announces."""

    name = "flood"
    horizon = 16.0
    warmup_horizon = 1.5
    scan_window = 5.0
    pool_tmp_cap = 258
    forger = "forger"

    def config(self, seed: int) -> dict:
        offsets = Random(f"perfbench/flood/{seed}")
        pull = {"t_gen": 1.0, "pool_tmp_cap": self.pool_tmp_cap}
        devices = [dict(pull, name=f"pull{i}") for i in range(3)]
        devices.append(
            dict(
                pull,
                name="blend0",
                mode="blend",
                blend={
                    "switch_threshold": 100,
                    "window": 1.0,
                    "push_period": 8.0,
                    "announce_interval": 1.0,
                },
            )
        )
        users = [
            {
                "name": f"user{i:02d}",
                "arrival": {
                    "kind": "periodic",
                    "interval": 0.15,
                    "start": offsets.uniform(0.0, 0.15),
                },
                "scan_window": self.scan_window,
            }
            for i in range(8)
        ]
        return {
            "seed": seed,
            "horizon": self.horizon,
            "link": {"p_loss": 0.01},
            "devices": devices,
            "users": users,
            "adversaries": [
                {"name": "flooder", "behavior": "flood", "rate": 1000.0, "stop": 12.0},
                {"name": "forger", "behavior": "forge_response", "rate": 2.0},
            ],
        }

    def extra_checks(self, built, obs, reports, discards):
        forged = [wire.decode(payload) for payload in obs.forged]
        forged_nonces = {m.device_nonce for m in forged}
        counters = [node.device.counters for node in built.device_nodes]
        # In the run a forged response pools a random nonce, so nonce
        # matching drops it before verification. Hand each one to a
        # verifier with a request that owns its nonce, and tamper with
        # genuine responses, so that manifest and signature checks are
        # exercised too.
        verifier = agent.UserAgent(built.trust_keys, built.store, Random(0))

        def verdict(message, payload):
            pending = agent.PendingRequest(message.pooled_nonces[0], 0.0, built.config.horizon)
            return verifier.on_response(pending, payload, 0.0)

        tampered = [
            replace(m, att_report=wire.AttReport(
                wire.ATT_FAIL if m.att_report.result == wire.ATT_SUCCESS else wire.ATT_SUCCESS,
                m.att_report.seconds_since,
            ))
            for m in obs.samples
        ]
        return {
            "forger_sent": bool(forged),
            "no_forged_report": not any(r.device_nonce in forged_nonces for r in reports),
            "forged_responses_fail_verification": all(
                not isinstance(verdict(m, p), agent.DeviceReport)
                for m, p in zip(forged, obs.forged)
            ),
            "genuine_responses_verify": bool(obs.samples) and all(
                isinstance(verdict(m, m.encode()), agent.DeviceReport) for m in obs.samples
            ),
            "tampered_responses_fail_signature": bool(tampered) and all(
                verdict(m, m.encode()) is agent.DiscardReason.SIGNATURE_INVALID
                for m in tampered
            ),
            "pool_tmp_within_cap": all(c.pool_tmp_peak <= self.pool_tmp_cap for c in counters),
            "nonces_dropped": sum(c.dropped_nonces for c in counters) > 0,
            "blend_announced": built.world.nodes["blend0"].device.counters.announcements > 0,
        }


# -- inventory ------------------------------------------------------------------

IMAGE = bytes(range(256))


@dataclass
class InventoryWorld:
    world: simnet.World
    owners: dict[str, simnet.OwnerNode]  # domain -> owner node
    rounds: dict[str, list[float]]
    in_range: dict[str, int]
    devices: list[simnet.ImDeviceNode]
    horizon: float


class _InventoryObserver:
    def __init__(self, built: InventoryWorld):
        self.sender: dict[bytes, bytes] = {}  # response payload -> device id
        self.received: list[tuple[bytes, ImReceipt | ImDiscard]] = []
        for node in built.devices:
            self._hook_device(node.device)
        for node in built.owners.values():
            self._hook_owner(node.owner)

    def _hook_device(self, device) -> None:
        respond, device_id = device.respond, device.device_info[:DEVICE_ID_LEN]

        def observed_respond(payload):
            response = respond(payload)
            if response is not None:
                self.sender[response] = device_id
            return response

        device.respond = observed_respond

    def _hook_owner(self, owner: Owner) -> None:
        receive = owner.receive

        def observed_receive(payload):
            result = receive(payload)
            self.received.append((payload, result))
            return result

        owner.receive = observed_receive


class Inventory:
    """The owner-solicited variant, in two broadcast domains.

    ``naive``: an owner with 8,000 enrolled keys of which 32 devices are in
    range, so identifying a response is an O(n) trial-decryption scan. The
    in-range devices sit at one random position in each of 32 equal strata
    of the key table, which keeps the scan length nearly the same for
    every seed.

    ``lkh``: a 128-device key-tree fleet with a replaying and a request
    forging adversary. Replays make the tree walk miss and fall back to the
    naive scan; forged requests cost every device one ECDSA verify.
    """

    name = "inventory"
    horizon = 15.0
    required_layers = (
        "inventory.enroll", "keytree.build_tree", "simnet.broadcast", "inventory.respond",
        "crypto.verify", "keytree.build_header", "crypto.sign", "wire.encode", "wire.decode",
        "wire.signed_region", "inventory.receive", "keytree.retrieve_lkh",
        "keytree.retrieve_naive",
    )
    warmup_horizon = 1.5
    naive_keys = 8000
    naive_in_range = 32
    fleet = 128

    def build(self, seed: int, horizon: float | None = None) -> InventoryWorld:
        rng = Random(f"perfbench/inventory/{seed}")
        world = simnet.World(seed, simnet.LinkConfig(p_loss=0.0))
        rounds = {
            "naive": [1.0 + 3.0 * k for k in range(5)],
            "lkh": [1.0 + 1.5 * k for k in range(9)],
        }
        owners, devices = {}, []

        naive_owner = Owner(crypto.generate_keypair(rng), Random(rng.getrandbits(64)))
        stride = self.naive_keys // self.naive_in_range
        picks = {i * stride + rng.randrange(stride) for i in range(self.naive_in_range)}
        for k in range(self.naive_keys):
            info = build_device_info(f"naive{k:07d}".encode(), 1, 1)
            device = naive_owner.enroll_naive(info, IMAGE, rng)
            if k in picks:
                devices.append(simnet.ImDeviceNode(f"naive{k:07d}", device, domain="naive"))
        owners["naive"] = simnet.OwnerNode("owner-naive", naive_owner, rounds["naive"], "naive")

        lkh_owner = Owner(crypto.generate_keypair(rng), Random(rng.getrandbits(64)))
        infos = [build_device_info(f"fleet{k:07d}".encode(), 2, 1) for k in range(self.fleet)]
        fleet = lkh_owner.enroll_lkh_fleet(infos, IMAGE, 2, rng)
        devices.extend(
            simnet.ImDeviceNode(f"fleet{k:07d}", d, domain="lkh") for k, d in enumerate(fleet)
        )
        owners["lkh"] = simnet.OwnerNode("owner-lkh", lkh_owner, rounds["lkh"], "lkh")
        replayer = simnet.AdversaryNode(
            "replayer", "replay", Random(rng.getrandbits(64)),
            record_until=1.6, replay_at=[6.3], domain="lkh",
        )
        forger = simnet.AdversaryNode(
            "forger", "forge_request", Random(rng.getrandbits(64)), rate=1.0, domain="lkh"
        )

        for node in [*owners.values(), *devices, replayer, forger]:
            world.add_node(node)
        return InventoryWorld(
            world=world,
            owners=owners,
            rounds=rounds,
            in_range={"naive": self.naive_in_range, "lkh": self.fleet},
            devices=devices,
            horizon=self.horizon if horizon is None else horizon,
        )

    def observe(self, built: InventoryWorld) -> _InventoryObserver:
        return _InventoryObserver(built)

    def run(self, built: InventoryWorld) -> simnet.Metrics:
        return built.world.run_until(built.horizon)

    def outcome(self, built: InventoryWorld, obs: _InventoryObserver) -> Outcome:
        # An operation is one (round, in-range device) pair; it fails if the
        # owner records no receipt for it. A receipt answers the round whose
        # nonce was outstanding when it arrived.
        latencies, attempted, answered = [], 0, 0
        digest: dict = {}
        for domain, node in sorted(built.owners.items()):
            rounds = [t for t in built.rounds[domain] if t <= built.horizon]
            attempted += len(rounds) * built.in_range[domain]
            pairs = set()
            for now, receipt in node.receipts:
                index = max(i for i, t in enumerate(rounds) if t <= now)
                pairs.add((index, receipt.device_id))
                latencies.append(now - rounds[index])
            answered += len(pairs)
            digest[domain] = {
                "receipts": [(now, r.device_id.hex()) for now, r in node.receipts],
                "rejects": dict(sorted(node.rejects.items())),
            }
        latencies.sort()

        # Every response carries a fresh IV, so a payload the owner has
        # already seen can only be the replaying adversary's copy.
        seen, replays = set(), []
        for payload, result in obs.received:
            if payload in seen:
                replays.append(result)
            seen.add(payload)
        rejects: dict[str, int] = {}
        for node in built.owners.values():
            for reason, n in node.rejects.items():
                rejects[reason] = rejects.get(reason, 0) + n
        wasted = sum(node.device.counters.wasted_verifications for node in built.devices)
        metrics = built.world.metrics
        checks = generic_checks(metrics, built.horizon)
        checks.update(
            {
                "receipt_ids_match_sender": all(
                    obs.sender.get(payload) == result.device_id
                    for payload, result in obs.received
                    if isinstance(result, ImReceipt)
                ),
                "replays_seen": bool(replays),
                "replays_rejected_as_replay": all(r is ImDiscard.REPLAY for r in replays),
                "no_honest_frame_rejected": not rejects.get("forged-or-foreign")
                and not rejects.get("malformed"),
                "forged_requests_cost_verifies": wasted > 0,
                "enough_latency_samples": len(latencies) >= 1000,
            }
        )
        digest.update(
            deliveries=sum(m.rx_frames for m in metrics.per_node.values()),
            frames_dropped=metrics.frames_dropped,
            wasted_verifications=wasted,
            latencies=latencies,
        )
        counters = {
            "inventory.receipts": sum(len(node.receipts) for node in built.owners.values()),
            "inventory.wasted_verifications": wasted,
            "simnet.deliveries": digest["deliveries"],
            "simnet.frames_dropped": metrics.frames_dropped,
        }
        for reason in ImDiscard:
            counters[f"inventory.rejects.{reason.value}"] = rejects.get(reason.value, 0)
        return Outcome(latencies, attempted, attempted - answered, checks, digest, counters)


# Simulated per-layer counts; a workload that has no such layer reports 0.
COUNTERS = (
    *(f"agent.discards.{reason.value}" for reason in agent.DiscardReason),
    "device.responses", "device.announcements", "device.dropped_nonces", "device.pool_tmp_peak",
    "inventory.receipts", "inventory.wasted_verifications",
    *(f"inventory.rejects.{reason.value}" for reason in ImDiscard),
    "simnet.deliveries", "simnet.frames_dropped",
)

WORKLOADS = {w.name: w for w in (Crowd(), Flood(), Inventory())}
