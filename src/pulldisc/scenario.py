"""Scenario configs: strict JSON schema, validation, and world building.

A scenario declares the seed (mandatory: runs must be reproducible), the
horizon, link behavior, and the participating nodes. Unknown keys are
rejected outright so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any

from . import agent as agent_mod
from . import crypto
from . import device as device_mod
from . import registration, simnet, wire


class ConfigError(ValueError):
    """Scenario file missing, malformed, or schema-violating."""


_LINK_KEYS = {"p_loss", "latency_min", "latency_max", "randomize_addresses", "manifest_fetch_delay"}
_DEVICE_KEYS = {
    "name", "mode", "t_att", "t_gen", "pool_max", "t_res", "t_att_exec",
    "announce_interval", "announce_wire_size", "pool_tmp_cap", "blend",
    "device_type", "software_version", "domain",
}
_BLEND_KEYS = {"switch_threshold", "window", "push_period", "announce_interval"}
_USER_KEYS = {"name", "arrival", "scan_window", "domain"}
_ARRIVAL_KEYS = {"kind", "interval", "start", "count"}
_ADVERSARY_KEYS = {"name", "behavior", "rate", "stop", "record_until", "replay_at", "domain"}
_DEFAULT_ARRIVAL = {"kind": "periodic"}
_TOP_KEYS = {"seed", "horizon", "mode", "link", "devices", "users", "adversaries", "output"}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@dataclass
class ScenarioConfig:
    seed: int
    horizon: float
    mode: str = "db"
    link: dict = field(default_factory=dict)
    devices: list = field(default_factory=list)
    users: list = field(default_factory=list)
    adversaries: list = field(default_factory=list)
    output: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError("scenario must be a JSON object")
        _require_keys(doc, _TOP_KEYS, "scenario")
        if "seed" not in doc:
            raise ConfigError("scenario requires an explicit seed")
        if "horizon" not in doc or doc["horizon"] <= 0:
            raise ConfigError("scenario requires a positive horizon")
        mode = doc.get("mode", "db")
        if mode != "db":
            raise ConfigError(f"unsupported scenario mode {mode!r}; only 'db' runs "
                              "(push and blend are set per device)")
        link = doc.get("link", {})
        _require_keys(link, _LINK_KEYS, "link")
        for dev in doc.get("devices", []):
            _require_keys(dev, _DEVICE_KEYS, f"device {dev.get('name', '?')}")
            if "blend" in dev and dev["blend"] is not None:
                _require_keys(dev["blend"], _BLEND_KEYS, "blend policy")
        for user in doc.get("users", []):
            where = f"user {user.get('name', '?')}"
            _require_keys(user, _USER_KEYS, where)
            arrival = user.get("arrival", _DEFAULT_ARRIVAL)
            _require_keys(arrival, _ARRIVAL_KEYS, "arrival")
            try:
                simnet.ArrivalModel(**arrival)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad arrival for {where}: {exc}") from None
        for adv in doc.get("adversaries", []):
            _require_keys(adv, _ADVERSARY_KEYS, f"adversary {adv.get('name', '?')}")
            if adv.get("behavior") not in ("flood", "replay", "forge_response", "forge_request"):
                raise ConfigError(f"unknown adversary behavior {adv.get('behavior')!r}")
        return cls(
            seed=int(doc["seed"]),
            horizon=float(doc["horizon"]),
            mode=mode,
            link=link,
            devices=list(doc.get("devices", [])),
            users=list(doc.get("users", [])),
            adversaries=list(doc.get("adversaries", [])),
            output=doc.get("output"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"scenario file {path} does not exist")
        try:
            doc = json.loads(path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "mode": self.mode,
            "link": dict(self.link),
            "devices": [dict(d) for d in self.devices],
            "users": [dict(u) for u in self.users],
            "adversaries": [dict(a) for a in self.adversaries],
            "output": self.output,
        }


@dataclass
class BuiltScenario:
    world: simnet.World
    config: ScenarioConfig
    store: registration.ManifestStore
    trust_keys: tuple[bytes, ...]
    device_nodes: list[simnet.DeviceNode]
    agent_nodes: list[simnet.AgentNode]


def build_world(config: ScenarioConfig, capture_frames: bool = False) -> BuiltScenario:
    """Provision every configured device and assemble the network."""
    link = simnet.LinkConfig(**config.link)
    world = simnet.World(config.seed, link, capture_frames=capture_frames)
    provision_rng = Random(f"provision/{config.seed}")
    mfr = crypto.generate_keypair(provision_rng)
    store = registration.ManifestStore()
    trust_keys = (mfr.public_key,)

    device_nodes = []
    for spec in config.devices:
        name = spec["name"]
        descriptor = registration.DeviceDescriptor(
            device_type=spec.get("device_type", "sensor"),
            sensors_actuators=("temperature",),
            software_version=spec.get("software_version", "1.0"),
            coarse_location="site",
            software_image=f"image/{name}".encode(),
            full_url=f"https://devices.example/{name}",
        )
        record = registration.provision_db_device(
            mfr,
            descriptor,
            t_att=spec.get("t_att", 300.0),
            t_gen=spec.get("t_gen", 1.0),
            pool_max=spec.get("pool_max", wire.RESPONSE_MAX_NONCES),
            store=store,
            rng=provision_rng,
        )
        blend_cfg = spec.get("blend")
        blend = device_mod.BlendPolicy(**blend_cfg) if blend_cfg else None
        dev = device_mod.Device(
            record,
            descriptor.software_image,
            world.node_rng(name),
            mode=device_mod.Mode(spec.get("mode", "pull")),
            blend=blend,
            t_res=spec.get("t_res", device_mod.DEFAULT_T_RES),
            t_att_exec=spec.get("t_att_exec", device_mod.DEFAULT_T_ATT_EXEC),
            announce_interval=spec.get("announce_interval", 1.0),
            announce_wire_size=spec.get("announce_wire_size", device_mod.DEFAULT_ANNOUNCE_WIRE_SIZE),
            pool_tmp_cap=spec.get("pool_tmp_cap"),
        )
        device_nodes.append(
            world.add_node(simnet.DeviceNode(name, dev, domain=spec.get("domain", "default")))
        )

    agent_nodes = []
    for spec in config.users:
        name = spec["name"]
        user = agent_mod.UserAgent(
            trust_keys, store, world.node_rng(name), scan_window=spec.get("scan_window", 10.0)
        )
        arrival = simnet.ArrivalModel(**spec.get("arrival", _DEFAULT_ARRIVAL))
        agent_nodes.append(
            world.add_node(
                simnet.AgentNode(name, user, arrival, domain=spec.get("domain", "default"))
            )
        )

    for spec in config.adversaries:
        name = spec["name"]
        world.add_node(
            simnet.AdversaryNode(
                name,
                behavior=spec["behavior"],
                rng=world.node_rng(name),
                rate=spec.get("rate", 100.0),
                stop=spec.get("stop", float("inf")),
                record_until=spec.get("record_until", 0.0),
                replay_at=spec.get("replay_at"),
                domain=spec.get("domain", "default"),
            )
        )

    return BuiltScenario(
        world=world,
        config=config,
        store=store,
        trust_keys=trust_keys,
        device_nodes=device_nodes,
        agent_nodes=agent_nodes,
    )


@dataclass
class RunReport:
    """Everything needed to audit one run: config echo, metrics, checks."""

    config: dict
    metrics: simnet.Metrics
    checks: dict[str, bool]
    tool_version: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool_version": self.tool_version,
                "config": self.config,
                "checks": dict(sorted(self.checks.items())),
                "metrics": json.loads(self.metrics.to_json()),
            },
            sort_keys=True,
            indent=2,
        )


def run_scenario(config: ScenarioConfig, capture_frames: bool = False) -> tuple[BuiltScenario, RunReport]:
    from . import __version__

    built = build_world(config, capture_frames=capture_frames)
    metrics = built.world.run_until(config.horizon)
    total_tx = sum(m.tx_bytes for m in metrics.per_node.values())
    total_rx = sum(m.rx_bytes for m in metrics.per_node.values())
    checks = {
        "busy_within_horizon": all(
            m.busy_seconds <= config.horizon + 1e-9 for m in metrics.per_node.values()
        ),
        "conservation_rx_le_tx": total_rx
        <= total_tx * max(1, len(metrics.per_node) - 1),
        "counters_nonnegative": all(
            min(m.tx_bytes, m.rx_bytes, m.signatures, m.attestations) >= 0
            for m in metrics.per_node.values()
        ),
    }
    for node in built.agent_nodes:
        metrics.latencies[node.name] = node.latencies
    report = RunReport(
        config=config.to_dict(),
        metrics=metrics,
        checks=checks,
        tool_version=__version__,
    )
    return built, report


def metrics_csv(metrics: simnet.Metrics) -> str:
    lines = ["node,busy_seconds,signatures,attestations,tx_bytes,rx_bytes,tx_frames,rx_frames"]
    for name, m in sorted(metrics.per_node.items()):
        lines.append(
            f"{name},{m.busy_seconds:.6f},{m.signatures},{m.attestations},"
            f"{m.tx_bytes},{m.rx_bytes},{m.tx_frames},{m.rx_frames}"
        )
    return "\n".join(lines) + "\n"
