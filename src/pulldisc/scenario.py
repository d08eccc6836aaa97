"""Scenario configs: strict JSON schema, validation, and world building.

A scenario declares the seed (mandatory: runs must be reproducible), the
horizon, link behavior, and the participating nodes. Unknown keys are
rejected outright so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import json
import math
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


# Optional node keys, grouped by the constructor that takes them. A key is
# passed on only when the config sets it, so the constructor's own default
# applies otherwise; keys whose constructor has no default take the
# scenario default given here.
_DESCRIPTOR_DEFAULTS = {"device_type": "sensor", "software_version": "1.0"}
_PROVISION_DEFAULTS = {"t_att": 300.0, "t_gen": 1.0, "pool_max": wire.RESPONSE_MAX_NONCES}
_DEVICE_ARGS = ("t_res", "t_att_exec", "announce_interval", "announce_wire_size", "pool_tmp_cap")
_USER_ARGS = ("scan_window",)
_NODE_ARGS = ("domain",)
_DEFAULT_ARRIVAL = {"kind": "periodic"}

_LINK_KEYS = {"p_loss", "latency_min", "latency_max", "randomize_addresses", "manifest_fetch_delay"}
_DEVICE_KEYS = {
    "name", "mode", "blend",
    *_DESCRIPTOR_DEFAULTS, *_PROVISION_DEFAULTS, *_DEVICE_ARGS, *_NODE_ARGS,
}
_BLEND_KEYS = {"switch_threshold", "window", "push_period", "announce_interval"}
_USER_KEYS = {"name", "arrival", *_USER_ARGS, *_NODE_ARGS}
_ARRIVAL_KEYS = {"kind", "interval", "start", "count"}
_ADVERSARY_KEYS = {"name", "behavior", "rate", "stop", "record_until", "replay_at", *_NODE_ARGS}
_TOP_KEYS = {"seed", "horizon", "mode", "link", "devices", "users", "adversaries", "output"}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _check(where: str, make, *args, **kwargs) -> None:
    """Run a constructor's own value checks at load, as a ConfigError."""
    try:
        make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


def _named_entries(doc: dict, key: str) -> list[dict]:
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{key} must be a list of objects")
    for entry in entries:
        if not isinstance(entry.get("name"), str):
            raise ConfigError(f"every entry in {key} needs a string name")
    return list(entries)


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
        # Exact types: a bool is an int to isinstance, and would pass.
        if type(doc.get("seed")) is not int:
            raise ConfigError("scenario requires an explicit integer seed")
        horizon = doc.get("horizon")
        if not (type(horizon) in (int, float) and 0 < horizon < math.inf):
            raise ConfigError("scenario requires a positive, finite horizon")
        mode = doc.get("mode", "db")
        if mode != "db":
            raise ConfigError(f"unsupported scenario mode {mode!r}; only 'db' runs "
                              "(push and blend are set per device)")
        link = doc.get("link", {})
        _require_keys(link, _LINK_KEYS, "link")
        _check("link", simnet.LinkConfig, **link)
        devices, users, adversaries = (
            _named_entries(doc, key) for key in ("devices", "users", "adversaries")
        )
        names = [entry["name"] for entry in (*devices, *users, *adversaries)]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"node names must be unique; repeated: {repeated}")
        for dev in devices:
            where = f"device {dev['name']}"
            _require_keys(dev, _DEVICE_KEYS, where)
            _check(where, registration.check_provisioning,
                   **{**_PROVISION_DEFAULTS, **_given(dev, _PROVISION_DEFAULTS)})
            _check(where, device_mod.check_options, **_given(dev, _DEVICE_ARGS))
            if "mode" in dev:
                _check(where, device_mod.Mode, dev["mode"])
            dev_mode = dev.get("mode")
            if (dev_mode == "blend") != (dev.get("blend") is not None):
                raise ConfigError(f"{where}: mode 'blend' needs a blend policy, "
                                  "and a blend policy needs mode 'blend'")
            if dev_mode == "blend":
                _require_keys(dev["blend"], _BLEND_KEYS, "blend policy")
                _check(f"blend policy for {where}", device_mod.BlendPolicy, **dev["blend"])
            if "announce_interval" in dev and dev_mode != "push":
                raise ConfigError(f"{where}: announce_interval applies only to mode 'push' "
                                  "(a blend device reads blend.announce_interval)")
        for user in users:
            where = f"user {user['name']}"
            _require_keys(user, _USER_KEYS, where)
            # Trust keys, store and rng are first used in the run.
            _check(where, agent_mod.UserAgent, (), None, None, **_given(user, _USER_ARGS))
            arrival = user.get("arrival", _DEFAULT_ARRIVAL)
            _require_keys(arrival, _ARRIVAL_KEYS, "arrival")
            _check(f"arrival for {where}", simnet.ArrivalModel, **arrival)
        for adv in adversaries:
            where = f"adversary {adv['name']}"
            _require_keys(adv, _ADVERSARY_KEYS, where)
            _check(where, simnet.AdversaryNode, rng=None, **adv)  # rng is first used in the run
        return cls(
            seed=doc["seed"],
            horizon=float(horizon),
            mode=mode,
            link=link,
            devices=devices,
            users=users,
            adversaries=adversaries,
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


def _given(spec: dict, keys) -> dict:
    """The subset of `keys` that `spec` sets."""
    return {key: spec[key] for key in keys if key in spec}


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
            **{**_DESCRIPTOR_DEFAULTS, **_given(spec, _DESCRIPTOR_DEFAULTS)},
            sensors_actuators=("temperature",),
            coarse_location="site",
            software_image=f"image/{name}".encode(),
            full_url=f"https://devices.example/{name}",
        )
        record = registration.provision_db_device(
            mfr,
            descriptor,
            **{**_PROVISION_DEFAULTS, **_given(spec, _PROVISION_DEFAULTS)},
            store=store,
            rng=provision_rng,
        )
        options = _given(spec, _DEVICE_ARGS)
        if "mode" in spec:
            options["mode"] = device_mod.Mode(spec["mode"])
        if spec.get("blend") is not None:
            options["blend"] = device_mod.BlendPolicy(**spec["blend"])
        dev = device_mod.Device(record, descriptor.software_image, world.node_rng(name), **options)
        device_nodes.append(
            world.add_node(simnet.DeviceNode(name, dev, **_given(spec, _NODE_ARGS)))
        )

    agent_nodes = []
    for spec in config.users:
        name = spec["name"]
        user = agent_mod.UserAgent(
            trust_keys, store, world.node_rng(name), **_given(spec, _USER_ARGS)
        )
        arrival = simnet.ArrivalModel(**spec.get("arrival", _DEFAULT_ARRIVAL))
        agent_nodes.append(
            world.add_node(simnet.AgentNode(name, user, arrival, **_given(spec, _NODE_ARGS)))
        )

    for spec in config.adversaries:
        world.add_node(simnet.AdversaryNode(rng=world.node_rng(spec["name"]), **spec))

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
            min(m.busy_seconds, m.tx_bytes, m.rx_bytes, m.signatures, m.attestations) >= 0
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
    lines = [",".join(("node", *simnet.PER_NODE_FIELDS))]
    for name, m in sorted(metrics.per_node.items()):
        row = {f: getattr(m, f) for f in simnet.PER_NODE_FIELDS}
        row["busy_seconds"] = f"{m.busy_seconds:.6f}"
        lines.append(",".join([name, *map(str, row.values())]))
    return "\n".join(lines) + "\n"
