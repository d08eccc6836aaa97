"""Scenario configs: strict JSON schema, validation, and world building.

A scenario declares the seed (mandatory: runs must be reproducible), the
horizon, link behavior, and the participating nodes. Unknown keys are
rejected outright so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from random import Random
from typing import Any

from . import agent as agent_mod
from . import crypto
from . import device as device_mod
from . import ranges, registration, simnet


class ConfigError(ValueError):
    """Scenario file missing, malformed, or schema-violating."""


# Optional node keys, grouped by the constructor that takes them. A key is
# passed on only when the config sets it, so the constructor's own default
# applies otherwise; keys whose constructor has no default take the
# scenario default given here.
_DESCRIPTOR_DEFAULTS = {"device_type": "sensor", "software_version": "1.0"}
_PROVISION_KEYS = ("t_att", "t_gen", "pool_max")
_DEVICE_ARGS = ("t_res", "t_att_exec", "announce_interval", "announce_wire_size", "pool_tmp_cap")
_USER_ARGS = ("scan_window",)
_NODE_ARGS = ("domain",)
_DEFAULT_ARRIVAL = {"kind": "periodic"}

# Device and user entries feed several constructors each, so their keys are
# listed here; every other section is checked by the one constructor it feeds.
_DEVICE_KEYS = {
    "name", "mode", "blend",
    *_DESCRIPTOR_DEFAULTS, *_PROVISION_KEYS, *_DEVICE_ARGS, *_NODE_ARGS,
}
_USER_KEYS = {"name", "arrival", *_USER_ARGS, *_NODE_ARGS}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _check(where: str, build):
    """Call `build`, a constructor call with no arguments left, at load;
    its own checks, unknown keys included, fail as a ConfigError."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


def _check_period(where: str, name: str, period: float, horizon: float) -> None:
    # A step the clock cannot add at the horizon would repeat one instant forever.
    if horizon + period == horizon:
        raise ConfigError(f"{where}: {name} {period!r} is below the clock's resolution "
                          f"at horizon {horizon!r}")


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
        _require_keys(doc, {f.name for f in fields(cls)}, "scenario")
        horizon = doc.get("horizon")
        _check("scenario", lambda: ranges.check(seed=doc.get("seed"), horizon=horizon))
        mode = doc.get("mode", "db")
        if mode != "db":
            raise ConfigError(f"unsupported scenario mode {mode!r}; only 'db' runs "
                              "(push and blend are set per device)")
        output = doc.get("output")
        if not (output is None or isinstance(output, str)):
            raise ConfigError(f"output must be null or a path, got {output!r}")
        link = doc.get("link", {})
        _check("link", lambda: simnet.LinkConfig(**link))
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
            _check(where, lambda: _descriptor(dev))
            # Keys, image and rng are first used in the run.
            record = _check(where, lambda: registration.DeviceProvisioningRecord(
                None, b"", b"", **_given(dev, _PROVISION_KEYS)))
            device = _check(
                where, lambda: device_mod.Device(None, b"", None, **_device_options(dev))
            )
            _check(where, lambda: simnet.DeviceNode(
                dev["name"], device, **_given(dev, _NODE_ARGS)))
            if "announce_interval" in dev and device.mode is not device_mod.Mode.PUSH:
                raise ConfigError(f"{where}: announce_interval applies only to mode 'push' "
                                  "(a blend device reads blend.announce_interval)")
            _check_period(where, "t_att", record.t_att, horizon)
            _check_period(where, "announce_interval", device.announce_interval, horizon)
            if device.blend is not None:
                _check_period(where, "blend.announce_interval", device.blend.announce_interval,
                              horizon)
        for user in users:
            where = f"user {user['name']}"
            _require_keys(user, _USER_KEYS, where)
            # Trust keys, store and rng are first used in the run.
            agent = _check(
                where, lambda: agent_mod.UserAgent((), None, None, **_given(user, _USER_ARGS))
            )
            arrival = user.get("arrival", _DEFAULT_ARRIVAL)
            arrivals = _check(f"arrival for {where}", lambda: simnet.ArrivalModel(**arrival))
            _check(where, lambda: simnet.AgentNode(
                user["name"], agent, arrivals, **_given(user, _NODE_ARGS)))
            if arrivals.kind != "burst":
                _check_period(f"arrival for {where}", "interval", arrivals.interval, horizon)
        for adv in adversaries:
            where = f"adversary {adv['name']}"
            # rng is first used in the run.
            node = _check(where, lambda: simnet.AdversaryNode(rng=None, **adv))
            _check_period(where, "1/rate", 1.0 / node.rate, horizon)
        return cls(
            seed=doc["seed"],
            horizon=float(horizon),
            mode=mode,
            link=link,
            devices=devices,
            users=users,
            adversaries=adversaries,
            output=output,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        try:
            doc = json.loads(Path(path).read_text("utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc.strerror}") from None
        except ValueError as exc:  # JSON, or the UTF-8 that JSON is written in
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return asdict(self)


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


def _descriptor(spec: dict) -> registration.DeviceDescriptor:
    name = spec["name"]
    return registration.DeviceDescriptor(
        **{**_DESCRIPTOR_DEFAULTS, **_given(spec, _DESCRIPTOR_DEFAULTS)},
        sensors_actuators=("temperature",),
        coarse_location="site",
        software_image=f"image/{name}".encode(),
        full_url=f"https://devices.example/{name}",
    )


def _device_options(spec: dict) -> dict:
    """The `Device` settings a device entry gives, `mode` and `blend` parsed."""
    options = _given(spec, _DEVICE_ARGS)
    if "mode" in spec:
        options["mode"] = device_mod.Mode(spec["mode"])
    if spec.get("blend") is not None:
        options["blend"] = device_mod.BlendPolicy(**spec["blend"])
    return options


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
        descriptor = _descriptor(spec)
        record = registration.provision_db_device(
            mfr, descriptor, store=store, rng=provision_rng, **_given(spec, _PROVISION_KEYS)
        )
        dev = device_mod.Device(
            record, descriptor.software_image, world.node_rng(name), **_device_options(spec)
        )
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
                "metrics": self.metrics.to_doc(),
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
