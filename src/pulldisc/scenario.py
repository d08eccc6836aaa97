"""Scenario configs: strict JSON schema, validation, and world building.

A scenario declares the seed (mandatory: runs must be reproducible), the
horizon, link behavior, and the participating nodes. Unknown keys are
rejected outright so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from random import Random

from . import agent as agent_mod
from . import crypto
from . import device as device_mod
from . import ranges, registration, simnet


class ConfigError(ValueError):
    """Scenario file missing, malformed, or schema-violating."""


# Optional node keys, grouped by the constructor that takes them. A key is
# passed on only when the config sets it, so the constructor's own default
# applies otherwise.
_DESCRIPTOR_KEYS = ("device_type", "software_version")
_PROVISION_KEYS = ("t_att", "t_gen", "pool_max")
_DEVICE_ARGS = ("t_res", "t_att_exec", "announce_interval", "announce_wire_size", "pool_tmp_cap")
_USER_ARGS = ("scan_window",)
_NODE_ARGS = ("domain",)
_DEFAULT_ARRIVAL = {"kind": "periodic"}

# Device and user entries feed several constructors each, so their keys are
# listed here; every other section is checked by the one constructor it feeds.
_DEVICE_KEYS = {
    "name", "mode", "blend",
    *_DESCRIPTOR_KEYS, *_PROVISION_KEYS, *_DEVICE_ARGS, *_NODE_ARGS,
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


# The most sends one schedule may make in a run: an attestation or
# announcement chain, a user's arrivals, or an adversary's emissions. Each
# send is at least one event, so this bounds the work a config asks for.
MAX_SENDS = 10**8


def _check_sends(where: str, name: str, value: float, sends: float) -> None:
    """Refuse a `name` of `value` that schedules more than MAX_SENDS sends;
    a period below the clock's resolution schedules more than that."""
    if sends > MAX_SENDS:
        raise ConfigError(f"{where}: {name} {value!r} schedules {sends:.3g} sends, "
                          f"more than the {MAX_SENDS:.0e} a run allows")


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
        # Keys, manifest store and generators are first used in the run.
        _nodes(devices, users, adversaries, horizon,
               provision=lambda descriptor, **settings: registration.DeviceProvisioningRecord(
                   None, b"", b"", **settings),
               trust_keys=(), store=None, node_rng=lambda name: None)
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


def _device_options(spec: dict) -> dict:
    """The `Device` settings a device entry gives, `mode` and `blend` parsed."""
    options = _given(spec, _DEVICE_ARGS)
    if "mode" in spec:
        options["mode"] = device_mod.Mode(spec["mode"])
    if spec.get("blend") is not None:
        options["blend"] = device_mod.BlendPolicy(**spec["blend"])
    return options


def _nodes(devices, users, adversaries, horizon, *, provision, trust_keys, store, node_rng):
    """Check and build the device, user and adversary nodes, each list in
    config order; `provision(descriptor, **settings)` gives a device's record."""
    device_nodes = []
    for spec in devices:
        name = spec["name"]
        where = f"device {name}"
        _require_keys(spec, _DEVICE_KEYS, where)
        descriptor = _check(where, lambda: registration.stand_in_descriptor(
            name, **_given(spec, _DESCRIPTOR_KEYS)))
        record = _check(where, lambda: provision(descriptor, **_given(spec, _PROVISION_KEYS)))
        device = _check(where, lambda: device_mod.Device(
            record, descriptor.software_image, node_rng(name), **_device_options(spec)))
        device_nodes.append(_check(where, lambda: simnet.DeviceNode(
            name, device, **_given(spec, _NODE_ARGS))))
        if "announce_interval" in spec and device.mode is not device_mod.Mode.PUSH:
            raise ConfigError(f"{where}: announce_interval applies only to mode 'push' "
                              "(a blend device reads blend.announce_interval)")
        _check_sends(where, "t_att", record.t_att, horizon / record.t_att)
        if device.mode is device_mod.Mode.PUSH:  # no other mode reads announce_interval
            interval = device.announce_interval
            _check_sends(where, "announce_interval", interval, horizon / interval)
        if device.blend is not None:
            interval = device.blend.announce_interval
            _check_sends(where, "blend.announce_interval", interval, horizon / interval)
    agent_nodes = []
    for spec in users:
        name = spec["name"]
        where = f"user {name}"
        _require_keys(spec, _USER_KEYS, where)
        agent = _check(where, lambda: agent_mod.UserAgent(
            trust_keys, store, node_rng(name), **_given(spec, _USER_ARGS)))
        arrival = spec.get("arrival", _DEFAULT_ARRIVAL)
        arrivals = _check(f"arrival for {where}", lambda: simnet.ArrivalModel(**arrival))
        agent_nodes.append(_check(where, lambda: simnet.AgentNode(
            name, agent, arrivals, **_given(spec, _NODE_ARGS))))
        # Sends from `start` to the horizon, at most `count` (a burst: `count` at
        # `start`); an interval the clock cannot resolve there leaves only `count`.
        key = "count" if arrivals.kind == "burst" else "interval"
        sends = math.inf if arrivals.count is None else arrivals.count
        if key == "interval" and horizon + arrivals.interval > horizon:
            sends = min(sends, (horizon - arrivals.start) / arrivals.interval)
        _check_sends(f"arrival for {where}", key, getattr(arrivals, key),
                     0 if arrivals.start > horizon else sends)
    adversary_nodes = []
    for spec in adversaries:
        where = f"adversary {spec['name']}"
        node = _check(where, lambda: simnet.AdversaryNode(rng=node_rng(spec["name"]), **spec))
        if node.behavior != "replay":  # a replayer sends at `replay_at`, not at `rate`
            _check_sends(where, "rate", node.rate, min(horizon, node.stop) * node.rate)
        adversary_nodes.append(node)
    return device_nodes, agent_nodes, adversary_nodes


def build_world(config: ScenarioConfig, capture_frames: bool = False) -> BuiltScenario:
    """Provision every configured device and assemble the network."""
    link = simnet.LinkConfig(**config.link)
    world = simnet.World(config.seed, link, capture_frames=capture_frames)
    provision_rng = Random(f"provision/{config.seed}")
    mfr = crypto.generate_keypair(provision_rng)
    store = registration.ManifestStore()
    trust_keys = (mfr.public_key,)
    device_nodes, agent_nodes, adversary_nodes = _nodes(
        config.devices, config.users, config.adversaries, config.horizon,
        provision=partial(registration.provision_db_device, mfr, store=store, rng=provision_rng),
        trust_keys=trust_keys, store=store, node_rng=world.node_rng,
    )
    for node in (*device_nodes, *agent_nodes, *adversary_nodes):
        world.add_node(node)
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
        config=asdict(config),
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
