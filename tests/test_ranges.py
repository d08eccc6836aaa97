"""Numeric setting ranges: one rule, refusals that name the setting."""

import math
import re
from random import Random

import pytest

from pulldisc import agent, crypto, ranges, registration, scenario, simnet
from pulldisc import device as device_mod
from pulldisc.inventory import Owner, build_device_info

_BLEND = {"switch_threshold": 7, "window": 2.0, "push_period": 3.0, "announce_interval": 0.5}


def _device(key, value, **extra):
    return {"devices": [{"name": "d", **extra, key: value}]}


def _blend(key, value):
    return {"devices": [{"name": "d", "mode": "blend", "blend": {**_BLEND, key: value}}]}


def _burst(key, value):
    # A burst never reads its interval, yet refuses a bool or negative one.
    return {"users": [{"name": "u", "arrival": {"kind": "burst", key: value}}]}


def _adversary(key, value):
    return {"adversaries": [{"name": "a", "behavior": "replay", key: value}]}


# Each range a scenario file can set: (section, key, an out-of-range number, doc for a value).
_CONFIG_KEYS = [
    ("scenario", "seed", 1.5, lambda v: {"seed": v}),
    ("scenario", "horizon", 0, lambda v: {"horizon": v}),
    *(("link", key, bad, lambda v, key=key: {"link": {key: v}})
      for key, bad in (("p_loss", 1.5), ("latency_min", -1.0), ("latency_max", -1.0),
                       ("manifest_fetch_delay", -1.0))),
    *(("device", key, bad, lambda v, key=key: _device(key, v))
      for key, bad in (("t_att", 0), ("t_gen", -1.0), ("pool_max", 0), ("t_res", -1.0),
                       ("t_att_exec", -1.0), ("announce_wire_size", 50), ("pool_tmp_cap", -1))),
    ("push-device", "announce_interval", 0, lambda v: _device("announce_interval", v, mode="push")),
    *(("blend", key, 0, lambda v, key=key: _blend(key, v)) for key in _BLEND),
    ("user", "scan_window", 0, lambda v: {"users": [{"name": "u", "scan_window": v}]}),
    *(("burst", key, -1, lambda v, key=key: _burst(key, v))
      for key in ("interval", "start", "count")),
    ("adversary", "rate", 0, lambda v: _adversary("rate", v)),
    ("adversary", "stop", math.nan, lambda v: _adversary("stop", v)),
    ("adversary", "record_until", math.nan, lambda v: _adversary("record_until", v)),
    ("adversary", "replay_at", -1.0, lambda v: _adversary("replay_at", [v])),
]


def test_every_config_range_is_covered():
    # round_times belongs to the inventory owner, which no scenario file sets yet.
    assert {key for _, key, _, _ in _CONFIG_KEYS} == set(ranges.RANGES) - {"round_times"}


@pytest.mark.parametrize("value", [True, "out-of-range"], ids=["bool", "out-of-range"])
@pytest.mark.parametrize("key, bad, doc", [case[1:] for case in _CONFIG_KEYS],
                         ids=[f"{section}.{key}" for section, key, _, _ in _CONFIG_KEYS])
def test_refusal_names_the_config_key(key, bad, doc, value):
    value = bad if value == "out-of-range" else value
    with pytest.raises(scenario.ConfigError) as refused:
        scenario.ScenarioConfig.from_dict({"seed": 1, "horizon": 10.0, **doc(value)})
    assert re.search(rf"\b{key}\b", str(refused.value)), str(refused.value)


def _owner():
    return Owner(crypto.generate_keypair(Random(5)), Random(6))


def _im_device():
    return _owner().enroll_naive(build_device_info(b"unit-0000001", 1, 1), b"image", Random(7))


# Every numeric constructor argument, as (constructor, argument, call with it set).
_CONSTRUCTOR_ARGS = [
    ("UserAgent", "scan_window", lambda v: agent.UserAgent((), None, None, scan_window=v)),
    *(("BlendPolicy", key, lambda v, key=key: device_mod.BlendPolicy(**{**_BLEND, key: v}))
      for key in _BLEND),
    *(("Device", key, lambda v, key=key: device_mod.Device(None, b"", None, **{key: v}))
      for key in ("t_res", "t_att_exec", "announce_interval", "announce_wire_size",
                  "pool_tmp_cap")),
    *(("DeviceProvisioningRecord", key,
       lambda v, key=key: registration.DeviceProvisioningRecord(None, b"", b"", **{key: v}))
      for key in ("t_att", "t_gen", "pool_max")),
    *(("LinkConfig", key, lambda v, key=key: simnet.LinkConfig(**{key: v}))
      for key in ("p_loss", "latency_min", "latency_max", "manifest_fetch_delay")),
    *((f"ArrivalModel-{kind}", key,
       lambda v, kind=kind, key=key: simnet.ArrivalModel(kind, **{key: v}))
      for kind in ("periodic", "burst") for key in ("interval", "start", "count")),
    ("ImDeviceNode", "t_res", lambda v: simnet.ImDeviceNode("d", _im_device(), t_res=v)),
    ("OwnerNode", "round_times", lambda v: simnet.OwnerNode("owner", _owner(), [1.0, v])),
    *(("AdversaryNode", key,
       lambda v, key=key: simnet.AdversaryNode("a", "replay", Random(1), **{key: v}))
      for key in ("rate", "stop", "record_until")),
    ("AdversaryNode", "replay_at",
     lambda v: simnet.AdversaryNode("a", "replay", Random(1), replay_at=[v])),
]


@pytest.mark.parametrize("value", ["1", True, math.nan], ids=["string", "bool", "nan"])
@pytest.mark.parametrize("key, build", [case[1:] for case in _CONSTRUCTOR_ARGS],
                         ids=[f"{cls}.{key}" for cls, key, _ in _CONSTRUCTOR_ARGS])
def test_direct_callers_get_value_error(key, build, value):
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        build(value)
