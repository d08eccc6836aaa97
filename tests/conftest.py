"""Shared fixtures: a provisioned device, its store/trust set, and a tiny
action pump that drives a Device's timers outside the full simulator.

Also reads back what `provision` writes (`ManifestStore.save_dir` and
`registration.write_trust_file`): no command reads those files, so the
readers live here, with the tests that check the on-disk format.

Also counts the AES-GCM work a test makes (`aesgcm_counts`), imports
the benchmark's modules read-only (`perfbench`) and holds the mixed
scenario config that the golden outputs pin.

Also hosts the acceptance-criterion summary: tests in test_acceptance.py
record a line per criterion, printed at the end of the run whether or not
output capture is on.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from pulldisc import crypto, registration
from pulldisc.device import Device, SetTimer, Transmit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ACCEPTANCE_RESULTS: dict[int, str] = {}
ACCEPTANCE_EXPECTED: set[int] = set()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_EXPECTED:
        return
    write = terminalreporter.write_line
    write("")
    write("acceptance criteria:")
    for number in sorted(ACCEPTANCE_EXPECTED):
        line = ACCEPTANCE_RESULTS.get(number)
        if line is None:
            write(f"  FAIL criterion {number:2d}: did not complete")
        else:
            write(f"  {line}")


def load_manifest_dir(directory: str | Path) -> registration.ManifestStore:
    """The store `ManifestStore.save_dir` wrote: one manifest and its
    detached signature per token."""
    store = registration.ManifestStore()
    directory = Path(directory)
    for manifest_path in sorted(directory.glob("*.manifest")):
        signature = (directory / f"{manifest_path.stem}.sig").read_bytes()
        store.put(manifest_path.stem.encode("ascii"), manifest_path.read_bytes(), signature)
    return store


def read_trust_file(path: str | Path) -> tuple[bytes, ...]:
    """The keys `registration.write_trust_file` wrote, one hex key per line."""
    return tuple(bytes.fromhex(line) for line in Path(path).read_text("ascii").split())


# A run that drops nonces on a capped pull device, announces from a push
# device and flips a blend device under a flood.
MIXED_SCENARIO = {
    "seed": 17,
    "horizon": 60.0,
    "link": {"p_loss": 0.02},
    "devices": [
        {"name": "capped", "t_gen": 1.0, "t_att": 20.0, "pool_tmp_cap": 40},
        {"name": "pusher", "mode": "push", "t_att": 25.0, "announce_interval": 2.0},
        {
            "name": "blender",
            "mode": "blend",
            "pool_tmp_cap": 40,
            "blend": {
                "switch_threshold": 100, "window": 1.0, "push_period": 5.0,
                "announce_interval": 1.0,
            },
        },
    ],
    "users": [
        {"name": "u0", "arrival": {"kind": "periodic", "interval": 4.0, "start": 1.0}},
        {"name": "u1", "arrival": {"kind": "poisson", "interval": 6.0}, "scan_window": 5.0},
    ],
    "adversaries": [{"name": "flooder", "behavior": "flood", "rate": 200.0, "stop": 20.0}],
}


@pytest.fixture
def rng():
    return Random(1234)


@pytest.fixture
def mfr(rng):
    return crypto.generate_keypair(rng)


@pytest.fixture
def store():
    return registration.ManifestStore()


@pytest.fixture
def descriptor():
    return registration.DeviceDescriptor(
        device_type="camera",
        sensors_actuators=("video", "audio"),
        software_version="2.3",
        coarse_location="lobby",
        software_image=b"\x7fELF camera firmware v2.3" * 40,
        full_url="https://devices.example/cam/2",
    )


@pytest.fixture
def record(mfr, descriptor, store, rng):
    return registration.provision_db_device(
        mfr, descriptor, t_att=300.0, t_gen=1.0, pool_max=129, store=store, rng=rng
    )


class DevicePump:
    """Applies a device's actions and fires its timers in time order.

    A miniature, device-only event loop: transmissions are captured, timer
    requests are queued, and `run_until` pops them in (time, kind) order.
    Independent of the simulator so the state machine is tested on its own.
    """

    def __init__(self, device: Device, now: float = 0.0):
        self.device = device
        self.now = now
        self._timers = []
        self._seq = itertools.count()
        self.transmissions: list[tuple[float, bytes, bool]] = []
        self.apply(device.boot(now))

    def apply(self, actions) -> None:
        for action in actions:
            if isinstance(action, Transmit):
                self.transmissions.append((self.now, action.payload, action.retransmit))
            elif isinstance(action, SetTimer):
                heapq.heappush(self._timers, (action.at, action.kind.value, next(self._seq), action.kind))

    def frame(self, payload: bytes, at: float | None = None) -> None:
        if at is not None:
            self.now = at
        self.apply(self.device.on_frame(payload, self.now))

    def run_until(self, horizon: float) -> None:
        while self._timers and self._timers[0][0] <= horizon:
            self.step_timer()
        self.now = max(self.now, horizon)

    def step_timer(self) -> None:
        at, _, _, kind = heapq.heappop(self._timers)
        self.now = max(self.now, at)
        self.apply(self.device.on_timer(kind, at))

    @property
    def payloads(self) -> list[bytes]:
        return [p for _, p, _ in self.transmissions]


@pytest.fixture
def pump_factory():
    return DevicePump


@pytest.fixture
def aesgcm_counts(monkeypatch):
    """`crypto.AESGCM` replaced for the test by a wrapper that counts the
    contexts built and the decrypts attempted. Reset with `.clear()`."""
    counts = Counter()
    aesgcm = crypto.AESGCM

    class CountingAESGCM:
        def __init__(self, key):
            counts["contexts"] += 1
            self.context = aesgcm(key)

        def encrypt(self, *args):
            return self.context.encrypt(*args)

        def decrypt(self, *args):
            counts["decrypts"] += 1
            return self.context.decrypt(*args)

    monkeypatch.setattr(crypto, "AESGCM", CountingAESGCM)
    return counts


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's `run`, `tracer` and `workloads` modules, imported from perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # only read perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    assert Path(run.__file__).resolve().parent == PERFBENCH
    return run, importlib.import_module("tracer"), importlib.import_module("workloads")
