"""The benchmark's hold on the program: every layer boundary that
`perfbench/run.py` wraps, and every name its workloads import, exists, and
the work counts it reads off those boundaries are the work done.

A renamed or moved name (`Owner.receive`, `keytree.retrieve_naive`, ...)
would otherwise surface only when the benchmark runs; here it fails the
test suite. Nothing under perfbench/ is run beyond its imports, its
workload configs and its `instrument`, which `restore` undoes."""

import json
from pathlib import Path
from random import Random

import pytest

from pulldisc import crypto, inventory, keytree, scenario, wire

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_finds_every_name_it_wraps_or_imports(perfbench):
    run, tracer_module, _ = perfbench
    tracer = tracer_module.Tracer()
    try:
        run.instrument(tracer)
        assert {"inventory.receive", "keytree.retrieve_naive"} <= set(tracer.names)
    finally:
        tracer.restore()
    assert not hasattr(inventory.Owner.receive, "__wrapped__")
    assert not hasattr(keytree.retrieve_naive, "__wrapped__")


def test_the_naive_trial_count_is_the_decrypts_the_sweep_makes(perfbench, aesgcm_counts):
    run, tracer_module, _ = perfbench
    rng = Random(95)
    owner = inventory.Owner(crypto.generate_keypair(rng), Random(96))
    devices = [owner.enroll_naive(inventory.build_device_info(f"unit-{i:07d}".encode(), 3, 9),
                                  b"img", rng) for i in range(64)]
    request = owner.make_request()
    landed, *queued = (devices[i].respond(request) for i in (5, 30, 63))
    foreign = wire.ID_IM_RESPONSE + bytes(len(landed) - 6)  # opens under no key
    owner.upcoming = lambda: [*queued, foreign]

    aesgcm_counts.clear()
    tracer = tracer_module.Tracer()
    try:
        run.instrument(tracer)
        assert isinstance(owner.receive(landed), inventory.ImReceipt)
    finally:
        tracer.restore()
    assert tracer.counts["keytree.retrieve_naive.trials"] == 6 + 31 + 64 + 64
    # After the one sweep, the owner opens each of the three winners once more.
    assert aesgcm_counts["decrypts"] == tracer.counts["keytree.retrieve_naive.trials"] + 3


@pytest.mark.parametrize("seed", [1, 4242])
def test_every_benchmark_config_loads(perfbench, seed):
    """The configs the benchmark runs stay within every load-time rule,
    the send bound included."""
    _, _, workloads = perfbench
    for workload in (workloads.Crowd(), workloads.Flood()):
        scenario.ScenarioConfig.from_dict(workload.config(seed))
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scenario.ScenarioConfig.from_dict(json.loads(path.read_text()))
