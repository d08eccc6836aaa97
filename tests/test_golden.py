"""Golden outputs: every seeded output the project pins, in one table.

Same seed, same bytes. Each row names an output, says how it is made and
gives its SHA-256. A pin moves only in a change that names the row in
CHANGES.md with its reason.

The perfbench rows run each workload once at seed 1 through the
benchmark's own `Runner` and `digest_of`, so they read the digest
`perfbench/run.py --seed 1` prints; seed 4242 is left to the benchmark.
"""

import contextlib
import hashlib
import io
import json
import re
from functools import cache
from pathlib import Path
from random import Random

import pytest

from conftest import MIXED_SCENARIO
from pulldisc import crypto
from pulldisc.cli import main
from pulldisc.inventory import Owner, build_device_info

HOTEL = str(Path(__file__).resolve().parent.parent / "scenarios" / "hotel.json")
IM_SOLICIT = ("im", "solicit", "--devices", "20", "--seed", "4", "--mode")

# name, how the output is made, SHA-256
GOLDEN = [
    ("perfbench-crowd", ("perfbench", "crowd"),
     "3eeba9de1de960e47e43e4a47e94b27585ef473b319fb682bddec86ce34b3cf3"),
    ("perfbench-flood", ("perfbench", "flood"),
     "e1ed0dda409b0eca935b3eca7aa64d6926045df95351632dba37d818ef99a304"),
    ("perfbench-inventory", ("perfbench", "inventory"),
     "d8d3fdb8b95026d28ea5f6c228a76cf62bb6942c754aa60b26588e0aa0d777a7"),
    ("scan-hotel", ("stdout", "scan", "--config", HOTEL),
     "b9e22f1060f7f51f51aa2d788a59d78163689cca17389c2b4b5a771726c6fbb2"),
    ("lkh-demo", ("stdout", "lkh", "demo", "--n", "256", "--p", "2", "--seed", "3"),
     "3c302ec510cac19864abc1782ef9dba31d4a6e5a3b4cb153526943555c3dfc8b"),
    # The owner's enrollment and retrieval paths: every receipt, trial
    # count and PRF count.
    ("im-solicit-naive", ("stdout", *IM_SOLICIT, "naive"),
     "13fac8ea814d52c7625c232e83feafa047357a8a9e57218a76c2ee2ddaae77fe"),
    ("im-solicit-lkh", ("stdout", *IM_SOLICIT, "lkh"),
     "2d101ec859f50575cde68e1563de896c7ee597c14c1bf5c746098fdcaefb7544"),
    # `scenario run`'s files: no change to how nodes count their costs may
    # move a byte. report.json is read with its tool_version masked.
    ("scenario-hotel-metrics.json", ("scenario", "hotel", "metrics.json"),
     "a89f6e9a1f4a3f533dfc1e073deb45c8cd00a6aa246449db6a267308bc0d73a2"),
    ("scenario-hotel-metrics.csv", ("scenario", "hotel", "metrics.csv"),
     "f18f17eb74bd795612ad216b5c1489dfc0d348ce7ec2c8b00a09fc88e5cb3d06"),
    ("scenario-hotel-report.json", ("scenario", "hotel", "report.json"),
     "5def863785235fb0ccb0b36f72abdfc8905cd53b46559d2a99a52d13aeb41888"),
    ("scenario-mixed-metrics.json", ("scenario", "mixed", "metrics.json"),
     "69c6badd157b1ad554e1ea976185ed8e225e184d32fb5762c9ff63ce2e20b3de"),
    ("scenario-mixed-metrics.csv", ("scenario", "mixed", "metrics.csv"),
     "041d9cfaf9a6b72532a0be3c3e292798a084dc29fc70be429da86698ae2ee720"),
    # The enrolling generator's state, and each device's first two
    # response payloads: how a device keeps its IV generator may move
    # neither a sealed byte nor an enrollment draw.
    ("enrollment-naive-state", ("enrollment", "naive", "state"),
     "c159c653d301a705abcdb4d7ac419721148b4b92a12ab3ee72a1b657bc5f5198"),
    ("enrollment-naive-device-0", ("enrollment", "naive", 0),
     "57efed36abead7a99efdd42171c1532b1536cf4e09c1e45b7a597c1d4fff3e72"),
    ("enrollment-naive-device-1", ("enrollment", "naive", 1),
     "acb6c2d22171d9ada964acdb14c0962e15a2500b3d3c7ce7045029a38e977e17"),
    ("enrollment-naive-device-2", ("enrollment", "naive", 2),
     "ec9652e367db848126422415a0aa372a996adccd93b77adc9094c5a5dc947ade"),
    ("enrollment-lkh-state", ("enrollment", "lkh", "state"),
     "875452cb58a1bdb7f2d34a4a5706c46b4692a6f01bd62b1c47d395fc8592e074"),
    ("enrollment-lkh-device-0", ("enrollment", "lkh", 0),
     "a1675fc37e978350d646e3e8673c1854a48bdedd91e9cfecba485b1d5ef8378d"),
    ("enrollment-lkh-device-1", ("enrollment", "lkh", 1),
     "b6e554e8f374299638da6e2a04171deeaeed040d50dd5ee8bea5784c667ea045"),
    ("enrollment-lkh-device-2", ("enrollment", "lkh", 2),
     "c7b07c4e091a10c54e313eb54e860a7ba7578c9a594dab8056d799be51ee9525"),
]


def _stdout(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode()


@cache
def _scenario_files(which: str, tmp_dir: str) -> dict[str, bytes]:
    """The files `scenario run` writes for hotel or the mixed config."""
    config = HOTEL
    if which == "mixed":
        config = str(Path(tmp_dir) / "mixed.json")
        Path(config).write_text(json.dumps(MIXED_SCENARIO))
    out = Path(tmp_dir) / which
    _stdout("scenario", "run", "--config", config, "--out", str(out))
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    files["report.json"] = re.sub(
        rb'"tool_version": "[^"]*"', b'"tool_version": "*"', files["report.json"])
    return files


@cache
def _first_two_responses(mode: str) -> tuple[bytes, list[bytes]]:
    """Enroll three devices (plus one refused device info) from the owner's
    own generator, draw from it once more, then have every device answer
    two requests. Returns the generator's state right after enrollment,
    as its repr, and each device's two response payloads."""
    owner = Owner(crypto.generate_keypair(Random(71)), Random(72))
    infos = [build_device_info(f"unit-{i:07d}".encode(), 3, 9) for i in range(3)]
    if mode == "naive":
        devices = [owner.enroll_naive(infos[0], b"pinned image", owner.rng)]
        with pytest.raises(ValueError):  # refused after its key and seed draws
            owner.enroll_naive(b"unit-too-short", b"pinned image", owner.rng)
        devices += [owner.enroll_naive(i, b"pinned image", owner.rng) for i in infos[1:]]
    else:
        with pytest.raises(ValueError):  # refused before any draw
            owner.enroll_lkh_fleet([*infos, b"unit-too-short"], b"pinned image", 2, owner.rng)
        devices = owner.enroll_lkh_fleet(infos, b"pinned image", 2, owner.rng)
    state = repr(owner.rng.getstate()).encode()
    owner.rng.getrandbits(64)  # a device that drew its seed late would see this
    requests = [owner.make_request(), owner.make_request()]
    return state, [b"".join(device.respond(r) for r in requests) for device in devices]


@pytest.fixture(scope="module")
def module_tmp(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("how, digest", [row[1:] for row in GOLDEN], ids=[row[0] for row in GOLDEN])
def test_output_matches_its_pin(how, digest, perfbench, module_tmp):
    kind, *args = how
    if kind == "perfbench":
        run, _, workloads = perfbench
        assert run.digest_of(run.Runner(workloads.WORKLOADS[args[0]], 1).rep()) == digest
        return
    if kind == "stdout":
        output = _stdout(*args)
    elif kind == "scenario":
        output = _scenario_files(args[0], module_tmp)[args[1]]
    else:
        state, payloads = _first_two_responses(args[0])
        output = state if args[1] == "state" else payloads[args[1]]
    assert hashlib.sha256(output).hexdigest() == digest
