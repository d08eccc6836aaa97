"""CLI surface: every subcommand drives the real machinery."""

import dataclasses
import json
import re
from pathlib import Path
from random import Random

import pytest

import pulldisc
from conftest import MIXED_SCENARIO, load_manifest_dir, read_trust_file
from pulldisc import crypto, inventory, keytree, registration, scenario, simnet, wire
from pulldisc.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_SCENARIO = {
    "seed": 5,
    "horizon": 45.0,
    "mode": "db",
    "devices": [{"name": "dev0", "t_gen": 1.0}],
    "users": [{"name": "user0", "arrival": {"kind": "periodic", "interval": 15.0, "start": 2.0}}],
}


def test_provision_writes_store_and_trust(tmp_path, capsys):
    rc = main(["provision", "--out", str(tmp_path / "prov"), "--count", "3", "--seed", "9"])
    assert rc == 0
    store = load_manifest_dir(tmp_path / "prov" / "manifests")
    assert len(store) == 3
    keys = read_trust_file(tmp_path / "prov" / "trust.keys")
    records = json.loads((tmp_path / "prov" / "devices.json").read_text())
    assert len(records) == 3
    token = records[0]["url"].encode("ascii")
    manifest_bytes, sig = store.get(token)
    manifest = registration.verify_manifest(manifest_bytes, sig, keys)
    assert manifest.device_public_key.hex() == records[0]["public_key"]


def _provisioned(tmp_path, *flags):
    out = tmp_path / "prov"
    assert main(["provision", "--out", str(out), "--seed", "9", *flags]) == 0
    store = load_manifest_dir(out / "manifests")
    records = json.loads((out / "devices.json").read_text())
    manifest_bytes, _ = store.get(records[0]["url"].encode("ascii"))
    return registration.Manifest.from_canonical(manifest_bytes), records[0]


@pytest.mark.parametrize(
    "flags, sensors",
    [
        ([], ("temperature",)),
        (["--sensor", "humidity"], ("humidity",)),
        (["--sensor", "humidity", "--sensor", "door"], ("humidity", "door")),
    ],
)
def test_provision_sensor_flags_replace_the_default(tmp_path, capsys, flags, sensors):
    manifest, _ = _provisioned(tmp_path, *flags)
    assert manifest.sensors_actuators == sensors


def test_provision_settings_left_out_take_the_records_defaults(tmp_path, capsys):
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(registration.DeviceProvisioningRecord)
        if f.default is not dataclasses.MISSING
    }
    assert set(defaults) == {"t_att", "t_gen", "pool_max"}
    _, record = _provisioned(tmp_path)
    assert {key: record[key] for key in defaults} == defaults
    _, record = _provisioned(tmp_path / "given", "--t-att", "50", "--pool-max", "7")
    assert {key: record[key] for key in defaults} == dict(defaults, t_att=50.0, pool_max=7)


@pytest.mark.parametrize(
    "flags", [["--pool-max", "0"], ["--t-att", "nan"], ["--t-gen", "-1"]],
    ids=["pool-max", "t-att", "t-gen"],
)
def test_provision_bad_setting_writes_no_directory(tmp_path, capsys, flags):
    out = tmp_path / "d"
    assert main(["provision", "--out", str(out), "--count", "2", "--seed", "1", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_version_flag_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"pulldisc {pulldisc.__version__}\n"


def test_scan_prints_json_lines(tmp_path, capsys):
    rc = main(["scan", "--config", write_config(tmp_path, SMALL_SCENARIO)])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines and all(l["verified"] for l in lines)
    assert {l["user"] for l in lines} == {"user0"}


def test_scenario_run_outputs(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_SCENARIO)
    rc = main(["scenario", "run", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert "dev0" in metrics["per_node"]
    assert metrics["per_node"]["dev0"]["busy_seconds"] > 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 5
    assert all(report["checks"].values())
    csv_text = (tmp_path / "out" / "metrics.csv").read_text()
    assert csv_text.startswith("node,busy_seconds")


def test_scenario_run_is_reproducible(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_SCENARIO)
    main(["scenario", "run", "--config", config, "--out", str(tmp_path / "a")])
    main(["scenario", "run", "--config", config, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.json").read_bytes() == (
        tmp_path / "b" / "metrics.json"
    ).read_bytes()


def test_scenario_run_requires_seed(tmp_path, capsys):
    doc = dict(SMALL_SCENARIO)
    del doc["seed"]
    rc = main(["scenario", "run", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_scenario_missing_file(tmp_path, capsys):
    rc = main(["scenario", "run", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_bundled_hotel_scenario(tmp_path, capsys):
    rc = main(
        ["scenario", "run", "--config", str(SCENARIOS / "hotel.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert {"lobby-cam", "hall-sensor"} <= set(metrics["per_node"])


def test_config_dir_env(tmp_path, capsys, monkeypatch):
    write_config(tmp_path, SMALL_SCENARIO)
    monkeypatch.setenv("PULLDISC_CONFIG_DIR", str(tmp_path))
    rc = main(["scenario", "run", "--config", "scenario.json", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_analytic_table1(capsys):
    rc = main(["analytic", "table1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("1,19.03")
    assert lines[5].startswith("5,4.49")


def test_analytic_table1_exclusive(capsys):
    rc = main(["analytic", "table1", "--form", "exclusive"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,23.50")


def test_analytic_ubusy_and_bandwidth(capsys):
    assert main(["analytic", "ubusy", "--t-req", "10", "--form", "exclusive"]) == 0
    assert capsys.readouterr().out.strip() == "2.3300"
    assert main(["analytic", "bandwidth", "--push-interval", "1.0"]) == 0
    assert capsys.readouterr().out.strip() == "1024.00"
    # Each flag left out takes the model's own default.
    for argv, printed in [(["ubusy"], "2.2769"), (["ubusy", "--push-interval", "2"], "10.5145"),
                          (["bandwidth"], "71.38"),
                          (["bandwidth", "--t-gen", "5", "--t-req", "1"], "269.78")]:
        assert main(["analytic", *argv]) == 0
        assert capsys.readouterr().out == printed + "\n"


def test_lkh_demo(capsys):
    rc = main(["lkh", "demo", "--n", "256", "--p", "2", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "device_keys=8 owner_keys=510 header_bytes=128" in out
    assert "PRF evaluations" in out


def test_lkh_demo_levels_sum_to_evaluations(capsys):
    rc = main(["lkh", "demo", "--n", "100", "--p", "3", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "devices=100 arity=3 padded=243 height=5" in out
    checked = [int(c) for c in re.findall(r"level \d+: checked (\d+) child", out)]
    evals = int(re.search(r"with (\d+) PRF evaluations \(bound 10\)", out).group(1))
    assert len(checked) == 5 and all(1 <= c <= 2 for c in checked)
    assert sum(checked) == evals <= (3 - 1) * 5


def test_im_solicit_naive_and_lkh(capsys):
    rc = main(["im", "solicit", "--devices", "6", "--seed", "4", "--mode", "naive"])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 6 and all(l["attestation"] == "success" for l in lines)
    rc = main(["im", "solicit", "--devices", "6", "--seed", "4", "--mode", "lkh", "--p", "2"])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert all(l["trials"] == 0 for l in lines)


def test_im_solicit_delivers_every_response_through_the_owner_node(capsys, monkeypatch):
    delivered = []
    handle_deliver = simnet.OwnerNode.handle_deliver

    def counted(node, frame, now):
        delivered.append(frame.payload)
        handle_deliver(node, frame, now)

    monkeypatch.setattr(simnet.OwnerNode, "handle_deliver", counted)
    assert main(["im", "solicit", "--devices", "6", "--seed", "4", "--mode", "lkh"]) == 0
    assert len(delivered) == len(capsys.readouterr().out.splitlines()) == 6
    assert all(p.startswith(wire.ID_IM_RESPONSE) for p in delivered)


def test_wire_decode_request(capsys):
    payload = wire.RequestMsg(bytes(range(12))).encode()
    rc = main(["wire", "decode", "--hex", payload.hex()])
    assert rc == 0
    out = capsys.readouterr().out
    assert "RequestMsg" in out
    assert bytes(range(12)).hex() in out


def test_wire_decode_full_response(capsys):
    rng = Random(6)
    msg = wire.ResponseMsg(
        rng.randbytes(12),
        tuple(rng.randbytes(12) for _ in range(129)),
        b"ab0123456789Cd",
        wire.AttReport(wire.ATT_SUCCESS, 17),
        rng.randbytes(64),
    )
    rc = main(["wire", "decode", "--hex", msg.encode().hex()])
    assert rc == 0
    out = capsys.readouterr().out
    assert "count: 129" in out and "length: 1650" in out


def test_wire_decode_inventory_request_and_response(capsys):
    rng = Random(9)
    owner = inventory.Owner(crypto.generate_keypair(rng), Random(10))
    infos = [inventory.build_device_info(f"unit-{i:07d}".encode(), 7, 3) for i in range(2)]
    devices = owner.enroll_lkh_fleet(infos, b"inventory-image", 2, rng)
    request = owner.make_request()
    response = devices[1].respond(request)
    req, res = wire.decode(request), wire.decode(response)
    assert main(["wire", "decode", "--hex", request.hex()]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind: ImRequestMsg",
        f"length: {len(request)}",
        f"owner_nonce: {req.owner_nonce.hex()}",
        f"signed_region: {wire.signed_region(req).hex()}",
        f"signature: {req.signature.hex()}",
    ]
    assert main(["wire", "decode", "--hex", response.hex()]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind: ImResponseMsg",
        f"length: {len(response)}",
        f"header_fields: {len(res.lkh_header)}",
        *(f"header[{i}]: {field.hex()}" for i, field in enumerate(res.lkh_header)),
        f"iv: {res.iv.hex()}",
        f"ciphertext: {res.ciphertext.hex()}",
        f"tag: {res.tag.hex()}",
    ]
    assert len(res.lkh_header) == 1  # a fleet of two has a one-level tree


def test_wire_decode_truncated_reports_offset(capsys):
    payload = wire.RequestMsg(bytes(12)).encode()[:-1]
    rc = main(["wire", "decode", "--hex", payload.hex()])
    assert rc == 1
    err = capsys.readouterr().err
    assert "byte 6" in err and err.count("at byte") == 1


def test_wire_decode_empty_hex_is_an_empty_payload(capsys):
    assert main(["wire", "decode", "--hex", ""]) == 1
    assert "shorter than a protocol identifier" in capsys.readouterr().err


def test_wire_decode_bad_hex(capsys):
    assert main(["wire", "decode", "--hex", "zz"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["lkh", "demo", "--n", "1", "--seed", "1"], "at least 2 devices",
                     id="lkh-one-device"),
        pytest.param(["lkh", "demo", "--n", "8", "--seed", "1", "--device", "99"],
                     "device index 99", id="lkh-device-out-of-range"),
        pytest.param(["im", "solicit", "--devices", "1", "--mode", "lkh", "--seed", "1"],
                     "at least 2 devices", id="im-one-device"),
        pytest.param(["im", "solicit", "--p", "1", "--mode", "lkh", "--seed", "1"],
                     "arity must be at least 2", id="im-arity-1"),
        pytest.param(["scenario", "run", "--config", str(SCENARIOS / "hotel.json"),
                      "--sweep", "a,b"], "invalid literal", id="sweep-not-seeds"),
        pytest.param(["scenario", "run", "--config", str(SCENARIOS / "hotel.json"),
                      "--sweep", ""], "invalid literal", id="sweep-empty"),
        pytest.param(["scenario", "run", "--config", str(SCENARIOS / "hotel.json"),
                      "--sweep", "1,1"], "--sweep repeats a seed", id="sweep-repeated"),
        pytest.param(["analytic", "ubusy", "--t-req", "0"], "must be positive",
                     id="ubusy-zero-interval"),
        pytest.param(["analytic", "ubusy", "--t-req", "nan"], "must be positive and finite",
                     id="ubusy-nan-interval"),
        pytest.param(["analytic", "table1", "--t-ann", "nan"], "t_ann must be >= 0 and finite",
                     id="table1-nan-cost"),
        pytest.param(["analytic", "bandwidth", "--t-req", "nan"],
                     "crowded_t_req must be positive and finite", id="bandwidth-nan-interval"),
        pytest.param(["im", "solicit", "--devices", "0", "--mode", "naive", "--seed", "1"],
                     "at least 1 device", id="im-no-devices"),
        pytest.param(["wire", "decode", "--file", "missing.bin"], "cannot read missing.bin",
                     id="wire-file-missing"),
        pytest.param(["wire", "decode", "--file", str(SCENARIOS)], "cannot read",
                     id="wire-file-directory"),
        pytest.param(["scenario", "run", "--config", str(SCENARIOS)], "cannot read scenario file",
                     id="scenario-config-directory"),
        pytest.param(["scan", "--config", str(SCENARIOS)], "cannot read scenario file",
                     id="scan-config-directory"),
        pytest.param(["provision", "--out", "out", "--count", "-1", "--seed", "1"],
                     "--count must be >= 0", id="provision-negative-count"),
        pytest.param(["provision", "--out", "out", "--count", "0", "--seed", "1",
                      "--pool-max", "0"], "pool_max must be an integer", id="provision-count-0-bad-pool-max"),
        pytest.param(["scenario", "run", "--config", "not-utf8.json"],
                     "scenario file not-utf8.json", id="scenario-config-not-utf8"),
        pytest.param(["scenario", "run", "--config", "burst.json", "--out", "out"],
                     "burst arrival needs a count", id="scenario-countless-burst"),
        pytest.param(["analytic", "ubusy", "--t-gen", "5"], "does not read --t-gen",
                     id="ubusy-t-gen"),
        pytest.param(["analytic", "ubusy", "--t-ann", "9"], "does not read --t-ann",
                     id="ubusy-t-ann"),
        pytest.param(["analytic", "ubusy", "--push-interval", "2", "--t-req", "3"],
                     "does not read --t-req", id="ubusy-push-t-req"),
        pytest.param(["analytic", "bandwidth", "--announcement-size", "0"],
                     "does not read --announcement-size", id="bandwidth-announcement-size"),
        pytest.param(["analytic", "bandwidth", "--push-interval", "1", "--t-gen", "5"],
                     "does not read --t-gen", id="bandwidth-push-t-gen"),
        pytest.param(["analytic", "table1", "--push-interval", "1"],
                     "does not read --push-interval", id="table1-push-interval"),
        pytest.param(["im", "solicit", "--mode", "naive", "--p", "7", "--seed", "1"],
                     "does not read --p", id="im-naive-p"),
        pytest.param(["analytic", "bandwidth", "--push-interval", "1",
                      "--announcement-size", "1" + "0" * 400],
                     "announcement_size must be within float range", id="bandwidth-size-past-float"),
        pytest.param(["provision", "--out", "a-file/out", "--seed", "1"],
                     "cannot write a-file/out: Not a directory", id="provision-out-under-a-file"),
        pytest.param(["scenario", "run", "--config", str(SCENARIOS / "hotel.json"),
                      "--out", "a-file/out"],
                     "cannot write a-file/out: Not a directory", id="scenario-out-under-a-file"),
        pytest.param(["scenario", "run", "--config", str(SCENARIOS / "hotel.json"),
                      "--out", "a-file/out", "--sweep", "1,2"],
                     "cannot write a-file/out/seed-", id="sweep-out-under-a-file"),
    ],
)
def test_bad_argument_prints_one_error_line(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # relative paths name nothing, and nothing is written to the repo
    (tmp_path / "not-utf8.json").write_bytes(b"\xff{}")
    countless = dict(SMALL_SCENARIO, users=[{"name": "u", "arrival": {"kind": "burst"}}])
    (tmp_path / "burst.json").write_text(json.dumps(countless))
    (tmp_path / "a-file").write_text("")  # no directory can be made under it
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # the --out of every provision case


def test_internal_index_error_is_not_a_bad_argument(monkeypatch):
    def broken_walk(*args):
        raise IndexError("internal fault")

    monkeypatch.setattr(keytree, "walk", broken_walk)
    with pytest.raises(IndexError, match="internal fault"):
        main(["lkh", "demo", "--n", "8", "--seed", "1"])


def test_scenario_output_path_from_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = dict(SMALL_SCENARIO)
    doc["output"] = "from-config"
    rc = main(["scenario", "run", "--config", write_config(tmp_path, doc)])
    assert rc == 0
    assert (tmp_path / "from-config" / "metrics.json").exists()


@pytest.mark.parametrize("sweep", [[], ["--sweep", "1,2"]])
def test_scenario_run_fails_on_failed_check(tmp_path, capsys, monkeypatch, sweep):
    # No valid config is known to fail a check, so one is added to every run.
    # Sweep workers are forked, and inherit the patch.
    run_scenario = scenario.run_scenario

    def failing_run(config):
        built, report = run_scenario(config)
        assert all(report.checks.values())
        report.checks["injected"] = False
        return built, report

    monkeypatch.setattr(scenario, "run_scenario", failing_run)
    out = tmp_path / "out"
    rc = main(["scenario", "run", "--config", write_config(tmp_path, SMALL_SCENARIO),
               "--out", str(out), *sweep])
    assert rc == 1
    reports = sorted(out.rglob("report.json"))
    assert len(reports) == (2 if sweep else 1)
    assert capsys.readouterr().err.splitlines() == [
        f"sanity checks failed in {r}: ['injected']" for r in reports]
    assert all(json.loads(r.read_text())["checks"]["injected"] is False for r in reports)


@pytest.mark.parametrize(
    "doc",
    [
        # Response windows back to back under a flood at the default 100/s.
        {"seed": 3, "horizon": 10.0, "devices": [{"name": "d0", "t_gen": 0.0}],
         "users": [{"name": "u0", "arrival": {"kind": "periodic", "interval": 2.0}}],
         "adversaries": [{"name": "a0", "behavior": "flood"}]},
        # Attestations due every 0.5 ms, each running 1 ms.
        {"seed": 1, "horizon": 2.0, "devices": [{"name": "d0", "t_att": 0.0005}]},
    ],
    ids=["flooded", "overattested"],
)
def test_saturated_device_is_busy_up_to_the_horizon(tmp_path, capsys, doc):
    out = tmp_path / "out"
    assert main(["scenario", "run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    busy = json.loads((out / "metrics.json").read_text())["per_node"]["d0"]["busy_seconds"]
    assert doc["horizon"] - 0.01 < busy <= doc["horizon"]


def test_split_inside_a_window_counts_it_up_to_the_split():
    # pusher's announcement at 60 s holds it until 60.233 s; nothing else
    # runs on it before 61 s.
    config = scenario.ScenarioConfig.from_dict(dict(MIXED_SCENARIO, horizon=61.0))
    world = scenario.build_world(config).world
    busy = []
    for split in (60.0, 60.1, 61.0):
        metrics = world.run_until(split)
        assert all(m.busy_seconds <= split for m in metrics.per_node.values())
        busy.append(metrics.per_node["pusher"].busy_seconds)
    assert [busy[1] - busy[0], busy[2] - busy[0]] == pytest.approx([0.1, 0.233])
    assert metrics.to_json() == scenario.run_scenario(config)[1].metrics.to_json()


def test_scenario_sweep_parallel_seeds(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_SCENARIO)
    rc = main(
        ["scenario", "run", "--config", config, "--out", str(tmp_path / "sweep"),
         "--sweep", "7,8"]
    )
    assert rc == 0
    a = json.loads((tmp_path / "sweep" / "seed-7" / "metrics.json").read_text())
    b = json.loads((tmp_path / "sweep" / "seed-8" / "metrics.json").read_text())
    assert a != b  # independent seeds
    report = json.loads((tmp_path / "sweep" / "seed-7" / "report.json").read_text())
    assert report["config"]["seed"] == 7
