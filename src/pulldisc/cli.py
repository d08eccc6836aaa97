"""Operator entry point.

Subcommands:
    provision        write a manifest store, trust file, and device records
    scan             run a short discovery scan and print reports as JSON lines
    scenario run     execute a scenario config, emit metrics JSON + CSV
    analytic         ubusy / bandwidth / table1 closed-form evaluations
    lkh demo         key-tree stats, a traversal trace, and overhead counts
    im solicit       one inventory round on the simulator
    wire decode      parse a hex payload and dump its fields

Scenario paths are resolved against PULLDISC_CONFIG_DIR when not found
directly. Every subcommand is deterministic given its inputs and seed.
A bad argument or config prints one `error:` line and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path
from random import Random

from . import (__version__, agent, analytics, crypto, inventory, keytree, ranges, registration,
               scenario, simnet, wire)

CONFIG_DIR_ENV = "PULLDISC_CONFIG_DIR"


def _resolve_config(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    base = os.environ.get(CONFIG_DIR_ENV)
    if base and (Path(base) / path).exists():
        return Path(base) / path
    return p  # let the loader produce the error


@contextlib.contextmanager
def _writing(out: Path):
    """Report an output under `out` that cannot be made or written as a bad argument."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from None


def _cmd_provision(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    rng = Random(args.seed)
    mfr = crypto.generate_keypair(rng)
    store = registration.ManifestStore()
    records = []
    settings = {k: getattr(args, k) for k in ("t_att", "t_gen", "pool_max") if k in args}
    # Checked up front too, so that --count 0, which builds no record, refuses a bad setting.
    ranges.check(**settings)
    fields = {k: getattr(args, k) for k in ("device_type", "sensors_actuators", "coarse_location")
              if k in args}
    for i in range(args.count):
        descriptor = registration.stand_in_descriptor(i, **fields)
        record = registration.provision_db_device(
            mfr, descriptor, store=store, rng=rng, **settings
        )
        records.append(
            {
                "device": i,
                "url": record.url.decode("ascii"),
                "public_key": record.keypair.public_key.hex(),
                "private_key": record.keypair.private_key.hex(),
                "software_hash": record.software_hash.hex(),
                "t_att": record.t_att,
                "t_gen": record.t_gen,
                "pool_max": record.pool_max,
            }
        )
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        store.save_dir(out / "manifests")
        registration.write_trust_file(out / "trust.keys", [mfr.public_key])
        (out / "devices.json").write_text(json.dumps(records, indent=2) + "\n")
    print(f"provisioned {args.count} device(s) under {out}")
    return 0


def _cmd_scan(args) -> int:
    config = scenario.ScenarioConfig.load(_resolve_config(args.config))
    built, _report = scenario.run_scenario(config)
    for node in built.agent_nodes:
        for report in agent.dedup(node.reports):
            doc = {"user": node.name}
            doc.update(report.to_json_fields())
            print(json.dumps(doc, sort_keys=True))
    return 0


def _run_one_seed(config: scenario.ScenarioConfig, out_dir: str) -> tuple[str, list[str]]:
    """Write one run's three output files; returns (report path, failed checks)."""
    _, report = scenario.run_scenario(config)
    out = Path(out_dir)
    with _writing(out):  # a sweep's worker raises its ValueError back through the pool
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json() + "\n")
        (out / "metrics.json").write_text(report.metrics.to_json() + "\n")
        (out / "metrics.csv").write_text(scenario.metrics_csv(report.metrics))
    return str(out / "report.json"), [k for k, ok in report.checks.items() if not ok]


def _cmd_scenario_run(args) -> int:
    config = scenario.ScenarioConfig.load(_resolve_config(args.config))
    base = Path(args.out or config.output or ".")
    if args.sweep is not None:
        # Runs are isolated, so seeds fan out across processes.
        from concurrent.futures import ProcessPoolExecutor

        seeds = [int(s) for s in args.sweep.split(",")]  # an empty list fails here too
        if len(set(seeds)) < len(seeds):  # each seed writes its own directory
            raise ValueError(f"--sweep repeats a seed, got {args.sweep!r}")
        configs = [dataclasses.replace(config, seed=s) for s in seeds]
        out_dirs = [str(base / f"seed-{s}") for s in seeds]
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_run_one_seed, configs, out_dirs))
    else:
        results = [_run_one_seed(config, str(base))]

    for path, failing in results:
        print(f"wrote {path}")
        if failing:
            print(f"sanity checks failed in {path}: {failing}", file=sys.stderr)
    return 1 if any(failing for _, failing in results) else 0


# The flags each analytic model reads, by model and whether --push-interval is given.
_ANALYTIC_READS = {
    ("table1", False): {"form", "t_ann", "t_res"},
    ("ubusy", True): {"push_interval", "form", "t_ann"},
    ("ubusy", False): {"form", "t_res", "t_req"},
    ("bandwidth", True): {"push_interval", "announcement_size"},
    ("bandwidth", False): {"t_req", "t_gen", "crowded_hours", "offpeak_per_hour"},
}


def _cmd_analytic(args) -> int:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "which", "fn")}
    push = args.which != "table1" and "push_interval" in flags
    unread = sorted(set(flags) - _ANALYTIC_READS[args.which, push])
    if unread:
        where = f"analytic {args.which}" + (" --push-interval" if push else "")
        raise ValueError(f"{where} does not read " + ", ".join(
            "--" + flag.replace("_", "-") for flag in unread))
    form = flags.pop("form", "inclusive")
    model = analytics.CostModel(**{k: flags.pop(k) for k in ("t_ann", "t_res") if k in flags})
    if args.which == "table1":  # the five-row usage grid
        print(analytics.usage_grid(model, form=form), end="")
    elif args.which == "ubusy" and push:
        print(f"{100.0 * analytics.ubusy_push(model, flags['push_interval'], form):.4f}")
    elif args.which == "ubusy":
        t_req = flags.get("t_req", analytics.ScenarioModel.crowded_t_req)
        print(f"{100.0 * analytics.ubusy_pull(model, t_req, form):.4f}")
    elif push:
        print(f"{analytics.bandwidth_push(**flags):.2f}")
    else:
        if "t_req" in flags:
            flags["crowded_t_req"] = flags.pop("t_req")
        print(f"{analytics.bandwidth_pull(analytics.ScenarioModel(**flags)):.2f}")
    return 0


def _cmd_lkh_demo(args) -> int:
    rng = Random(args.seed)
    tree = keytree.build_tree(args.n, args.p, rng)
    if args.device is not None and not 0 <= args.device < tree.leaf_count:
        raise ValueError(f"device index {args.device} out of range [0, {tree.leaf_count})")
    counts = keytree.storage_counts(tree)
    print(f"devices={tree.leaf_count} arity={tree.arity} padded={tree.padded_leaves} height={tree.height}")
    print(
        f"device_keys={counts.device_keys} owner_keys={counts.owner_keys} "
        f"header_bytes={counts.header_bytes}"
    )
    target = args.device if args.device is not None else rng.randrange(tree.leaf_count)
    nonce = rng.randbytes(wire.NONCE_LEN)
    vector = keytree.device_key_vector(tree, target)
    header = keytree.build_header(vector, nonce)
    print(f"trace: device {target}, nonce {nonce.hex()}, header of {len(header)} fields")
    evals = 0
    for level, (checked, node) in enumerate(keytree.walk(tree, header, nonce), 1):
        evals += checked
        print(f"  level {level}: checked {checked} child key(s) -> node {node}")
    index = node - tree.first_leaf
    print(f"retrieved device {index} with {evals} PRF evaluations "
          f"(bound {(tree.arity - 1) * tree.height})")
    return 0 if index == target else 1


def _cmd_im_solicit(args) -> int:
    if args.devices < 1:
        raise ValueError(f"im solicit needs at least 1 device, got {args.devices}")
    if args.mode == "naive" and "p" in args:
        raise ValueError("im solicit --mode naive does not read --p")
    rng = Random(args.seed)
    owner = inventory.Owner(crypto.generate_keypair(rng), Random(args.seed + 1))
    image = b"inventory-image"
    infos = [
        inventory.build_device_info(f"unit-{i:07d}".encode(), type_code=7, sw_version=3)
        for i in range(args.devices)
    ]
    if args.mode == "lkh":
        devices = owner.enroll_lkh_fleet(infos, image, getattr(args, "p", 2), rng)
    else:
        devices = [owner.enroll_naive(info, image, rng) for info in infos]
    # One round on the simulator: request latency, one response window, response latency.
    world = simnet.World(seed=args.seed)
    owner_node = world.add_node(simnet.OwnerNode("owner", owner, [0.0]))
    nodes = [world.add_node(simnet.ImDeviceNode(f"d{i}", dev)) for i, dev in enumerate(devices)]
    world.run_until(world.link.latency_max + nodes[0].t_res + world.link.latency_max)
    # Device ids are numbered in enrollment order.
    for _, receipt in sorted(owner_node.receipts, key=lambda r: r[1].device_id):
        device_id, type_code, version = inventory.parse_device_info(receipt.device_info)
        print(json.dumps({
            "device_id": device_id.decode("ascii", "replace"),
            "attestation": "success" if receipt.att_result == wire.ATT_SUCCESS else "fail",
            "type_code": type_code,
            "sw_version": version,
            "trials": receipt.trials,
            "prf_evals": receipt.prf_evals,
        }, sort_keys=True))
    for reason, count in owner_node.rejects.items():
        for _ in range(count):
            print(json.dumps({"reject": reason}, sort_keys=True))
    return 0


def _cmd_wire_decode(args) -> int:
    try:
        data = bytes.fromhex(args.hex) if args.hex is not None else Path(args.file).read_bytes()
    except ValueError:
        raise ValueError("not valid hex") from None
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc.strerror}") from None
    try:
        message = wire.decode(data)
    except wire.WireError as exc:  # its message names the offset, if any
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"kind: {type(message).__name__}")
    print(f"length: {len(data)}")
    if isinstance(message, wire.RequestMsg):
        print(f"nonce: {message.nonce.hex()}")
    elif isinstance(message, (wire.ResponseMsg, wire.AnnouncementMsg)):
        if isinstance(message, wire.ResponseMsg):
            print(f"count: {message.count}")
            for i, n in enumerate(message.pooled_nonces):
                print(f"pooled[{i}]: {n.hex()}")
        print(f"device_nonce: {message.device_nonce.hex()}")
        print(f"url: {message.url.decode('ascii')}")
        print(f"att_result: {'success' if message.att_report.result else 'fail'}")
        print(f"att_age_s: {message.att_report.seconds_since}")
    elif isinstance(message, wire.ImRequestMsg):
        print(f"owner_nonce: {message.owner_nonce.hex()}")
    elif isinstance(message, wire.ImResponseMsg):
        print(f"header_fields: {len(message.lkh_header)}")
        for i, f in enumerate(message.lkh_header):
            print(f"header[{i}]: {f.hex()}")
        print(f"iv: {message.iv.hex()}")
        print(f"ciphertext: {message.ciphertext.hex()}")
        print(f"tag: {message.tag.hex()}")
    if isinstance(message, wire.SignedMessage):
        print(f"signed_region: {wire.signed_region(message).hex()}")
        print(f"signature: {message.signature.hex()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pulldisc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pulldisc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("provision", help="provision devices and write a manifest store")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    # Left out, these take the stand-in descriptor's and the provisioning record's defaults.
    p.add_argument("--device-type", default=argparse.SUPPRESS)
    p.add_argument("--sensor", action="append", dest="sensors_actuators", metavar="SENSOR",
                   default=argparse.SUPPRESS, help="repeatable; default: temperature")
    p.add_argument("--location", dest="coarse_location", metavar="LOCATION",
                   default=argparse.SUPPRESS)
    p.add_argument("--t-att", type=float, default=argparse.SUPPRESS)
    p.add_argument("--t-gen", type=float, default=argparse.SUPPRESS)
    p.add_argument("--pool-max", type=int, default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_provision)

    p = sub.add_parser("scan", help="run a scenario and print device reports")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("scenario", help="scenario operations")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    pr = ssub.add_parser("run", help="execute a scenario config")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default=None)
    pr.add_argument("--sweep", default=None, metavar="SEEDS",
                    help="comma-separated seeds to run in parallel, one output dir each")
    pr.set_defaults(fn=_cmd_scenario_run)

    p = sub.add_parser("analytic", help="closed-form usage / bandwidth models")
    p.add_argument("which", choices=["ubusy", "bandwidth", "table1"])
    # Left out, a flag takes its model's default; one the model does not read is refused.
    p.add_argument("--form", choices=["inclusive", "exclusive"], default=argparse.SUPPRESS)
    p.add_argument("--t-ann", type=float, default=argparse.SUPPRESS)
    p.add_argument("--t-res", type=float, default=argparse.SUPPRESS)
    p.add_argument("--t-req", type=float, default=argparse.SUPPRESS)
    p.add_argument("--t-gen", type=float, default=argparse.SUPPRESS)
    p.add_argument("--push-interval", type=float, default=argparse.SUPPRESS)
    p.add_argument("--announcement-size", type=int, default=argparse.SUPPRESS)
    p.add_argument("--crowded-hours", type=float, default=argparse.SUPPRESS)
    p.add_argument("--offpeak-per-hour", type=float, default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_analytic)

    p = sub.add_parser("lkh", help="key-tree operations")
    lsub = p.add_subparsers(dest="lkh_command", required=True)
    pd = lsub.add_parser("demo", help="tree stats and a traversal trace")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--p", type=int, default=2)
    pd.add_argument("--seed", type=int, required=True)
    pd.add_argument("--device", type=int, default=None)
    pd.set_defaults(fn=_cmd_lkh_demo)

    p = sub.add_parser("im", help="inventory-mode operations")
    isub = p.add_subparsers(dest="im_command", required=True)
    ps = isub.add_parser("solicit", help="one request/response round against a fleet")
    ps.add_argument("--devices", type=int, default=10)
    ps.add_argument("--mode", choices=["naive", "lkh"], default="naive")
    ps.add_argument("--p", type=int, default=argparse.SUPPRESS, help="lkh arity; default: 2")
    ps.add_argument("--seed", type=int, required=True)
    ps.set_defaults(fn=_cmd_im_solicit)

    p = sub.add_parser("wire", help="wire format debugging")
    wsub = p.add_subparsers(dest="wire_command", required=True)
    pw = wsub.add_parser("decode", help="parse a payload and dump fields")
    group = pw.add_mutually_exclusive_group(required=True)
    group.add_argument("--hex")
    group.add_argument("--file")
    pw.set_defaults(fn=_cmd_wire_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a bad argument or config, ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
