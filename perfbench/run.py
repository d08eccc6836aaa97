"""pulldisc benchmark: seeded crowd, flood and inventory workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it sets the world up
several times, then runs the workload again and again until ``--seconds``
is spent, and reports medians of the host times. ``--trace 1`` runs the
workload once untraced and once with every layer boundary wrapped in a
span, and reports the per-layer metrics and the fixed-size probes. Both
check the program's outputs; the last line of standard output is one JSON
object, and the process exits non-zero if any check failed. Metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
# Set-up is repeated for this long before every run, so that its samples
# span the same stretch of time as the runs do.
SETUP_SLICE_S = 0.5

# Least share of the traced run's wall time that the wrapped layers' self
# times must account for; today they account for over 80%.
MIN_LAYER_SHARE = 0.1

# Time counted in setup_s rather than in a run.
SETUP_LAYERS = (
    "scenario.build_world", "registration.provision", "inventory.enroll", "keytree.build_tree",
)


def load_program():
    """Import pulldisc from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pulldisc" / "__init__.py").is_file():
        raise SystemExit(f"no pulldisc sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import pulldisc

    if Path(pulldisc.__file__).resolve().parent != (src / "pulldisc").resolve():
        raise SystemExit(f"imported pulldisc from {pulldisc.__file__}, not from {src}")
    return pulldisc


def environment() -> dict:
    import cryptography

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
    }


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git (which
    would search parent directories when the checkout is not a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def digest_of(outcome) -> str:
    doc = json.dumps(outcome.digest, sort_keys=True, default=repr)
    return hashlib.sha256(doc.encode()).hexdigest()


class Runner:
    """Times set-up and runs of one workload and checks every outcome."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.failed_checks: set[str] = set()
        self.digests: set[str] = set()
        self.outcome = None
        self.reps = 0
        self.failed_reps = 0

    def warm_up(self) -> None:
        """Import-time and cache-filling costs stay out of the numbers."""
        built = self.workload.build(self.seed, horizon=self.workload.warmup_horizon)
        self.workload.run(built)

    def setups(self, seconds: float) -> None:
        stop = perf_counter() + seconds
        for _ in range(3):
            self.build()
        while perf_counter() < stop:
            self.build()

    def build(self):
        gc.collect()  # free the last world first, so peak memory does not depend on when gc runs
        start = perf_counter()
        built = self.workload.build(self.seed)
        self.setup_s.append(perf_counter() - start)
        return built

    def rep(self):
        built = self.build()
        obs = self.workload.observe(built)
        gc.collect()
        start = perf_counter()
        self.workload.run(built)
        self.wall_s.append(perf_counter() - start)
        outcome = self.workload.outcome(built, obs)
        self.reps += 1
        failed = {name for name, ok in outcome.checks.items() if not ok}
        self.failed_reps += bool(failed)
        self.failed_checks |= failed
        self.digests.add(digest_of(outcome))
        self.outcome = outcome
        return outcome


def end_to_end(runner: Runner) -> tuple[dict[str, float], dict[str, int]]:
    out = runner.outcome
    lat = out.latencies
    values = {
        "wall_s": statistics.median(runner.wall_s),
        "setup_s": statistics.median(runner.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_latency_p50_s": percentile(lat, 0.50) if lat else 0.0,
        "sim_latency_p99_s": percentile(lat, 0.99) if lat else 0.0,
        "ops_ok_frac": 1.0 - out.ops_failed / out.ops_attempted if out.ops_attempted else 0.0,
    }
    values["ops_failed_frac"] = 1.0 - values["ops_ok_frac"]
    samples = {
        "wall_s": len(runner.wall_s),
        "setup_s": len(runner.setup_s),
        "peak_rss_mb": 1,
        "sim_latency_p50_s": len(lat),
        "sim_latency_p99_s": len(lat),
        "ops_ok_frac": out.ops_attempted,
        "ops_failed_frac": out.ops_attempted,
    }
    return values, samples


# -- traced pass ------------------------------------------------------------------


def _trials(args, result, exc):
    return ".trials", (len(args[0]) if exc is not None else result[1])


def _evals(args, result, exc):
    return ".evals", (0 if exc is not None else result[1])


def instrument(tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from pulldisc import agent, crypto, device, inventory, keytree, registration, scenario, simnet, wire

    tracer.patch(simnet.World, "run_until", "simnet.run_until")
    tracer.patch(simnet.World, "broadcast", "simnet.broadcast")
    tracer.patch_heap(simnet, "simnet.events")
    tracer.patch(scenario, "build_world", "scenario.build_world")
    tracer.patch(registration, "provision_db_device", "registration.provision")
    tracer.patch(registration, "verify_manifest", "registration.verify_manifest")
    tracer.patch(crypto, "sign", "crypto.sign")
    tracer.patch(crypto, "verify", "crypto.verify")
    tracer.patch(wire, "decode", "wire.decode", lambda a, r, e: (".bytes", len(a[0])))
    tracer.patch(wire, "signed_region", "wire.signed_region")
    for cls in (wire.RequestMsg, wire.ResponseMsg, wire.AnnouncementMsg,
                wire.ImRequestMsg, wire.ImResponseMsg):
        tracer.patch(cls, "encode", "wire.encode")
    tracer.patch(agent.UserAgent, "on_response", "agent.on_response")
    tracer.patch(device.Device, "on_frame", "device.on_frame")
    tracer.patch(device.Device, "on_timer", "device.on_timer")
    tracer.patch(device.Device, "generate_response", "device.generate_response",
                 lambda a, r, e: (".nonces", 0 if r is None else len(r.pooled_nonces)))
    tracer.patch(inventory.ImDevice, "respond", "inventory.respond")
    tracer.patch(inventory.Owner, "receive", "inventory.receive")
    tracer.patch(inventory.Owner, "enroll_naive", "inventory.enroll")
    tracer.patch(inventory.Owner, "enroll_lkh_fleet", "inventory.enroll")
    tracer.patch(keytree, "build_tree", "keytree.build_tree")
    tracer.patch(keytree, "build_header", "keytree.build_header")
    tracer.patch(keytree, "retrieve_lkh", "keytree.retrieve_lkh", _evals)
    tracer.patch(keytree, "retrieve_naive", "keytree.retrieve_naive", _trials)


def per_layer(runner: Runner, tracer, outcome, untraced_wall: float) -> tuple[dict, dict]:
    from workloads import COUNTERS

    traced_run_wall = runner.wall_s[-1]  # timed outside the tracer

    run, setup = tracer.layer_times(root="simnet.run_until")
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    counts = tracer.counts
    traced_wall = run["simnet.run_until"]["s"]
    out = {}
    for name in tracer.names:
        phase = setup if name in SETUP_LAYERS else run
        entry = phase.get(name, zero)
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.s"] = entry["s"]
        out[f"{name}.self_s"] = entry["self_s"]
    for key in ("wire.decode.bytes", "keytree.retrieve_naive.trials", "keytree.retrieve_lkh.evals"):
        out[key] = counts.get(key, 0)
    naive_s = run.get("keytree.retrieve_naive", zero)["s"]
    out["keytree.trials_per_s"] = out["keytree.retrieve_naive.trials"] / naive_s if naive_s else 0.0
    gen_calls = run.get("device.generate_response", zero)["calls"]
    nonces = counts.get("device.generate_response.nonces", 0)
    out["device.nonces_per_response"] = nonces / gen_calls if gen_calls else 0.0
    on_response = run.get("agent.on_response", zero)["calls"]
    distinct = outcome.counters.get("agent.distinct_reports", 0)
    out["agent.reports_per_call"] = distinct / on_response if on_response else 0.0
    out["simnet.events"] = counts.get("simnet.events", 0)
    out["simnet.events_per_s"] = out["simnet.events"] / untraced_wall
    out["simnet.self_s"] = run["simnet.run_until"]["self_s"]
    out["simnet.queue_peak"] = tracer.queue_peak
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    for name in COUNTERS:
        out[name] = outcome.counters.get(name, 0)

    # The wrapped layers' self times, the event loop's own left out, must
    # fit in the traced run's wall time measured outside the tracer, and
    # cover a non-trivial share of it.
    layers_self = sum(e["self_s"] for name, e in run.items() if name != "simnet.run_until")
    checks = {
        "spans_nested": tracer.spans_nested(),
        "self_times_nonnegative": all(e["self_s"] >= 0 for e in run.values()),
        "layers_self_within_wall": MIN_LAYER_SHARE * traced_run_wall
        <= layers_self <= traced_run_wall,
    }
    for layer in runner.workload.required_layers:
        calls = run.get(layer, setup.get(layer, zero))["calls"]
        checks[f"coverage:{layer}"] = calls > 0
    return out, checks


def traced_pass(runner: Runner, spans_dir: Path) -> dict:
    from probes import run_probes
    from tracer import Tracer

    runner.rep()
    untraced_wall = runner.wall_s[-1]
    tracer = Tracer()
    instrument(tracer)
    try:
        outcome = runner.rep()
    finally:
        tracer.restore()
    metrics, checks = per_layer(runner, tracer, outcome, untraced_wall)
    runner.failed_checks |= {name for name, ok in checks.items() if not ok}
    tracer.write(spans_dir / f"{runner.workload.name}-seed{runner.seed}.spans")
    metrics.update(run_probes(runner.seed, metrics["simnet.queue_peak"]))
    return metrics


# -- entry point --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    runner = Runner(WORKLOADS[args.workload], args.seed)
    start = perf_counter()
    deadline = start + args.seconds
    env = dict(environment(), workload=args.workload, seed=args.seed, trace=args.trace)
    print("env " + json.dumps(env), flush=True)

    runner.warm_up()
    if args.trace:
        values = traced_pass(runner, ROOT / ".perfbench" / "spans")
        wanted = spec["per_layer"]
        samples = {}
    else:
        while True:
            runner.setups(SETUP_SLICE_S)
            runner.rep()
            next_rep = SETUP_SLICE_S + runner.setup_s[-1] + runner.wall_s[-1]
            # Two runs at least, so that their digests can be compared.
            if runner.reps >= 2 and perf_counter() + next_rep > deadline:
                break
        values, samples = end_to_end(runner)
        wanted = spec["end_to_end"]

    if len(runner.digests) != 1:
        runner.failed_checks.add("digest_repeats_across_reps")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        runner.failed_checks.add("metrics_reported:" + ",".join(missing))
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    for name, entry in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"metric {name} {entry['value']!r} {entry['unit']}{n}")
    if not args.trace:
        print(f"metric ops_failed_frac {values['ops_failed_frac']!r} frac "
              f"(n={samples['ops_failed_frac']})")
    for digest in sorted(runner.digests):
        print(f"digest {args.workload} seed={args.seed} {digest}")
    for name in sorted(runner.failed_checks):
        print(f"FAILED check {name}")
    print(f"elapsed_s {perf_counter() - start:.3f} reps {runner.reps}")
    correct = not runner.failed_checks
    print(json.dumps({
        "correct": correct,
        "attempted": runner.reps,
        "failed": runner.failed_reps,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
