"""Steadiness check: run the benchmark over several seeds per workload.

    python3 perfbench/steady.py --seeds 1-10

For each workload in BENCHMARK.json it runs ``perfbench/run.py`` once per
seed (one at a time, untraced, for ``run_seconds``) and prints, per
end-to-end metric, the median and the distance between the first and third
quartiles as a share of the median, next to a third of the metric's bound.
It then runs the first seed again in a new process and requires the same
digest and simulated metrics. It exits non-zero if a run fails, a spread
exceeds its bound, or the repeated run disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SIMULATED = ("sim_latency_p50_s", "sim_latency_p99_s", "ops_ok_frac")
REPEAT = 1  # seeds of each workload run a second time


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("digest ")), "")
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, digest, lines[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, digests = {}, {}
        for seed in args.seeds:
            runs[seed], digests[seed], env = run_once(workload, seed, spec["run_seconds"])
            print(f"{workload} seed={seed} " + json.dumps(runs[seed]), flush=True)
        print(env)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [runs[s][name] for s in args.seeds]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bound / 3 else "  above a third of the bound"
            if spread > bound:
                flag, ok = "  ABOVE BOUND", False
            print(f"{workload:10s} {name:18s} median {median:.6g} spread {spread:.4f} "
                  f"(bound {bound}, third {bound / 3:.4f}){flag}")
        for seed in args.seeds[:REPEAT]:
            again, digest, _ = run_once(workload, seed, spec["run_seconds"])
            same = digest == digests[seed] and all(again[m] == runs[seed][m] for m in SIMULATED)
            print(f"{workload:10s} repeat seed={seed}: {'identical' if same else 'MISMATCH'}")
            ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
