"""Run the benchmark over many seeds and report medians and spreads.

    python3 fatbench/spread.py --seeds 1-10 [--workload NAME ...] [--write]

For each workload, runs fatbench/run.py once per seed with tracing off,
one run after another, and prints for every end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.  With --write it also
makes one traced run on the default seed and stores all of it as the
baseline in fatbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from record import parse_seeds
from run import BENCH, ROOT


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "fatbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs are wrong\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_path = BENCH / "baseline.json"
    base = json.loads(base_path.read_text())
    seeds = parse_seeds(args.seeds)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        runs = [run(name, s, spec["run_seconds"], 0) for s in seeds]
        stats = {m["name"]: summary([r[m["name"]] for r in runs])
                 for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            st = stats[m["name"]]
            flag = "" if st["spread"] < m["bound"] / 3 else \
                "  above a third of the bound"
            print(f"{name:18} {m['name']:12} median {st['median']:10.4f} "
                  f"{m['unit']:5} spread {st['spread']:.3f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        if args.write:
            entry = base["workloads"][name]
            entry["end_to_end"] = {"seeds": args.seeds, **stats}
            entry["per_layer"] = run(name, base["default_seed"],
                                     spec["run_seconds"], 1)
            base_path.write_text(json.dumps(base, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
