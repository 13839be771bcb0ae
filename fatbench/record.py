"""Record the reference output digests the benchmark checks against.

    python3 fatbench/record.py [--seeds 0-11,1009] [--workload NAME ...]

Computes every input of each workload's full pool for each seed and
writes the digest of each result into fatbench/digests.json, merging
with what is there.  Run it on a commit whose outputs are trusted; a run
of fatbench/run.py on a recorded seed then fails any operation whose
result differs.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, import_package


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-11,1009")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    import_package()
    from workloads import WORKLOADS, digest, generate

    path = BENCH / "digests.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            pool, _ = generate(wl, seed, wl.walks)
            out = []
            for i in range(len(pool)):
                item, pool[i] = pool[i], None
                out.append(digest(wl.serial(wl.op(item))))
            refs.setdefault(name, {})[str(seed)] = out
            print(f"{name} seed {seed}: {len(out)} digests", flush=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
