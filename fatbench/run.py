"""Benchmark of the fatmagnus package: one workload per process.

    python3 fatbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run times operations for S seconds of busy time
and prints the end-to-end metrics.  With ``--trace 1`` it makes one pass
over the first quarter of the pool untraced and one traced, and prints the
per-layer counts and self times of the traced pass.  Either way the last line of standard
output is one JSON object; the lines before it give every metric by name
with its unit.  See fatbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3

# every timing is process CPU time: the benchmark is one thread doing no
# I/O, so this is the latency a caller sees on an otherwise idle core
clock = time.process_time


def import_package() -> float:
    """Import fatmagnus from this checkout's src/ and return the time."""
    src = ROOT / "src"
    if not (src / "fatmagnus" / "__init__.py").is_file():
        sys.exit(f"fatbench: no fatmagnus package under {src}")
    sys.path.insert(0, str(src))
    t0 = clock()
    import fatmagnus  # noqa: F401
    from fatmagnus import algebra, cocycle, fatgraph, johnson, magnus  # noqa: F401
    took = clock() - t0
    if Path(fatmagnus.__file__).resolve().parent != src / "fatmagnus":
        sys.exit("fatbench: imported fatmagnus from outside the checkout")
    return took


def tail(times: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with >= 10 samples beyond it.

    Returns (value, percentile).  With fewer than 11 samples the maximum
    stands in, at percentile 100.
    """
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


class Checker:
    """Untimed output checks; a failed or raising check fails the op."""

    def __init__(self, wl, seed: int):
        from workloads import digest
        self.wl = wl
        self.digest = digest
        refs = json.loads((BENCH / "digests.json").read_text())
        self.refs = refs.get(wl.name, {}).get(str(seed))
        self.digests_checked = 0
        self.checks_run = 0
        self.first_checked = False

    def ok(self, index: int, item, out, first_pass: bool) -> bool:
        try:
            if self.refs is not None and index < len(self.refs):
                self.digests_checked += 1
                if self.digest(self.wl.serial(out)) != self.refs[index]:
                    print(f"digest mismatch at input {index}", file=sys.stderr)
                    return False
            if self.wl.check_all or (first_pass and not self.first_checked):
                holds = self.wl.check(item, out)
                if holds is not None:
                    self.checks_run += 1
                    self.first_checked = True
                if holds is False:
                    print(f"invariant fails at input {index}", file=sys.stderr)
                    return False
        except Exception:
            traceback.print_exc()
            return False
        return True


def run_op(wl, item):
    """One timed operation: (result or None, seconds)."""
    t0 = clock()
    try:
        out = wl.op(item)
    except Exception:
        took = clock() - t0
        traceback.print_exc()
        return None, took
    return out, clock() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(wl, seed: int, walks: int):
    """Generate the pool SETUP_REPEATS times; keep the last, time each."""
    from workloads import generate
    times = []
    for _ in range(SETUP_REPEATS):
        pool = None  # drop the previous copy before making the next
        t0 = clock()
        pool, recipes = generate(wl, seed, walks)
        times.append(clock() - t0)
    return pool, recipes, times


def timed(wl, seed, seconds, walks, import_s):
    """Time operations over the pool, pass after pass, until their summed
    time reaches ``seconds`` and the first pass is complete.  From the
    second pass on the inputs are rebuilt fresh, untimed, and each input is
    dropped once used.  Peak memory is read at the end of the first pass,
    so it does not grow with the number of passes a fast program fits in.
    """
    from workloads import rebuild
    pool, recipes, setups = setup(wl, seed, walks)
    wl.op(rebuild(wl, recipes[:1])[0])  # warm-up, untimed
    check = Checker(wl, seed)
    n = len(pool)
    times: list[float] = []
    failed, busy = 0, 0.0
    wall0 = time.perf_counter()
    k = 0
    while k < n or busy < seconds:
        if k and k % n == 0:
            pool = rebuild(wl, recipes)
        i = k % n
        item, pool[i] = pool[i], None
        out, took = run_op(wl, item)
        busy += took
        if out is not None and check.ok(i, item, out, k < n):
            times.append(took)
        else:
            failed += 1
        del item, out
        k += 1
        if k == n:
            rss = peak_rss_mb()
    wall = time.perf_counter() - wall0
    setup_s = import_s + statistics.median(setups)
    p_tail, pct = tail(times) if times else (float("nan"), 0.0)
    metrics = {
        "ops_per_s": (len(times) / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(times) if times
                      else float("nan"), "ms"),
        "op_tail_ms": (1000 * p_tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"# {wl.name} seed {seed}: {k} ops ({k / n:.2f} passes of {n}), "
          f"{busy:.2f} s busy (cpu), {wall:.2f} s wall with checks; "
          f"{check.digests_checked} digests and {check.checks_run} "
          f"invariants checked")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{pct:.1f} of {len(times)} samples, " \
                   f"{min(10, len(times))} beyond it)"
        if name == "setup_s":
            note = f"  (import {import_s:.4f} s + median of " \
                   f"{len(setups)} generations)"
        if name == "peak_rss_mb":
            note = "  (through set-up and the first pass)"
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"fail_frac {failed / k:.6g} ratio  ({failed} of {k})")
    return k, failed, metrics


def traced(wl, seed, walks):
    """One untraced and one traced pass over fresh copies of the first
    quarter of the pool."""
    from spans import Tracer, unit_of
    from workloads import generate, rebuild
    walks = max(1, walks // 4)
    pool, recipes = generate(wl, seed, walks)
    wl.op(rebuild(wl, recipes[:1])[0])  # warm-up, untimed
    plain = 0.0
    for i in range(len(pool)):
        item, pool[i] = pool[i], None
        plain += run_op(wl, item)[1]
    del item

    tracer = Tracer(clock)
    tracer.install()
    try:
        tracer.on = True  # graph building is the fatgraph layer's work
        pool, _ = generate(wl, seed, walks)
        tracer.on = False
        check = Checker(wl, seed)
        failed = 0
        with_trace = 0.0
        for i in range(len(pool)):
            item, pool[i] = pool[i], None
            tracer.on = True
            out, took = run_op(wl, item)
            tracer.on = False
            with_trace += took
            if out is None or not check.ok(i, item, out, True):
                failed += 1
    finally:
        tracer.on = False
        tracer.uninstall()
    metrics = {k: (v, unit_of(k)) for k, v in tracer.metrics().items()}
    metrics["trace.untraced_s"] = (plain, "s")
    metrics["trace.traced_s"] = (with_trace, "s")
    metrics["trace.overhead_s"] = (with_trace - plain, "s")
    metrics["trace.count_s"] = (tracer.paused, "s")
    print(f"# {wl.name} seed {seed}: traced pass of {len(pool)} ops; "
          f"{check.digests_checked} digests and {check.checks_run} "
          f"invariants checked")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return len(pool), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--walks", type=int, default=None,
                    help="walks in the pool (default: the workload's own "
                         "size); smaller only for smoke tests")
    args = ap.parse_args(argv)

    import_s = import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    walks = args.walks or wl.walks
    if args.trace:
        attempted, failed, metrics = traced(wl, args.seed, walks)
    else:
        attempted, failed, metrics = timed(wl, args.seed, args.seconds,
                                           walks, import_s)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
