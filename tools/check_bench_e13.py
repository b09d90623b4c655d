#!/usr/bin/env python3
"""Regression guard over BENCH_e13.json (bench_e13_anyk_core).

Gates the rebuilt any-k enumeration core on every workload that reports
frontier counters:

  * Take2 must push at most 2.5 candidates per emitted result (its
    design bound is 2 + the seed);
  * Take2 must never push more than the pooled Lawler expansion over
    the same lazily sorted T-DP (the `lazy` row), allowing 0.1% slack
    for counter rounding.

Wall-clock TTLs (take2 and lazy) are printed as two absolute times,
neither compared nor gated: one run on a shared runner cannot tell them
apart, so only the structural counters are hard gates.

Usage: check_bench_e13.py path/to/BENCH_e13.json
"""
import json
import sys


def fail(msg: str) -> None:
    print(f"BENCH_e13 regression: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_bench_e13.py BENCH_e13.json")
    with open(sys.argv[1]) as f:
        data = json.load(f)
    workloads = data.get("workloads", {})
    if not workloads:
        fail("no workloads in JSON")

    checked_pushes = 0
    for name, variants in workloads.items():
        take2 = variants.get("take2")
        lawler = variants.get("lazy")
        if take2 is None:
            fail(f"{name}: no take2 readout")
        pushes = take2.get("pushes_per_result", -1.0)
        if pushes >= 0:
            checked_pushes += 1
            if pushes > 2.5:
                fail(f"{name}: take2 pushes/result {pushes:.3f} > 2.5")
            if lawler is not None:
                lawler_pushes = lawler.get("pushes_per_result", -1.0)
                if lawler_pushes >= 0 and pushes > lawler_pushes * 1.001:
                    fail(
                        f"{name}: take2 pushes/result {pushes:.3f} exceeds "
                        f"lazy {lawler_pushes:.3f}"
                    )
        if lawler is not None and take2.get("ttl_us"):
            k = max(take2["ttl_us"], key=lambda s: int(s))
            t2 = take2["ttl_us"][k]
            lz = lawler["ttl_us"][k]
            # Absolute TTLs, not a ratio: one run cannot tell the two
            # apart (repeat runs on one machine read 0.93-1.14x).
            print(f"{name}: TTL({k}) take2 {t2 / 1e3:.1f} ms, "
                  f"lazy {lz / 1e3:.1f} ms")
    if checked_pushes == 0:
        fail("no workload reported pushes_per_result")
    print("BENCH_e13 guard: all checks passed")


if __name__ == "__main__":
    main()
