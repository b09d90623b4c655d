#!/usr/bin/env python3
"""Regression guard over BENCH_e14.json (bench_e14_obs).

Gates the observability layer's hot-loop cost:

  * The InstrumentedIterator wrapper must cost < 5% on the path4
    any-k drain. The gated number is the minimum of
    the two estimators the bench emits (per-mode floor ratio and the
    median of adjacent-pair ratios) -- their noise failure modes are
    disjoint, so the minimum is a robust upper-leaning estimate of the
    structural overhead on a shared runner.
  * The wrapper must also actually record: a non-empty per-Next delay
    histogram with ordered percentiles (p50 <= p99 <= max).

Usage: check_bench_e14.py path/to/BENCH_e14.json
"""
import json
import sys

MAX_OVERHEAD_PCT = 5.0


def fail(msg: str) -> None:
    print(f"BENCH_e14 regression: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_bench_e14.py BENCH_e14.json")
    with open(sys.argv[1]) as f:
        data = json.load(f)

    overhead = data.get("overhead_pct")
    if overhead is None:
        fail("overhead_pct missing from JSON")
    if overhead >= MAX_OVERHEAD_PCT:
        fail(
            f"wrapper overhead {overhead:.2f}% >= {MAX_OVERHEAD_PCT}% "
            f"(floor {data.get('floor_overhead_pct', float('nan')):.2f}%, "
            f"pair-median "
            f"{data.get('pair_median_overhead_pct', float('nan')):.2f}%)"
        )

    count = data.get("delay_count", 0)
    if count <= 0:
        fail("no delay samples recorded")
    p50 = data.get("delay_p50_ns", -1)
    p99 = data.get("delay_p99_ns", -1)
    pmax = data.get("delay_max_ns", -1)
    if not (0 < p50 <= p99 <= pmax):
        fail(f"delay percentiles not ordered: p50={p50} p99={p99} max={pmax}")

    print(
        f"BENCH_e14 guard: overhead {overhead:.2f}% < {MAX_OVERHEAD_PCT}%, "
        f"{count} delay samples (p50={p50}ns p99={p99}ns), all checks passed"
    )


if __name__ == "__main__":
    main()
