#!/usr/bin/env python3
"""Same-machine A/B time-to-solution gate for the bench binaries.

Runs one bench binary from a BASE build and from a HEAD build, alternating
base/head for RUNS rounds on the same machine, and reads `solve_ms` from
each run's `BENCH_JSON: {...}` line.  The gate fails when

    median(head) - median(base) > IQR(base)

that is, when HEAD's median is slower than the base's by more than the
base's own run-to-run spread (IQR/median, relative to the base median).
It compares two builds measured side by side, so it needs no committed
baseline from another machine, and it judges wall time, not a work
counter, so a change that does less work to reach the same answer is not
reported as a regression.

Any run that exits non-zero fails the gate: the benches assert their own
correctness checks (e.g. e12's exactness and merge-saving floor) through
their exit status.

Usage:
  scripts/ab_gate.py --base build-base --head build --bench bench_e7_dp_scaling

Exit 0 when HEAD is within the band, 1 on a regression or a failed run,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# Runs per side.  Base IQR is the band whatever the count, but the median
# difference shrinks with more runs.  In A/A runs (one source built twice)
# on a shared 4-core VM, 7 runs per side false-failed 7-9% of the time
# and 31 runs under 1% (docs/PERFORMANCE.md, "Regression gating").
RUNS = 31


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_once(binary: str) -> float:
    """Runs the bench once; returns its solve_ms.  Raises on failure."""
    proc = subprocess.run([binary], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{binary} exited {proc.returncode}")
    detail = None
    for line in proc.stdout.splitlines():
        if line.startswith("BENCH_JSON: "):
            detail = json.loads(line[len("BENCH_JSON: "):])
    if not isinstance(detail, dict) or "solve_ms" not in detail:
        raise RuntimeError(f"{binary} printed no BENCH_JSON solve_ms")
    return float(detail["solve_ms"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base build directory")
    ap.add_argument("--head", required=True, help="head build directory")
    ap.add_argument("--bench", required=True, help="bench binary name")
    args = ap.parse_args()
    paths = {}
    for side in ("base", "head"):
        path = os.path.join(getattr(args, side), "bench", args.bench)
        if not os.access(path, os.X_OK):
            ap.error(f"{side} bench binary not found: {path}")
        paths[side] = path

    samples: dict[str, list[float]] = {"base": [], "head": []}
    try:
        for i in range(RUNS):
            # Alternate which side goes first so a drifting machine load
            # lands on both sides evenly.
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                samples[side].append(run_once(paths[side]))
    except RuntimeError as err:
        print(f"ab_gate: FAIL: {err}")
        return 1

    b1, base_med, b3 = quartiles(samples["base"])
    _, head_med, _ = quartiles(samples["head"])
    band = b3 - b1
    for side in ("base", "head"):
        runs = ", ".join(f"{x:.1f}" for x in samples[side])
        print(f"  {side}: solve_ms [{runs}]")
    print(f"  base median {base_med:.1f} ms, IQR {band:.1f} ms "
          f"({band / base_med:.1%} of median); head median {head_med:.1f} ms "
          f"({head_med / base_med:.2f}x)")
    if head_med - base_med > band:
        print(f"ab_gate: FAIL: {args.bench} head median exceeds the base "
              f"median by more than the base IQR")
        return 1
    print(f"ab_gate: ok: {args.bench}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
