#!/usr/bin/env bash
# Snapshot corruption fuzz (CI: the snapshot-fuzz job).
#
# Runs `hgp_snapfuzz` — seeded random and CRC-consistent corruptions over a
# pristine image of every persisted snapshot kind (graph, hierarchy,
# forest, checkpoint spill; see docs/FORMATS.md), plus seeded mutations of
# the shard wire messages.  The harness asserts the durability contract:
# raw corruption is always rejected with a typed kDataLoss, CRC-consistent
# corruption and wire mutations are either rejected or yield a valid parse,
# and nothing ever crashes or reads out of bounds — which is only a
# real guarantee when the binary is built under ASan/UBSan, so CI points
# this script at the sanitizer build.
#
# Usage: scripts/snapshot_fuzz.sh [build-dir] [iters] [seeds...]
#   scripts/snapshot_fuzz.sh build-asan            # CI: 1000 iters, seeds 1 2 3
#   scripts/snapshot_fuzz.sh build 5000 42         # bigger local hammer
set -eu
cd "$(dirname "$0")/.."
BUILD="${1:-build-asan}"
ITERS="${2:-1000}"
shift $(( $# > 2 ? 2 : $# ))
SEEDS=("${@:-}")
[ -n "${SEEDS[0]:-}" ] || SEEDS=(1 2 3)
FUZZ="$BUILD/tools/hgp_snapfuzz"
[ -x "$FUZZ" ] || { echo "missing $FUZZ (build hgp_snapfuzz first)"; exit 1; }

for seed in "${SEEDS[@]}"; do
  echo "== hgp_snapfuzz --iters $ITERS --seed $seed"
  "$FUZZ" --iters "$ITERS" --seed "$seed"
done

echo "snapshot fuzz OK ($ITERS iterations x ${#SEEDS[@]} seed(s))"
