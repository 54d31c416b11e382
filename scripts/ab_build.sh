#!/usr/bin/env bash
# Builds one target twice, for a same-machine A/B comparison
# (scripts/ab_gate.py): the merge-base with the target branch into
# build-base/, and the checked-out HEAD into build/ (default preset).
#
# The base is `git merge-base HEAD origin/$GITHUB_BASE_REF` (main when
# GITHUB_BASE_REF is unset); when HEAD is that commit itself (a push to
# the target branch), its parent is the base.  Needs the full history
# (actions/checkout with fetch-depth: 0).
#
# Usage: scripts/ab_build.sh TARGET
#   scripts/ab_build.sh bench_e7_dp_scaling
set -euo pipefail
TARGET="${1:?usage: scripts/ab_build.sh TARGET}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
branch="${GITHUB_BASE_REF:-main}"
base="$(git merge-base HEAD "origin/$branch")"
if [ "$base" = "$(git rev-parse HEAD)" ]; then
  base="$(git rev-parse HEAD~1)"
fi
echo "A/B base: $base ($branch), head: $(git rev-parse HEAD)"
src="$ROOT/build-base-src"
rm -rf "$src"
mkdir -p "$src"
git archive "$base" | tar -x -C "$src"
cmake -S "$src" -B build-base -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-base -j"$(nproc)" --target "$TARGET"
cmake --preset default
cmake --build --preset default -j"$(nproc)" --target "$TARGET"
