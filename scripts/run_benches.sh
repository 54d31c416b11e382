#!/usr/bin/env bash
# Runs the experiment suite and fails if any experiment reports FAIL.
#
# Every benchmark persists a BENCH_<name>.json summary at the repo root:
# the bench name, its wall time and exit code as measured here, plus any
# machine-readable detail the benchmark prints on a line of the form
# "BENCH_JSON: {...}" (e.g. problem size and DP work counters).  The
# files give successive runs a perf trajectory to diff without re-parsing
# human-oriented tables.
#
# Speed is gated by scripts/ab_gate.py, which times a base build against
# a head build on the same machine.
#
# Usage: scripts/run_benches.sh [build-dir] [name-glob]
#   scripts/run_benches.sh                      # all benches in ./build
#   scripts/run_benches.sh build 'bench_e7*'    # just the e7 sweep
set -u
BUILD="${1:-build}"
FILTER="${2:-*}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
status=0
for b in "$BUILD"/bench/$FILTER; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "### $name"
  start_ms=$(($(date +%s%N) / 1000000))
  out="$("$b" 2>&1)"
  rc=$?
  end_ms=$(($(date +%s%N) / 1000000))
  printf '%s\n' "$out"
  if [ "$rc" -ne 0 ]; then
    echo "### $name FAILED"
    status=1
  fi
  detail="$(printf '%s\n' "$out" | sed -n 's/^BENCH_JSON: //p' | tail -1)"
  [ -n "$detail" ] || detail='null'
  short="${name#bench_}"
  printf '{"bench": "%s", "wall_ms": %d, "exit": %d, "detail": %s}\n' \
    "$short" "$((end_ms - start_ms))" "$rc" "$detail" \
    > "$ROOT/BENCH_${short}.json"
done
exit $status
