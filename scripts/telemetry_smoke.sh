#!/usr/bin/env bash
# End-to-end telemetry smoke test (CI: the telemetry-smoke job).
#
# Solves a small instance with `hgp_solve --trace --metrics --report`, then
# checks that (a) both exports are valid JSON (python3 -m json.tool), and
# (b) the trace contains the spans the pipeline promises: the solve root,
# forest build, per-tree DP solves, RHGPT->HGPT conversion, and map-back.
#
# Usage: scripts/telemetry_smoke.sh [build-dir]
set -eu
BUILD="${1:-build}"
SOLVE="$BUILD/tools/hgp_solve"
[ -x "$SOLVE" ] || { echo "missing $SOLVE (build hgp_solve first)"; exit 1; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# 8-task ring with one heavy chord pair per task (METIS fmt 011:
# vertex weights = demands*1000, edge weights = volumes).
cat > "$WORK/ring8.metis" <<'EOF'
8 8 011
1000 2 10 8 1
1000 1 10 3 7
1000 2 7 4 9
1000 3 9 5 2
1000 4 2 6 8
1000 5 8 7 3
1000 6 3 8 5
1000 7 5 1 1
EOF

"$SOLVE" --graph "$WORK/ring8.metis" --deg 2,4 --cm 4,1,0 --trees 3 \
  --trace "$WORK/trace.json" --metrics "$WORK/metrics.json" --report

python3 -m json.tool "$WORK/trace.json" > /dev/null
python3 -m json.tool "$WORK/metrics.json" > /dev/null

for span in '"name":"solve"' '"name":"decomp.tree_build"' '"name":"solve.trees"' \
            '"name":"tree.attempt"' '"name":"dp.solve"' \
            '"name":"tree.convert"' '"name":"tree.map_back"'; do
  grep -q "$span" "$WORK/trace.json" || {
    echo "trace is missing expected span $span"; exit 1; }
done
grep -q '"dp.merge_operations"' "$WORK/metrics.json" || {
  echo "metrics export is missing dp counters"; exit 1; }

echo "telemetry smoke OK"
