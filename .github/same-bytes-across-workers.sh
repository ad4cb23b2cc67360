#!/usr/bin/env bash
# Usage: .github/same-bytes-across-workers.sh PRESET POINTS
#
# Runs the preset at --points POINTS on one worker and on two forked
# workers, and fails unless both runs write the same CSV bytes.
set -euo pipefail
preset=$1
points=$2
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
out=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/$preset.XXXXXX")
for workers in 1 2; do
  mkdir -p "$out/w$workers"
  python -m drivencavity.cli figure "$preset" --points "$points" \
    --workers "$workers" --out "$out/w$workers"
done
cmp "$out/w1/$preset.csv" "$out/w2/$preset.csv"
rm -rf "$out"
