#!/usr/bin/env bash
# Usage: .github/same-bytes-across-workers.sh PRESET POINTS
#        .github/same-bytes-across-workers.sh CONFIG
#
# Runs the preset at --points POINTS, or the config file CONFIG (which
# sets no output.path), on one worker and on two forked workers, and
# fails unless both runs write the same CSV bytes.
set -euo pipefail
if [ $# -eq 1 ]; then
  # a config without output.path writes result.csv in the working directory
  config=$(realpath "$1") csv=result.csv
else
  csv=$1.csv
fi
cd "$(dirname "$0")/.."
export PYTHONPATH=$PWD/src${PYTHONPATH:+:$PYTHONPATH}
out=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/same-bytes.XXXXXX")
for workers in 1 2; do
  mkdir -p "$out/w$workers"
  if [ $# -eq 1 ]; then
    (cd "$out/w$workers" &&
      python -m drivencavity.cli run "$config" --workers "$workers")
  else
    python -m drivencavity.cli figure "$1" --points "$2" \
      --workers "$workers" --out "$out/w$workers"
  fi
done
cmp "$out/w1/$csv" "$out/w2/$csv"
rm -rf "$out"
