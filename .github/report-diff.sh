#!/bin/sh
# Usage: report-diff.sh BASE HEAD OUT
#
# Runs `gauge2 report` on every shipped config of two checkouts, each
# from its own src/ in a fresh process, into OUT/base and OUT/head, then
# prints `diff -rq` of the two.  A difference is printed, not failed on;
# the script fails only if a report cannot be made.
set -e
base=$1
head=$2
out=$3
for side in base head; do
  eval "dir=\$$side"
  for config in "$dir"/configs/*.json; do
    name=$(basename "$config" .json)
    PYTHONPATH="$dir/src" python -m gauge2.cli report --config "$config" \
      --out "$out/$side/$name" --quiet
  done
done
if diff -rq "$out/base" "$out/head"; then
  echo "reports of base and head are identical"
fi
