#!/bin/sh
# Usage: report-diff.sh BASE HEAD OUT
#
# Runs `gauge2 report` on every shipped config of two checkouts, each
# from its own src/ in a fresh process, into OUT/base and OUT/head, then
# prints `diff -rq` of the two and, for each JSON report that differs,
# how many numeric leaves changed and the largest absolute change.  A
# difference is printed, not failed on; the script fails only if a report
# cannot be made.
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
else
  python3 - "$out/base" "$out/head" <<'EOF'
import json, math, pathlib, sys


def leaves(node, path=""):
    """(path, number) of every numeric leaf; bools are not numbers."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}/{i}")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


base, head = map(pathlib.Path, sys.argv[1:])
for old in sorted(base.rglob("*.json")):
    new = head / old.relative_to(base)
    if not new.is_file() or old.read_bytes() == new.read_bytes():
        continue
    a = dict(leaves(json.loads(old.read_text())))
    b = dict(leaves(json.loads(new.read_text())))
    changes = [abs(b[k] - a[k]) for k in a.keys() & b.keys()
               if a[k] != b[k] and not (math.isnan(a[k]) and math.isnan(b[k]))]
    print(f"{old.relative_to(base)}: {len(changes)} numeric leaves changed, "
          f"largest change {max(changes, default=0.0):.3g}, "
          f"{len(a.keys() ^ b.keys())} leaves only on one side")
EOF
fi
