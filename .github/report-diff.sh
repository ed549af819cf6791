#!/bin/sh
# Usage: report-diff.sh BASE HEAD OUT
#
# Runs `gauge2 report` on every shipped config of two checkouts, each
# from its own src/ in a fresh process, into OUT/base and OUT/head, then
# prints `diff -rq` of the two and, for each JSON report that differs,
# how many numeric leaves changed, the largest absolute change, the
# largest relative change with its leaf path, and every bool leaf that
# changed (a verdict flip).  A difference is printed, not failed on; the
# script fails only if a report cannot be made.
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
    """(path, value) of every numeric and bool leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}/{i}")
    elif isinstance(node, (int, float)):
        yield path, node


def split(leaf_map):
    """The numeric leaves as floats, and the bool leaves (verdicts)."""
    numbers = {k: float(v) for k, v in leaf_map.items()
               if not isinstance(v, bool)}
    return numbers, {k: v for k, v in leaf_map.items() if isinstance(v, bool)}


base, head = map(pathlib.Path, sys.argv[1:])
for old in sorted(base.rglob("*.json")):
    new = head / old.relative_to(base)
    if not new.is_file() or old.read_bytes() == new.read_bytes():
        continue
    a, a_flags = split(dict(leaves(json.loads(old.read_text()))))
    b, b_flags = split(dict(leaves(json.loads(new.read_text()))))
    moved = sorted(k for k in a.keys() & b.keys()
                   if a[k] != b[k] and not (math.isnan(a[k]) and math.isnan(b[k])))
    changes = [abs(b[k] - a[k]) for k in moved]
    print(f"{old.relative_to(base)}: {len(changes)} numeric leaves changed, "
          f"largest change {max(changes, default=0.0):.3g}, "
          f"{len(a.keys() ^ b.keys())} leaves only on one side")
    if moved:
        # relative to the larger magnitude, so a move off 0 reads 1
        rel = {k: abs(b[k] - a[k]) / max(abs(a[k]), abs(b[k])) for k in moved}
        worst = max(moved, key=lambda k: (rel[k], k))
        print(f"  largest relative change {rel[worst]:.3g} at {worst}: "
              f"{a[worst]!r} -> {b[worst]!r}")
    for k in sorted(a_flags.keys() & b_flags.keys()):
        if a_flags[k] != b_flags[k]:
            print(f"  verdict flip at {k}: {a_flags[k]} -> {b_flags[k]}")
EOF
fi
