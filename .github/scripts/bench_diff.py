#!/usr/bin/env python3
"""Markdown table of fresh vs committed bench numbers for a CI step summary.

    python3 .github/scripts/bench_diff.py fastpath freepath ... >> "$GITHUB_STEP_SUMMARY"

For each NAME, compares the committed BENCH_<NAME>.json with the
fresh_<NAME>.json a bench run wrote with --out, one row per committed
key. A missing or unreadable file prints one "(missing)" row; a key the
fresh file lacks prints "–" instead of a number.
"""

import json
import sys


def fmt(value):
    return "–" if value is None else f"{value:.2f}"


def main(names):
    print("| metric | committed | fresh | fresh/committed |")
    print("| --- | ---: | ---: | ---: |")
    for name in names:
        try:
            with open(f"BENCH_{name}.json") as f:
                committed = json.load(f)
            with open(f"fresh_{name}.json") as f:
                fresh = json.load(f)
        except (OSError, ValueError):
            print(f"| {name} (missing) | – | – | – |")
            continue
        for key, base in committed.items():
            new = fresh.get(key)
            ratio = fmt(new / base) if new is not None and base else "–"
            print(f"| {name}.{key} | {fmt(base)} | {fmt(new)} | {ratio} |")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: bench_diff.py NAME...")
    main(sys.argv[1:])
