#!/usr/bin/env python3
"""Compare two result records written by run.py under .bench_out/.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both records and the relative change.  Records made
with different kernel backends are not comparable: the script says so and
exits 1 without comparing.
"""

from __future__ import annotations

import json
import sys


def comparable(before: dict, after: dict) -> bool:
    return before["env"]["kernel_backend"] == after["env"]["kernel_backend"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(args[0]) as fh:
        before = json.load(fh)
    with open(args[1]) as fh:
        after = json.load(fh)
    if not comparable(before, after):
        print(f"not comparable: kernel backend {before['env']['kernel_backend']!r} "
              f"vs {after['env']['kernel_backend']!r}")
        return 1
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"{name}: only in {args[0]}")
            continue
        change = (new["value"] - old["value"]) / old["value"] if old["value"] else 0.0
        print(f"{name}: {old['value']:.6g} -> {new['value']:.6g} {old['unit']} "
              f"({change:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
