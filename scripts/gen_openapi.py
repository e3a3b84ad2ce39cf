#!/usr/bin/env python
"""Regenerate docs/openapi.json from the repro.api dataclasses.

The spec is generated — never hand-edited — and checked in;
tests/test_api.py round-trips the committed file against
repro.api.openapi.generate_openapi() so the two can never drift.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.api.openapi import generate_openapi  # noqa: E402

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "docs",
    "openapi.json",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 if the file on disk is stale",
    )
    args = parser.parse_args()

    rendered = json.dumps(generate_openapi(), indent=2, sort_keys=True) + "\n"
    if args.check:
        try:
            with open(args.out) as fh:
                on_disk = fh.read()
        except OSError:
            on_disk = ""
        if on_disk != rendered:
            print(
                f"STALE: {args.out} does not match generate_openapi(); "
                "run scripts/gen_openapi.py",
                file=sys.stderr,
            )
            return 1
        print(f"OK: {args.out} is current")
        return 0
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(rendered)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
