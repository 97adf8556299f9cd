"""``python -m repro.check`` — run the correctness harness.

Exit status 0 iff every selected oracle passed. ``--json PATH``
writes the machine-readable report (also printed with ``--json -``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import all_oracles, oracles_for_mode, run_checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="differential / analytic / metamorphic correctness "
                    "harness")
    mode_group = parser.add_mutually_exclusive_group()
    mode_group.add_argument("--smoke", action="store_const", const="smoke",
                            dest="mode", help="fast oracle subset (default)")
    mode_group.add_argument("--full", action="store_const", const="full",
                            dest="mode", help="every oracle, incl. the "
                            "large-fleet differentials")
    parser.set_defaults(mode="smoke")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only the named oracle (repeatable)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here "
                        "('-' for stdout)")
    parser.add_argument("--list", action="store_true",
                        help="list registered oracles and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-oracle progress lines")
    args = parser.parse_args(argv)

    if args.list:
        selected = {o.name for o in oracles_for_mode(args.mode)}
        for entry in all_oracles():
            marker = "smoke+full" if entry.name in selected else "full only"
            print(f"{entry.name:35s} [{entry.kind}] ({marker})")
            print(f"    {entry.description}")
        return 0

    report = run_checks(mode=args.mode, only=args.only,
                        verbose=not args.quiet)
    print(report.render())
    if args.json:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"report written to {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
