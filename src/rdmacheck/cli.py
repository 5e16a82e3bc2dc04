"""Command-line interface: check one litmus file or run a corpus directory.

Exit codes: 0 all pass, 1 assertion failure or error, 2 usage or parse
error, 3 enumeration was bound-limited and nothing failed outright.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .libraries import VARIANTS
from .runner import (BOUND_LIMITED, ERROR, FAIL, PASS, TestReport,
                     run_corpus, run_file, write_json_report)


def _variant(p: str) -> tuple[str, str]:
    lib, eq, choice = p.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expects lib=choice, got {p!r}")
    if choice not in VARIANTS.get(lib, ()):
        raise argparse.ArgumentTypeError(f"{p!r} not recognised")
    return lib, choice


def _at_least_one(s: str) -> int:
    try:
        n = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {s!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _overrides(args) -> dict:
    o: dict = {"variants": dict(args.variant or ())}
    if args.loop_bound is not None:
        o["loop_bound"] = args.loop_bound
    if args.max_events is not None:
        o["max_events"] = args.max_events
    return o


def _print_report(r: TestReport, verbose: bool) -> None:
    mark = {PASS: "ok", FAIL: "FAIL", BOUND_LIMITED: "bound-limited",
            ERROR: "ERROR"}[r.verdict]
    print(f"{r.name}: {mark} ({r.seconds:.2f}s, "
          f"{len(r.outcomes)} outcomes{', bound-limited' if r.truncated else ''})")
    for f in r.failures:
        print(f"  {f}")
    for n in r.notes:
        print(f"  note: {n}")
    if verbose:
        for o in r.outcomes:
            print(f"  outcome: {o}")
    if r.witness_dump:
        print(r.witness_dump, end="")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="rdmacheck",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--loop-bound", type=_at_least_one, default=None,
                        help="max loop unrollings per loop (default 4)")
    common.add_argument("--max-events", type=_at_least_one, default=None,
                        help="hard cap on events per execution (default 14)")
    common.add_argument("--variant", action="append", type=_variant,
                        metavar="LIB=CHOICE",
                        help="bal=weak|transitive or rbl=strict|weak")
    common.add_argument("--json", type=Path, default=None,
                        help="write a machine-readable report here")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="list computed outcomes")

    c1 = sub.add_parser("check", parents=[common],
                        help="run one litmus file")
    c1.add_argument("file", type=Path)
    c1.add_argument("--dump-witness", action="store_true",
                    help="print the first consistent execution's witness")

    c2 = sub.add_parser("corpus", parents=[common],
                        help="run every *.litmus file in a directory")
    c2.add_argument("directory", type=Path)
    c2.add_argument("--filter", action="append", default=[],
                    help="only run tests whose name contains this substring")

    args = ap.parse_args(argv)
    if args.json and not args.json.parent.is_dir():
        print(f"no such directory for --json: {args.json.parent}", file=sys.stderr)
        return 2
    if args.json and args.json.is_dir():
        print(f"--json names a directory: {args.json}", file=sys.stderr)
        return 2

    if args.cmd == "check":
        if not args.file.is_file():
            print(f"no such file: {args.file}", file=sys.stderr)
            return 2
        r = run_file(args.file, _overrides(args), dump_witness=args.dump_witness)
        _print_report(r, args.verbose)
        if args.json:
            args.json.write_text(json.dumps(r.to_json(), indent=2,
                                            sort_keys=True) + "\n")
        if r.verdict == ERROR and any("parse error" in f for f in r.failures):
            return 2
        return {PASS: 0, FAIL: 1, ERROR: 1, BOUND_LIMITED: 3}[r.verdict]

    if not args.directory.is_dir():
        print(f"no such directory: {args.directory}", file=sys.stderr)
        return 2
    summary = run_corpus(args.directory, filters=args.filter,
                         overrides=_overrides(args))
    for r in summary.reports:
        _print_report(r, args.verbose)
    c = summary.counts()
    print(f"total: {c[PASS]} pass, {c[FAIL]} fail, "
          f"{c[BOUND_LIMITED]} bound-limited, {c[ERROR]} error "
          f"({summary.seconds:.1f}s)")
    if args.json:
        write_json_report(summary, args.json)
    return summary.exit_code()


if __name__ == "__main__":
    sys.exit(main())
