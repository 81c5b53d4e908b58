"""Batch front end: run named verification suites and emit machine-readable
reports.  Exit codes: 0 all checks passed, 1 failures, 2 configuration error."""

from __future__ import annotations

import argparse
import sys

from .report import SuiteConfig, emit_report
from .suites import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwlab",
        description="Exact verification suites for the cyclotomic p-adic algebra stack.",
    )
    parser.add_argument("suite", choices=sorted(SUITES), help="suite to run")
    parser.add_argument("--p", type=int, default=3, help="working prime (default 3)")
    parser.add_argument(
        "--prec",
        default="20,40",
        help="scalar and series caps as N,D (default 20,40)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--corpus", default=None, help="path to an external corpus JSON")
    parser.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
    return parser


def parse_config(argv) -> SuiteConfig:
    args = build_parser().parse_args(argv)
    try:
        cap_n, cap_d = (int(x) for x in args.prec.split(","))
    except ValueError as exc:
        raise SystemExit(2) from exc
    if cap_n < 1 or cap_d < 1:
        raise SystemExit(2)
    return SuiteConfig(
        suite=args.suite,
        p=args.p,
        cap_n=cap_n,
        cap_d=cap_d,
        seed=args.seed,
        corpus_path=args.corpus,
    ), args.fmt


def main(argv=None) -> int:
    try:
        cfg, fmt = parse_config(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        report = run_suite(cfg)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, fmt))
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
