#!/usr/bin/env python3
"""Run every verification suite at its default parameters and save reports.

Writes one JSON report per suite into the output directory and prints a
one-line summary for each.  Exits nonzero if any suite fails (a "flagged"
verdict — identities that hold after symmetrization but not before — is
reported but does not fail the run).
"""

import argparse
import pathlib
import sys

from kzdyn.cli import SUITES, SuiteConfig, report_text, run_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports",
                    help="directory for the per-suite JSON reports")
    args = ap.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failed = False
    for suite in SUITES:
        report = run_suite(SuiteConfig(suite=suite))
        path = out_dir / f"{suite}.json"
        path.write_text(report_text(report))
        seconds = report["timings"]["total_seconds"]
        print(f"{suite:18s} {report['verdict']:7s} "
              f"{len(report['witnesses']):3d} witnesses "
              f"{seconds:7.2f}s  {path}")
        if report["verdict"] == "fail":
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
