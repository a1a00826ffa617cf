#!/usr/bin/env python3
"""Sweep tensor weight spaces and tabulate raw vs symmetrized order invariance.

The weighted basis sum attached to each arrangement level h <= N-2 always
agrees with the standard one, level N-1, after averaging over permutations
within each variable group; whether it already agrees *before* that
averaging depends on the space.  This script sweeps small type-A weight
spaces and prints one row per (space, level) pair, flagging which spaces
need the symmetrization.  sl2 has no level below the top, so ``--n 2``
exits 2.
"""

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass

from kzdyn.hyper import order_invariance_reports
from kzdyn.rep import enumerate_basis, verma_symbolic


@dataclass(frozen=True)
class SweepConfig:
    n: int
    max_factors: int
    max_weight: int
    max_dim: int


def iter_spaces(cfg: SweepConfig):
    for n_factors in range(1, cfg.max_factors + 1):
        factors = [verma_symbolic(cfg.n, j + 1) for j in range(n_factors)]
        for nu in itertools.product(range(cfg.max_weight + 1), repeat=cfg.n - 1):
            if sum(nu) == 0:
                continue
            space = enumerate_basis(factors, nu)
            if space.dim > cfg.max_dim:
                continue
            yield n_factors, nu, space


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="matrix size (rank + 1)")
    ap.add_argument("--max-factors", type=int, default=2,
                    help="largest number of tensor factors to try")
    ap.add_argument("--max-weight", type=int, default=2,
                    help="cap on each simple-root coordinate of the weight")
    ap.add_argument("--max-dim", type=int, default=40,
                    help="skip weight spaces with more basis vectors than this")
    ap.add_argument("--json", action="store_true",
                    help="emit one JSON object per row instead of a table")
    args = ap.parse_args(argv)
    if args.n < 3:
        ap.error("--n must be at least 3: level N-1 is the standard arrangement itself")
    cfg = SweepConfig(args.n, args.max_factors, args.max_weight, args.max_dim)

    rows = []
    for n_factors, nu, space in iter_spaces(cfg):
        t0 = time.monotonic()
        for report in order_invariance_reports(space):
            row = {
                "n": cfg.n,
                "factors": n_factors,
                "nu": list(nu),
                "dim": space.dim,
                "h": report.h,
                "raw_equal": report.raw_equal,
                "symmetrized_equal": report.symmetrized_equal,
                "seconds": round(time.monotonic() - t0, 3),
            }
            rows.append(row)
            if args.json:
                print(json.dumps(row, sort_keys=True))
            else:
                tag = ("raw+sym" if report.raw_equal
                       else "sym-only" if report.symmetrized_equal
                       else "MISMATCH")
                print(f"n={cfg.n} factors={n_factors} nu={nu} "
                      f"dim={space.dim:3d} h={report.h}  {tag:8s}  "
                      f"{row['seconds']:6.3f}s")
            t0 = time.monotonic()

    failures = [r for r in rows if not r["symmetrized_equal"]]
    sym_only = [r for r in rows if not r["raw_equal"] and r["symmetrized_equal"]]
    print(f"# {len(rows)} rows; {len(sym_only)} hold only after "
          f"symmetrization; {len(failures)} symmetrized failures",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
