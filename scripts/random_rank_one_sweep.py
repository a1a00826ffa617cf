#!/usr/bin/env python3
"""Randomized robustness sweep of the rank-one determinant formula.

Samples admissible (p, m, kappa, lambda, z) tuples with a seeded RNG, runs
the determinant-factorization check at each point, and reports the worst
relative errors observed.  This probes well beyond the frozen grid of the
``determinant-sl2`` suite; points that land on a parameter pole are counted
and skipped.  (The rank-one difference equation needs no sweep: the
``main-theorem-sl2`` suite checks it exactly, for symbolic lambda and kappa.)

Exits 1 when any point's error is above ``--tol``, 0 otherwise.
"""

import argparse
import random
import sys

from kzdyn.closed_forms import det_formula_sl2_check
from kzdyn.dyn import PoleHit


def sample_point(rng: random.Random):
    p = rng.randint(2, 7)
    m = rng.randint(0, min(3, p // 2))
    kappa = rng.uniform(1.5, 4.0)
    lam = rng.uniform(0.6, 3.4)
    z = rng.uniform(0.3, 2.5)
    return p, m, kappa, lam, z


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--tol", type=float, default=1e-7,
                    help="largest error a point may have; exit 1 above it")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)

    worst = []
    skipped = 0
    for _ in range(args.trials):
        point = sample_point(rng)
        try:
            report = det_formula_sl2_check(*point, tol=args.tol)
        except PoleHit:
            skipped += 1
            continue
        worst.append((max(report.rel_error, report.periodicity_error), point))

    worst.sort(reverse=True)
    print(f"{'rel-error':>12s}  (p, m, kappa, lambda, z)")
    for error, point in worst[:10]:
        p, m, kappa, lam, z = point
        print(f"{error:12.3e}  ({p}, {m}, {kappa:.4f}, {lam:.4f}, {z:.4f})")

    suspicious = sum(1 for error, _ in worst if error > args.tol)
    print(f"# {len(worst)} points checked, {skipped} skipped on poles, "
          f"{suspicious} above {args.tol:g}", file=sys.stderr)
    return 1 if suspicious else 0


if __name__ == "__main__":
    sys.exit(main())
