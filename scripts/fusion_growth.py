#!/usr/bin/env python3
"""Measure how the solved fusion element grows with truncation depth.

For each rank and depth the script solves the triangular recurrence once and
reports the number of weight components, the number of nonzero
(lower, upper) coefficient pairs, the length of the largest coefficient as a
printed rational function (a proxy for expression swell), and the wall time
of the solve alone (``--validate`` runs after the clock stops).
"""

import argparse
import sys
import time

from kzdyn.dyn import fusion_solve


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3],
                    help="matrix sizes to profile")
    ap.add_argument("--max-depth", type=int, default=4,
                    help="largest truncation depth to solve")
    ap.add_argument("--validate", action="store_true",
                    help="also check each element's structure and recurrence "
                         "residual; exit 1 if either fails")
    args = ap.parse_args(argv)

    print(f"{'n':>2s} {'depth':>5s} {'components':>10s} {'terms':>7s} "
          f"{'max-len':>7s} {'seconds':>8s}")
    for n in args.n:
        for depth in range(1, args.max_depth + 1):
            t0 = time.monotonic()
            fusion = fusion_solve(n, depth)
            seconds = time.monotonic() - t0
            if args.validate and not (fusion.structure_ok() and fusion.residual_zero()):
                print(f"malformed fusion element at n={n}, depth={depth}", file=sys.stderr)
                return 1
            n_terms = sum(len(comp) for comp in fusion.components.values())
            max_len = max(
                (len(str(value))
                 for comp in fusion.components.values()
                 for value in comp.values()),
                default=0,
            )
            print(f"{n:2d} {depth:5d} {len(fusion.components):10d} "
                  f"{n_terms:7d} {max_len:7d} {seconds:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
