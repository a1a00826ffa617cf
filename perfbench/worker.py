"""Worker process of the kzdyn benchmark; `run.py` spawns it and waits.

Modes (each writes one JSON object to ``--out``):

- ``env``: record the machine and the versions kzdyn runs with.
- ``layer-setup``: import each kzdyn module in dependency order, timing each,
  then time the first rational addition that needs a polynomial gcd.
- ``symbolic``: run the symbolic-rank3 configurations once through
  ``kzdyn.cli.run_suite`` and check each verdict.
- ``numeric --seed N``: run the numeric-sweep points once and check each.
- ``cli ARGS...``: install the tracer, then run ``kzdyn.cli.main(ARGS)``.

``symbolic`` and ``numeric`` time each operation block, and the speed probe
(`workloads.speed_probe`) before and after it.

``--trace PREFIX`` installs the tracer around the work and writes its
summary and spans under PREFIX.  Without it the tracer is never imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import sys
import time

import workloads

CLOCK = time.CLOCK_MONOTONIC
MODULE_ORDER = ("symexpr", "roots", "uea", "rep", "dyn", "hyper", "numeric", "cli")


def now() -> float:
    return time.clock_gettime(CLOCK)


def environment() -> dict:
    import kzdyn.cli  # noqa: F401  (the versions below are those kzdyn loaded)
    import scipy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    from sympy.polys.domains import QQ

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "scipy": scipy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "sympy_qq_type": type(QQ.one).__name__,
    }


def start_tracer(prefix: str | None):
    """Install the tracer when a trace prefix is given; its name is the run id."""
    if prefix is None:
        return None
    import tracer

    return tracer.Tracer(os.path.basename(prefix)).install()


def stop_tracer(tr, prefix: str | None) -> None:
    if tr is not None:
        tr.uninstall()
        tr.write(prefix)


def mode_layer_setup(args) -> dict:
    import_s = {}
    for name in MODULE_ORDER:
        t0 = now()
        importlib.import_module(f"kzdyn.{name}")
        import_s[name] = now() - t0
    symexpr = sys.modules["kzdyn.symexpr"]
    t0 = now()
    symexpr.parse("1/(a - b)") + symexpr.parse("1/(a + b)")
    return {"import_s": import_s, "first_gcd_s": now() - t0}


def mode_symbolic(args) -> dict:
    import kzdyn.cli as cli

    tr = start_tracer(args.trace)
    results = []
    probe = workloads.speed_probe()
    for cfg in workloads.SYMBOLIC_CONFIGS:
        row = {"config": workloads.config_label(cfg), "expected": cfg["verdict"]}
        report = None
        c0 = now()
        try:
            report = cli.run_suite(
                cli.SuiteConfig(
                    suite=cfg["suite"], n=cfg["n"], nu=cfg["nu"], factors=cfg["factors"]
                )
            )
        except Exception as exc:  # a raising suite is a failed operation
            row.update(verdict=None, error=repr(exc))
        else:
            row["verdict"] = report["verdict"]
        row["seconds"] = now() - c0
        after = workloads.speed_probe()
        row["probe_s"] = (probe + after) / 2
        probe = after
        # the fingerprint is the benchmark's work, not kzdyn's: not timed
        row["sha256"] = workloads.fingerprint(report) if report is not None else None
        row["ok"] = row["verdict"] == cfg["verdict"]
        results.append(row)
    wall = sum(row["seconds"] for row in results)
    stop_tracer(tr, args.trace)
    return {"wall_s": wall, "results": results}


def mode_numeric(args) -> dict:
    import kzdyn.numeric as numeric

    points = workloads.selberg_points(args.seed)
    tr = start_tracer(args.trace)
    failed = 0
    worst = 0.0
    block_s, probe_s = [], []
    probe = workloads.speed_probe()

    def end_block() -> None:
        nonlocal probe
        block_s.append(now() - block_start)
        after = workloads.speed_probe()
        probe_s.append((probe + after) / 2)
        probe = after

    block_start = now()
    for i, (m, a, b, c) in enumerate(points):
        if i and i % workloads.NUMERIC_BLOCK == 0:
            end_block()
            block_start = now()
        try:
            p = numeric.SelbergParams(a, b, c, m)
            got = numeric.quad_chamber(
                numeric.ChamberIntegral.from_selberg(p), workloads.QUAD_REQUEST_TOL
            )
            want = math.exp(numeric.selberg_closed(p))
            rel = abs(got - want) / want
            diff = numeric.selberg_difference_check(p, workloads.DIFFERENCE_TOL)
        except Exception as exc:  # a raising point is a failed operation
            print(f"numeric point {(m, a, b, c)} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        worst = max(worst, rel)
        if not (rel <= workloads.QUAD_AGREE_TOL and diff.passed):
            failed += 1
    end_block()
    stop_tracer(tr, args.trace)
    return {
        "wall_s": sum(block_s),
        "block_s": block_s,
        "probe_s": probe_s,
        "attempted": len(points),
        "failed": failed,
        "max_rel_err": worst,
    }


def mode_cli(args) -> int:
    import kzdyn.cli

    tr = start_tracer(args.trace)
    try:
        return kzdyn.cli.main(args.cli_args)
    finally:
        stop_tracer(tr, args.trace)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "mode", choices=("env", "layer-setup", "symbolic", "numeric", "cli")
    )
    parser.add_argument("--out", help="result file (JSON)")
    parser.add_argument("--trace", default=None, help="trace output prefix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        return mode_cli(args)
    runner = {
        "env": lambda args: environment(),
        "layer-setup": mode_layer_setup,
        "symbolic": mode_symbolic,
        "numeric": mode_numeric,
    }[args.mode]
    result = runner(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    ok = not result.get("failed") and all(r["ok"] for r in result.get("results", ()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
