"""Workload definitions and expected outcomes shared by the parent and workers.

Every configuration carries the verdict and exit status a correct kzdyn
gives for it; the numeric workload carries the tolerances of the ``selberg``
suite.  A run whose outcome differs from these counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

WORKLOADS = ("cli-defaults", "symbolic-rank3", "numeric-sweep")

# Every suite of ``kzdyn verify`` at default parameters: (suite, verdict, exit).
CLI_SUITES = (
    ("pbw-invariance", "pass", 0),
    ("additive-form", "pass", 0),
    ("fusion", "pass", 0),
    ("compatibility", "pass", 0),
    ("appendix-b", "pass", 0),
    ("appendix-c", "pass", 0),
    ("selberg", "pass", 0),
    ("main-theorem-sl2", "pass", 0),
    ("determinant-sl2", "pass", 0),
    ("sigma-orders", "pass", 0),
)

# The cap-scale paths at a size where one pass takes a few seconds, so that
# every configuration is timed several times in a run; exact gcd is 70-90% of
# each.  In the order they run; the worker process exits 0 when every verdict
# matches, as `kzdyn verify` would.
SYMBOLIC_CONFIGS = (
    {"suite": "fusion", "n": 3, "nu": (1, 1), "factors": None, "verdict": "pass"},
    {"suite": "compatibility", "n": 3, "nu": (2, 0), "factors": None, "verdict": "pass"},
    # symmetrized sums agree but the raw copies do not: a known open question
    {"suite": "pbw-invariance", "n": 4, "nu": (1, 2, 2), "factors": None, "verdict": "flagged"},
    {
        "suite": "appendix-b",
        "n": 3,
        "nu": (2, 1),
        "factors": ("verma", "verma", "verma"),
        "verdict": "pass",
    },
)

# Passes per untraced run.  Fixed, so that every commit is measured on the
# same number of repetitions; chosen so that a run takes 25-50 s on a
# 2-vCPU Xeon virtual machine.
PASS_COUNT = {"cli-defaults": 4, "symbolic-rank3": 5, "numeric-sweep": 6}

# The host's speed drifts by up to 2x over seconds to minutes (see
# README.md).  A fixed pure-Python loop, the speed probe, is timed next to
# every operation block on the same CPU, and the block's time is scaled by
# REFERENCE_PROBE_S / probe time: the seconds the block would take with the
# probe at its reference time, that of a 2-vCPU Xeon virtual machine in a
# fast spell.
REFERENCE_PROBE_S = 0.03


def speed_probe() -> float:
    """Seconds one run of the speed probe takes here and now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    table: dict[int, int] = {}
    for i in range(100_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return time.perf_counter() - t0


# numeric-sweep: the `selberg` suite's tolerances.
NUMERIC_POINTS = 900
NUMERIC_BLOCK = 100  # points per timed block of numeric-sweep
QUAD_REQUEST_TOL = 1e-8  # passed to quad_chamber
QUAD_AGREE_TOL = 1e-6  # relative agreement with exp(selberg_closed)
DIFFERENCE_TOL = 1e-10  # passed to selberg_difference_check


def config_label(cfg: dict) -> str:
    """The `kzdyn verify` command line of a symbolic configuration."""
    parts = [cfg["suite"], "--n", str(cfg["n"]), "--nu", ",".join(map(str, cfg["nu"]))]
    if cfg["factors"]:
        parts += ["--factors", ",".join(cfg["factors"])]
    return " ".join(parts)


def selberg_points(seed: int) -> list[tuple[int, float, float, float]]:
    """(m, a, b, c) sample: m cycles 1..3, a, b ~ U[1,3], c ~ U[0.25,1]."""
    rng = random.Random(seed)
    points = []
    for i in range(NUMERIC_POINTS):
        m = 1 + i % 3
        a = rng.uniform(1.0, 3.0)
        b = rng.uniform(1.0, 3.0)
        c = rng.uniform(0.25, 1.0)
        points.append((m, a, b, c))
    return points


def fingerprint(report: dict) -> str:
    """sha256 of a report's canonical text with ``timings`` removed.

    Informational: equal fingerprints show byte-identical reports across
    commits; the verdict, not the fingerprint, decides correctness.
    """
    body = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
