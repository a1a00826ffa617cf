"""Benchmark of `kzdyn verify`: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-defaults, symbolic-rank3, numeric-sweep, or ``all``.  Run
from anywhere; the kzdyn sources are taken from ``src/`` beside this
directory.  Every caller is a closed loop with one client: this process only
spawns one worker at a time and waits for it.  With ``--trace 0`` it prints
the end-to-end metrics, measured over a fixed number of passes of the
workload (``workloads.PASS_COUNT``); ``--seconds`` is the time those passes
are expected to fit in, and a run that overruns it says so on standard
error.  With ``--trace 1`` it runs the workload once without and once with
the tracer and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit status is 0 when every verdict
was as expected, 1 when a correctness check failed and 2 when the benchmark
could not run at all.  Results, traces and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")
PYTHON = sys.executable

RUN_LIMIT_S = 170  # a run of one workload ends within this, whatever happens
SETUP_PROBES = 5  # at least this many; one per pass when a run has more passes
LAYER_SETUP_PROBES = 3
SETUP_PROBE = "import kzdyn.cli, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "frac"}


class BenchError(RuntimeError):
    """The benchmark cannot run here at all (no result is printed)."""


def now() -> float:
    # the same clock as worker.now and the set-up probe: comparable across processes
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    exit: int
    start: float
    end: float
    rss_mb: float


class Context:
    """One workload run: its seed, deadline, child environment and output dir."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = now() + RUN_LIMIT_S
        self.out = ROOT / ".bench_out" / workload
        self.out.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        # hash seed follows the input seed, so a seed reproduces a run exactly
        env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.env = env

    def spawn(self, argv: list[str], stdout: Path | None = None) -> Child:
        """Start one process, wait for it, and return its status and peak RSS."""
        with open(stdout or os.devnull, "wb") as fh:
            start = now()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh)
        killer = threading.Timer(max(0.0, self.deadline - now()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        end = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0)

    def worker(self, mode: str, trace: str | None = None) -> tuple[Child, dict | None]:
        out = self.out / f"{mode}.json"
        out.unlink(missing_ok=True)
        argv = [PYTHON, WORKER, "--out", str(out), "--seed", str(self.seed)]
        if trace:
            argv += ["--trace", trace]
        child = self.spawn(argv + [mode])
        try:
            return child, json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return child, None


# ---------------------------------------------------------------------------
# Set-up and environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kzdyn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """The commit checked out at ROOT, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    # a repository that merely encloses ROOT is not ROOT's commit
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(ctx: Context) -> dict:
    """Machine and versions, from a worker; also warms the bytecode cache."""
    child, env = ctx.worker("env")
    if child.exit != 0 or env is None:
        raise BenchError("kzdyn could not be imported from src/ (see stderr)")
    env["git_commit"] = git_commit()
    env["kzdyn_source_sha256"] = source_digest()
    return env


def setup_seconds(ctx: Context) -> tuple[float, float]:
    """From spawning a fresh interpreter until ``import kzdyn.cli`` returns.

    Returns the seconds and the speed probe's time around them.
    """
    path = ctx.out / "setup.out"
    before = workloads.speed_probe()
    child = ctx.spawn([PYTHON, "-c", SETUP_PROBE], stdout=path)
    after = workloads.speed_probe()
    if child.exit != 0:
        raise BenchError("import kzdyn.cli failed")
    return float(path.read_text()) - child.start, (before + after) / 2


def layer_setup(ctx: Context) -> dict[str, float]:
    runs = []
    for _ in range(LAYER_SETUP_PROBES):
        child, result = ctx.worker("layer-setup")
        if child.exit != 0 or result is None:
            raise BenchError("layer set-up probe failed")
        runs.append(result)
    metrics = {
        f"{layer}.import_s": statistics.median(r["import_s"][layer] for r in runs)
        for layer in runs[0]["import_s"]
    }
    metrics["symexpr.first_gcd_s"] = statistics.median(r["first_gcd_s"] for r in runs)
    return metrics


# ---------------------------------------------------------------------------
# One pass of each workload
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    rows: list[dict]
    op_s: list[float]  # seconds of each operation block, in a fixed order
    probe_s: list[float]  # the speed probe's time around each block
    max_rel_err: float | None = None


def selberg_max_rel_err(report: dict) -> float:
    return max(
        w["rel_error"] for w in report["witnesses"] if w.get("check") == "quadrature-vs-closed"
    )


def cli_pass(ctx: Context, trace_dir: Path | None) -> Pass:
    """Ten `kzdyn verify` processes, one per suite; process start is part of the work."""
    rows, op_s, probe_s, rss, max_rel_err = [], [], [], 0.0, None
    # the child runs on the CPUs of this process, so the probe here tracks its speed
    probe = workloads.speed_probe()
    for suite, verdict, code in workloads.CLI_SUITES:
        out = ctx.out / f"verify-{suite}.out"
        if trace_dir is None:
            argv = [PYTHON, "-m", "kzdyn.cli", "verify", suite]
        else:
            argv = [PYTHON, WORKER, "--trace", str(trace_dir / suite), "cli", "verify", suite]
        child = ctx.spawn(argv, stdout=out)
        op_s.append(child.end - child.start)
        after = workloads.speed_probe()
        probe_s.append((probe + after) / 2)
        probe = after
        rss = max(rss, child.rss_mb)
        row = {"config": f"verify {suite}", "expected": verdict, "exit": child.exit}
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
            row.update(verdict=report["verdict"], sha256=workloads.fingerprint(report))
            if suite == "selberg":
                max_rel_err = selberg_max_rel_err(report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            row.update(verdict=None, sha256=None, error=repr(exc))
        row["ok"] = child.exit == code and row["verdict"] == verdict
        rows.append(row)
    failed = sum(not r["ok"] for r in rows)
    # reading and fingerprinting the reports is the benchmark's work: not timed
    return Pass(sum(op_s), rss, len(rows), failed, rows, op_s, probe_s, max_rel_err)


def symbolic_pass(ctx: Context, trace_dir: Path | None) -> Pass:
    trace = str(trace_dir / "symbolic-rank3") if trace_dir else None
    child, result = ctx.worker("symbolic", trace)
    attempted = len(workloads.SYMBOLIC_CONFIGS)
    if result is None:
        return Pass(child.end - child.start, child.rss_mb, attempted, attempted, [], [], [])
    rows = result["results"]
    # the worker exits 1 when a verdict is wrong, which its rows already show
    for row in rows:
        row["ok"] = row["ok"] and child.exit in (0, 1)
    failed = sum(not r["ok"] for r in rows)
    op_s = [row["seconds"] for row in rows]
    probe_s = [row["probe_s"] for row in rows]
    return Pass(result["wall_s"], child.rss_mb, attempted, failed, rows, op_s, probe_s)


def numeric_pass(ctx: Context, trace_dir: Path | None) -> Pass:
    trace = str(trace_dir / "numeric-sweep") if trace_dir else None
    child, result = ctx.worker("numeric", trace)
    attempted = workloads.NUMERIC_POINTS
    if result is None or child.exit not in (0, 1):
        return Pass(child.end - child.start, child.rss_mb, attempted, attempted, [], [], [])
    return Pass(
        result["wall_s"], child.rss_mb, result["attempted"], result["failed"], [],
        result["block_s"], result["probe_s"], result["max_rel_err"],
    )


PASSES = {
    "cli-defaults": cli_pass,
    "symbolic-rank3": symbolic_pass,
    "numeric-sweep": numeric_pass,
}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` scaled to the speed at which the probe takes its reference time."""
    return seconds * workloads.REFERENCE_PROBE_S / probe_s


def reference_pass(passes: list[Pass]) -> float:
    """A pass at the reference speed: each block's median over the passes, summed.

    On a shared virtual machine each vCPU's speed can drop by up to 2x for
    spells of seconds to minutes, longer than a run.  Scaling each block by
    the speed probe timed next to it removes most of that drift; the median
    over the run's fixed number of passes removes most of the rest.
    """
    complete = [p for p in passes if p.op_s and len(p.op_s) == len(passes[0].op_s)]
    if not complete:
        return statistics.median(p.wall_s for p in passes)
    scaled = [[at_reference_speed(t, q) for t, q in zip(p.op_s, p.probe_s)] for p in complete]
    return sum(statistics.median(block) for block in zip(*scaled))


def measure(ctx: Context, seconds: float) -> tuple[dict, dict]:
    """Untraced run: the workload's fixed number of passes."""
    env = environment(ctx)
    run_pass = PASSES[ctx.workload]
    passes: list[Pass] = []
    setup: list[tuple[float, float]] = []  # (seconds, probe seconds)
    cpus = sorted(os.sched_getaffinity(0))
    start = now()
    try:
        for i in range(workloads.PASS_COUNT[ctx.workload]):
            # Passes alternate between the CPUs, whose speeds on a shared
            # virtual machine drop in spells of their own; a pass runs on one
            # CPU so that the speed probe measures the CPU the work runs on.
            # Set-up probes are spread over the run, so that one slow spell
            # does not decide setup_s.
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            setup.append(setup_seconds(ctx))
            passes.append(run_pass(ctx, None))
        while len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(ctx))
    finally:
        os.sched_setaffinity(0, cpus)
    took = now() - start
    if took > seconds:
        print(
            f"WARNING: {ctx.workload}: {len(passes)} passes took {took:.1f} s, more than "
            f"--seconds {seconds:g}; the machine or the code is slower than when "
            "workloads.PASS_COUNT was set",
            file=sys.stderr,
        )
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": reference_pass(passes),
        "setup_s": statistics.median(at_reference_speed(t, q) for t, q in setup),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "passed_frac": (attempted - failed) / attempted,
    }
    detail = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "setup_samples": setup,
        "median_pass_s": statistics.median(p.wall_s for p in passes),
        "run_s": took,
        "passes": [p.__dict__ for p in passes],
        "max_rel_err": passes[0].max_rel_err,
    }
    return metrics, detail


def traced(ctx: Context) -> tuple[dict, dict]:
    """Traced run: one untraced pass, then one traced pass; per-layer metrics."""
    import tracer  # only the traced run loads the tracer

    env = environment(ctx)
    metrics = layer_setup(ctx)
    run_pass = PASSES[ctx.workload]
    plain = run_pass(ctx, None)
    trace_dir = ctx.out / "trace"
    trace_dir.mkdir(exist_ok=True)
    for stale in trace_dir.iterdir():
        stale.unlink()
    with_trace = run_pass(ctx, trace_dir)
    summaries = []
    for path in sorted(trace_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    merged = tracer.merge(summaries)
    layer_metrics, absent = tracer.trace_metrics(merged, [s for s, _, _ in workloads.CLI_SUITES])
    metrics.update(layer_metrics)
    metrics["trace.overhead_s"] = with_trace.wall_s - plain.wall_s
    metrics["numeric.max_rel_err"] = plain.max_rel_err or 0.0
    passes = [plain, with_trace]
    detail = {
        "env": env,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "passes": [p.__dict__ for p in passes],
        "absent": absent,
        "spans": merged["spans"],
        "trace_dir": str(trace_dir.relative_to(ROOT)),
    }
    return metrics, detail


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".calls", ".max_operand_terms")):
        return "count"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".max_rel_err"):
        return "ratio"
    return "s"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx = Context(workload, seed)
    metrics, detail = traced(ctx) if trace else measure(ctx, seconds)
    env = detail["env"]
    print(
        f"[{workload}] environment: nproc={env['nproc']} cpu={env['cpu_model']!r} "
        f"python={env['python']} sympy={env['sympy']} "
        f"(ground types {env['sympy_ground_types']}, {env['sympy_qq_type']}) "
        f"scipy={env['scipy']} commit={env['git_commit']} "
        f"source={env['kzdyn_source_sha256'][:16]}"
    )
    for p in detail["passes"][:1]:
        for row in p["rows"]:
            print(f"[{workload}] {row['config']}: verdict {row['verdict']} "
                  f"(expected {row['expected']}) sha256 {row['sha256']}")
    for p in detail["passes"]:
        for row in p["rows"]:
            if not row["ok"]:
                print(f"[{workload}] FAILED {row['config']}: {row}", file=sys.stderr)
    if detail.get("max_rel_err") is not None:
        print(f"[{workload}] max_rel_err = {detail['max_rel_err']:.6g} (informational)")
    if detail.get("absent"):
        print(f"[{workload}] absent from the traced program: {', '.join(detail['absent'])}")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(f"[{workload}] failed {detail['failed']} of {detail['attempted']} operations "
          f"(failed_frac {detail['failed'] / detail['attempted']:.6g})")
    for name, m in result["metrics"].items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace, **detail)
    path = ctx.out / f"result-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=45.0,
        help="time the fixed passes are expected to fit in; overrunning it is reported",
    )
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "kzdyn" / "cli.py").is_file():
        print(f"error: no kzdyn sources at {SRC}/kzdyn", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
