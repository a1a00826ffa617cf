"""Tests of the benchmark itself: tracer patching, absent names, repeatable counters.

    python3 perfbench/selftest.py

Takes about twenty seconds; the counter check runs two traced `kzdyn verify`
processes per hash seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SUITES = [s for s, _, _ in workloads.CLI_SUITES]


def kzdyn_namespaces() -> dict[tuple[str, str], dict]:
    """A copy of every kzdyn module and class namespace, for identity checks."""
    import kzdyn.cli  # noqa: F401  (loads every layer)

    spaces = {}
    for name, module in list(sys.modules.items()):
        if name == "kzdyn" or name.startswith("kzdyn."):
            spaces[(name, "")] = dict(vars(module))
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    spaces[(name, attr)] = dict(vars(value))
    return spaces


class TracerPatching(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        import kzdyn.cli
        import kzdyn.dyn
        import kzdyn.symexpr

        before = kzdyn_namespaces()
        original_b_w = kzdyn.dyn.B_w
        original_add = kzdyn.symexpr.RationalFunctionExpr.__add__
        tr = tracer.Tracer("test").install()
        try:
            # cli binds B_w through `from .dyn import`; both names are traced
            self.assertIsNot(kzdyn.dyn.B_w, original_b_w)
            self.assertIs(kzdyn.cli.B_w, kzdyn.dyn.B_w)
            self.assertIsNot(kzdyn.symexpr.RationalFunctionExpr.__add__, original_add)
            self.assertIn(("symexpr", "poly_gcd_cofactors"), tr.wrapped)
            self.assertIn(("rep", "WeightSpaceOperator.compose"), tr.wrapped)
            self.assertEqual(tr.absent, [])
        finally:
            tr.uninstall()
        after = kzdyn_namespaces()
        self.assertEqual(before.keys(), after.keys())
        for key, space in before.items():
            for attr, value in space.items():
                self.assertIs(after[key][attr], value, f"{key} {attr} not restored")

    def test_spans_nest_and_round_trip(self):
        from kzdyn import symexpr

        left, right = symexpr.parse("1/(x - y)"), symexpr.parse("1/(x + y)")
        tr = tracer.Tracer("spans").install()
        try:
            value = left + right
        finally:
            tr.uninstall()
        self.assertEqual(str(value), str(symexpr.parse("2*x/(x^2 - y^2)")))
        summary = tr.summary()
        calls = dict(zip(summary["names"], summary["calls"]))
        self.assertEqual(calls["RationalFunctionExpr.__add__"], 1)
        self.assertGreaterEqual(calls["poly_gcd_cofactors"], 1)
        prefix = ROOT / ".bench_out" / "selftest-spans"
        prefix.parent.mkdir(exist_ok=True)
        tr.write(str(prefix))
        loaded, spans = tracer.load_spans(str(prefix))
        self.assertEqual(loaded["spans"], len(spans))
        for index, (name, parent, start, end) in enumerate(spans):
            self.assertLessEqual(start, end)
            if parent >= 0:
                self.assertLess(parent, index)
                self.assertLessEqual(spans[parent][2], start)
                self.assertLessEqual(end, spans[parent][3])
        self_total = sum(summary["self_s"])
        roots = sum(end - start for _, parent, start, end in spans if parent < 0)
        self.assertAlmostEqual(self_total, roots, delta=1e-6)

    def test_missing_names_are_reported_absent(self):
        from kzdyn import symexpr

        gcd = symexpr.poly_gcd_cofactors
        del symexpr.poly_gcd_cofactors  # as if a refactor removed it
        try:
            tr = tracer.Tracer("absent").install()
            tr.uninstall()
        finally:
            symexpr.poly_gcd_cofactors = gcd
        self.assertEqual(tr.absent, ["symexpr.poly_gcd_cofactors"])
        metrics, absent = tracer.trace_metrics(tracer.merge([tr.summary()]), SUITES)
        self.assertEqual(metrics["poly_gcd_cofactors.calls"], 0)
        self.assertIn("symexpr.poly_gcd_cofactors", absent)


def traced_counts(hash_seed: int) -> dict:
    """Counters of traced `kzdyn verify` runs under one PYTHONHASHSEED."""
    out = ROOT / ".bench_out" / f"selftest-hash{hash_seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    for cfg in (workloads.SYMBOLIC_CONFIGS[0], workloads.SYMBOLIC_CONFIGS[3]):
        argv = workloads.config_label(cfg).split()
        prefix = out / cfg["suite"]
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--trace", str(prefix), "cli", "verify"]
            + argv,
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
        )
    summaries = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    merged = tracer.merge(summaries)
    counts = {f"{layer}.{name}": row[0] for (layer, name), row in merged["totals"].items()}
    metrics, _ = tracer.trace_metrics(merged, SUITES)
    for key in ("poly_gcd_cofactors.trivial_frac", "poly_gcd_cofactors.max_operand_terms"):
        counts[key] = metrics[key]
    return counts


class CountersRepeat(unittest.TestCase):
    def test_counters_identical_across_hash_seeds(self):
        first, second = traced_counts(0), traced_counts(12345)
        self.assertGreater(first["symexpr.poly_gcd_cofactors"], 0)
        self.assertEqual(first, second)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_emitted_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        emitted = [f"{layer}.import_s" for layer in worker.MODULE_ORDER]
        emitted += ["symexpr.first_gcd_s", "trace.overhead_s", "numeric.max_rel_err"]
        emitted += list(tracer.trace_metrics(tracer.merge([]), SUITES)[0])
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, {name: run.unit(name) for name in emitted})

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-defaults",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
