"""Span tracer for the kzdyn modules, installed from outside the package.

`Tracer.install` replaces every public function of each kzdyn module, and
every public method and arithmetic operator of its public classes, with a
wrapper that records one span per call: name, start, end and parent span.
Spans live in flat arrays in memory and are written out once, at the end.
Per name the tracer also keeps exact call counts, self time (the span minus
its child spans) and inclusive time (outermost activation only, so recursion
is not counted twice).

Because modules bind each other's functions with ``from .x import y``, a
wrapper replaces every ``kzdyn.*`` module attribute bound to the original,
not only the one in the defining module.  A name asked for that does not
exist is reported as absent.  `Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("symexpr", "roots", "uea", "rep", "dyn", "hyper", "numeric", "cli")

OPERATORS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
)

# Traced although not in the module's ``__all__``: the per-layer metrics
# name them.
EXTRA_NAMES = {"symexpr": ("poly_gcd_cofactors",)}

GCD = ("symexpr", "poly_gcd_cofactors")
RUN_SUITE = ("cli", "run_suite")  # recorded per suite, as run_suite.<suite>


def _suite_span_name(args, kwargs) -> str:
    cfg = args[0] if args else kwargs["cfg"]
    return f"run_suite.{cfg.suite}"


class Tracer:
    """Wraps the kzdyn modules and accumulates spans and per-name totals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self._active: list[int] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[list] = []  # [span index, child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[tuple[str, str]] = set()
        self.absent: list[str] = []
        self.gcd_trivial = 0
        self.gcd_max_terms = 0
        self.gcd_probe_failed = False

    # -- bookkeeping -------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self.names)
            self._ids[key] = nid
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self._active.append(0)
        return nid

    def _wrap(self, fn, layer: str, name: str, probe=None):
        fixed = self._name_id(layer, name)
        namer = _suite_span_name if (layer, name) == RUN_SUITE else None
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s, incl_s, active = self.calls, self.self_s, self.incl_s, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if namer is None else self._name_id(layer, namer(args, kwargs))
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                duration = t1 - t0
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                active[nid] -= 1
                if not active[nid]:
                    incl_s[nid] += duration
                if stack:
                    stack[-1][1] += duration
            if probe is not None:
                probe(args, result)
            return result

        self.wrapped.add((layer, name))
        return traced

    def _gcd_probe(self, args, result) -> None:
        # reads the Poly data attributes directly so that the probe itself
        # makes no traced call
        if self.gcd_probe_failed:
            return
        try:
            p, q = args[0], args[1]
            terms = max(len(p.terms), len(q.terms))
            trivial = not result[0].vars
        except (AttributeError, IndexError, TypeError):
            # the gcd seam changed shape: keep tracing, report the probe absent
            self.gcd_probe_failed = True
            self.absent.append("symexpr.poly_gcd_cofactors.probe")
            return
        self.gcd_max_terms = max(self.gcd_max_terms, terms)
        self.gcd_trivial += trivial

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "kzdyn" or modname.startswith("kzdyn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                wrapped = type(raw)(self._wrap(fn, layer, f"{cls.__name__}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, layer, f"{cls.__name__}.{attr}")
            else:
                continue  # properties, nested classes, constants
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def install(self) -> "Tracer":
        """Wrap the public API of ``kzdyn.<layer>`` for every layer."""
        seen_classes: set[int] = set()
        for layer in LAYERS:
            module = importlib.import_module(f"kzdyn.{layer}")
            wanted = list(getattr(module, "__all__", ())) + list(EXTRA_NAMES.get(layer, ()))
            for name in wanted:
                obj = getattr(module, name, None)
                if obj is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == module.__name__ and id(obj) not in seen_classes:
                        seen_classes.add(id(obj))
                        self._wrap_class(obj, layer)
                    continue
                is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if not is_function or getattr(obj, "__module__", None) != module.__name__:
                    continue
                probe = self._gcd_probe if (layer, name) == GCD else None
                self._replace_everywhere(obj, self._wrap(obj, layer, name, probe))
        return self

    def uninstall(self) -> None:
        """Restore every attribute `install` replaced, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": list(self.names),
            "layers": list(self.layers),
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "incl_s": list(self.incl_s),
            "wrapped": sorted(f"{layer}.{name}" for layer, name in self.wrapped),
            "absent": list(self.absent),
            "gcd_trivial": self.gcd_trivial,
            "gcd_max_terms": self.gcd_max_terms,
            "spans": len(self.span_start),
        }

    def write(self, prefix: str) -> None:
        """Write ``<prefix>.json`` (summary) and ``<prefix>.spans`` (arrays).

        The spans file holds, for N spans, N int32 name ids, N int32 parent
        span indices (-1 for a root), N float64 starts and N float64 ends,
        in native byte order; the clock is ``time.perf_counter``.
        """
        with open(prefix + ".spans", "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def load_spans(prefix: str) -> tuple[dict, list[tuple[str, int, float, float]]]:
    """Read back what `Tracer.write` wrote: (summary, [(name, parent, start, end)])."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        summary = json.load(fh)
    count = summary["spans"]
    columns = [array.array(code) for code in "iidd"]
    with open(prefix + ".spans", "rb") as fh:
        for column in columns:
            column.fromfile(fh, count)
    names = summary["names"]
    spans = [
        (names[n], parent, start, end)
        for n, parent, start, end in zip(*columns)
    ]
    return summary, spans


def merge(summaries: list[dict]) -> dict:
    """Sum the per-name totals of several traced processes."""
    totals: dict[tuple[str, str], list[float]] = {}
    wrapped: set[str] = set()
    absent: set[str] = set()
    trivial = max_terms = spans = 0
    for s in summaries:
        for i, name in enumerate(s["names"]):
            row = totals.setdefault((s["layers"][i], name), [0, 0.0, 0.0])
            row[0] += s["calls"][i]
            row[1] += s["self_s"][i]
            row[2] += s["incl_s"][i]
        wrapped.update(s["wrapped"])
        absent.update(s["absent"])
        trivial += s["gcd_trivial"]
        max_terms = max(max_terms, s["gcd_max_terms"])
        spans += s["spans"]
    return {
        "totals": totals,
        "wrapped": wrapped,
        "absent": sorted(absent),
        "gcd_trivial": trivial,
        "gcd_max_terms": max_terms,
        "spans": spans,
    }


# (layer, traced name, statistic) for every per-function metric; the metric
# is named "<traced name>.<statistic>".
FUNCTION_METRICS = (
    ("symexpr", "poly_gcd_cofactors", "calls"),
    ("symexpr", "poly_gcd_cofactors", "self_s"),
    ("symexpr", "poly_divexact", "calls"),
    ("symexpr", "poly_divexact", "self_s"),
    ("symexpr", "RationalFunctionExpr.__add__", "calls"),
    ("symexpr", "RationalFunctionExpr.__add__", "self_s"),
    ("symexpr", "RationalFunctionExpr.__mul__", "calls"),
    ("symexpr", "RationalFunctionExpr.__mul__", "self_s"),
    ("symexpr", "RationalFunctionExpr.__truediv__", "calls"),
    ("symexpr", "RationalFunctionExpr.__truediv__", "self_s"),
    ("symexpr", "Poly.__mul__", "calls"),
    ("symexpr", "Poly.__mul__", "self_s"),
    ("symexpr", "rf_substitute", "calls"),
    ("symexpr", "rf_substitute", "self_s"),
    ("symexpr", "rf_symmetrize", "calls"),
    ("symexpr", "rf_symmetrize", "self_s"),
    ("uea", "Straightener.apply_letter", "calls"),
    ("uea", "Straightener.apply_letter", "self_s"),
    ("uea", "Straightener.apply_word", "calls"),
    ("uea", "Straightener.apply_word", "incl_s"),
    ("rep", "WeightSpaceOperator.compose", "calls"),
    ("rep", "WeightSpaceOperator.compose", "incl_s"),
    ("rep", "apply_genword", "calls"),
    ("rep", "apply_genword", "incl_s"),
    ("rep", "act_generator", "calls"),
    ("rep", "act_generator", "incl_s"),
    ("rep", "p_elements", "incl_s"),
    ("rep", "singular_vectors", "incl_s"),
    ("dyn", "B_w", "incl_s"),
    ("dyn", "K_operator", "incl_s"),
    ("dyn", "fusion_solve", "incl_s"),
    ("dyn", "q_dagger_apply", "incl_s"),
    ("dyn", "q_dagger_apply", "calls"),
    ("dyn", "check_K_exchange", "incl_s"),
    ("dyn", "check_nabla_K", "incl_s"),
    ("dyn", "check_rational_to_trig", "incl_s"),
    ("hyper", "verify_order_invariance", "incl_s"),
    ("numeric", "quad_chamber", "calls"),
    ("numeric", "quad_chamber", "self_s"),
    ("numeric", "selberg_difference_check", "calls"),
)

_STAT_INDEX = {"calls": 0, "self_s": 1, "incl_s": 2}


def trace_metrics(merged: dict, suites) -> tuple[dict[str, float], list[str]]:
    """Per-layer and per-function metrics of a merged trace, plus absent names.

    A metric whose function was not found when the tracer was installed is
    reported as 0 and its name listed as absent.
    """
    totals = merged["totals"]
    metrics: dict[str, float] = {}
    absent = set(merged["absent"])
    for layer in LAYERS:
        rows = [row for (lay, _), row in totals.items() if lay == layer]
        metrics[f"{layer}.self_s"] = sum(row[1] for row in rows)
        metrics[f"{layer}.calls"] = sum(row[0] for row in rows)
    for layer, name, stat in FUNCTION_METRICS:
        if f"{layer}.{name}" not in merged["wrapped"]:
            absent.add(f"{layer}.{name}")
        row = totals.get((layer, name), (0, 0.0, 0.0))
        metrics[f"{name}.{stat}"] = row[_STAT_INDEX[stat]]
    gcd_calls = totals.get(GCD, (0,))[0]
    metrics["poly_gcd_cofactors.trivial_frac"] = (
        merged["gcd_trivial"] / gcd_calls if gcd_calls else 0.0
    )
    metrics["poly_gcd_cofactors.max_operand_terms"] = merged["gcd_max_terms"]
    if "%s.%s" % RUN_SUITE not in merged["wrapped"]:
        absent.add("%s.%s" % RUN_SUITE)
    for suite in suites:
        row = totals.get(("cli", f"run_suite.{suite}"), (0, 0.0, 0.0))
        metrics[f"run_suite.{suite}.incl_s"] = row[2]
    return metrics, sorted(absent)
