"""Verification harness and command-line entry point.

The `kzdyn` command runs named verification suites over the exact symbolic
layers and the numeric closed-form instances, and dumps deterministic
serializations of the core artifacts (orders, reversal schedules, operators,
the fusion element, weighted-function vectors, grounded-string forests).

Every suite is one row of an ordered table, `_SUITE_TABLE`.  A row lists
the parameters the suite reads, each with its default and caps, and a check
generator that yields the suite's witnesses, each with its pass bit, and
returns any parameters it derives and warnings.  `run_suite` times each
witness, derives the verdict and assembles the report.  Every dump kind is
one row of `_DUMP_TABLE`, with parameters in the same form (caps taken from
the suite that builds the same object) and a render callable.  `_resolve`
serves both tables: it fills in defaults, checks ``nu`` and the factor
specs, applies the caps and rejects a given parameter the row does not
read, before any work.  Both subcommands take their flags from one
declaration, `_FLAGS`.

Reports are plain JSON with a fixed schema.  Everything except the
``timings`` section is byte-reproducible for identical configuration:
expressions are serialized in canonical form and every enumeration order is
fixed.  `main` alone writes ``--out``: the text it prints.  Exit status is
0 when the verdict is ``pass`` or ``flagged`` (the latter prints a
warning), 1 on ``fail``, 2 on configuration errors (`CapabilityExceeded`,
among them ``selberg`` without numpy, `UnknownSuite`, `UnknownKind` and
`roots.OutOfRange`) and on an unwritable ``--out`` or stdout, and 3 on
internal errors: an arithmetic failure inside the exact layers (a pole, a
division by zero or a heuristic gcd that finds no proven gcd), a quadrature
that misses the fixed tolerance a suite requests (`QuadratureNotConverged`),
unparsable expression text, or any other exception, a `ValueError` or an
`OSError` among them, which also prints its traceback.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from typing import Callable, Generator, Mapping, Optional, Sequence

from . import __version__
from ._record import record
from .dyn import (
    B_additive,
    B_w,
    K_operator,
    check_K_exchange,
    check_rational_to_trig,
    det_ingredients,
    formal_z_exponents,
    fusion_solve,
    kappa_symbol,
    lambda_pairing_symbols,
    nabla_K_rows,
    q_dagger,
    shifted_pairings,
    z_symbols,
    _first_mismatch,
    _p_series,
    _weight_compositions,
)
from .gamma import falling, gamma_text, normal_form, selberg_gamma
from .rep import (
    enumerate_basis,
    lp_module,
    p_elements,
    singular_vectors,
    verma_symbolic,
    verma_weight,
)
from .roots import (
    OutOfRange,
    WeightVec,
    intermediate_orders,
    is_normal,
    longest_element,
    omega_bracket,
    positive_roots,
    serialize_order,
    sigma_sequence,
    sign_table_a,
    special_order,
)
from .symexpr import RF_ONE, RF_ZERO, ParseError, rational, rf_sums
from .uea import GenWord, standard_basis, straightener, word

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "DUMP_KINDS",
    "UnknownSuite",
    "UnknownKind",
    "CapabilityExceeded",
    "SuiteConfig",
    "run_suite",
    "dump_object",
    "report_text",
    "main",
    "console_main",
]

SCHEMA_VERSION = 1


class UnknownSuite(ValueError):
    """Requested verification suite is not registered."""


class UnknownKind(ValueError):
    """Requested dump artifact kind is not registered."""


class CapabilityExceeded(ValueError):
    """Requested parameters exceed the supported desk-scale ranges."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@record
class SuiteConfig:
    """Parameters of one suite run; ``None`` takes the suite's default.

    A suite reads only the parameters its row of the suite table lists, and
    `run_suite` rejects any other that is given.
    """

    suite: str
    n: Optional[int] = None
    nu: Optional[tuple[int, ...]] = None
    factors: Optional[tuple[str, ...]] = None
    depth: Optional[int] = None
    tol: Optional[float] = None
    max_ab: Optional[int] = None


def _build_space(params: dict):
    """The weight space of the resolved ``n``, ``nu`` and ``factors``.

    An empty space, where ``nu`` lowers past what the ``lp`` factors hold,
    raises `CapabilityExceeded`: every check on it would pass vacuously.
    """
    n, nu, specs = params["n"], params["nu"], params["factors"]
    factors = [
        verma_symbolic(n, i + 1) if spec == "verma" else lp_module(int(spec[3:]))
        for i, spec in enumerate(specs)
    ]
    space = enumerate_basis(factors, tuple(nu))
    if not space.dim:
        raise _space_error(params, "is empty")
    return space


def _space_error(params: dict, what: str) -> CapabilityExceeded:
    nu, specs = ",".join(map(str, params["nu"])), ",".join(params["factors"])
    return CapabilityExceeded(f"the weight space at nu {nu} of the factors {specs} {what}")


# ---------------------------------------------------------------------------
# Shared symbolic helpers
# ---------------------------------------------------------------------------

def _rank2_double_sum_coeff(a: int, b: int, m: int, k: int, lam1, lam2):
    """Golden rank-two double-sum coefficient table, indexed (a,b;m,k)."""
    inner = RF_ZERO
    for l in range(max(m, k), min(a, b) + 1):
        num = Fraction(
            (-1) ** l * factorial(l),
            factorial(a - l) * factorial(b - l) * factorial(l - k) * factorial(l - m),
        )
        inner = inner + rational(num) / falling(lam1 + lam2 + RF_ONE, l)
    pref = (
        rational(Fraction(1, factorial(m) * factorial(k)))
        / falling(lam1, a - m)
        / falling(lam2, b - k)
    )
    return pref * inner


def _rank2_word(a: int, b: int, k: int) -> GenWord:
    """The raw lowering word e_{21}^{a-k} e_{31}^k e_{32}^{b-k} of the
    rank-two closed forms."""
    return word(
        *[("e", 2, 1)] * (a - k), *[("e", 3, 1)] * k, *[("e", 3, 2)] * (b - k)
    )


def _weight_list(n: int, depth: int) -> list[tuple[int, ...]]:
    """The weights of heights 1..depth, entries at most 2 unless n == 2."""
    return [
        mu
        for height in range(1, depth + 1)
        for mu in _weight_compositions(n - 1, height)
        if n == 2 or max(mu) <= 2
    ]


# ---------------------------------------------------------------------------
# Suite checks
# ---------------------------------------------------------------------------
#
# Each check takes the suite's resolved parameters and is a generator.  It
# yields one ``(witness, passed)`` row per identity, as soon as it is
# checked, and returns two things: the parameters it derived, which join the
# report's ``params``, and warnings, which flag a run whose checks all pass.
# `run_suite` alone reads the clock: a row's seconds run from the row before
# it, so a witness holds only what is reproducible.

_RAW_COPIES_WARNING = (
    "symmetrized equality holds but the canonical variable copies "
    "disagree before averaging on some level; this bears on the open "
    "question of whether copy-averaging is required"
)


def _pbw_invariance(params: dict):
    from .hyper import order_invariance_reports

    raw_equal = True
    for report in order_invariance_reports(_build_space(params)):
        raw_equal = raw_equal and report.raw_equal
        yield report.to_json(), report.symmetrized_equal
    return {}, [] if raw_equal else [_RAW_COPIES_WARNING]


def _additive_form(params: dict):
    n = params["n"]
    space = _build_space(params)
    lam = lambda_pairing_symbols(n)
    arg = shifted_pairings(space, lam)
    for r in range(1, n):
        add = B_additive(space, r, lam)
        prod = B_w(space, omega_bracket(n, r)[1], arg)
        equal = add == prod
        yield {"r": r, "equal": equal, "dim": space.dim}, equal
    return {}, []


def _fusion(params: dict):
    n, depth, nu, specs = params["n"], params["depth"], params["nu"], params["factors"]
    fus = fusion_solve(n, depth)
    structure_ok = fus.structure_ok()
    residual_ok = fus.residual_zero()
    witness = {
        "check": "defining-recurrence",
        "depth": depth,
        "structure_ok": structure_ok,
        "residual_zero": residual_ok,
    }
    yield witness, structure_ok and residual_ok

    lam = lambda_pairing_symbols(n)
    basis = standard_basis(n)
    aux_factor = verma_weight(n, WeightVec(lam))
    for mu in _weight_list(n, depth):
        aux = enumerate_basis([aux_factor], mu, basis)
        equal = dict(fus.component(mu)) == p_elements(aux)
        yield {"check": "dual-element-match", "mu": list(mu), "equal": equal}, equal

    space = _build_space(params)
    bw0 = B_w(space, longest_element(n).reduced_word(), shifted_pairings(space, lam))
    need = sum(nu)
    contraction = q_dagger(space, fus if depth >= need else fusion_solve(n, need))
    equal = bw0 == contraction
    witness = {
        "check": "contraction-vs-longest-word",
        "nu": list(nu),
        "factors": list(specs),
        "equal": equal,
    }
    if not equal:
        witness["first_mismatch"] = _first_mismatch(bw0, contraction)
    yield witness, equal
    return {}, []


def _compatibility(params: dict):
    n = params["n"]
    space = _build_space(params)
    for k in range(1, n):
        for l in range(k + 1, n):
            report = check_K_exchange(space, k, l)
            yield {**report.to_json(), "check": "exchange", "k": k, "l": l}, report.passed
    for j, k, report in nabla_K_rows(space):
        witness = {**report.to_json(), "check": "derivative-intertwining", "j": j, "k": k}
        yield witness, report.passed
    return {}, []


def _appendix_b(params: dict):
    space = _build_space(params)
    vectors = singular_vectors(space)  # the same for every position
    if not vectors:  # the identity would hold vacuously at every position
        raise _space_error(params, "has no singular vector")
    for i in range(1, len(params["factors"])):
        report = check_rational_to_trig(space, i, vectors)
        yield {**report.to_json(), "position": i}, report.passed
    return {}, []


def _rank2_table(a: int, b: int, lam1, lam2, engine) -> dict:
    """Both golden rank-two tables at (a, b) from one double sum, ``{(K, J): c}``.

    K = (b - m, m, a - m) and J runs over the straightened `_rank2_word` at
    k; c sums, over 0 <= m, k <= min(a, b), (-1)^k times
    `_rank2_double_sum_coeff`, K!, the signed factor of K and the
    coefficient of J.  It is the inverse-form table; the fusion component at
    (a, b) is its transpose.
    """
    basis = engine.basis

    def terms():
        for m in range(min(a, b) + 1):
            K = (b - m, m, a - m)
            cK = factorial(b - m) * factorial(m) * factorial(a - m) * basis.signed_factor(K)
            for k in range(min(a, b) + 1):
                coeff = _rank2_double_sum_coeff(a, b, m, k, lam1, lam2) * rational(
                    (-1) ** k * cK
                )
                for J, cJ in engine.apply_word(_rank2_word(a, b, k)).items():
                    yield (K, J), coeff * cJ

    return rf_sums(terms())


def _appendix_c(params: dict):
    max_ab = params["max_ab"]
    depth = 2 * max_ab
    l1, l2 = lambda_pairing_symbols(3)
    basis = standard_basis(3)
    engine = straightener(basis)
    fus = fusion_solve(3, depth)
    tables = {}

    for a in range(max_ab + 1):
        for b in range(max_ab + 1):
            if a == b == 0:
                continue
            tables[a, b] = _rank2_table(a, b, l1, l2, engine)
            transpose = {(J, K): c for (K, J), c in tables[a, b].items()}
            equal = dict(fus.component((a, b))) == transpose
            yield {"check": "fusion-double-sum", "a": a, "b": b, "equal": equal}, equal

    lamw = WeightVec((l1, l2))
    for a in range(1, max_ab + 1):
        for b in range(1, max_ab + 1):
            aux = enumerate_basis([verma_weight(3, lamw)], (a, b), basis)
            equal = p_elements(aux) == tables[a, b]
            witness = {
                "check": "inverse-form-double-sum", "a": a, "b": b, "equal": equal
            }
            yield witness, equal

    return {"depth": depth, "n": 3}, []


_RANK_ONE_MAX_P = 6


def _rank_one_solution(p: int, m: int):
    """``(s, a, b, c)`` of the rank-one solution on the weight-m space of L(p).

    The solution is z_1^(s l1/kap) times S(a, b, c), with s = (p - 2m)/2,
    a - 1 = -(l1 - 1 - s)/kap, b = -p/kap and c = 1/kap.
    """
    (l1,), kap = lambda_pairing_symbols(2), kappa_symbol()
    s = rational(Fraction(p - 2 * m, 2))
    return s, RF_ONE - (l1 - RF_ONE - s) / kap, rational(-p) / kap, RF_ONE / kap


def _rank_one_rows(check: Callable[[int, int], Optional[tuple[str, str]]]):
    """The rows of a rank-one suite, one per 0 <= m <= p <= 6.

    ``check(p, m)`` returns ``None`` when the identity holds on the weight-m
    space of L(p), and otherwise the texts of its two sides, which the
    witness names; text is rendered only on a mismatch.
    """
    for p in range(_RANK_ONE_MAX_P + 1):
        for m in range(p + 1):
            sides = check(p, m)
            witness = {"p": p, "m": m, "equal": sides is None}
            if sides is not None:
                witness["lhs"], witness["rhs"] = sides
            yield witness, sides is None
    return {}, []


def _main_theorem_sl2(params: dict):
    """The rank-one difference equation, exactly in Q(l1, kap).

    The step l1 -> l1 + kap lowers a by one, so the ratio of the stepped to
    the base solution (`_rank_one_solution`) is a power of z_1 times
    S(a - 1, b, c)/S(a, b, c), whose arguments differ by integers: its
    normal form is a rational function with no gamma left over.  Times
    z_1^m, the 1x1 entry of K_1 must equal it, and the formal z_1 exponent
    of K_1 must exceed s = (p - 2m)/2 by m.
    """
    (z1,), lam = z_symbols(1), lambda_pairing_symbols(2)

    def check(p: int, m: int):
        space = enumerate_basis((lp_module(p),), (m,))
        shift, a, b, c = _rank_one_solution(p, m)
        ratio, leftover = normal_form(
            selberg_gamma(a - RF_ONE, b, c, m), selberg_gamma(a, b, c, m)
        )
        entry = K_operator(space, 1, lam).entry(0, 0)
        lhs = (z1 ** m * entry, formal_z_exponents(space, 1)[0] - shift)
        rhs = (ratio, rational(m))
        if leftover or lhs != rhs:
            # each side as "entry; exponent"
            return "; ".join(map(str, lhs)), f"{gamma_text(ratio, leftover)}; {m}"
        return None

    return _rank_one_rows(check)


def _determinant_sl2(params: dict):
    """Varchenko's rank-one determinant formula, exactly in Q(l1, kap).

    The solution on the weight-m space of L(p) is 1x1, so its determinant is
    its entry (`_rank_one_solution`).  The formula factors it as C(kap)
    D(l1): D is z_1 to the exponent of `det_ingredients` times its gamma
    ratio, and C is 1/m! times the product over j < m of
    Gamma(1 + (j + 1)/kap) Gamma((j - p)/kap) / Gamma(1 + 1/kap).
    S(a, b, c)/(C D) must have the normal form (1, {}), and the z_1
    exponents must agree.  C has no l1, so the implied constant is the same
    at every step of l1.
    """
    (l1,), kap = lambda_pairing_symbols(2), kappa_symbol()

    def check(p: int, m: int):
        shift, a, b, c = _rank_one_solution(p, m)
        ingredients = det_ingredients(enumerate_basis((lp_module(p),), (m,)), (1, 2))
        den = Counter({rational(m + 1): -1, RF_ONE + RF_ONE / kap: -m})
        for j in range(m):
            den[RF_ONE + rational(j + 1) / kap] += 1
            den[rational(j - p) / kap] += 1
        den.update(ingredients.gamma_ratio)
        ratio, leftover = normal_form(selberg_gamma(a, b, c, m), den)
        exponent, want = shift * l1 / kap, ingredients.z_exponents[0]
        if ratio != RF_ONE or leftover or exponent != want:
            # each side as "normal form; z_1 exponent"
            return f"{gamma_text(ratio, leftover)}; {exponent}", f"1; {want}"
        return None

    return _rank_one_rows(check)


# A module that few runs read is imported by the functions that read it,
# when they run: `pbw-invariance` and the `phi-vector` and `forest` dumps
# import `hyper`; `selberg`, the one float suite, imports `numeric`, and with
# it numpy, for its quadrature and its float closed forms.  The two rank-one
# suites above are exact and load neither.  `selberg` looks its functions up
# on the module at each call, where a tracer or a test may have replaced
# them.  Its report keeps ``"grid": "default"``, the name of the only
# parameter grid there is.  Each quadrature row asks `quad_chamber` for
# `_QUADRATURE_REQUEST_TOL`, well inside the 1e-6 its relative error is held to.

_QUADRATURE_REQUEST_TOL = 1e-8


def _selberg_quadrature_row(m: int, a: float, b: float, c: float, tol: float) -> dict:
    from . import numeric

    params = numeric.SelbergParams(a, b, c, m)
    integral = numeric.ChamberIntegral.from_selberg(params)
    got = numeric.quad_chamber(integral, _QUADRATURE_REQUEST_TOL)
    want = math.exp(numeric.selberg_closed(params))
    rel = abs(got - want) / want
    return {
        "check": "quadrature-vs-closed",
        "m": m,
        "a": a,
        "b": b,
        "c": c,
        "quadrature": got,
        "closed_form": want,
        "rel_error": rel,
        "tolerance": tol,
        "passed": rel <= tol,
    }


def _selberg(params: dict):
    # imported before the rows, so that its seconds (numpy's among them) go
    # to the suite's total and not to its first row; without numpy the suite
    # cannot run, which is a configuration error, not a defect
    try:
        from . import numeric
    except ImportError as exc:
        if (exc.name or "").partition(".")[0] != "numpy":
            raise
        raise CapabilityExceeded(f"the selberg suite needs numpy: {exc}") from None

    def rows():
        quad_tol = 1e-6
        for m, a, b, c in numeric.SELBERG_GRID:
            data = numeric.selberg_difference_check(
                numeric.SelbergParams(a, b, c, m), params["tol"]
            ).to_json()
            data["check"] = "difference-relation"
            yield data, data["passed"]
        for m, a, b, c in numeric.QUADRATURE_GRID:
            data = _selberg_quadrature_row(m, a, b, c, quad_tol)
            yield data, data["passed"]
        derived = {
            "grid": "default",
            "difference_points": len(numeric.SELBERG_GRID),
            "quadrature_points": len(numeric.QUADRATURE_GRID),
            "quadrature_tol": quad_tol,
        }
        return derived, []

    return rows()


def _sign_table_closed_form(n: int, h: int) -> dict[tuple[int, int], int]:
    out = {}
    for k, l in positive_roots(n):
        if l <= h:
            out[(k, l)] = 0
        elif h < k:
            out[(k, l)] = l - k - 1
        else:
            out[(k, l)] = l - h - 1
    return out


def _sigma_orders(params: dict):
    for n in range(2, params["n"] + 1):
        orders_normal = all(is_normal(special_order(n, h)) for h in range(1, n))
        schedules_ok = True
        for h in range(2, n):
            orders = intermediate_orders(n, h)
            if orders[-1] != special_order(n, h - 1):
                schedules_ok = False
            if not all(is_normal(order) for order in orders):
                schedules_ok = False
            labels = sorted(
                t.label for t in sigma_sequence(n, h) if t.kind == "A2"
            )
            expected = sorted(
                (k, l) for k in range(1, h) for l in range(h + 1, n + 1)
            )
            if labels != expected:
                schedules_ok = False
        signs_ok = all(
            sign_table_a(n, h) == _sign_table_closed_form(n, h)
            for h in range(1, n)
        )
        witness = {
            "n": n,
            "orders_normal": orders_normal,
            "reversal_schedules_ok": schedules_ok,
            "sign_table_ok": signs_ok,
        }
        yield witness, orders_normal and schedules_ok and signs_ok
    return {}, []


# ---------------------------------------------------------------------------
# The suite table
# ---------------------------------------------------------------------------

@record
class _Suite:
    """One `verify` suite.

    ``params`` lists every parameter the suite reads, in the order they are
    resolved, as ``(default, low, high)``.  A callable default is applied to
    the resolved ``n``.  The bounds hold for the value itself, for the sum of
    ``nu`` and for the number of ``factors``; ``None`` bounds leave the check
    to the code that uses the value.
    """

    check: Callable[[dict], Generator[tuple[dict, bool], None, tuple[dict, list[str]]]]
    params: dict[str, tuple]


def _ones(n: int) -> tuple[int, ...]:
    return (1,) * (n - 1)


def _two_on_sl2(n: int) -> tuple[int, ...]:
    return (2,) if n == 2 else _ones(n)


_VERMA2 = ("verma", "verma")
_TOL_MIN = 1e-14  # below it the float checks of `selberg` cannot resolve a difference

_SUITE_TABLE = {
    "pbw-invariance": _Suite(
        _pbw_invariance,
        {"n": (3, 3, 4), "nu": (_ones, 1, 6), "factors": (("verma",), 1, 3)},
    ),
    "additive-form": _Suite(
        _additive_form,
        {"n": (2, 2, 4), "nu": (_two_on_sl2, 1, 4), "factors": (_VERMA2, 1, 3)},
    ),
    "fusion": _Suite(
        _fusion,
        {
            "n": (2, 2, 3),
            "depth": (4, 1, 5),
            "nu": (_two_on_sl2, 1, 4),
            "factors": (_VERMA2, 1, 3),
        },
    ),
    "compatibility": _Suite(
        _compatibility,
        {"n": (2, 2, 3), "nu": (_ones, 1, 3), "factors": (_VERMA2, 1, 3)},
    ),
    # the reduction identity relates neighbouring factors: at least 2
    "appendix-b": _Suite(
        _appendix_b,
        {"n": (2, 2, 3), "nu": (_ones, 1, 3), "factors": (("verma",) * 3, 2, 4)},
    ),
    # at max-ab 0 the golden tables hold no entry to compare
    "appendix-c": _Suite(_appendix_c, {"max_ab": (2, 1, 3)}),
    "selberg": _Suite(_selberg, {"tol": (1e-10, _TOL_MIN, math.inf)}),
    "main-theorem-sl2": _Suite(_main_theorem_sl2, {}),
    "determinant-sl2": _Suite(_determinant_sl2, {}),
    "sigma-orders": _Suite(_sigma_orders, {"n": (6, 2, 8)}),
}

SUITES = tuple(_SUITE_TABLE)


def _resolve(row: str, params: Mapping[str, tuple], given: Mapping) -> dict:
    """The parameters of a table row, defaults filled in, checked and capped.

    ``row`` names the row in messages ("suite S" or "dump K"), ``params`` is
    its parameter table and ``given`` maps names to values, ``None`` meaning
    not given.  A given parameter the row does not read is rejected.
    """
    for name, value in given.items():
        if value is not None and name not in params:
            raise CapabilityExceeded(f"{row} does not read {_flag(name)}")
    resolved: dict = {}
    for name, (default, low, high) in params.items():
        value = given.get(name)
        if value is None:
            value = default(resolved["n"]) if callable(default) else default
        if name == "nu":
            _check_nu(value, resolved["n"])
            size, what, value = sum(value), "sum(nu)", list(value)
        elif name == "factors":
            _check_factor_specs(value, resolved["n"])
            size, what, value = len(value), "the number of factors", list(value)
        else:
            size, what = value, name.replace("_", "-")
            if isinstance(size, float) and not math.isfinite(size):
                # a tol row caps at inf, which would pass any error and
                # cannot be written as JSON
                raise CapabilityExceeded(f"{row} needs a finite {what}")
        if low is not None and not low <= size <= high:
            raise CapabilityExceeded(f"{row} supports {low} <= {what} <= {high}")
        resolved[name] = value
    return resolved


def _check_nu(nu: Sequence[int], n: int) -> None:
    if len(nu) != n - 1:
        raise CapabilityExceeded(
            f"nu must list {n - 1} simple-root multiplicities for n={n}"
        )
    if any(m < 0 for m in nu):
        raise CapabilityExceeded("nu entries must be non-negative")


def _check_factor_specs(specs: Sequence[str], n: int) -> None:
    for item in specs:
        if item == "verma":
            continue
        if item.startswith("lp:"):
            try:
                p = int(item[3:])
            except ValueError as exc:
                raise CapabilityExceeded(f"malformed factor spec {item!r}") from exc
            if p < 0:
                raise CapabilityExceeded("lp:P needs a non-negative P")
            if n != 2:
                raise CapabilityExceeded("finite-dimensional lp factors require n=2")
            continue
        raise CapabilityExceeded(f"factor spec {item!r} must be 'verma' or 'lp:P'")


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

class _OutNotWritable(Exception):
    """The ``--out`` path could not be probed or written; the message is the reason."""


@contextmanager
def _written_whole(path: Optional[str]):
    """Yield a function that collects the text of the file ``path``.

    ``path`` is probed on entry, so that a path that cannot be written raises
    `_OutNotWritable` before any work: an existing file (or device, or the
    target of a symlink) is opened for appending, a missing one is created.
    The text is written through ``path`` only on a clean exit, so a run that
    raises leaves an existing file as it was and removes the file it created.
    Only the probe's and the write's `OSError` become `_OutNotWritable`: one
    that the work inside raises passes through as it is.  An empty or
    ``None`` path writes nothing.
    """
    if not path:
        yield lambda text: None
        return
    try:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            created = True
        except FileExistsError:
            open(path, "a").close()  # a directory or a read-only file fails here, untouched
            created = False
    except OSError as exc:
        raise _OutNotWritable(exc.strerror or exc) from None
    chunks: list[str] = []
    try:
        yield chunks.append
    except BaseException:
        if created:
            os.unlink(path)
        raise
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(chunks))
    except OSError as exc:
        raise _OutNotWritable(exc.strerror or exc) from None


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute one named suite and return its JSON-serializable report.

    The verdict is ``fail`` if any check fails, ``flagged`` if every check
    passes but the suite warns (pbw-invariance, when the raw copies of a
    level disagree), and ``pass`` otherwise.  Each witness's seconds, from
    the witness before it, go to ``timings``, never into the witness; the
    first witness's clock starts once the suite's check has returned its
    rows, and ``total_seconds`` counts that call too.
    """
    suite = _SUITE_TABLE.get(cfg.suite)
    if suite is None:
        raise UnknownSuite(
            f"unknown suite {cfg.suite!r}; choose one of {', '.join(SUITES)}"
        )
    given = {name: getattr(cfg, name) for name in _FLAGS if hasattr(cfg, name)}
    params = _resolve(f"suite {cfg.suite}", suite.params, given)
    # one-root operators are shared within a run, not across runs
    _p_series.cache_clear()
    rows, seconds = [], []
    start = time.monotonic()
    checks = suite.check(params)
    clock = time.monotonic()
    try:
        while True:
            rows.append(next(checks))
            now = time.monotonic()
            seconds.append(round(now - clock, 3))
            clock = now
    except StopIteration as done:
        derived, warnings = done.value
    timings = {
        "total_seconds": round(time.monotonic() - start, 3),
        "per_check_seconds": seconds,
    }
    witnesses = [witness for witness, _ in rows]
    if not all(passed for _, passed in rows):
        verdict, warnings = "fail", []
    else:
        verdict = "flagged" if warnings else "pass"
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "kzdyn", "version": __version__},
        "suite": cfg.suite,
        "params": {**params, **derived},
        "verdict": verdict,
        "witnesses": witnesses,
        "warnings": warnings,
        "timings": timings,
    }


def report_text(report: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline-end."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Artifact dumps
# ---------------------------------------------------------------------------

def _dump_order(params: dict) -> str:
    return serialize_order(special_order(params["n"], params["h"]))


def _dump_sigma(params: dict) -> str:
    n, h = params["n"], params["h"]
    transforms = [
        {
            "kind": t.kind,
            "position": t.position,
            "label": list(t.label) if t.label else None,
        }
        for t in sigma_sequence(n, h)
    ]
    orders = [serialize_order(o) for o in intermediate_orders(n, h)]
    return report_text({**params, "transforms": transforms, "orders": orders})


def _dump_operator(params: dict) -> str:
    space, k = _build_space(params), params["k"]
    K = K_operator(space, k, lambda_pairing_symbols(params["n"]))
    entries = {f"{r},{c}": str(v) for (r, c), v in sorted(K.entries.items())}
    return report_text(
        {
            **params,
            "dim": space.dim,
            "formal_z_exponents": [str(e) for e in formal_z_exponents(space, k)],
            "entries": entries,
        }
    )


def _dump_fusion(params: dict) -> str:
    fus = fusion_solve(params["n"], params["depth"])
    components = {}
    for mu in sorted(fus.components):
        rows = [
            [list(lo), list(hi), str(c)] for lo, hi, c in fus.triples(mu)
        ]
        components[",".join(map(str, mu))] = rows
    return report_text({**params, "components": components})


def _dump_phi_vector(params: dict) -> str:
    from .hyper import phi_vector

    pv = phi_vector(_build_space(params), params["h"])
    terms = [
        {"exps": [list(e) for e in exps], "value": str(value)}
        for exps, value in pv.terms
    ]
    data = {k: params[k] for k in ("n", "nu", "factors")}
    return report_text({**data, "flavor": pv.flavor.to_json(), "terms": terms})


def _dump_forest(params: dict) -> str:
    from .hyper import forest_of_index, index_counts

    space = _build_space(params)
    position = params["index"]
    if not (0 <= position < space.dim):
        raise CapabilityExceeded(
            f"index must name one of the {space.dim} basis positions"
        )
    counts = index_counts(space.basis[position], space.pbw_basis)
    forest = forest_of_index(counts, params["h"], n_rank=params["n"])
    data = forest.to_json()
    data.update({k: params[k] for k in ("n", "nu", "factors", "index")})
    return report_text(data)


@record
class _Dump:
    """One `dump` kind: ``params`` as in `_Suite`, and a render callable that
    takes the resolved parameters and returns the artifact's text."""

    render: Callable[[dict], str]
    params: dict[str, tuple]


def _caps_of(suite: str, **defaults) -> dict[str, tuple]:
    """Parameters with these defaults and the caps of the suite that builds
    the same object; one the suite does not read is checked where it is used.
    """
    caps = _SUITE_TABLE[suite].params
    return {
        name: (default, *caps.get(name, (None, None, None))[1:])
        for name, default in defaults.items()
    }


_SPACE_DEFAULTS = {"n": 2, "nu": _ones, "factors": ("verma",)}

_ORDER_PARAMS = _caps_of("sigma-orders", n=3, h=lambda n: n - 1)
# --h names a flavor, `standard` (level n-1) or a level, so these dumps take
# n = 2; pbw-invariance compares the levels below n-1 and needs n >= 3
_FLAVOR_PARAMS = _caps_of("pbw-invariance", **_SPACE_DEFAULTS, h="standard")
_FLAVOR_PARAMS["n"] = (2, 2, _FLAVOR_PARAMS["n"][2])

_DUMP_TABLE = {
    "order": _Dump(_dump_order, _ORDER_PARAMS),
    # a reversal schedule needs 2 <= h <= n-1, so n >= 3
    "sigma": _Dump(_dump_sigma, {**_ORDER_PARAMS, "n": (3, 3, _ORDER_PARAMS["n"][2])}),
    "operator": _Dump(
        _dump_operator, _caps_of("compatibility", **_SPACE_DEFAULTS, k=1)
    ),
    "fusion": _Dump(_dump_fusion, _caps_of("fusion", n=2, depth=2)),
    "phi-vector": _Dump(_dump_phi_vector, _FLAVOR_PARAMS),
    "forest": _Dump(_dump_forest, {**_FLAVOR_PARAMS, "index": (0, None, None)}),
}

DUMP_KINDS = tuple(_DUMP_TABLE)


def dump_object(kind: str, params: Optional[Mapping] = None) -> str:
    """Deterministic serialization of one artifact kind.

    ``params`` maps parameter names to values; ``None`` takes the kind's
    default, as in `SuiteConfig`.
    """
    dump = _DUMP_TABLE.get(kind)
    if dump is None:
        raise UnknownKind(
            f"unknown dump kind {kind!r}; choose one of {', '.join(DUMP_KINDS)}"
        )
    return dump.render(_resolve(f"dump {kind}", dump.params, params or {}))


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _parse_nu(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CapabilityExceeded(f"malformed nu list {text!r}") from exc


def _parse_factors(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_level(text: str):
    """A level, or a flavor name such as ``standard``."""
    return int(text) if text.isdigit() else text


# every parameter a table row may read, as the flag --<name>: (type, help)
_FLAGS = {
    "n": (int, "Lie algebra size N"),
    "h": (str, "arrangement level; for phi-vector and forest, standard or a level"),
    "nu": (str, "simple-root multiplicities m1,m2,..."),
    "factors": (str, "comma list of factor specs: verma or lp:P"),
    "depth": (int, "expansion depth"),
    "k": (int, "operator direction"),
    "index": (int, "basis position for forests"),
    "tol": (float, "numeric tolerance"),
    "max_ab": (int, "golden-table range bound"),
}

# main parses these, so that malformed text exits 2 with its own message;
# empty text is not given
_TEXT_FLAGS = {"h": _parse_level, "nu": _parse_nu, "factors": _parse_factors}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: argparse would read `verify ... --h 1` as --help,
    # since only dump defines --h, and `--to 1e-3` as --tol
    parser = argparse.ArgumentParser(
        prog="kzdyn",
        allow_abbrev=False,
        description="exact and numeric verification suites for the dynamical "
        "difference operators and their hypergeometric solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, what, table, help_text, out_help in (
        ("verify", "suite", _SUITE_TABLE, "run a named verification suite",
         "report file path"),
        ("dump", "kind", _DUMP_TABLE, "serialize one artifact deterministically",
         "artifact file path"),
    ):
        cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        cmd.add_argument(what, help=f"one of: {', '.join(table)}")
        read = {name for row in table.values() for name in row.params}
        for name, (kind, flag_help) in _FLAGS.items():
            if name in read:
                cmd.add_argument(_flag(name), type=kind, default=None, help=flag_help)
        cmd.add_argument("--out", type=str, default=None, help=out_help)
    return parser


def _write_stdout(text: str) -> bool:
    """Write and flush ``text`` to stdout, or print one error line and return False.

    A closed pipe is found by this flush, not by the one at exit.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
        return True
    except OSError as exc:
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return False


def main(argv: Optional[Sequence[str]] = None) -> int:
    # numpy's OpenBLAS starts its thread pool when selberg imports it; its
    # solves are at most 96 x 96, where extra threads only spin, so one
    # thread unless the caller chose otherwise
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        given = {name: getattr(args, name) for name in _FLAGS if hasattr(args, name)}
        for name, parse in _TEXT_FLAGS.items():
            if name in given:
                given[name] = parse(given[name]) if given[name] else None
        with _written_whole(args.out) as write:
            if args.command == "verify":
                report = run_suite(SuiteConfig(suite=args.suite, **given))
                text = report_text(report)
            else:
                report = None
                text = dump_object(args.kind, given)
                if not text.endswith("\n"):  # the order text
                    text += "\n"
            write(text)
        if not _write_stdout(text):
            return 2
        if report is None:
            return 0
        # only a flagged report has warnings
        for line in report["warnings"]:
            print(f"warning: {line}", file=sys.stderr)
        return 1 if report["verdict"] == "fail" else 0
    except (ArithmeticError, ParseError) as exc:
        # PoleHit, DivisionByZero, HeuristicGcdFailed,
        # QuadratureNotConverged: the exact or numeric layers failed on a
        # configuration they accepted
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (CapabilityExceeded, UnknownSuite, UnknownKind, OutOfRange) as exc:
        # the configuration errors; OutOfRange carries the --h and --k range
        # lines.  Any other ValueError is a defect and exits 3 below
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _OutNotWritable as exc:
        # stdout is _write_stdout's; an OSError of the work is a defect below
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a failed identity: exit 1 would misreport it
        import traceback  # only here, to keep it out of every start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


def console_main() -> None:
    """The ``kzdyn`` command: run `main` on ``sys.argv`` and exit with its status.

    The process ends here, so every object still alive is moved to the
    collector's permanent generation first (`gc.freeze`), which the
    interpreter's last collections at exit skip; atexit handlers, stream
    flushes and module finalization still run, but finalizers of objects
    left in reference cycles no longer do (every file kzdyn writes is closed
    explicitly).  If stdout could not be written, `main` has said so and
    stdout now writes to `os.devnull` (the Python docs' recipe), so that the
    flush at exit cannot raise again.  `main`, the function for library
    callers and tests, changes neither the collector nor stdout.
    """
    try:
        status = main()
        try:
            sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        sys.exit(status)
    finally:
        gc.freeze()


if __name__ == "__main__":
    console_main()
