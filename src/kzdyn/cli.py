"""Verification harness and command-line entry point.

The `kzdyn` command runs named verification suites over the exact symbolic
layers and the numeric closed-form instances, and dumps deterministic
serializations of the core artifacts (orders, reversal schedules, operators,
the fusion element, weighted-function vectors, grounded-string forests).

Every suite is one row of an ordered table, `_SUITE_TABLE`.  A row lists
the parameters the suite reads, each with its default and caps, and a check
callable that returns the suite's witnesses, each with its pass bit, any
parameters it derives, and warnings.  `run_suite` derives the verdict and
assembles the report.  Every dump kind is one row of `_DUMP_TABLE`, with
parameters in the same form (caps taken from the suite that builds the same
object) and a render callable.  `_resolve` serves both tables: it fills in
defaults, checks ``nu`` and the factor specs, applies the caps and rejects a
given parameter the row does not read, before any work.  Both subcommands
take their flags from one declaration, `_FLAGS`.

Reports are plain JSON with a fixed schema.  Everything except the
``timings`` section is byte-reproducible for identical configuration:
expressions are serialized in canonical form and every enumeration order is
fixed.  Exit status is 0 when the verdict is ``pass`` or ``flagged`` (the
latter prints a warning), 1 on ``fail``, 2 on configuration errors, and 3 on
internal errors: an arithmetic failure inside the exact layers (a pole, a
resonant weight, a division by zero, an inexact polynomial division or a
heuristic gcd that finds no proven gcd), a quadrature that misses the fixed
tolerance a suite requests (`QuadratureNotConverged`), unparsable expression
text, or any other exception, which also prints its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping, Optional, Sequence

from . import __version__
from .dyn import (
    B_additive,
    B_w,
    FusionElement,
    K_operator,
    check_K_exchange,
    check_nabla_K,
    check_rational_to_trig,
    fusion_solve,
    kappa_symbol,
    lambda_pairing_symbols,
    q_dagger,
    shifted_pairings,
    z_symbols,
    _first_mismatch,
    _weight_compositions,
)
from .hyper import forest_of_index, phi_vector, verify_order_invariance
from .rep import (
    enumerate_basis,
    lp_module,
    p_elements,
    singular_vectors,
    verma_symbolic,
    verma_weight,
)
from .roots import (
    intermediate_orders,
    is_normal,
    longest_element,
    nu_vec,
    omega_bracket,
    positive_roots,
    serialize_order,
    sigma_sequence,
    sign_table_a,
    special_order,
    weight_from_pairings,
)
from .symexpr import RF_ONE, RF_ZERO, ParseError, rational
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

@dataclass
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
    out: Optional[str] = None


def _build_space(params: dict):
    """The weight space of the resolved ``n``, ``nu`` and ``factors``."""
    n = params["n"]
    factors = [
        verma_symbolic(n, i + 1) if spec == "verma" else lp_module(int(spec[3:]))
        for i, spec in enumerate(params["factors"])
    ]
    return enumerate_basis(factors, tuple(params["nu"]))


# ---------------------------------------------------------------------------
# Shared symbolic helpers
# ---------------------------------------------------------------------------

def _falling(t, k: int):
    out = RF_ONE
    for i in range(k):
        out = out * (t - rational(i))
    return out


def _rank2_double_sum_coeff(a: int, b: int, m: int, k: int, lam1, lam2):
    """Golden rank-two double-sum coefficient table, indexed (a,b;m,k)."""
    inner = RF_ZERO
    for l in range(max(m, k), min(a, b) + 1):
        num = Fraction(
            (-1) ** l * factorial(l),
            factorial(a - l) * factorial(b - l) * factorial(l - k) * factorial(l - m),
        )
        inner = inner + rational(num) / _falling(lam1 + lam2 + RF_ONE, l)
    pref = (
        rational(Fraction(1, factorial(m) * factorial(k)))
        / _falling(lam1, a - m)
        / _falling(lam2, b - k)
    )
    return pref * inner


def _rank2_word(a: int, b: int, k: int) -> GenWord:
    """The raw lowering word e_{21}^{a-k} e_{31}^k e_{32}^{b-k} of the
    rank-two closed forms."""
    return word(
        *[("e", 2, 1)] * (a - k), *[("e", 3, 1)] * k, *[("e", 3, 2)] * (b - k)
    )


def _fusion_residual_ok(fus: FusionElement) -> bool:
    """Plug the solved components back into the defining recurrence."""
    basis = standard_basis(fus.n_rank)
    engine = straightener(basis)
    pairings = lambda_pairing_symbols(fus.n_rank)
    half = rational(Fraction(1, 2))
    for mu, comp in fus.components.items():
        if sum(mu) == 0:
            continue
        mu_vec = nu_vec(fus.n_rank, mu)
        scalar = RF_ZERO
        for i, m in enumerate(mu):
            if m:
                scalar = scalar + (pairings[i] + RF_ONE) * rational(m)
        scalar = scalar - mu_vec.dot(mu_vec) * half
        residual = {key: val * scalar for key, val in comp.items()}
        for root in positive_roots(fus.n_rank):
            rc = [0] * (fus.n_rank - 1)
            for i in range(root[0], root[1]):
                rc[i - 1] += 1
            prev_mu = tuple(m - c for m, c in zip(mu, rc))
            if any(m < 0 for m in prev_mu):
                continue
            letter = ("e", root[1], root[0])
            for (lo, hi), psi in fus.components.get(prev_mu, {}).items():
                left = engine.apply_letter(letter, lo)
                right = engine.apply_letter(letter, hi)
                for lo2, c_lo in left.items():
                    for hi2, c_hi in right.items():
                        key = (lo2, hi2)
                        residual[key] = (
                            residual.get(key, RF_ZERO) - psi * c_lo * c_hi
                        )
        if any(not v.is_zero() for v in residual.values()):
            return False
    return True


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
# Each check takes the suite's resolved parameters and returns three things:
# its rows, one ``(witness, passed)`` pair per identity checked; the
# parameters it derived, which join the report's ``params``; and warnings,
# which flag a run whose checks all pass.

_RAW_COPIES_WARNING = (
    "symmetrized equality holds but the canonical variable copies "
    "disagree before averaging on some level; this bears on the open "
    "question of whether copy-averaging is required"
)


def _pbw_invariance(params: dict):
    space = _build_space(params)
    rows = []
    for h in range(1, params["n"]):
        report = verify_order_invariance(space, h)
        rows.append((report.to_json(), report.symmetrized_equal))
    raw_equal = all(witness["raw_equal"] for witness, _ in rows)
    return rows, {}, [] if raw_equal else [_RAW_COPIES_WARNING]


def _additive_form(params: dict):
    n = params["n"]
    space = _build_space(params)
    lam = lambda_pairing_symbols(n)
    arg = shifted_pairings(space, lam, rho_steps=1, nu_halves=1)
    rows = []
    for r in range(1, n):
        add = B_additive(space, r, lam)
        prod = B_w(space, omega_bracket(n, r)[1], arg)
        equal = add == prod
        rows.append(({"r": r, "equal": equal, "dim": space.dim}, equal))
    return rows, {}, []


def _fusion(params: dict):
    n, depth, nu, specs = params["n"], params["depth"], params["nu"], params["factors"]
    fus = fusion_solve(n, depth)
    structure_ok = fus.structure_ok()
    residual_ok = _fusion_residual_ok(fus)
    witness = {
        "check": "defining-recurrence",
        "depth": depth,
        "structure_ok": structure_ok,
        "residual_zero": residual_ok,
    }
    rows = [(witness, structure_ok and residual_ok)]

    lam = lambda_pairing_symbols(n)
    basis = standard_basis(n)
    aux_factor = verma_weight(n, weight_from_pairings(n, lam))
    for mu in _weight_list(n, depth):
        aux = enumerate_basis([aux_factor], mu, basis)
        equal = dict(fus.component(mu)) == p_elements(aux)
        witness = {"check": "dual-element-match", "mu": list(mu), "equal": equal}
        rows.append((witness, equal))

    space = _build_space(params)
    arg = shifted_pairings(space, lam, rho_steps=1, nu_halves=-1)
    bw0 = B_w(space, longest_element(n), arg)
    need = sum(nu)
    fus_q = fus if depth >= need else fusion_solve(n, need)
    contraction = q_dagger(space, lam, fus_q)
    equal = bw0 == contraction
    witness = {
        "check": "contraction-vs-longest-word",
        "nu": list(nu),
        "factors": list(specs),
        "equal": equal,
    }
    if not equal:
        witness["first_mismatch"] = _first_mismatch(bw0, contraction)
    rows.append((witness, equal))
    return rows, {}, []


def _compatibility(params: dict):
    n = params["n"]
    space = _build_space(params)
    rows = []
    for k in range(1, n):
        for l in range(k + 1, n):
            report = check_K_exchange(space, k, l)
            data = report.to_json()
            data.update({"check": "exchange", "k": k, "l": l})
            rows.append((data, report.passed))
    for j in range(1, len(params["factors"]) + 1):
        for k in range(1, n):
            report = check_nabla_K(space, j, k)
            data = report.to_json()
            data.update({"check": "derivative-intertwining", "j": j, "k": k})
            rows.append((data, report.passed))
    return rows, {}, []


def _appendix_b(params: dict):
    space = _build_space(params)
    vectors = singular_vectors(space)  # the same for every position
    rows = []
    for i in range(1, len(params["factors"])):
        report = check_rational_to_trig(space, i, vectors)
        data = report.to_json()
        data.update({"position": i})
        rows.append((data, report.passed))
    return rows, {}, []


def _appendix_c(params: dict):
    max_ab = params["max_ab"]
    depth = max(2 * max_ab, 1)
    l1, l2 = lambda_pairing_symbols(3)
    basis = standard_basis(3)
    engine = straightener(basis)
    fus = fusion_solve(3, depth)
    rows = []

    for a in range(max_ab + 1):
        for b in range(max_ab + 1):
            if a == b == 0:
                continue
            expected = {}
            for m in range(min(a, b) + 1):
                for k in range(min(a, b) + 1):
                    coeff = _rank2_double_sum_coeff(a, b, m, k, l1, l2) * rational(
                        (-1) ** (a + b + m + k)
                    )
                    lower = engine.apply_word(_rank2_word(a, b, k))
                    K = (b - m, m, a - m)
                    upfac = rational(
                        Fraction(
                            (-1) ** (a + b - m)
                            * factorial(b - m)
                            * factorial(m)
                            * factorial(a - m)
                            * basis.signed_factor(K)
                        )
                    )
                    for I, cI in lower.items():
                        key = (I, K)
                        expected[key] = (
                            expected.get(key, RF_ZERO) + coeff * cI * upfac
                        )
            expected = {kk: v for kk, v in expected.items() if not v.is_zero()}
            equal = dict(fus.component((a, b))) == expected
            witness = {"check": "fusion-double-sum", "a": a, "b": b, "equal": equal}
            rows.append((witness, equal))

    lamw = weight_from_pairings(3, (l1, l2))
    for a in range(1, max_ab + 1):
        for b in range(1, max_ab + 1):
            aux = enumerate_basis([verma_weight(3, lamw)], (a, b), basis)
            expected = {}
            for m in range(min(a, b) + 1):
                for k in range(min(a, b) + 1):
                    coeff = _rank2_double_sum_coeff(a, b, m, k, l1, l2) * rational(
                        (-1) ** k
                    )
                    I0 = (b - m, m, a - m)
                    cleft = rational(
                        Fraction(
                            factorial(b - m)
                            * factorial(m)
                            * factorial(a - m)
                            * basis.signed_factor(I0)
                        )
                    )
                    right = engine.apply_word(_rank2_word(a, b, k))
                    for J, cJ in right.items():
                        key = (I0, J)
                        expected[key] = (
                            expected.get(key, RF_ZERO) + coeff * cleft * cJ
                        )
            expected = {kk: v for kk, v in expected.items() if not v.is_zero()}
            equal = p_elements(aux) == expected
            witness = {
                "check": "inverse-form-double-sum", "a": a, "b": b, "equal": equal
            }
            rows.append((witness, equal))

    return rows, {"depth": depth}, []


_RANK_ONE_MAX_P = 6


def _main_theorem_sl2(params: dict):
    """The rank-one difference equation, exactly in Q(l1, kap).

    On the weight-m space of L(p), the solution is a power of z_1 times the
    m-dimensional ordered beta integral with a - 1 = -(l1 - 1 - (p - 2m)/2)/kap,
    b = -p/kap and c = 1/kap.  The step l1 -> l1 + kap lowers a by one.  The
    ratio of the stepped to the base solution is a gamma ratio with integer
    shifts, which Gamma(x + 1) = x Gamma(x) reduces to the product over j < m
    of (a - 1 + b + (m + j - 1)c) / (a - 1 + jc).  Times z_1^m, the 1x1 entry
    of K_1 must equal that product, and the formal z_1 exponent of K_1 must
    exceed (p - 2m)/2 by m.
    """
    (l1,), kap, (z1,) = lambda_pairing_symbols(2), kappa_symbol(), z_symbols(1)
    rows = []
    for p in range(_RANK_ONE_MAX_P + 1):
        for m in range(p + 1):
            op = K_operator(enumerate_basis((lp_module(p),), (m,)), 1)
            shift = rational(Fraction(p - 2 * m, 2))
            a_minus_1 = -(l1 - RF_ONE - shift) / kap
            b, c = rational(-p) / kap, RF_ONE / kap
            product = RF_ONE
            for j in range(m):
                product = product * (a_minus_1 + b + rational(m + j - 1) * c) / (
                    a_minus_1 + rational(j) * c
                )
            lhs = (z1 ** m * op.op.entry(0, 0), op.formal_z_exponents[0] - shift)
            rhs = (product, rational(m))
            equal = lhs == rhs
            witness = {"p": p, "m": m, "equal": equal}
            if not equal:
                # each side as "entry; exponent"
                witness["lhs"] = "; ".join(map(str, lhs))
                witness["rhs"] = "; ".join(map(str, rhs))
            rows.append((witness, equal))
    return rows, {}, []


# The two numeric checks import their module when they run: `selberg`
# imports `numeric`, and with it scipy, for its quadrature; `determinant-sl2`
# imports the scipy-free `closed_forms`.  Their functions are looked up on
# the module at each call, where a tracer or a test may have replaced them.
# Their reports keep ``"grid": "default"``, the name of the only parameter
# grid there is.

def _selberg_quadrature_row(m: int, a: float, b: float, c: float, tol: float) -> dict:
    from . import numeric

    params = numeric.SelbergParams(a, b, c, m)
    got = numeric.quad_chamber(
        numeric.ChamberIntegral.from_selberg(params), min(tol, 1e-8)
    )
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
    from . import numeric

    quad_tol = 1e-6
    witnesses = []
    for m, a, b, c in numeric.SELBERG_GRID:
        data = numeric.selberg_difference_check(
            numeric.SelbergParams(a, b, c, m), params["tol"]
        ).to_json()
        data["check"] = "difference-relation"
        witnesses.append(data)
    for m, a, b, c in numeric.QUADRATURE_GRID:
        witnesses.append(_selberg_quadrature_row(m, a, b, c, quad_tol))
    derived = {
        "grid": "default",
        "difference_points": len(numeric.SELBERG_GRID),
        "quadrature_points": len(numeric.QUADRATURE_GRID),
        "quadrature_tol": quad_tol,
    }
    return [(w, w["passed"]) for w in witnesses], derived, []


def _determinant_sl2(params: dict):
    from . import closed_forms

    check = closed_forms.det_formula_sl2_check
    witnesses = [
        check(p, m, kappa, lam, z, params["tol"]).to_json()
        for (p, m, kappa, lam, z) in closed_forms.DETERMINANT_GRID
    ]
    derived = {"grid": "default", "points": len(witnesses)}
    return [(w, w["passed"]) for w in witnesses], derived, []


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
    rows = []
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
        rows.append((witness, orders_normal and schedules_ok and signs_ok))
    return rows, {}, []


# ---------------------------------------------------------------------------
# The suite table
# ---------------------------------------------------------------------------

@dataclass
class _Suite:
    """One `verify` suite.

    ``params`` lists every parameter the suite reads, in the order they are
    resolved, as ``(default, low, high)``.  A callable default is applied to
    the resolved ``n``.  The bounds hold for the value itself, for the sum of
    ``nu`` and for the number of ``factors``; ``None`` bounds leave the check
    to the code that uses the value.
    """

    check: Callable[[dict], tuple[list[tuple[dict, bool]], dict, list[str]]]
    params: dict[str, tuple]


def _ones(n: int) -> tuple[int, ...]:
    return (1,) * (n - 1)


def _two_on_sl2(n: int) -> tuple[int, ...]:
    return (2,) if n == 2 else _ones(n)


_VERMA2 = ("verma", "verma")
_TOL_MIN = 1e-14  # below it the numeric checks cannot resolve a difference

_SUITE_TABLE = {
    "pbw-invariance": _Suite(
        _pbw_invariance,
        {"n": (3, 2, 4), "nu": (_ones, 1, 6), "factors": (("verma",), 1, 3)},
    ),
    "additive-form": _Suite(
        _additive_form,
        {"n": (2, 2, 3), "nu": (_two_on_sl2, 1, 4), "factors": (_VERMA2, 1, 3)},
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
    "appendix-c": _Suite(_appendix_c, {"n": (3, 3, 3), "max_ab": (2, 0, 3)}),
    "selberg": _Suite(_selberg, {"tol": (1e-10, _TOL_MIN, math.inf)}),
    "main-theorem-sl2": _Suite(_main_theorem_sl2, {}),
    "determinant-sl2": _Suite(_determinant_sl2, {"tol": (1e-9, _TOL_MIN, math.inf)}),
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

def run_suite(cfg: SuiteConfig) -> dict:
    """Execute one named suite and assemble its JSON-serializable report.

    The verdict is ``fail`` if any check fails, ``flagged`` if every check
    passes but the suite warns (pbw-invariance, when the raw copies of a
    level disagree), and ``pass`` otherwise.
    """
    suite = _SUITE_TABLE.get(cfg.suite)
    if suite is None:
        raise UnknownSuite(
            f"unknown suite {cfg.suite!r}; choose one of {', '.join(SUITES)}"
        )
    given = {name: getattr(cfg, name) for name in _FLAGS if hasattr(cfg, name)}
    params = _resolve(f"suite {cfg.suite}", suite.params, given)
    start = time.monotonic()
    rows, derived, warnings = suite.check(params)
    timings = {"total_seconds": round(time.monotonic() - start, 3)}
    witnesses = [witness for witness, _ in rows]
    # a level's seconds go to timings, so that witnesses stay reproducible
    seconds = [w.pop("seconds") for w in witnesses if "seconds" in w]
    if seconds:
        timings["per_level_seconds"] = seconds
    if not all(passed for _, passed in rows):
        verdict, warnings = "fail", []
    else:
        verdict = "flagged" if warnings else "pass"
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "kzdyn", "version": __version__},
        "suite": cfg.suite,
        "params": {**params, **derived},
        "verdict": verdict,
        "witnesses": witnesses,
        "warnings": warnings,
        "timings": timings,
    }
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(report_text(report))
    return report


def report_text(report: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline-end."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Artifact dumps
# ---------------------------------------------------------------------------

def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


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
    return _dump_json({**params, "transforms": transforms, "orders": orders})


def _dump_operator(params: dict) -> str:
    space = _build_space(params)
    Kd = K_operator(space, params["k"])
    entries = {
        f"{r},{c}": str(v) for (r, c), v in sorted(Kd.op.entries.items())
    }
    return _dump_json(
        {
            **params,
            "dim": space.dim,
            "formal_z_exponents": [str(e) for e in Kd.formal_z_exponents],
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
    return _dump_json({**params, "components": components})


def _dump_phi_vector(params: dict) -> str:
    pv = phi_vector(_build_space(params), params["h"])
    terms = [
        {"exps": [list(e) for e in exps], "value": str(value)}
        for exps, value in pv.terms
    ]
    data = {k: params[k] for k in ("n", "nu", "factors")}
    return _dump_json({**data, "flavor": pv.flavor.to_json(), "terms": terms})


def _dump_forest(params: dict) -> str:
    space = _build_space(params)
    position = params["index"]
    if not (0 <= position < space.dim):
        raise CapabilityExceeded(
            f"index must name one of the {space.dim} basis positions"
        )
    forest = forest_of_index(
        space.basis[position], params["h"], basis=space.pbw_basis
    )
    data = forest.to_json()
    data.update({k: params[k] for k in ("n", "nu", "factors", "index")})
    return _dump_json(data)


@dataclass
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

_DUMP_TABLE = {
    "order": _Dump(_dump_order, _ORDER_PARAMS),
    # a reversal schedule needs 2 <= h <= n-1, so n >= 3
    "sigma": _Dump(_dump_sigma, {**_ORDER_PARAMS, "n": (3, 3, _ORDER_PARAMS["n"][2])}),
    "operator": _Dump(
        _dump_operator, _caps_of("compatibility", **_SPACE_DEFAULTS, k=1)
    ),
    "fusion": _Dump(_dump_fusion, _caps_of("fusion", n=2, depth=2)),
    # --h names a flavor here: `standard`, or a level
    "phi-vector": _Dump(
        _dump_phi_vector,
        _caps_of("pbw-invariance", **_SPACE_DEFAULTS, h="standard"),
    ),
    "forest": _Dump(
        _dump_forest,
        _caps_of("pbw-invariance", **_SPACE_DEFAULTS, h="standard", index=0),
    ),
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
    parser = argparse.ArgumentParser(
        prog="kzdyn",
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
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument(what, help=f"one of: {', '.join(table)}")
        read = {name for row in table.values() for name in row.params}
        for name, (kind, flag_help) in _FLAGS.items():
            if name in read:
                cmd.add_argument(_flag(name), type=kind, default=None, help=flag_help)
        cmd.add_argument("--out", type=str, default=None, help=out_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        given = {name: getattr(args, name) for name in _FLAGS if hasattr(args, name)}
        for name, parse in _TEXT_FLAGS.items():
            if name in given:
                given[name] = parse(given[name]) if given[name] else None
        if args.command == "verify":
            report = run_suite(SuiteConfig(suite=args.suite, out=args.out, **given))
            sys.stdout.write(report_text(report))
            if report["verdict"] == "flagged":
                for line in report["warnings"]:
                    print(f"warning: {line}", file=sys.stderr)
                return 0
            return 0 if report["verdict"] == "pass" else 1
        text = dump_object(args.kind, given)
        if not text.endswith("\n"):
            text += "\n"
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    except (ArithmeticError, ParseError) as exc:
        # PoleHit, ResonantWeight, DivisionByZero, InexactDivision,
        # HeuristicGcdFailed, QuadratureNotConverged: the exact or numeric
        # layers failed on a configuration they accepted
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # covers UnknownSuite, UnknownKind, CapabilityExceeded, and range
        # errors raised by the underlying modules for bad parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # writing --out is the only file I/O
        reason = exc.strerror or exc
        print(f"error: cannot write --out {args.out}: {reason}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a failed identity: exit 1 would misreport it
        import traceback  # only here, to keep it out of every start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
