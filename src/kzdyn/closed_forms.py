"""Floating-point closed forms of the Selberg and determinant checks, without
scipy.

Everything symbolic in this package is exact; this module supplies the
floating-point closed forms that confirm two of its instances: log-gamma
plumbing, the gamma-product evaluation of the ordered-simplex beta integral
and its contiguous-parameter identity, and the rank-one check of the
determinant formula, whose periodic factors keep it numeric.  (The rank-one
difference equation is checked exactly, by the ``main-theorem-sl2`` suite in
``kzdyn.cli``.)  It needs only ``math.lgamma``; the chamber quadrature, the
one caller of scipy, is in ``kzdyn.numeric``.

Floating-point enters only at the boundary: symbolic operator entries are
evaluated exactly at binary fractions and the resulting rational is
converted, so every reported residual is a genuine numerical discrepancy of
the compared formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .dyn import PoleHit, det_ingredients
from .rep import enumerate_basis, lp_module
from .symexpr import DivisionByZero, RationalFunctionExpr

__all__ = [
    "SelbergParams",
    "log_gamma",
    "selberg_closed",
    "selberg_signed",
    "selberg_difference_check",
    "SelbergDifferenceReport",
    "det_formula_sl2_check",
    "DetFormulaReport",
    "evaluate_expr",
    "DETERMINANT_GRID",
]


_KAPPA = "kap"


# ---------------------------------------------------------------------------
# Exact-to-float evaluation
# ---------------------------------------------------------------------------

def evaluate_expr(
    expr: RationalFunctionExpr, assignment: Mapping[str, Union[int, float, Fraction]]
) -> float:
    """Evaluate a symbolic expression at exact numeric arguments.

    A float argument is taken as the exact binary fraction it stores.
    """
    try:
        return float(expr.eval(assignment))
    except DivisionByZero as exc:
        raise PoleHit(f"denominator vanishes at {dict(assignment)}") from exc


# ---------------------------------------------------------------------------
# Gamma plumbing
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """Natural log of the gamma function for positive arguments.

    For negative non-integer arguments returns the log of the absolute
    value (pair with the sign from the reflection parity when needed).
    """
    if x <= 0 and x == math.floor(x):
        raise PoleHit(f"gamma pole at {x}")
    return math.lgamma(x)


def _signed_log_gamma(x: float) -> tuple[int, float]:
    value = log_gamma(x)
    if x > 0 or math.floor(x) % 2 == 0:
        return 1, value
    return -1, value


# ---------------------------------------------------------------------------
# Ordered-simplex beta integral: closed form and contiguous relation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelbergParams:
    """Parameters of the m-dimensional ordered beta-type integral."""

    a: float
    b: float
    c: float
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("dimension must be non-negative")


def selberg_signed(params: SelbergParams) -> tuple[int, float]:
    """Sign and log of absolute value of the gamma-product closed form."""
    a, b, c, m = params.a, params.b, params.c, params.m
    sign = 1
    total = -math.lgamma(m + 1)
    for j in range(m):
        for arg in (1 + c + j * c, a + j * c, b + j * c):
            s, v = _signed_log_gamma(arg)
            sign *= s
            total += v
        for arg in (1 + c, a + b + (m + j - 1) * c):
            s, v = _signed_log_gamma(arg)
            sign *= s
            total -= v
    return sign, total


def selberg_closed(params: SelbergParams) -> float:
    """Log of the gamma-product closed form (positive-value range)."""
    sign, total = selberg_signed(params)
    if sign < 0:
        raise ValueError("closed-form value is negative; use selberg_signed")
    return total


@dataclass(frozen=True)
class SelbergDifferenceReport:
    params: SelbergParams
    lhs_log: float
    rhs_log: float
    error: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "a": self.params.a,
            "b": self.params.b,
            "c": self.params.c,
            "m": self.params.m,
            "lhs_log": self.lhs_log,
            "rhs_log": self.rhs_log,
            "error": self.error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def selberg_difference_check(
    params: SelbergParams, tol: float = 1e-10
) -> SelbergDifferenceReport:
    """First-parameter contiguous relation, compared in log scale."""
    a, b, c, m = params.a, params.b, params.c, params.m
    lhs = selberg_closed(SelbergParams(a + 1, b, c, m))
    ratio = 0.0
    for k in range(1, m + 1):
        num = a + c * (m - k)
        den = a + b + c * (2 * m - k - 1)
        if num <= 0 or den <= 0:
            raise PoleHit("contiguous factor outside the positive range")
        ratio += math.log(num) - math.log(den)
    rhs = selberg_closed(params) + ratio
    error = abs(lhs - rhs)
    return SelbergDifferenceReport(params, lhs, rhs, error, tol, error <= tol)


# ---------------------------------------------------------------------------
# Rank-one determinant-formula check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetFormulaReport:
    p: int
    m: int
    kappa: float
    lam: float
    z: float
    u11: float
    cd_product: float
    rel_error: float
    periodicity_error: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "kappa": self.kappa,
            "lambda": self.lam,
            "z": self.z,
            "u11": self.u11,
            "cd_product": self.cd_product,
            "rel_error": self.rel_error,
            "periodicity_error": self.periodicity_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _u11_sl2(p: int, m: int, kappa: float, lam: float, z: float) -> float:
    a = -(lam - 1 - (p - 2 * m) / 2.0) / kappa + 1.0
    b = -p / kappa
    c = 1.0 / kappa
    sign, log_value = selberg_signed(SelbergParams(a, b, c, m))
    return sign * math.exp(log_value) * z ** ((p - 2 * m) * lam / (2 * kappa))


def _d_factor_sl2(p: int, m: int, kappa: float, lam: float, z: float) -> float:
    space = enumerate_basis((lp_module(p),), (m,))
    ingredients = det_ingredients(space, (1, 2))
    assignment = {"l1": lam, _KAPPA: kappa}
    value = z ** evaluate_expr(ingredients.z_exponents[0], assignment)
    for mult, nums, dens in ingredients.gamma_ratio_args:
        block_sign, block_log = 1, 0.0
        for expr in nums:
            s, v = _signed_log_gamma(evaluate_expr(expr, assignment))
            block_sign *= s
            block_log += v
        for expr in dens:
            s, v = _signed_log_gamma(evaluate_expr(expr, assignment))
            block_sign *= s
            block_log -= v
        value *= (block_sign * math.exp(block_log)) ** mult
    return value


def _c_closed_sl2(p: int, m: int, kappa: float) -> float:
    sign, total = 1, -math.lgamma(m + 1)
    for j in range(m):
        for arg in (1 + (1 + j) / kappa, (j - p) / kappa):
            s, v = _signed_log_gamma(arg)
            sign *= s
            total += v
        s, v = _signed_log_gamma(1 + 1 / kappa)
        sign *= s
        total -= v
    return sign * math.exp(total)


def det_formula_sl2_check(
    p: int, m: int, kappa: float, lam: float, z: float, tol: float = 1e-9
) -> DetFormulaReport:
    """Determinant of the rank-one solution against its factored closed form.

    Verifies that the single matrix entry equals the parameter-periodic
    constant times the coordinate/gamma factor, and that the implied constant
    is indeed unchanged under a full parameter step.
    """
    if not (0 <= m <= p):
        raise ValueError("weight space is empty unless 0 <= m <= p")
    if z <= 0:
        raise ValueError("coordinate must be positive for real powers")
    u11 = _u11_sl2(p, m, kappa, lam, z)
    d_factor = _d_factor_sl2(p, m, kappa, lam, z)
    c_closed = _c_closed_sl2(p, m, kappa)
    cd = c_closed * d_factor
    rel_error = abs(u11 - cd) / max(abs(u11), abs(cd), 1e-300)

    c_implied = u11 / d_factor
    u11_shift = _u11_sl2(p, m, kappa, lam + kappa, z)
    d_shift = _d_factor_sl2(p, m, kappa, lam + kappa, z)
    c_shifted = u11_shift / d_shift
    periodicity_error = abs(c_implied - c_shifted) / max(
        abs(c_implied), abs(c_shifted), 1e-300
    )
    passed = rel_error <= tol and periodicity_error <= tol
    return DetFormulaReport(
        p, m, kappa, lam, z, u11, cd, rel_error, periodicity_error, tol, passed
    )


# ---------------------------------------------------------------------------
# The determinant-sl2 grid: (p, m, kappa, lambda, z)
# ---------------------------------------------------------------------------

DETERMINANT_GRID: tuple[tuple[int, int, float, float, float], ...] = (
    (3, 0, 2.0, 1.7, 0.8),
    (3, 1, 2.0, 1.7, 0.8),
    (4, 2, 3.3, 2.35, 1.1),
    (2, 1, 1.7, 0.9, 1.3),
    (5, 2, 2.6, 3.1, 0.6),
    (6, 3, 3.5, 2.9, 1.4),
)
