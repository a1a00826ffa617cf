"""Chamber quadrature (Gauss–Jacobi) and the float Selberg closed forms, the
one float layer; it needs numpy and nothing else outside the standard library.

Everything symbolic in this package is exact; this module supplies adaptive
nested Gauss–Jacobi quadrature over real ordered chambers, and the
gamma-product closed form of the ordered beta integral in floats
(``math.lgamma`` with sign tracking), with its contiguous relation in the
first parameter.  The ``selberg`` suite compares the two; ``kzdyn.cli``
holds the same closed form exactly, for the rank-one suites.  The
quadrature's nodes and weights come from ``_jacobi_rule``, the Golub–Welsch
rule on numpy's LAPACK: one ``numpy.linalg.eigh`` of the Jacobi matrix
(``dsyevd``) gives the nodes and, from the first eigenvector components,
the weights.  ``dsyevd`` solves the tridiagonal problem with ``dstedc``,
which for n <= 25 runs the implicit QL/QR iteration and above that divides
and conquers, merging through BLAS matrix products: the last bits of a rule
with more than 25 nodes may depend on the BLAS build.  The default grids of
the ``selberg`` suite stop at n <= 24.  numpy is imported with the module,
so that callers that loop over ``quad_chamber`` pay for the import once,
outside their loops.  Of kzdyn, the module imports only ``_record``:
``log_gamma`` and ``selberg_difference_check`` import ``symexpr.PoleHit``
in the one branch that raises it, at a gamma pole or a non-positive
contiguous factor, so that a float run does not compile the exact algebra
for an exception it never raises.

The quadrature kernel runs on Python floats in the order of floating-point
operations of the numpy-scalar reference kernel that the tests keep, so its
estimates are bit for bit the same.  Level i of the nesting integrates t_i
against its Jacobi weight and evaluates the rest of its factors at the
nodes.  The kernel is one explicit loop nest per dimension: m = 1 sums the
weights, m = 2 runs two loops and m = 3 three, over node and weight pairs
zipped once per rule.  The nests write out every factor that m <= 3 allows:
``(t_3 - t_1) ** pair(1, 3)`` and ``(bound - t_1) ** pow1[0]`` at level 1,
and ``(bound - t_2) ** pow1[1]`` at level 2.  The reference skips a factor
whose exponent is zero; the nests evaluate it, which changes no bit, since
``x ** 0.0`` is exactly 1.0 (``-0.0`` included) and ``1.0 * y == y``.
Level 1 adds ``w * (P * B)`` where the reference multiplies P and B into
``g = 1.0`` in turn and adds ``w * g``: the same IEEE operations in the
same order.  The kernel is not vectorized: numpy's array power may use SIMD
code that differs from libm ``pow`` in the last place, which would make the
result depend on the CPU.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ._record import record

__all__ = [
    "NonIntegrable",
    "QuadratureNotConverged",
    "SelbergParams",
    "ChamberIntegral",
    "log_gamma",
    "selberg_signed",
    "selberg_closed",
    "SelbergDifferenceReport",
    "selberg_difference_check",
    "quad_chamber",
    "SELBERG_GRID",
    "QUADRATURE_GRID",
]


class NonIntegrable(ValueError):
    """A chamber integral diverges where some of its variables collide."""


class QuadratureNotConverged(ArithmeticError):
    """Successive quadrature estimates never agreed within the tolerance.

    The suites request tolerances that the quadrature ladder meets, so the
    command line treats this as an internal error (exit status 3).
    """

    def __init__(self, tol: float, difference: float):
        super().__init__(
            f"quadrature did not reach the requested tolerance {tol!r}; "
            f"the last two estimates differ by {difference!r}"
        )
        self.tol = tol
        self.difference = difference


# ---------------------------------------------------------------------------
# Gamma plumbing
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """Natural log of the gamma function for positive arguments.

    For negative non-integer arguments returns the log of the absolute
    value (pair with the sign from the reflection parity when needed).
    """
    if x <= 0 and x == math.floor(x):
        from .symexpr import PoleHit  # see the module docstring

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

@record
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


@record
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
            from .symexpr import PoleHit  # see the module docstring

            raise PoleHit("contiguous factor outside the positive range")
        ratio += math.log(num) - math.log(den)
    rhs = selberg_closed(params) + ratio
    error = abs(lhs - rhs)
    return SelbergDifferenceReport(params, lhs, rhs, error, tol, error <= tol)


# ---------------------------------------------------------------------------
# Chamber quadrature
# ---------------------------------------------------------------------------

@record
class ChamberIntegral:
    """Integral of a factored power product over an ordered simplex.

    The chamber is ``0 <= t_1 < ... < t_m <= bound``; the integrand is
    ``prod t_i^{pow0_i} (bound - t_i)^{pow1_i} prod_{i<j} (t_j - t_i)^{pair}``.
    Every factor is positive in the chamber interior, so the integrand is
    single-valued and positive there.
    """

    m: int
    pow0: tuple[float, ...]
    pow1: tuple[float, ...]
    pair: Mapping[tuple[int, int], float] = MappingProxyType({})
    bound: float = 1.0

    def __post_init__(self):
        if len(self.pow0) != self.m or len(self.pow1) != self.m:
            raise ValueError("need one endpoint exponent pair per variable")
        if self.bound <= 0:
            raise ValueError("chamber bound must be positive")
        for (i, j) in self.pair:
            if not (1 <= i < j <= self.m):
                raise ValueError(f"invalid variable pair {(i, j)}")

    @staticmethod
    def from_selberg(params: SelbergParams) -> "ChamberIntegral":
        a, b, c, m = params.a, params.b, params.c, params.m
        if a <= 0 or b <= 0 or (m > 1 and c <= -1.0 / m):
            raise NonIntegrable("parameters outside the integrability region")
        pair = {(i, j): 2 * c for i in range(1, m + 1) for j in range(i + 1, m + 1)}
        return ChamberIntegral(m, (a - 1,) * m, (b - 1,) * m, pair)


# node counts tried in turn by quad_chamber, by chamber dimension
_NODE_LADDERS: dict[int, tuple[int, ...]] = {
    1: (16, 24, 32, 48, 64, 96),
    2: (16, 24, 32, 48, 64, 96),
    3: (12, 18, 26, 38),
}


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(x: float) -> float:
    """``lgamma(x)`` less Stirling's ``(x - 1/2) log x - x + log(2 pi) / 2``."""
    if x < 25.0:
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + _HALF_LOG_2PI)
    # the series' first omitted term, 1 / (1188 x**9), is below 2.3e-16 here
    x2 = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x2)) / x2) / x2) / x


def _jacobi_mass(a: float, b: float) -> float:
    """``2**(a + b + 1) * B(a + 1, b + 1)``, the integral of the Jacobi weight.

    With p = a + 1, q = b + 1 and s = p + q, Stirling's main parts of
    ``lgamma`` combine into ``p log(2p/s) + q log(2q/s)``, whose two terms
    ``log1p`` takes without cancellation, so the mass keeps its relative
    accuracy where the three ``lgamma`` values, each near s log s, would
    lose theirs (about 1e-12 at alpha, beta = 600, 400).
    """
    p, q = a + 1.0, b + 1.0
    s = p + q
    d = (p - q) / s
    return math.exp(
        p * math.log1p(d)
        + q * math.log1p(-d)
        + 0.5 * math.log(s / (p * q))
        + _HALF_LOG_2PI
        - math.log(2.0)
        + _stirling_tail(p)
        + _stirling_tail(q)
        - _stirling_tail(s)
    )


def _jacobi_rule(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss–Jacobi rule for ``(1 - x)**alpha (1 + x)**beta`` on [-1, 1].

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric tridiagonal Jacobi matrix of the three-term recurrence,
    and the weights are the mass of the weight function times the squared
    first components of the normalized eigenvectors.  Both come from one
    ``numpy.linalg.eigh`` on the matrix's lower triangle, LAPACK ``dsyevd``;
    its Householder reduction leaves a tridiagonal matrix as it is.  The
    recurrence coefficients are those of ``scipy.special.roots_jacobi``,
    which the tests keep as a cross-check.
    """
    a, b = alpha, beta
    if not (a > -1 and b > -1):
        raise ValueError(f"Jacobi exponents must exceed -1, not {a!r} and {b!r}")
    diag, off = [(b - a) / (2 + a + b)], []
    for i in range(1, n):
        k = float(i)
        t = 2.0 * k + a + b
        ka = k + a
        diag.append(0.0 if a + b == 0.0 else (b * b - a * a) / (t * (t + 2)))
        u = 2.0 / t * math.sqrt(ka * (k + b) / (t + 1))
        off.append(u if i == 1 else u * math.sqrt(k * (ka + b) / (t - 1)))
    # the lower triangle, which is all that eigh reads with UPLO="L"
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[n :: n + 1] = off
    try:
        x, v = np.linalg.eigh(jacobi, UPLO="L")
    except np.linalg.LinAlgError as exc:
        # a ValueError, which the command line would report as a bad flag
        raise ArithmeticError(f"the Jacobi matrix eigenvalues did not converge: {exc}") from None
    return x, _jacobi_mass(a, b) * v[0] ** 2


def _nested_gauss_jacobi(ci: ChamberIntegral, n_nodes: int) -> float:
    m = ci.m
    if m > 3:
        raise ValueError("chamber quadrature is limited to three variables")
    if m == 0:
        return 1.0
    bound = ci.bound
    rules = {}
    # levels[i - 1]: the (node, weight) pairs of level i as Python floats
    # and its scale 0.5 ** (alpha + beta + 1)
    levels = []
    carry = 0.0
    for i in range(1, m + 1):
        alpha = ci.pair.get((i, i + 1), 0.0) if i < m else ci.pow1[m - 1]
        beta = ci.pow0[i - 1] + carry
        if (alpha, beta) not in rules:
            x, w = _jacobi_rule(n_nodes, alpha, beta)
            rules[alpha, beta] = list(zip(((x + 1.0) / 2.0).tolist(), w.tolist()))
        levels.append((rules[alpha, beta], 0.5 ** (alpha + beta + 1.0)))
        if i < m:
            # summed left to right: ``carry += ...`` would round differently
            carry = carry + ci.pow0[i - 1] + ci.pair.get((i, i + 1), 0.0) + 1.0
    top = ci.pow1[m - 1] + ci.pow0[m - 1] + carry + 1.0

    # Every level sums the smooth part only: the accumulated power of its
    # upper limit is absorbed into the next level's quadrature weight.  An
    # absent factor has exponent 0 and evaluates to exactly 1.0.
    (rule1, scale1), *outer = levels
    if m == 1:
        total1 = 0.0
        for _, w1 in rule1:
            total1 += w1
        return bound ** top * (scale1 * total1)
    e1 = ci.pow1[0]
    if m == 2:
        ((rule2, scale2),) = outer
        total2 = 0.0
        for s2, w2 in rule2:
            t_2 = bound * s2
            total1 = 0.0
            for s1, w1 in rule1:
                total1 += w1 * (bound - t_2 * s1) ** e1
            total2 += w2 * (scale1 * total1)
        return bound ** top * (scale2 * total2)
    (rule2, scale2), (rule3, scale3) = outer
    e13, e2 = ci.pair.get((1, 3), 0.0), ci.pow1[1]
    total3 = 0.0
    for s3, w3 in rule3:
        t_3 = bound * s3
        total2 = 0.0
        for s2, w2 in rule2:
            t_2 = t_3 * s2
            total1 = 0.0
            for s1, w1 in rule1:
                t_1 = t_2 * s1
                total1 += w1 * ((t_3 - t_1) ** e13 * (bound - t_1) ** e1)
            total2 += w2 * ((bound - t_2) ** e2 * (scale1 * total1))
        total3 += w3 * (scale2 * total2)
    return bound ** top * (scale3 * total3)


def _divergent_collision(ci: ChamberIntegral) -> Optional[str]:
    """Describe a collision of the chamber whose integral diverges, if any.

    A cluster t_i = ... = t_j of k = j - i + 1 variables shrinking at rate r
    scales the integrand by r**D, where D sums the exponents of the factors
    that vanish there, and the volume by r**k at the origin or at the bound
    and by r**(k - 1) for a cluster colliding away from both.
    """
    m = ci.m
    for i in range(1, m + 1):
        inside = 0.0
        at_origin = 0.0
        for j in range(i, m + 1):
            for a in range(i, j):
                inside += ci.pair.get((a, j), 0.0)
            k = j - i + 1
            if k > 1 and inside + k - 1 <= 0:
                return f"t_{i}..t_{j} collide with total power {inside}"
            if i == 1:
                at_origin += ci.pow0[j - 1]
                if at_origin + inside + k <= 0:
                    return f"t_1..t_{j} -> 0 with total power {at_origin + inside}"
        at_bound = sum(ci.pow1[i - 1 :])
        if at_bound + inside + (m - i + 1) <= 0:
            return f"t_{i}..t_{m} -> bound with total power {at_bound + inside}"
    return None


def quad_chamber(ci: ChamberIntegral, tol: float) -> float:
    """Adaptive nested Gauss–Jacobi estimate of a chamber integral.

    The endpoint exponents, of every ``t_i`` and of ``bound - t_m``, and the
    adjacent-coincidence exponents of ``t_{i+1} - t_i`` are absorbed into the
    Gauss–Jacobi weights level by level.  The non-adjacent pair factors and
    ``(bound - t_i)`` for ``i < m`` are only evaluated at the nodes, so the
    estimates are never exact for them and ``tol = 0`` cannot be met.  The
    node count is raised until two successive estimates agree within the
    tolerance.

    That agreement bounds the step, not the error.  On Selberg chambers with
    m = 3, a, b in [1, 3] and c in [0.25, 1], ``tol = 1e-8`` stops at 18
    nodes, where successive estimates differ by at most about 5e-9, yet the
    estimate differs from the closed form by up to 5.4e-7 relative (at
    a = 3, b = 1.105, c = 0.25).  At m = 1 and 2 it is within 3.1e-8.

    Raises ``NonIntegrable`` when some cluster of variables colliding at the
    origin, at the bound or with itself makes the integral diverge.  The
    result is bit for bit that of the reference kernel kept in the tests.

    Level 3's weight does not absorb the non-adjacent ``(t_3 - t_1)^pair``,
    so a large positive pair exponent can leave that level's Jacobi exponent
    at or below -1 in a convergent chamber, which then raises ``ValueError``:
    ``pow0 = (0, 0, -3.5)`` with ``pair = {(1, 3): 5}`` scales as r^4.5 as
    t_1..t_3 -> 0, yet is refused.
    """
    if ci.m > 3:
        raise ValueError("chamber quadrature is limited to three variables")
    reason = _divergent_collision(ci)
    if reason is not None:
        raise NonIntegrable(f"divergent chamber: {reason}")
    if ci.m == 0:
        return 1.0
    previous = None
    difference = math.inf
    for n_nodes in _NODE_LADDERS[ci.m]:
        value = _nested_gauss_jacobi(ci, n_nodes)
        if previous is not None:
            difference = abs(value - previous)
            if difference <= tol * max(1.0, abs(value)):
                return value
        previous = value
    raise QuadratureNotConverged(tol, difference)


# ---------------------------------------------------------------------------
# Default verification grids
# ---------------------------------------------------------------------------

SELBERG_GRID: tuple[tuple[int, float, float, float], ...] = (
    (1, 1.0, 1.0, 0.5),
    (1, 2.0, 3.0, 0.7),
    (1, 1.3, 0.7, 0.4),
    (2, 1.3, 0.7, 0.4),
    (2, 2.0, 2.0, 1.0),
    (2, 1.8, 2.2, 0.6),
    (3, 2.1, 1.1, 0.35),
    (3, 2.5, 2.5, 0.5),
    (4, 1.6, 2.4, 0.45),
    (4, 3.0, 1.2, 0.25),
)

QUADRATURE_GRID: tuple[tuple[int, float, float, float], ...] = (
    (1, 1.5, 2.5, 0.3),
    (1, 2.0, 2.0, 1.0),
    (1, 2.5, 1.5, 0.5),
    (1, 1.2, 3.0, 0.7),
    (1, 3.0, 1.1, 0.4),
    (2, 2.0, 2.0, 1.0),
    (2, 1.8, 2.2, 0.6),
    (2, 2.5, 2.5, 0.5),
    (2, 3.0, 2.0, 0.75),
    (2, 2.2, 1.6, 0.9),
)
