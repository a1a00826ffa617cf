"""Chamber quadrature (Gauss–Jacobi), the one scipy-backed layer.

Everything symbolic in this package is exact; this module supplies adaptive
nested Gauss–Jacobi quadrature over real ordered chambers, which the
``selberg`` suite compares with the gamma-product closed forms of
``kzdyn.closed_forms``.  Its nodes and weights are bit for bit those of
``scipy.special.roots_jacobi``.  For alpha != beta, ``_jacobi_rule`` repeats
that function's general branch without its per-call wrapping: the
Golub–Welsch eigenvalues of the Jacobi matrix from LAPACK ``dsbevd``, then
one Newton step through ``scipy.special.eval_jacobi``.  For alpha == beta
and for alpha + beta > 1000 it calls ``roots_jacobi`` itself.  scipy,
``scipy.linalg`` included, is imported with the module, so that callers
that loop over ``quad_chamber`` pay for the import once, outside their
loops.  The closed forms it is compared with are re-exported here.

The quadrature kernel runs on Python floats in the order of floating-point
operations of the numpy-scalar reference kernel that the tests keep, so its
estimates are bit for bit the same.  Level i of the nesting integrates t_i
against its Jacobi weight and evaluates the rest of its factors at the
nodes, as one tuple of ``(k, e)`` pairs, each ``(t_k - t_i) ** e``: the
non-adjacent pairs for k ascending, then ``bound - t_i`` as k = m + 1, since
the bound is kept as t_{m+1}.  The innermost level runs for every node of
every enclosing level, so it is a flat loop chosen once per rule by its
factor count, 0, 1 or 2, which are all the shapes m <= 3 allows.  It adds
``w * (A * B)`` where the reference multiplies A and B into ``g = 1.0`` in
turn and adds ``w * g``: the same IEEE operations in the same order.  The
kernel is not vectorized: numpy's array power may use SIMD code that
differs from libm ``pow`` in the last place, which would make the result
depend on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np
from scipy.linalg import lapack
from scipy.special import beta as beta_function
from scipy.special import eval_jacobi, roots_jacobi

from .closed_forms import SelbergParams, selberg_closed, selberg_difference_check

__all__ = [
    "NonIntegrable",
    "QuadratureNotConverged",
    "SelbergParams",
    "ChamberIntegral",
    "selberg_closed",
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
# Chamber quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    pair: Mapping[tuple[int, int], float] = field(default_factory=dict)
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


def _jacobi_rule(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """``roots_jacobi(n, alpha, beta)``, bit for bit, with less overhead.

    For alpha != beta and alpha + beta <= 1000 this is scipy's general
    branch (Golub and Welsch, Math. Comp. 23, 1969) in scipy's order of
    floating-point operations: the recurrence coefficients as Python floats
    grouped as scipy groups them (``t + 2`` is scipy's
    ``2.0 * k + a + b + 2``, never ``2.0 * k + (a + b) + 2``; ``math.sqrt``
    rounds correctly, as numpy's ``sqrt`` does), the eigenvalues of the
    symmetric tridiagonal Jacobi matrix, one Newton step, and the
    log-normalized weights with numpy's array ``log``, ``exp`` and ``sum``.
    Every other case, scipy's symmetric branch, its overflow branch and its
    argument errors, is ``roots_jacobi`` itself.
    """
    a, b = alpha, beta
    if a == b or a + b > 1000 or not (a > -1 and b > -1):
        return roots_jacobi(n, a, b)
    mu0 = 2.0 ** (a + b + 1) * beta_function(a + 1, b + 1)
    # the upper band of the Jacobi matrix: the off-diagonal, whose first
    # entry is unused, above the diagonal
    upper, diag = [0.0], [(b - a) / (2 + a + b)]
    for i in range(1, n):
        k = float(i)
        t = 2.0 * k + a + b
        ka = k + a
        diag.append(0.0 if a + b == 0.0 else (b * b - a * a) / (t * (t + 2)))
        u = 2.0 / t * math.sqrt(ka * (k + b) / (t + 1))
        # scipy multiplies the first entry by 1.0, which is exact
        upper.append(u if i == 1 else u * math.sqrt(k * (ka + b) / (t - 1)))
    x, _, info = lapack.dsbevd(np.array([upper, diag]), compute_v=0, lower=0, overwrite_ab=1)
    if info:
        raise ArithmeticError(f"the Jacobi matrix eigenvalues did not converge (info {info})")
    y = eval_jacobi(n, a, b, x)
    dy = 0.5 * (n + a + b + 1) * eval_jacobi(n - 1, a + 1, b + 1, x)
    x -= y / dy
    fm = eval_jacobi(n - 1, a, b, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= mu0 / w.sum()
    return x, w


def _nested_gauss_jacobi(ci: ChamberIntegral, n_nodes: int) -> float:
    m = ci.m
    if m > 3:
        raise ValueError("chamber quadrature is limited to three variables")
    if m == 0:
        return 1.0
    bound = ci.bound
    rules = {}
    # tables[i]: nodes and weights of level i as Python floats, its evaluated
    # factors (k, e) and its scale 0.5 ** (alpha + beta + 1)
    tables = [None] * (m + 1)
    carry = 0.0
    for i in range(1, m + 1):
        alpha = ci.pair.get((i, i + 1), 0.0) if i < m else ci.pow1[m - 1]
        beta = ci.pow0[i - 1] + carry
        if (alpha, beta) not in rules:
            x, w = _jacobi_rule(n_nodes, alpha, beta)
            rules[alpha, beta] = (((x + 1.0) / 2.0).tolist(), w.tolist())
        factors = [(k, ci.pair[i, k]) for k in range(i + 2, m + 1) if ci.pair.get((i, k), 0.0)]
        if i < m and ci.pow1[i - 1]:
            factors.append((m + 1, ci.pow1[i - 1]))
        tables[i] = (*rules[alpha, beta], tuple(factors), 0.5 ** (alpha + beta + 1.0))
        if i < m:
            # summed left to right: ``carry += ...`` would round differently
            carry = carry + ci.pow0[i - 1] + ci.pair.get((i, i + 1), 0.0) + 1.0
    top = ci.pow1[m - 1] + ci.pow0[m - 1] + carry + 1.0
    # t[k] is the current node of every enclosing level k; t[m + 1] = bound
    t = [0.0] * (m + 2)
    t[m + 1] = bound

    # Every level returns the smooth part only: the accumulated power of its
    # upper limit is absorbed into the next level's quadrature weight.  The
    # innermost level has one loop per factor count; w * 1.0 and 1.0 * A are
    # exact, so each loop rounds as the reference's g = 1.0; g *= ... does.
    nodes, weights, factors, scale = tables[1]
    if not factors:
        # no factor depends on the enclosing nodes: sum the weights once
        total = 0.0
        for w in weights:
            total += w
        smooth = scale * total

        def innermost() -> float:
            return smooth

    elif len(factors) == 1:
        ((k, e),) = factors

        def innermost() -> float:
            upper, b = t[2], t[k]
            total = 0.0
            for s, w in zip(nodes, weights):
                total += w * (b - upper * s) ** e
            return scale * total

    else:
        (k1, e1), (k2, e2) = factors

        def innermost() -> float:
            upper, b1, b2 = t[2], t[k1], t[k2]
            total = 0.0
            for s, w in zip(nodes, weights):
                t_1 = upper * s
                total += w * ((b1 - t_1) ** e1 * (b2 - t_1) ** e2)
            return scale * total

    def level(i: int) -> float:
        nodes, weights, factors, scale = tables[i]
        upper = t[i + 1]
        total = 0.0
        for s, w in zip(nodes, weights):
            t_i = upper * s
            g = 1.0
            for k, e in factors:
                g *= (t[k] - t_i) ** e
            t[i] = t_i
            g *= level(i - 1) if i > 2 else innermost()
            total += w * g
        return scale * total

    return float(bound ** top * (level(m) if m > 1 else innermost()))


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

    Raises ``NonIntegrable`` when some cluster of variables colliding at the
    origin, at the bound or with itself makes the integral diverge.  The
    result is bit for bit that of the reference kernel kept in the tests.
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
