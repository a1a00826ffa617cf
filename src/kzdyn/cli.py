"""Verification harness and command-line entry point.

The `kzdyn` command runs named verification suites over the exact symbolic
layers and the numeric closed-form instances, and dumps deterministic
serializations of the core artifacts (orders, reversal schedules, operators,
the fusion element, weighted-function vectors, grounded-string forests).

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

Setting the environment variable ``KZDYN_CACHE`` to a directory memoizes
dump artifacts on disk, keyed by a digest of the kind, the parameters, the
package version and the report schema version.  Each artifact is written to a
temporary file and renamed into place, so a reader never sees a partial one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
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
    lambda_pairing_symbols,
    q_dagger_apply,
    shifted_pairings,
)
from .hyper import forest_of_index, phi_vector, verify_order_invariance
from .rep import (
    PBWVector,
    enumerate_basis,
    lp_module,
    p_elements,
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
from .uea import Straightener, standard_basis

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

SUITES = (
    "pbw-invariance",
    "additive-form",
    "fusion",
    "compatibility",
    "appendix-b",
    "appendix-c",
    "selberg",
    "main-theorem-sl2",
    "determinant-sl2",
    "sigma-orders",
)

DUMP_KINDS = ("order", "sigma", "operator", "fusion", "phi-vector", "forest")


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
    """Validated parameters of one suite run."""

    suite: str
    n: Optional[int] = None
    nu: Optional[tuple[int, ...]] = None
    factors: Optional[tuple[str, ...]] = None
    depth: Optional[int] = None
    tol: Optional[float] = None
    max_ab: int = 2
    grid: str = "default"
    out: Optional[str] = None

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise UnknownSuite(
                f"unknown suite {self.suite!r}; choose one of {', '.join(SUITES)}"
            )
        if self.grid != "default":
            raise CapabilityExceeded(f"unknown parameter grid {self.grid!r}")
        if self.tol is not None and self.tol < 1e-14:
            raise CapabilityExceeded("tolerances below 1e-14 are not resolvable")
        caps = _CAPS[self.suite]
        if self.n is not None and not (caps.n_min <= self.n <= caps.n_max):
            raise CapabilityExceeded(
                f"suite {self.suite} supports {caps.n_min} <= n <= {caps.n_max}"
            )
        n = self.n if self.n is not None else caps.n_default
        if self.nu is not None:
            if len(self.nu) != n - 1:
                raise CapabilityExceeded(
                    f"nu must list {n - 1} simple-root multiplicities for n={n}"
                )
            if any(m < 0 for m in self.nu):
                raise CapabilityExceeded("nu entries must be non-negative")
            if sum(self.nu) > caps.nu_sum_max or sum(self.nu) == 0:
                raise CapabilityExceeded(
                    f"suite {self.suite} supports 1 <= sum(nu) <= {caps.nu_sum_max}"
                )
        if self.factors is not None:
            if not (1 <= len(self.factors) <= caps.factors_max):
                raise CapabilityExceeded(
                    f"suite {self.suite} supports at most {caps.factors_max} factors"
                )
            for item in self.factors:
                if item == "verma":
                    continue
                if item.startswith("lp:"):
                    try:
                        p = int(item[3:])
                    except ValueError as exc:
                        raise CapabilityExceeded(
                            f"malformed factor spec {item!r}"
                        ) from exc
                    if p < 0:
                        raise CapabilityExceeded("lp:P needs a non-negative P")
                    if n != 2:
                        raise CapabilityExceeded(
                            "finite-dimensional lp factors require n=2"
                        )
                    continue
                raise CapabilityExceeded(
                    f"factor spec {item!r} must be 'verma' or 'lp:P'"
                )
        if self.depth is not None and not (1 <= self.depth <= caps.depth_max):
            raise CapabilityExceeded(
                f"suite {self.suite} supports 1 <= depth <= {caps.depth_max}"
            )
        if not (0 <= self.max_ab <= 3):
            raise CapabilityExceeded("max-ab is limited to 3")


@dataclass(frozen=True)
class _Caps:
    n_min: int = 2
    n_max: int = 3
    n_default: int = 2
    nu_sum_max: int = 4
    factors_max: int = 3
    depth_max: int = 5


_CAPS: dict[str, _Caps] = {
    "pbw-invariance": _Caps(n_max=4, n_default=3, nu_sum_max=6),
    "additive-form": _Caps(nu_sum_max=4),
    "fusion": _Caps(nu_sum_max=4, depth_max=5),
    "compatibility": _Caps(nu_sum_max=3),
    "appendix-b": _Caps(nu_sum_max=3, factors_max=4),
    "appendix-c": _Caps(n_min=3, n_max=3, n_default=3),
    "selberg": _Caps(),
    "main-theorem-sl2": _Caps(),
    "determinant-sl2": _Caps(),
    "sigma-orders": _Caps(n_max=8, n_default=6),
}


def _resolve_space_params(
    cfg: SuiteConfig,
    *,
    n_default: int,
    nu_default: Callable[[int], tuple[int, ...]],
    factors_default: Callable[[int], tuple[str, ...]],
):
    n = cfg.n if cfg.n is not None else n_default
    nu = cfg.nu if cfg.nu is not None else nu_default(n)
    factors = cfg.factors if cfg.factors is not None else factors_default(n)
    return n, nu, factors


def _build_factors(n: int, specs: Sequence[str]):
    out = []
    for i, item in enumerate(specs):
        if item == "verma":
            out.append(verma_symbolic(n, i + 1))
        else:
            out.append(lp_module(int(item[3:])))
    return out


def _build_space(n: int, nu: Sequence[int], specs: Sequence[str]):
    return enumerate_basis(_build_factors(n, specs), tuple(nu))


# ---------------------------------------------------------------------------
# Shared symbolic helpers
# ---------------------------------------------------------------------------

def _columns_agree(space, f, g) -> bool:
    for col in range(space.dim):
        v = PBWVector.basis_vector(space, col)
        if not (f(v) - g(v)).is_zero():
            return False
    return True


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


def _raw_lower_to_signed(engine, basis, letters):
    state = engine.apply_word(tuple(letters), {basis.zero_exps(): RF_ONE})
    return {
        e: c * rational(basis.signed_factor(e))
        for e, c in state.items()
        if not c.is_zero()
    }


def _exps_coords(basis, exps) -> tuple[int, ...]:
    coords = [0] * (basis.n_rank - 1)
    for (k, l), e in zip(basis.order, exps):
        if e:
            for i in range(k, l):
                coords[i - 1] += e
    return tuple(coords)


def _signed_letter_mult(engine, basis, letter, exps):
    # the straightener expands over plain divided monomials; convert to the
    # signed convention the fusion components are stored in
    raw = engine.apply_letter(letter, exps)
    s = basis.signed_factor(exps)
    return {
        e2: c * rational(Fraction(s, basis.signed_factor(e2)))
        for e2, c in raw.items()
    }


def _fusion_residual_ok(fus: FusionElement) -> bool:
    """Plug the solved components back into the defining recurrence."""
    basis = standard_basis(fus.n_rank)
    engine = Straightener(basis)
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
                left = _signed_letter_mult(engine, basis, letter, lo)
                right = _signed_letter_mult(engine, basis, letter, hi)
                for lo2, c_lo in left.items():
                    for hi2, c_hi in right.items():
                        key = (lo2, hi2)
                        residual[key] = (
                            residual.get(key, RF_ZERO) - psi * c_lo * c_hi
                        )
        if any(not v.is_zero() for v in residual.values()):
            return False
    return True


def _weight_list(n: int, depth: int, entry_cap: int = 2) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == n - 1:
            if 0 < sum(prefix) <= depth:
                out.append(prefix)
            return
        for v in range(min(entry_cap, depth) + 1):
            rec(prefix + (v,))

    rec(())
    if n == 2:
        out = [(k,) for k in range(1, depth + 1)]
    return sorted(out, key=lambda mu: (sum(mu), mu))


# ---------------------------------------------------------------------------
# Suite implementations
# ---------------------------------------------------------------------------

def _suite_pbw_invariance(cfg: SuiteConfig):
    n, nu, specs = _resolve_space_params(
        cfg,
        n_default=3,
        nu_default=lambda n: (1,) * (n - 1),
        factors_default=lambda n: ("verma",),
    )
    space = _build_space(n, nu, specs)
    witnesses, seconds = [], []
    all_sym, all_raw = True, True
    for h in range(1, n):
        report = verify_order_invariance(space, h)
        data = report.to_json()
        seconds.append(data.pop("seconds", None))
        witnesses.append(data)
        all_sym = all_sym and report.symmetrized_equal
        all_raw = all_raw and report.raw_equal
    if not all_sym:
        verdict = "fail"
        warnings = []
    elif not all_raw:
        verdict = "flagged"
        warnings = [
            "symmetrized equality holds but the canonical variable copies "
            "disagree before averaging on some level; this bears on the open "
            "question of whether copy-averaging is required"
        ]
    else:
        verdict = "pass"
        warnings = []
    params = {"n": n, "nu": list(nu), "factors": list(specs)}
    return params, verdict, witnesses, warnings, {"per_level_seconds": seconds}


def _suite_additive_form(cfg: SuiteConfig):
    n, nu, specs = _resolve_space_params(
        cfg,
        n_default=2,
        nu_default=lambda n: (2,) if n == 2 else (1,) * (n - 1),
        factors_default=lambda n: ("verma", "verma"),
    )
    space = _build_space(n, nu, specs)
    lam = lambda_pairing_symbols(n)
    arg = shifted_pairings(space, lam, rho_steps=1, nu_halves=1)
    witnesses = []
    ok = True
    for r in range(1, n):
        add = B_additive(space, r, lam)
        prod = B_w(space, omega_bracket(n, r)[1], arg)
        equal = add.op == prod.op
        ok = ok and equal
        witnesses.append({"r": r, "equal": equal, "dim": space.dim})
    params = {"n": n, "nu": list(nu), "factors": list(specs)}
    return params, "pass" if ok else "fail", witnesses, [], {}


def _suite_fusion(cfg: SuiteConfig):
    n = cfg.n if cfg.n is not None else 2
    depth = cfg.depth if cfg.depth is not None else 4
    nu = cfg.nu if cfg.nu is not None else ((2,) if n == 2 else (1,) * (n - 1))
    specs = cfg.factors if cfg.factors is not None else ("verma", "verma")
    fus = fusion_solve(n, depth)
    witnesses = []
    ok = True

    try:
        fus.validate()
        structure_ok = True
    except AssertionError:
        structure_ok = False
    residual_ok = _fusion_residual_ok(fus)
    witnesses.append(
        {
            "check": "defining-recurrence",
            "depth": depth,
            "structure_ok": structure_ok,
            "residual_zero": residual_ok,
        }
    )
    ok = ok and structure_ok and residual_ok

    lam = lambda_pairing_symbols(n)
    basis = standard_basis(n)
    aux_factor = verma_weight(n, weight_from_pairings(n, lam))
    for mu in _weight_list(n, depth):
        aux = enumerate_basis([aux_factor], mu, basis)
        pmap = p_elements(aux)
        expected = {}
        for index in aux.basis:
            for upper, c in pmap[index].terms.items():
                if not c.is_zero():
                    expected[(index[0], upper)] = c
        equal = dict(fus.component(mu)) == expected
        ok = ok and equal
        witnesses.append(
            {"check": "dual-element-match", "mu": list(mu), "equal": equal}
        )

    space = _build_space(n, nu, specs)
    arg = shifted_pairings(space, lam, rho_steps=1, nu_halves=-1)
    bw0 = B_w(space, longest_element(n), arg)
    need = sum(nu)
    fus_q = fus if depth >= need else fusion_solve(n, need)
    equal = _columns_agree(
        space, bw0.op.apply, lambda v: q_dagger_apply(space, lam, v, fus_q)
    )
    ok = ok and equal
    witnesses.append(
        {
            "check": "contraction-vs-longest-word",
            "nu": list(nu),
            "factors": list(specs),
            "equal": equal,
        }
    )

    params = {"n": n, "depth": depth, "nu": list(nu), "factors": list(specs)}
    return params, "pass" if ok else "fail", witnesses, [], {}


def _suite_compatibility(cfg: SuiteConfig):
    n, nu, specs = _resolve_space_params(
        cfg,
        n_default=2,
        nu_default=lambda n: (1,) if n == 2 else (1,) * (n - 1),
        factors_default=lambda n: ("verma", "verma"),
    )
    space = _build_space(n, nu, specs)
    witnesses = []
    ok = True
    for k in range(1, n):
        for l in range(k, n):
            report = check_K_exchange(space, k, l)
            ok = ok and report.passed
            data = report.to_json()
            data.update({"check": "exchange", "k": k, "l": l})
            witnesses.append(data)
    for j in range(1, len(specs) + 1):
        for k in range(1, n):
            report = check_nabla_K(space, j, k)
            ok = ok and report.passed
            data = report.to_json()
            data.update({"check": "derivative-intertwining", "j": j, "k": k})
            witnesses.append(data)
    params = {"n": n, "nu": list(nu), "factors": list(specs)}
    return params, "pass" if ok else "fail", witnesses, [], {}


def _suite_appendix_b(cfg: SuiteConfig):
    n, nu, specs = _resolve_space_params(
        cfg,
        n_default=2,
        nu_default=lambda n: (1,) if n == 2 else (1,) * (n - 1),
        factors_default=lambda n: ("verma", "verma", "verma"),
    )
    if len(specs) < 2:
        raise CapabilityExceeded("the reduction identity needs at least 2 factors")
    space = _build_space(n, nu, specs)
    witnesses = []
    ok = True
    for i in range(1, len(specs)):
        report = check_rational_to_trig(space, i)
        ok = ok and report.passed
        data = report.to_json()
        data.update({"position": i})
        witnesses.append(data)
    params = {"n": n, "nu": list(nu), "factors": list(specs)}
    return params, "pass" if ok else "fail", witnesses, [], {}


def _suite_appendix_c(cfg: SuiteConfig):
    max_ab = cfg.max_ab
    depth = max(2 * max_ab, 1)
    l1, l2 = lambda_pairing_symbols(3)
    basis = standard_basis(3)
    engine = Straightener(basis)
    fus = fusion_solve(3, depth)
    witnesses = []
    ok = True

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
                    lower = _raw_lower_to_signed(
                        engine,
                        basis,
                        [("e", 2, 1)] * (a - k)
                        + [("e", 3, 1)] * k
                        + [("e", 3, 2)] * (b - k),
                    )
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
            ok = ok and equal
            witnesses.append(
                {"check": "fusion-double-sum", "a": a, "b": b, "equal": equal}
            )

    lamw = weight_from_pairings(3, (l1, l2))
    for a in range(1, max_ab + 1):
        for b in range(1, max_ab + 1):
            aux = enumerate_basis([verma_weight(3, lamw)], (a, b), basis)
            pmap = p_elements(aux)
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
                    right = _raw_lower_to_signed(
                        engine,
                        basis,
                        [("e", 2, 1)] * (a - k)
                        + [("e", 3, 1)] * k
                        + [("e", 3, 2)] * (b - k),
                    )
                    for J, cJ in right.items():
                        key = (I0, J)
                        expected[key] = (
                            expected.get(key, RF_ZERO) + coeff * cleft * cJ
                        )
            expected = {kk: v for kk, v in expected.items() if not v.is_zero()}
            got = {}
            for index in aux.basis:
                for J, c in pmap[index].terms.items():
                    if not c.is_zero():
                        got[(index[0], J)] = c
            equal = got == expected
            ok = ok and equal
            witnesses.append(
                {"check": "inverse-form-double-sum", "a": a, "b": b, "equal": equal}
            )

    params = {"n": 3, "max_ab": max_ab, "depth": depth}
    return params, "pass" if ok else "fail", witnesses, [], {}


# The three numeric suites import `numeric` when they run, so that scipy is
# loaded only by them.  Its functions are looked up on the module at each
# call, where a tracer or a test may have replaced them.

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


def _suite_selberg(cfg: SuiteConfig):
    from . import numeric

    tol = cfg.tol if cfg.tol is not None else 1e-10
    quad_tol = 1e-6
    witnesses = []
    for m, a, b, c in numeric.SELBERG_GRID:
        data = numeric.selberg_difference_check(
            numeric.SelbergParams(a, b, c, m), tol
        ).to_json()
        data["check"] = "difference-relation"
        witnesses.append(data)
    for m, a, b, c in numeric.QUADRATURE_GRID:
        witnesses.append(_selberg_quadrature_row(m, a, b, c, quad_tol))
    ok = all(w["passed"] for w in witnesses)
    params = {
        "grid": cfg.grid,
        "difference_points": len(numeric.SELBERG_GRID),
        "quadrature_points": len(numeric.QUADRATURE_GRID),
        "tol": tol,
        "quadrature_tol": quad_tol,
    }
    return params, "pass" if ok else "fail", witnesses, [], {}


def _suite_main_theorem(cfg: SuiteConfig):
    from . import numeric

    tol = cfg.tol if cfg.tol is not None else 1e-9
    witnesses = [
        numeric.main_theorem_sl2_check(p, m, kappa, lam, z, tol).to_json()
        for (p, m, kappa, lam, z) in numeric.MAIN_THEOREM_GRID
    ]
    ok = all(w["passed"] for w in witnesses)
    params = {"grid": cfg.grid, "points": len(witnesses), "tol": tol}
    return params, "pass" if ok else "fail", witnesses, [], {}


def _suite_determinant(cfg: SuiteConfig):
    from . import numeric

    tol = cfg.tol if cfg.tol is not None else 1e-9
    witnesses = [
        numeric.det_formula_sl2_check(p, m, kappa, lam, z, tol).to_json()
        for (p, m, kappa, lam, z) in numeric.MAIN_THEOREM_GRID
    ]
    ok = all(w["passed"] for w in witnesses)
    params = {"grid": cfg.grid, "points": len(witnesses), "tol": tol}
    return params, "pass" if ok else "fail", witnesses, [], {}


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


def _suite_sigma_orders(cfg: SuiteConfig):
    n_top = cfg.n if cfg.n is not None else 6
    witnesses = []
    ok = True
    for n in range(2, n_top + 1):
        orders_normal = all(is_normal(special_order(n, h)) for h in range(1, n))
        schedules_ok = True
        for h in range(2, n):
            orders = intermediate_orders(n, h)
            if orders[0] != special_order(n, h) or orders[-1] != special_order(
                n, h - 1
            ):
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
        ok = ok and orders_normal and schedules_ok and signs_ok
        witnesses.append(
            {
                "n": n,
                "orders_normal": orders_normal,
                "reversal_schedules_ok": schedules_ok,
                "sign_table_ok": signs_ok,
            }
        )
    params = {"n": n_top}
    return params, "pass" if ok else "fail", witnesses, [], {}


_SUITE_RUNNERS = {
    "pbw-invariance": _suite_pbw_invariance,
    "additive-form": _suite_additive_form,
    "fusion": _suite_fusion,
    "compatibility": _suite_compatibility,
    "appendix-b": _suite_appendix_b,
    "appendix-c": _suite_appendix_c,
    "selberg": _suite_selberg,
    "main-theorem-sl2": _suite_main_theorem,
    "determinant-sl2": _suite_determinant,
    "sigma-orders": _suite_sigma_orders,
}


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def run_suite(cfg: SuiteConfig) -> dict:
    """Execute one named suite and assemble its JSON-serializable report."""
    cfg.validate()
    start = time.monotonic()
    params, verdict, witnesses, warnings, extra_timings = _SUITE_RUNNERS[cfg.suite](
        cfg
    )
    timings = {"total_seconds": round(time.monotonic() - start, 3)}
    timings.update(extra_timings)
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "kzdyn", "version": __version__},
        "suite": cfg.suite,
        "params": params,
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

def _dump_order(params: Mapping) -> str:
    n = int(params.get("n", 3))
    h = int(params.get("h", n - 1))
    return serialize_order(special_order(n, h))


def _dump_sigma(params: Mapping) -> str:
    n = int(params.get("n", 3))
    h = int(params.get("h", n - 1))
    transforms = [
        {
            "kind": t.kind,
            "position": t.position,
            "label": list(t.label) if t.label else None,
        }
        for t in sigma_sequence(n, h)
    ]
    orders = [serialize_order(o) for o in intermediate_orders(n, h)]
    return json.dumps(
        {"n": n, "h": h, "transforms": transforms, "orders": orders},
        indent=2,
        sort_keys=True,
    )


def _space_from_params(params: Mapping):
    n = int(params.get("n", 2))
    nu = tuple(params.get("nu") or ((1,) * (n - 1)))
    specs = tuple(params.get("factors") or ("verma",))
    return n, nu, specs, _build_space(n, nu, specs)


def _dump_operator(params: Mapping) -> str:
    n, nu, specs, space = _space_from_params(params)
    k = int(params.get("k", 1))
    Kd = K_operator(space, k)
    entries = {
        f"{r},{c}": str(v) for (r, c), v in sorted(Kd.op.entries.items())
    }
    return json.dumps(
        {
            "n": n,
            "nu": list(nu),
            "factors": list(specs),
            "k": k,
            "dim": space.dim,
            "formal_z_exponents": [str(e) for e in Kd.formal_z_exponents],
            "entries": entries,
        },
        indent=2,
        sort_keys=True,
    )


def _dump_fusion(params: Mapping) -> str:
    n = int(params.get("n", 2))
    depth = int(params.get("depth", 2))
    if depth > 5:
        raise CapabilityExceeded("fusion dumps are limited to depth 5")
    fus = fusion_solve(n, depth)
    components = {}
    for mu in sorted(fus.components):
        rows = [
            [list(lo), list(hi), str(c)] for lo, hi, c in fus.triples(mu)
        ]
        components[",".join(map(str, mu))] = rows
    return json.dumps(
        {"n": n, "depth": depth, "components": components},
        indent=2,
        sort_keys=True,
    )


def _dump_phi_vector(params: Mapping) -> str:
    n, nu, specs, space = _space_from_params(params)
    flavor = params.get("h") or "standard"
    pv = phi_vector(space, flavor)
    terms = [
        {"exps": [list(e) for e in exps], "value": str(value)}
        for exps, value in pv.terms
    ]
    return json.dumps(
        {
            "n": n,
            "nu": list(nu),
            "factors": list(specs),
            "flavor": pv.flavor.to_json(),
            "terms": terms,
        },
        indent=2,
        sort_keys=True,
    )


def _dump_forest(params: Mapping) -> str:
    n, nu, specs, space = _space_from_params(params)
    position = int(params.get("index", 0))
    if not (0 <= position < space.dim):
        raise CapabilityExceeded(
            f"index must name one of the {space.dim} basis positions"
        )
    flavor = params.get("h") or "standard"
    forest = forest_of_index(
        space.basis[position], flavor, basis=space.pbw_basis
    )
    data = forest.to_json()
    data.update({"n": n, "nu": list(nu), "factors": list(specs), "index": position})
    return json.dumps(data, indent=2, sort_keys=True)


_DUMP_RUNNERS = {
    "order": _dump_order,
    "sigma": _dump_sigma,
    "operator": _dump_operator,
    "fusion": _dump_fusion,
    "phi-vector": _dump_phi_vector,
    "forest": _dump_forest,
}


def dump_object(kind: str, params: Optional[Mapping] = None) -> str:
    """Deterministic serialization of one artifact kind.

    When ``KZDYN_CACHE`` names a directory, results are memoized there keyed
    by a digest of the kind, the parameters and the package and schema
    versions.
    """
    if kind not in _DUMP_RUNNERS:
        raise UnknownKind(
            f"unknown dump kind {kind!r}; choose one of {', '.join(DUMP_KINDS)}"
        )
    params = dict(params or {})
    cache_dir = os.environ.get("KZDYN_CACHE")
    cache_path = None
    if cache_dir:
        key = json.dumps(
            {
                "kind": kind,
                "params": params,
                "version": __version__,
                "schema_version": SCHEMA_VERSION,
            },
            sort_keys=True,
            default=list,
        )
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        cache_path = os.path.join(cache_dir, f"{kind}-{digest}.txt")
        if os.path.exists(cache_path):
            with open(cache_path, "r", encoding="utf-8") as fh:
                return fh.read()
    text = _DUMP_RUNNERS[kind](params)
    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=f".{kind}-", suffix=".tmp", dir=cache_dir)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp_path, cache_path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    return text


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kzdyn",
        description="exact and numeric verification suites for the dynamical "
        "difference operators and their hypergeometric solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    verify.add_argument("--n", type=int, default=None, help="Lie algebra size N")
    verify.add_argument(
        "--nu", type=str, default=None, help="simple-root multiplicities m1,m2,..."
    )
    verify.add_argument(
        "--factors",
        type=str,
        default=None,
        help="comma list of factor specs: verma or lp:P",
    )
    verify.add_argument("--depth", type=int, default=None, help="expansion depth")
    verify.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    verify.add_argument(
        "--max-ab", type=int, default=2, help="golden-table range bound"
    )
    verify.add_argument(
        "--grid", type=str, default="default", help="named parameter grid"
    )
    verify.add_argument("--out", type=str, default=None, help="report file path")

    dump = sub.add_parser("dump", help="serialize one artifact deterministically")
    dump.add_argument("kind", help=f"one of: {', '.join(DUMP_KINDS)}")
    dump.add_argument("--n", type=int, default=None, help="Lie algebra size N")
    dump.add_argument("--h", type=str, default=None, help="arrangement level")
    dump.add_argument(
        "--nu", type=str, default=None, help="simple-root multiplicities m1,m2,..."
    )
    dump.add_argument(
        "--factors", type=str, default=None, help="comma list of factor specs"
    )
    dump.add_argument("--depth", type=int, default=None, help="expansion depth")
    dump.add_argument("--k", type=int, default=None, help="operator direction")
    dump.add_argument(
        "--index", type=int, default=None, help="basis position for forests"
    )
    dump.add_argument("--out", type=str, default=None, help="artifact file path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = SuiteConfig(
                suite=args.suite,
                n=args.n,
                nu=_parse_nu(args.nu) if args.nu else None,
                factors=_parse_factors(args.factors) if args.factors else None,
                depth=args.depth,
                tol=args.tol,
                max_ab=args.max_ab,
                grid=args.grid,
                out=args.out,
            )
            report = run_suite(cfg)
            sys.stdout.write(report_text(report))
            if report["verdict"] == "flagged":
                for line in report["warnings"]:
                    print(f"warning: {line}", file=sys.stderr)
                return 0
            return 0 if report["verdict"] == "pass" else 1
        if args.command == "dump":
            params = {}
            if args.n is not None:
                params["n"] = args.n
            if args.h is not None:
                params["h"] = int(args.h) if args.h.isdigit() else args.h
            if args.nu is not None:
                params["nu"] = list(_parse_nu(args.nu))
            if args.factors is not None:
                params["factors"] = list(_parse_factors(args.factors))
            if args.depth is not None:
                params["depth"] = args.depth
            if args.k is not None:
                params["k"] = args.k
            if args.index is not None:
                params["index"] = args.index
            text = dump_object(args.kind, params)
            if not text.endswith("\n"):
                text += "\n"
            sys.stdout.write(text)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            return 0
        parser.error("unknown command")
        return 2
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
    except Exception as exc:
        # a defect, not a failed identity: exit 1 would misreport it
        import traceback  # only here, to keep it out of every start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
