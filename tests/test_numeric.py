"""Tests for the floating-point layer, ``kzdyn.numeric``: gamma plumbing and
the ordered-simplex beta integral (closed form, contiguous relation,
quadrature), and the float closed form against the exact one of
``kzdyn.gamma``.

The rank-one difference equation and determinant formula are exact, and
their suites are tested in ``test_cli.py``."""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from _reference_quadrature import nested_gauss_jacobi_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from kzdyn.cli import _rank_one_solution, main
from kzdyn.dyn import PoleHit
from kzdyn.gamma import selberg_gamma
from kzdyn.numeric import (
    _NODE_LADDERS,
    QUADRATURE_GRID,
    SELBERG_GRID,
    ChamberIntegral,
    NonIntegrable,
    QuadratureNotConverged,
    SelbergParams,
    _divergent_collision,
    _jacobi_rule,
    _nested_gauss_jacobi,
    log_gamma,
    quad_chamber,
    selberg_closed,
    selberg_difference_check,
    selberg_signed,
)
from kzdyn.symexpr import symbol


class TestLogGamma:
    def test_special_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-15
        assert abs(log_gamma(10.0) - math.log(362880)) < 1e-12

    def test_poles_at_nonpositive_integers(self):
        for bad in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(PoleHit):
                log_gamma(bad)

    def test_negative_noninteger_gives_log_abs(self):
        # Gamma(-0.5) = -2 sqrt(pi); the log variant reports log|.|
        assert abs(log_gamma(-0.5) - math.log(2 * math.sqrt(math.pi))) < 1e-14


class TestSelbergClosedForm:
    def test_dimension_zero_is_log_one(self):
        assert selberg_closed(SelbergParams(1.3, 0.7, 0.4, 0)) == 0.0

    def test_one_dimensional_case_is_log_beta(self):
        # the coupling parameter cancels identically when m = 1
        for a, b, c in ((1.7, 2.4, 0.9), (1.0, 1.0, 0.3), (0.4, 3.1, 2.0)):
            got = selberg_closed(SelbergParams(a, b, c, 1))
            want = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            assert abs(got - want) < 1e-13

    def test_two_dimensional_unit_parameters(self):
        # int over 0<t1<t2<1 of (t2-t1)^2 = 1/12, derived by direct integration
        got = math.exp(selberg_closed(SelbergParams(1.0, 1.0, 1.0, 2)))
        assert abs(got - Fraction(1, 12)) < 1e-15

    def test_signed_variant_tracks_negative_values(self):
        # Beta(1, -1/2) = Gamma(1)Gamma(-1/2)/Gamma(1/2) = -2
        sign, log_value = selberg_signed(SelbergParams(1.0, -0.5, 0.5, 1))
        assert sign == -1
        assert abs(math.exp(log_value) - 2.0) < 1e-14

    def test_closed_raises_on_negative_value(self):
        with pytest.raises(ValueError):
            selberg_closed(SelbergParams(1.0, -0.5, 0.5, 1))

    def test_gamma_pole_propagates(self):
        with pytest.raises(PoleHit):
            selberg_closed(SelbergParams(-1.0, 1.0, 0.5, 1))


class TestSelbergDifference:
    def test_one_dimensional_oracle(self):
        # Beta(a+1, b)/Beta(a, b) = a/(a+b), directly from the lgamma values
        a, b = 1.9, 0.8
        report = selberg_difference_check(SelbergParams(a, b, 0.6, 1))
        assert report.passed
        direct = (
            math.lgamma(a + 1)
            + math.lgamma(b)
            - math.lgamma(a + 1 + b)
            - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        )
        assert abs(direct - math.log(a / (a + b))) < 1e-13

    def test_grid_within_tolerance(self):
        for m, a, b, c in SELBERG_GRID:
            report = selberg_difference_check(SelbergParams(a, b, c, m))
            assert report.passed, (m, a, b, c, report.error)
            assert report.error <= 1e-10

    def test_report_fields_round_trip(self):
        report = selberg_difference_check(SelbergParams(1.3, 0.7, 0.4, 2))
        data = report.to_json()
        assert data["passed"] is True
        assert data["m"] == 2
        assert data["error"] == report.error

    def test_pole_in_contiguous_factor(self):
        # a + b + c(2m - 2) = 0 makes the ratio undefined
        with pytest.raises(PoleHit):
            selberg_difference_check(SelbergParams(1.0, -2.0, 0.5, 2))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4),
        a=st.floats(min_value=0.5, max_value=4.0),
        b=st.floats(min_value=0.5, max_value=4.0),
        c=st.floats(min_value=0.1, max_value=1.5),
    )
    def test_difference_property(self, m, a, b, c):
        report = selberg_difference_check(SelbergParams(a, b, c, m))
        assert report.passed


class TestChamberIntegralValidation:
    def test_exponent_length_mismatch(self):
        with pytest.raises(ValueError):
            ChamberIntegral(2, (0.0,), (0.0, 0.0))

    def test_invalid_pair_key(self):
        with pytest.raises(ValueError):
            ChamberIntegral(2, (0.0, 0.0), (0.0, 0.0), {(2, 1): 1.0})
        with pytest.raises(ValueError):
            ChamberIntegral(2, (0.0, 0.0), (0.0, 0.0), {(1, 3): 1.0})

    def test_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ChamberIntegral(1, (0.0,), (0.0,), bound=0.0)

    def test_from_selberg_integrability_guard(self):
        with pytest.raises(NonIntegrable):
            ChamberIntegral.from_selberg(SelbergParams(0.0, 1.0, 0.5, 1))
        with pytest.raises(NonIntegrable):
            ChamberIntegral.from_selberg(SelbergParams(1.0, -0.2, 0.5, 1))
        with pytest.raises(NonIntegrable):
            ChamberIntegral.from_selberg(SelbergParams(1.0, 1.0, -0.6, 2))


class TestQuadrature:
    def test_one_dimensional_beta(self):
        for a, b in ((2.0, 3.0), (0.5, 0.5), (1.25, 4.0)):
            ci = ChamberIntegral(1, (a - 1,), (b - 1,))
            got = quad_chamber(ci, 1e-10)
            want = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
            assert abs(got - want) <= 1e-8 * want

    def test_two_dimensional_unit_parameters(self):
        ci = ChamberIntegral.from_selberg(SelbergParams(2.0, 2.0, 1.0, 2))
        got = quad_chamber(ci, 1e-9)
        want = math.exp(selberg_closed(SelbergParams(2.0, 2.0, 1.0, 2)))
        assert abs(got - want) <= 1e-9 * want

    def test_grid_matches_closed_form(self):
        for m, a, b, c in QUADRATURE_GRID:
            params = SelbergParams(a, b, c, m)
            got = quad_chamber(ChamberIntegral.from_selberg(params), 1e-8)
            want = math.exp(selberg_closed(params))
            rel = abs(got - want) / want
            assert rel <= 1e-6, (m, a, b, c, rel)

    def test_three_dimensional_case(self):
        params = SelbergParams(2.0, 2.0, 0.5, 3)
        got = quad_chamber(ChamberIntegral.from_selberg(params), 1e-8)
        want = math.exp(selberg_closed(params))
        assert abs(got - want) <= 1e-6 * want

    def test_asymmetric_chamber_against_frozen_oracle(self):
        # reference values from an independent high-precision nested
        # tanh-sinh quadrature of the same integrand
        cases = (
            ((0.5, 0.25), (0.5, 0.75), -0.4, 0.15390919144232607945),
            ((1.0, 0.5), (-0.5, 1.5), 0.6, 0.0081011693232964241918),
        )
        for pow0, pow1, coupling, want in cases:
            ci = ChamberIntegral(2, pow0, pow1, {(1, 2): coupling})
            got = quad_chamber(ci, 1e-8)
            assert abs(got - want) <= 1e-6 * want

    def test_scaled_bound(self):
        # substituting t -> bound * s rescales a beta integral by a power
        a, b, bound = 2.5, 1.5, 2.0
        ci = ChamberIntegral(1, (a - 1,), (b - 1,), bound=bound)
        got = quad_chamber(ci, 1e-10)
        want = bound ** (a + b - 1) * math.exp(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        )
        assert abs(got - want) <= 1e-8 * want

    def test_dimension_zero(self):
        assert quad_chamber(ChamberIntegral(0, (), ()), 1e-10) == 1.0

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            quad_chamber(ChamberIntegral(4, (0.0,) * 4, (0.0,) * 4), 1e-8)

    def test_divergent_origin_exponent(self):
        with pytest.raises(NonIntegrable):
            quad_chamber(ChamberIntegral(1, (-1.0,), (0.0,)), 1e-8)

    def test_divergent_upper_exponent(self):
        with pytest.raises(NonIntegrable):
            quad_chamber(ChamberIntegral(1, (0.0,), (-1.5,)), 1e-8)

    def test_divergent_coincidence_exponent(self):
        with pytest.raises(NonIntegrable):
            quad_chamber(
                ChamberIntegral(2, (0.0, 0.0), (0.0, 0.0), {(1, 2): -1.0}), 1e-8
            )

    def test_unreachable_tolerance_names_its_failure(self):
        # (1 - t_1)^0.5 is not absorbed into the weights, so successive
        # estimates never agree exactly and tol=0 cannot be met
        ci = ChamberIntegral(2, (0.0, 0.0), (0.5, 0.5))
        with pytest.raises(QuadratureNotConverged) as info:
            quad_chamber(ci, 0.0)
        assert isinstance(info.value, ArithmeticError)
        assert info.value.tol == 0.0
        assert 0.0 < info.value.difference < 1e-6
        assert "tolerance 0.0" in str(info.value)

    def test_divergent_corner(self):
        # each factor is individually integrable but the corner t1,t2 -> 0
        # accumulates a non-integrable total power
        with pytest.raises(NonIntegrable):
            quad_chamber(
                ChamberIntegral(2, (-0.8, -0.9), (0.0, 0.0), {(1, 2): -0.5}), 1e-8
            )

    def test_divergent_corner_at_the_bound(self):
        # the mirror image of the corner above: t1, t2 -> 1 with total power
        # -0.9 - 0.8 - 0.5 = -2.2, below minus the dimension 2
        with pytest.raises(NonIntegrable):
            quad_chamber(
                ChamberIntegral(2, (0.0, 0.0), (-0.9, -0.8), {(1, 2): -0.5}), 1e-8
            )

    def test_divergent_non_adjacent_collision(self):
        # integrating out t2 leaves (t3 - t1)^-1.5, which diverges as t1 -> t3
        with pytest.raises(NonIntegrable):
            quad_chamber(ChamberIntegral(3, (0.0,) * 3, (0.0,) * 3, {(1, 3): -2.5}), 1e-8)

    def test_non_adjacent_pair_exponent_is_not_absorbed(self):
        # t_1..t_3 -> 0 scales as r^(-3.5 + 5 + 3), so the chamber converges,
        # but level 3's weight takes t_3^-1.5 without the (t_3 - t_1)^5 and
        # the rule refuses it; once the kernel absorbs the non-adjacent
        # exponent, this case expects a value instead
        ci = ChamberIntegral(3, (0.0, 0.0, -3.5), (0.0, 0.0, 0.0), {(1, 3): 5.0})
        assert _divergent_collision(ci) is None
        with pytest.raises(ValueError, match="must exceed -1, not 0.0 and -1.5"):
            quad_chamber(ci, 1e-8)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_collision_check_reproduces_the_selberg_region(self, m):
        # the ordered beta integral converges exactly when a > 0, b > 0 and
        # c > -min(1/m, a/(m-1), b/(m-1)); no grid value lies on that boundary
        for a in (-0.3, 0.2, 1.5):
            for b in (-0.3, 0.2, 1.5):
                for c in (-0.7, -0.4, -0.15, 0.3):
                    convergent = a > 0 and b > 0 and c > -1 / m
                    if m > 1:
                        convergent = convergent and c > -min(a, b) / (m - 1)
                    pair = {(i, j): 2 * c for i in range(1, m + 1) for j in range(i + 1, m + 1)}
                    ci = ChamberIntegral(m, (a - 1,) * m, (b - 1,) * m, pair)
                    assert (_divergent_collision(ci) is None) == convergent, (a, b, c)

    # the domain of the seeded Selberg sweeps; the margin is smallest at
    # m = 3, large a, b near 1.1 and c = 0.25 (5.4e-7 of the 1e-6)
    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=3),
        a=st.floats(min_value=1.0, max_value=3.0),
        b=st.floats(min_value=1.0, max_value=3.0),
        c=st.floats(min_value=0.25, max_value=1.0),
    )
    def test_quadrature_matches_closed_form_property(self, m, a, b, c):
        params = SelbergParams(a, b, c, m)
        got = quad_chamber(ChamberIntegral.from_selberg(params), 1e-8)
        want = math.exp(selberg_closed(params))
        assert abs(got - want) <= 1e-6 * want


def _seeded_selberg_chambers(seed: int, per_dimension: int) -> list[ChamberIntegral]:
    rng = random.Random(seed)
    return [
        ChamberIntegral.from_selberg(
            SelbergParams(rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0), rng.uniform(0.25, 1.0), m)
        )
        for m in (1, 2, 3)
        for _ in range(per_dimension)
    ]


def _seeded_general_chambers(seed: int, per_dimension: int) -> list[ChamberIntegral]:
    # non-uniform exponents, about a third of the pow1 and pair entries zero
    rng = random.Random(seed)

    def exponent() -> float:
        return 0.0 if rng.random() < 1 / 3 else rng.uniform(-0.3, 1.5)

    chambers = []
    for m in (1, 2, 3):
        for _ in range(per_dimension):
            pow0 = tuple(rng.uniform(-0.3, 1.5) for _ in range(m))
            pow1 = tuple(exponent() for _ in range(m))
            pair = {(i, j): exponent() for i in range(1, m + 1) for j in range(i + 1, m + 1)}
            chambers.append(ChamberIntegral(m, pow0, pow1, pair, rng.uniform(0.3, 3.0)))
    return chambers


# Each explicit row names its shape, the factors that the kernel's levels t_1
# and t_2 evaluate at their nodes; `test_every_innermost_shape_is_covered`
# checks that every shape allowed at m = 2 and m = 3 is here.  Every row carries its own
# test id, "<serial>-m<m>", so a row inserted anywhere renames no other test;
# a new row takes the next unused serial.
KERNEL_CHAMBERS: tuple[tuple[str, ChamberIntegral], ...] = (
    # non-uniform adjacent and non-adjacent pair exponents, bound != 1;
    # level 1: pair and bound; level 2: bound
    (
        "0-m3",
        ChamberIntegral(
            3, (0.3, -0.2, 0.7), (0.4, -0.3, 0.25), {(1, 2): 0.5, (2, 3): -0.25, (1, 3): 1.3}, 1.7
        ),
    ),
    # zero pow1 entries, a zero pair entry and a lone non-adjacent pair;
    # level 1: pair only; level 2: none
    (
        "1-m3",
        ChamberIntegral(3, (-0.4, 0.0, 0.2), (0.0, 0.0, 0.9), {(1, 2): 0.0, (1, 3): -0.6}, 0.6),
    ),
    # level 1: no evaluated factor
    ("2-m2", ChamberIntegral(2, (0.5, -0.3), (0.0, 1.2), {(1, 2): 0.8}, 2.5)),
    ("3-m1", ChamberIntegral(1, (-0.5,), (0.25,), bound=3.0)),
    # integer exponents and bound; level 1: no evaluated factor
    ("4-m2", ChamberIntegral(2, (1, 0), (0, 2), {(1, 2): 1}, 2)),
    *zip(
        ("5-m1", "6-m1", "7-m2", "8-m2", "9-m3", "10-m3"),
        _seeded_selberg_chambers(2718, 2),
        strict=True,
    ),
    *zip(
        ("11-m1", "12-m1", "13-m2", "14-m2", "15-m3", "16-m3"),
        _seeded_general_chambers(3141, 2),
        strict=True,
    ),
    # level 1: bound only; level 2: none
    (
        "17-m3",
        ChamberIntegral(3, (0.2, 0.6, -0.1), (0.7, 0.0, 0.3), {(1, 2): 0.4, (2, 3): 0.9}, 1.3),
    ),
    # level 1: no evaluated factor; level 2: bound
    (
        "18-m3",
        ChamberIntegral(
            3, (0.1, -0.35, 0.5), (0.0, 0.45, -0.2), {(1, 2): -0.15, (2, 3): 0.3, (1, 3): 0.0}, 0.8
        ),
    ),
    # level 1: bound only
    ("19-m2", ChamberIntegral(2, (-0.2, 0.4), (0.6, -0.1), {(1, 2): 0.35}, 0.9)),
    # level 1: pair and bound; level 2: none
    (
        "20-m3",
        ChamberIntegral(
            3, (0.25, -0.15, 0.4), (0.55, 0.0, 0.35), {(1, 2): 0.3, (2, 3): -0.2, (1, 3): 0.7}, 1.4
        ),
    ),
    # level 1: pair only; level 2: bound
    (
        "21-m3",
        ChamberIntegral(
            3, (-0.3, 0.45, 0.1), (0.0, 0.6, -0.25), {(1, 2): 0.65, (1, 3): -0.45}, 0.75
        ),
    ),
    # level 1: no evaluated factor; level 2: none
    (
        "22-m3",
        ChamberIntegral(3, (0.35, 0.2, -0.45), (0.0, 0.0, 0.8), {(1, 2): -0.3, (2, 3): 0.55}, 2.2),
    ),
    # every evaluated exponent -0.0: the reference drops such a factor, and
    # the kernel evaluates x ** -0.0, which is 1.0
    (
        "23-m3",
        ChamberIntegral(
            3, (0.15, -0.25, 0.6), (-0.0, -0.0, 0.45), {(1, 2): 0.2, (2, 3): 0.4, (1, 3): -0.0}, 1.1
        ),
    ),
)


def _evaluated_shape(ci: ChamberIntegral) -> tuple[int, str, str]:
    """The nonzero factors that the kernel evaluates at the nodes of level
    t_1, (t_3 - t_1) at m = 3 and (bound - t_1) at m >= 2, and of level t_2,
    (bound - t_2) at m = 3."""
    present = (
        ("pair", ci.m == 3 and ci.pair.get((1, 3), 0.0) != 0),
        ("bound", ci.m >= 2 and ci.pow1[0] != 0),
    )
    level_1 = " and ".join(name for name, here in present if here) or "none"
    return ci.m, level_1, "bound" if ci.m == 3 and ci.pow1[1] != 0 else "none"


def _reference_quad_chamber(ci: ChamberIntegral, tol: float) -> tuple[float, int] | None:
    """quad_chamber's ladder and stopping rule over the reference kernel:
    the estimate and the node count it stops at, None if it never does."""
    previous = None
    for n_nodes in _NODE_LADDERS[ci.m]:
        value = nested_gauss_jacobi_reference(ci, n_nodes)
        if previous is not None and abs(value - previous) <= tol * max(1.0, abs(value)):
            return value, n_nodes
        previous = value
    return None


def _mp_jacobi_rule(n: int, alpha: float, beta: float) -> tuple[list[float], list[float]]:
    """The Golub–Welsch rule in 50-digit arithmetic, mpmath's own: its Jacobi
    matrix, built from the exact binary values of alpha and beta, its mass
    from ``mp.gamma``, and its eigenvalues and first eigenvector components
    from its implicit QL iteration, all independent of the rule under test."""
    with mp.workdps(50):
        nodes, weights = mp.gauss_quadrature(n, "jacobi", mp.mpf(alpha), mp.mpf(beta))
        pairs = sorted(zip(nodes, weights))
        return [float(x) for x, _ in pairs], [float(w) for _, w in pairs]


class TestJacobiRule:
    """The quadrature's Gauss–Jacobi rules against a 50-digit reference and
    against scipy's ``roots_jacobi``."""

    RUNGS = sorted({n for ladder in _NODE_LADDERS.values() for n in ladder})
    # the pairs where the rule once switched between scipy's branches:
    # alpha == beta, where scipy's rule is Gegenbauer's, Legendre's at 0,
    # Chebyshev's at -0.5 and a large-alpha series above 169.5; alpha + beta
    # == 0 with alpha != beta, where the diagonal is zero; a zero exponent;
    # alpha + beta == 1000, the last sum before scipy's overflow branch, and
    # above it
    EDGES = (
        *((a, a) for a in (1.0, 0.5, -0.25, 2, 3.0, 12.0, 169.0)),
        (0.0, 0.0),
        (-0.5, -0.5),
        (170.0, 170.0),
        (600.0, 400.5),
        (0.5, -0.5),
        (-0.75, 0.75),
        (0.0, 1.5),
        (2.5, 0.0),
        (0, 3),
        (600.0, 400.0),
    )

    @classmethod
    def cases(cls) -> list[tuple[int, float, float]]:
        # every edge and 19 seeded pairs, the node counts taken in turn from
        # the ladders' rungs, so that every rung is met
        rng = random.Random(20)
        # 6.0 - 7.0 * random() lies in (-1, 6]
        sample = [(6.0 - 7.0 * rng.random(), 6.0 - 7.0 * rng.random()) for _ in range(19)]
        pairs = [*cls.EDGES, *sample]
        return [(cls.RUNGS[i % len(cls.RUNGS)], *pair) for i, pair in enumerate(pairs)]

    @staticmethod
    def assert_close(n, alpha, beta, got, want, weight_tol):
        (x, w), (want_x, want_w) = got, want
        assert len(x) == len(want_x) == n
        assert max(abs(a - b) for a, b in zip(x, want_x)) <= 1e-15, (n, alpha, beta)
        scale = weight_tol * sum(want_w)
        assert max(abs(a - b) for a, b in zip(w, want_w)) <= scale, (n, alpha, beta)

    def test_cases_meet_every_rung_and_edge(self):
        cases = self.cases()
        assert {n for n, _, _ in cases} == set(self.RUNGS)
        assert set(self.EDGES) <= {(a, b) for _, a, b in cases}

    def test_matches_the_mpmath_golub_welsch_rule(self):
        # at most 8.9e-16 on the nodes and 3.2e-15 * sum(w) on the weights
        for n, alpha, beta in self.cases():
            x, w = _jacobi_rule(n, alpha, beta)
            got = (x.tolist(), w.tolist())
            self.assert_close(n, alpha, beta, got, _mp_jacobi_rule(n, alpha, beta), 1e-13)

    def test_matches_roots_jacobi(self):
        # scipy's weights are themselves up to 1.6e-12 * sum(w) from the
        # 50-digit rule (n = 18, alpha, beta about 3.119, -0.957) and 1.4e-13
        # at alpha, beta = 600, 400.5; its nodes at most 4.4e-16
        for n, alpha, beta in self.cases():
            x, w = _jacobi_rule(n, alpha, beta)
            want_x, want_w = roots_jacobi(n, alpha, beta)
            got, want = (x.tolist(), w.tolist()), (want_x.tolist(), want_w.tolist())
            self.assert_close(n, alpha, beta, got, want, 2e-12)

    def test_exponents_at_or_below_minus_one_are_refused(self):
        # quad_chamber meets one on this convergent chamber: level 3 leaves
        # (t_3 - t_1)**5 to the nodes, and its Jacobi weight is t_3**-1.5
        ci = ChamberIntegral(3, (0.0, 0.0, -3.5), (0.0, 0.0, 0.0), {(1, 3): 5.0})
        assert _divergent_collision(ci) is None
        with pytest.raises(ValueError, match="must exceed -1"):
            quad_chamber(ci, 1e-8)
        for alpha, beta in ((-1.0, 0.5), (0.5, -1.5), (math.nan, 0.0)):
            with pytest.raises(ValueError, match="must exceed -1"):
                _jacobi_rule(16, alpha, beta)

    def test_failed_eigenvalue_solve_is_an_arithmetic_error(self, capsys, monkeypatch):
        # numpy raises LinAlgError, a ValueError, which the command line
        # would report as a configuration error (exit 2), not exit 3
        def failing(a, UPLO):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        for alpha, beta in ((0.5, 1.5), (1.0, 1.0)):
            with pytest.raises(ArithmeticError, match="did not converge"):
                _jacobi_rule(16, alpha, beta)
        assert main(["verify", "selberg"]) == 3
        assert "did not converge" in capsys.readouterr().err


class TestKernelMatchesReference:
    """The float-native kernel against the numpy-scalar reference, exactly."""

    @pytest.mark.parametrize("ci", [pytest.param(ci, id=name) for name, ci in KERNEL_CHAMBERS])
    def test_every_ladder_rung_is_bit_identical(self, ci):
        for n_nodes in _NODE_LADDERS[ci.m]:
            got = _nested_gauss_jacobi(ci, n_nodes)
            want = nested_gauss_jacobi_reference(ci, n_nodes)
            assert type(got) is float
            assert got == want, (n_nodes, got, want)

    def test_every_innermost_shape_is_covered(self):
        # the kernel evaluates an absent factor with exponent 0.0, so every
        # shape runs the same loops; each must still match the reference,
        # which skips the factors it finds zero
        shapes = {_evaluated_shape(ci) for _, ci in KERNEL_CHAMBERS}
        want = {(2, "none", "none"), (2, "bound", "none")} | {
            (3, level_1, level_2)
            for level_1 in ("none", "pair", "bound", "pair and bound")
            for level_2 in ("none", "bound")
        }
        assert want <= shapes, want - shapes

    def test_row_ids_are_unique_and_name_the_dimension(self):
        # pytest would silently suffix a repeated id, renaming both tests
        names = [name for name, _ in KERNEL_CHAMBERS]
        assert len(set(names)) == len(names)
        for name, ci in KERNEL_CHAMBERS:
            assert name.endswith(f"-m{ci.m}"), name

    def test_dimension_zero(self):
        ci = ChamberIntegral(0, (), ())
        assert _nested_gauss_jacobi(ci, 16) == nested_gauss_jacobi_reference(ci, 16) == 1.0

    def test_kernel_rejects_four_variables(self):
        with pytest.raises(ValueError, match="three variables"):
            _nested_gauss_jacobi(ChamberIntegral(4, (0.0,) * 4, (0.0,) * 4), 12)

    def test_quad_chamber_stops_at_the_reference_rung(self):
        chambers = _seeded_selberg_chambers(1618, 3) + _seeded_general_chambers(1414, 3)
        stops, not_converged = set(), 0
        for ci in chambers:
            assert _divergent_collision(ci) is None
            for tol in (1e-8, 1e-10, 1e-12):
                want = _reference_quad_chamber(ci, tol)
                if want is None:
                    with pytest.raises(QuadratureNotConverged):
                        quad_chamber(ci, tol)
                    not_converged += 1
                    continue
                assert quad_chamber(ci, tol) == want[0], (ci, tol)
                stops.add((ci.m, want[1]))
        # some estimates stop above the second rung, and some never stop
        assert {m for m, n in stops if n > _NODE_LADDERS[m][1]} == {2, 3}, stops
        assert not_converged


def _signed_log_of(gamma: dict, point: dict) -> tuple[int, float]:
    """Sign and log of the absolute value of an exact gamma product, its
    arguments evaluated exactly at ``point`` and then with ``math.lgamma``."""
    sign, total = 1, 0.0
    for arg, e in gamma.items():
        x = float(arg.eval(point))
        if x < 0 and math.floor(x) % 2:
            sign *= (-1) ** e
        total += e * math.lgamma(x)
    return sign, total


class TestExactClosedFormMatchesFloat:
    """`gamma.selberg_gamma`, the exact closed form of the rank-one suites,
    against `selberg_signed`, the float one the quadrature is compared with."""

    def test_selberg_grid(self):
        a, b, c = symbol("a"), symbol("b"), symbol("c")
        for m, fa, fb, fc in SELBERG_GRID:
            point = {"a": fa, "b": fb, "c": fc}
            got = _signed_log_of(selberg_gamma(a, b, c, m), point)
            want = selberg_signed(SelbergParams(fa, fb, fc, m))
            assert got[0] == want[0] and abs(got[1] - want[1]) <= 1e-12, (m, point)

    @pytest.mark.parametrize(
        "p, m, kappa, lam",
        # the float grid the determinant-sl2 suite once read
        [(3, 0, 2.0, 1.7), (3, 1, 2.0, 1.7), (4, 2, 3.3, 2.35),
         (2, 1, 1.7, 0.9), (5, 2, 2.6, 3.1), (6, 3, 3.5, 2.9)],
    )
    def test_rank_one_points(self, p, m, kappa, lam):
        _, a, b, c = _rank_one_solution(p, m)
        got = _signed_log_of(selberg_gamma(a, b, c, m), {"l1": lam, "kap": kappa})
        fa = -(lam - 1 - (p - 2 * m) / 2) / kappa + 1
        want = selberg_signed(SelbergParams(fa, -p / kappa, 1 / kappa, m))
        assert got[0] == want[0] and abs(got[1] - want[1]) <= 1e-12
