"""Tests for the exact rational-function kernel."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy

from kzdyn.symexpr import (
    GCD_MEMO_SIZE,
    RF_ONE,
    RF_ZERO,
    DivisionByZero,
    InexactDivision,
    Poly,
    RationalFunctionExpr,
    _ring_gcd_cofactors,
    parse,
    poly_divexact,
    poly_gcd_cofactors,
    rational,
    rf_partial,
    rf_substitute,
    rf_symmetrize,
    symbol,
    symbol_id,
)

T = symbol("t")
Z = symbol("z")
L1 = symbol("l1")
KAP = symbol("kap")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def test_additive_inverse_cancels():
    f = RF_ONE / (T - Z)
    assert (f + (-f)).is_zero()


def test_gcd_cancellation():
    assert (T**2 - Z**2) / (T - Z) == T + Z


def test_factor_cancellation():
    f = RF_ONE / (L1 * (L1 - 1))
    assert f * L1 == RF_ONE / (L1 - 1)


def test_division_by_zero_function_raises():
    with pytest.raises(DivisionByZero):
        (T + 1) / RF_ZERO
    with pytest.raises(DivisionByZero):
        RF_ZERO.reciprocal()


def test_integer_and_fraction_coercion():
    assert T + 1 == T + RF_ONE
    assert 2 * T == T + T
    assert T - Fraction(1, 2) == (2 * T - 1) / 2
    assert 1 / (T + 1) == (T + 1) ** -1


def test_canonical_denominator_sign():
    # x/(y-x) and -x/(x-y) must land on the same canonical pair.
    x, y = symbol("x"), symbol("y")
    assert x / (y - x) == -(x / (x - y))
    # Denominator is content-normalized: integer, coprime, positive leading.
    e = x / (Fraction(2, 3) * (x - y))
    assert e.den == (x - y).num


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def test_substitute_shift():
    f = RF_ONE / L1
    assert rf_substitute(f, {"l1": L1 + KAP}) == RF_ONE / (L1 + KAP)


def test_substitute_evaluation():
    f = RF_ONE / (L1 * (L1 - 1))
    assert rf_substitute(f, {"l1": rational(2)}) == rational(Fraction(1, 2))


def test_substitute_empty_is_identity():
    f = (T + Z) / (T - Z)
    assert rf_substitute(f, {}) is f


def test_substitute_pole_raises():
    f = RF_ONE / (T - Z)
    with pytest.raises(DivisionByZero):
        rf_substitute(f, {"t": Z})


def test_substitute_composed_expression():
    f = (T + 1) / (T - 1)
    g = rf_substitute(f, {"t": (Z + 1) / (Z - 1)})
    assert g == Z  # classic involution composed with itself


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------

def test_symmetrize_singleton_group_identity():
    t11 = symbol("t:1:1")
    z1 = symbol("z:1")
    f = RF_ONE / (t11 - z1)
    assert rf_symmetrize(f, [["t:1:1"]]) == f


def test_symmetrize_linear():
    t11, t12 = symbol("t:1:1"), symbol("t:1:2")
    assert rf_symmetrize(t11, [["t:1:1", "t:1:2"]]) == (t11 + t12) / 2


def test_symmetrize_fixed_point_two_variable_product():
    # Oracle: explicit permutation sum, written out by hand.
    t11, t12, z1 = symbol("t:1:1"), symbol("t:1:2"), symbol("z:1")
    f = RF_ONE / ((t11 - z1) * (t12 - z1))
    swapped = RF_ONE / ((t12 - z1) * (t11 - z1))
    oracle = (f + swapped) * Fraction(1, 2)
    assert rf_symmetrize(f, [["t:1:1", "t:1:2"]]) == oracle == f


def test_symmetrize_multiple_groups():
    a, b, c, d = (symbol(s) for s in ("a", "b", "c", "d"))
    f = a * c
    got = rf_symmetrize(f, [["a", "b"], ["c", "d"]])
    expected = (a * c + a * d + b * c + b * d) / 4
    assert got == expected


def test_symmetrize_rejects_overlapping_groups():
    with pytest.raises(ValueError):
        rf_symmetrize(T, [["t", "z"], ["z"]])


# ---------------------------------------------------------------------------
# Partial derivatives
# ---------------------------------------------------------------------------

def test_partial_simple_pole():
    f = RF_ONE / (T - Z)
    assert rf_partial(f, "t") == -RF_ONE / (T - Z) ** 2


def test_partial_of_free_symbol_is_zero():
    f = RF_ONE / (T - 1)
    assert rf_partial(f, "z").is_zero()


def test_partial_log_derivative_additivity():
    f = T - Z
    g = T - 1
    fg = f * g
    lhs = rf_partial(fg, "t") / fg
    rhs = rf_partial(f, "t") / f + rf_partial(g, "t") / g
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Text round-trip
# ---------------------------------------------------------------------------

ROUND_TRIP_CASES = [
    RF_ZERO,
    RF_ONE,
    rational(-3) / 4,
    -T,
    (T + Z) / (T - Z),
    T / Z + Z / T,
    (2 * T**3 - 3 * T**2 * Z) / (T**2 - 2 * T * Z + Z**2),
    symbol("t:2:1") * symbol("L:2:1") / (symbol("z:3") - 1),
]


@pytest.mark.parametrize("expr", ROUND_TRIP_CASES, ids=str)
def test_round_trip_bit_exact(expr):
    text = str(expr)
    back = parse(text)
    assert back == expr
    assert str(back) == text


def test_parse_plain_arithmetic():
    assert parse("3/4 * t + 1") == Fraction(3, 4) * T + 1
    assert parse("(t^2 - z^2)/(t - z)") == T + Z
    assert parse("-t^2") == -(T**2)
    assert parse("2 - -3") == rational(5)


def test_parse_errors():
    from kzdyn.symexpr import ParseError

    for bad in ["", "t +", "(t", "t ^ z", "t @ z"]:
        with pytest.raises(ParseError):
            parse(bad)


# ---------------------------------------------------------------------------
# Property: canonical soundness against evaluation (1000 random pairs)
# ---------------------------------------------------------------------------

_POOL = ["x", "y", "z:1", "l1"]


def _random_expr(rng: random.Random, depth: int = 0) -> RationalFunctionExpr:
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return rational(rng.randint(-4, 4))
        return symbol(rng.choice(_POOL))
    op = rng.randrange(4)
    a = _random_expr(rng, depth + 1)
    b = _random_expr(rng, depth + 1)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if b.is_zero():
        b = b + 1
    return a / b


def _values_equal(a: RationalFunctionExpr, b: RationalFunctionExpr, rng: random.Random) -> bool:
    diff = a - b
    checked = 0
    while checked < 5:
        point = {name: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)) for name in _POOL}
        try:
            value = diff.eval(point)
        except DivisionByZero:
            continue
        if value:
            return False
        checked += 1
    return True


def test_canonical_soundness_1000_random_pairs():
    rng = random.Random(20260815)
    for trial in range(1000):
        a = _random_expr(rng)
        if rng.random() < 0.5:
            # Disguised copy of a: same value, assembled differently.
            r = _random_expr(rng, depth=2)
            s = _random_expr(rng, depth=2)
            if s.is_zero():
                s = s + 1
            b = ((a + r) * s - r * s) / s
        else:
            b = _random_expr(rng)
        assert ((a - b).is_zero()) == (a == b)
        assert (a == b) == _values_equal(a, b, rng), f"trial {trial}: {a} vs {b}"


# ---------------------------------------------------------------------------
# Property: field axioms / idempotence (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def exprs(draw, depth=2):
    if depth == 0:
        if draw(st.booleans()):
            return rational(draw(st.integers(-4, 4)))
        return symbol(draw(st.sampled_from(_POOL)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return rational(draw(st.integers(-4, 4)))
    if kind == 1:
        return symbol(draw(st.sampled_from(_POOL)))
    a = draw(exprs(depth=depth - 1))
    b = draw(exprs(depth=depth - 1))
    if kind == 2:
        return a + b
    if kind == 3:
        return a * b
    if b.is_zero():
        b = b + 1
    return a / b


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a + (-a)).is_zero()
    if not a.is_zero():
        assert a * a.reciprocal() == RF_ONE
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(exprs())
def test_symmetrize_idempotent(f):
    groups = [["x", "y"]]
    once = rf_symmetrize(f, groups)
    assert rf_symmetrize(once, groups) == once


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_round_trip_property(f):
    assert parse(str(f)) == f
    assert str(parse(str(f))) == str(f)


# ---------------------------------------------------------------------------
# GCD / exact division seam
# ---------------------------------------------------------------------------

_GCD_NAMES = ("x", "y", "z:1", "l1")


def _random_poly(rng: random.Random, names=_GCD_NAMES, max_terms: int = 3) -> Poly:
    vars = sorted(symbol_id(name) for name in names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in vars)
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly.build(vars, terms)


def _random_gcd_pair(rng: random.Random) -> tuple[Poly, Poly]:
    kind = rng.choice(["shared", "shared", "disjoint", "monomial", "equal", "constant"])
    if kind == "shared":
        f = _random_poly(rng)
        p, q = f * _random_poly(rng), f * _random_poly(rng)
    elif kind == "disjoint":
        p, q = _random_poly(rng, ("x", "y")), _random_poly(rng, ("z:1", "l1"))
    elif kind == "monomial":
        p, q = _random_poly(rng, max_terms=1), _random_poly(rng)
    elif kind == "equal":
        p = _random_poly(rng)
        q = p if rng.random() < 0.5 else p.scale(Fraction(rng.randint(1, 5), 3))
    else:
        p, q = Poly.const(rng.randint(-3, 3)), _random_poly(rng)
    if rng.random() < 0.5:
        p, q = q, p
    return p, q


def _copy(p: Poly) -> Poly:
    return Poly(p.vars, dict(p.terms))


def _sympy_gcd(p: Poly, q: Poly) -> Poly:
    """Uncached reference: sympy's cofactors over QQ, then normalized."""
    vars = sorted(set(p.vars) | set(q.vars)) or [symbol_id("x")]
    gens = sympy.symbols([f"v{i}" for i in range(len(vars))])

    def to_sympy(a: Poly):
        pos = [vars.index(v) for v in a.vars]
        coeffs = {}
        for exps, c in a.terms.items():
            full = [0] * len(vars)
            for i, e in zip(pos, exps):
                full[i] = e
            coeffs[tuple(full)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(coeffs, *gens, domain=sympy.QQ)

    h, _, _ = to_sympy(p).cofactors(to_sympy(q))
    g = Poly.build(vars, {m: Fraction(int(c.p), int(c.q)) for m, c in h.terms()})
    return g if g.is_zero() else g.scale(1 / g.content_signed())


def _check_gcd_cofactors(p: Poly, q: Poly) -> None:
    g, pg, qg = poly_gcd_cofactors(p, q)
    assert g * pg == p
    assert g * qg == q
    assert g == _sympy_gcd(p, q)
    assert poly_gcd_cofactors(_copy(p), _copy(q)) == (g, pg, qg)


def test_gcd_cofactors_seeded_random_pairs():
    rng = random.Random(20261018)
    for _ in range(300):
        _check_gcd_cofactors(*_random_gcd_pair(rng))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_gcd_cofactors_property(rng):
    _check_gcd_cofactors(*_random_gcd_pair(rng))


def test_gcd_cofactors_zero_operands():
    p = _random_poly(random.Random(7))
    for a, b in [(Poly.zero(), Poly.zero()), (Poly.zero(), p), (p, Poly.zero())]:
        _check_gcd_cofactors(a, b)


def _p(text: str) -> Poly:
    expr = parse(text)
    assert expr.den.is_one()
    return expr.num


def test_gcd_shortcuts_do_not_reach_the_ring():
    before = _ring_gcd_cofactors.cache_info()
    assert poly_gcd_cofactors(_p("x*y + 1"), _p("z:1*l1 - 3"))[0].is_one()
    g, pg, qg = poly_gcd_cofactors(_p("6*x^2*y"), _p("x^3*z:1 + x*y^2"))
    assert (g, pg, qg) == (_p("x"), _p("6*x*y"), _p("x^2*z:1 + y^2"))
    assert poly_gcd_cofactors(_p("x*y^2"), _p("-x^2*y")) == (_p("x*y"), _p("y"), _p("-x"))
    assert poly_gcd_cofactors(_p("2*x"), _p("y^2 - x")) == (Poly.one(), _p("2*x"), _p("y^2 - x"))
    after = _ring_gcd_cofactors.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_gcd_memo_hit_on_equal_operands():
    p, q = _p("(x + y) * (x - 2)"), _p("(x + y) * (y + 5)")
    first = poly_gcd_cofactors(p, q)
    hits = _ring_gcd_cofactors.cache_info().hits
    second = poly_gcd_cofactors(_copy(p), _copy(q))
    assert _ring_gcd_cofactors.cache_info().hits == hits + 1
    assert second == first
    assert first == (_p("x + y"), _p("x - 2"), _p("y + 5"))


def test_gcd_memo_stays_bounded():
    misses = _ring_gcd_cofactors.cache_info().misses
    for k in range(1, GCD_MEMO_SIZE + 21):
        g, _, _ = poly_gcd_cofactors(_p(f"x + {k}"), _p(f"x*y + {k}"))
        assert g.is_one()
        assert _ring_gcd_cofactors.cache_info().currsize <= GCD_MEMO_SIZE
    assert _ring_gcd_cofactors.cache_info().misses >= misses + GCD_MEMO_SIZE + 20


def test_divexact_inverts_multiplication():
    rng = random.Random(20261019)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        assert poly_divexact(p * q, q) == p
        assert poly_divexact(_copy(p * q), _copy(p)) == q


def test_divexact_constant_zero_and_inexact():
    assert poly_divexact(_p("3*x + 6"), Poly.const(3)) == _p("x + 2")
    assert poly_divexact(Poly.zero(), _p("x + y")).is_zero()
    with pytest.raises(DivisionByZero):
        poly_divexact(_p("x"), Poly.zero())
    with pytest.raises(InexactDivision) as info:
        poly_divexact(_p("x*y + 1"), _p("x + y"))
    assert isinstance(info.value, ArithmeticError)
    assert not isinstance(info.value, ValueError)
