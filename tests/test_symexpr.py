"""Tests for the exact rational-function kernel."""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy

from _algebra_helpers import reference_add, reference_mul
from kzdyn import symexpr
from kzdyn.symexpr import (
    CERT_PRIME,
    MAX_DEGREE,
    RF_ONE,
    RF_ZERO,
    DivisionByZero,
    HeuristicGcdFailed,
    InexactDivision,
    Poly,
    RationalFunctionExpr,
    _divide_linear,
    _image,
    _image_point,
    _is_linear,
    parse,
    poly_divexact,
    poly_gcd_cofactors,
    rational,
    rf_partial,
    rf_substitute,
    rf_symmetrize,
    symbol,
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


def test_malformed_names_are_rejected():
    for name in ["", "1x", "x y", "x_1", ":x", "x\n"]:
        with pytest.raises(ValueError):
            symbol(name)
        # a group name would enter through the renaming
        with pytest.raises(ValueError):
            rf_symmetrize(T, [["t", name]])


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
    # named as built; the text sorts the names, "(L:2:1 * t:2:1)/(z:3 - 1)"
    pytest.param(
        symbol("t:2:1") * symbol("L:2:1") / (symbol("z:3") - 1),
        id="(t:2:1 * L:2:1)/(z:3 - 1)",
    ),
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


def test_text_does_not_depend_on_which_symbol_came_first():
    # each fresh interpreter makes the symbols in the order of its arguments
    code = (
        "import sys\n"
        "from kzdyn.symexpr import symbol\n"
        "made = {name: symbol(name) for name in sys.argv[1:]}\n"
        "a, b = made['a'], made['b']\n"
        "print(1 / (a - b) + (a * b**2 + a**2 * b))\n"
    )
    texts = [
        subprocess.run(
            [sys.executable, "-c", code, *order], capture_output=True, text=True, check=True
        ).stdout
        for order in (("a", "b"), ("b", "a"))
    ]
    assert texts == ["(a^3 * b - a * b^3 + 1)/(a - b)\n"] * 2


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


def _random_poly(
    rng: random.Random, names=_GCD_NAMES, max_terms: int = 3, size: int = 4
) -> Poly:
    vars = sorted(names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in vars)
        terms[exps] = Fraction(rng.randint(-size, size), rng.randint(1, 3))
    return Poly.build(vars, terms)


def _negative_lead(p: Poly) -> Poly:
    return p if p.is_zero() or p.content < 0 else -p


def _vanishing(rng: random.Random, count: int) -> Poly:
    """prod (v - r_v) over ``count`` variables, r_v the certificate's point."""
    out = Poly.one()
    for name in rng.sample(_GCD_NAMES, count):
        out = out * (Poly.from_symbol(name) - Poly.const(_image_point(name)))
    return out


def _random_gcd_pair(rng: random.Random) -> tuple[Poly, Poly]:
    kind = rng.choice(
        ["shared", "shared", "disjoint", "monomial", "equal", "constant",
         "unlucky", "zero-image", "P-denominator", "big", "content",
         "negative-lead", "cubic"]
    )
    if kind == "shared":
        f = _random_poly(rng)
        p, q = f * _random_poly(rng), f * _random_poly(rng)
    elif kind == "big":
        # max norms past 4,900, so B = 2 min + 29 > 9,801 and the heuristic
        # gcd's first point is capped below the CGG bound
        f = _random_poly(rng, size=10**6)
        p = f * _random_poly(rng, size=10**6)
        q = f * _random_poly(rng, size=10**6)
    elif kind == "content":
        f = _random_poly(rng).scale(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
        p = (f * _random_poly(rng)).scale(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
        q = (f * _random_poly(rng)).scale(Fraction(-rng.randint(1, 60), rng.randint(1, 60)))
    elif kind == "negative-lead":
        f = _negative_lead(_random_poly(rng))
        p = _negative_lead(f * _random_poly(rng))
        q = _negative_lead(f * _random_poly(rng))
    elif kind == "cubic":
        # a common factor of total degree >= 3 in at least 3 variables
        f = Poly.one()
        while len(f.vars) < 3 or f.total_degree() < 3:
            factor = _random_poly(rng, rng.sample(_GCD_NAMES, 3), max_terms=2)
            if not factor.is_zero():
                f = f * factor
        p, q = f * _random_poly(rng), f * _random_poly(rng)
    elif kind == "unlucky":
        # a common factor whose leading coefficient in each of its variables
        # vanishes at the image point, so its images are constant
        f = _vanishing(rng, rng.randint(2, 4)) + Poly.const(rng.choice([-2, 1, 3]))
        p, q = f * _random_poly(rng), f * _random_poly(rng)
    elif kind == "zero-image":
        # every univariate image of q is zero
        f = _random_poly(rng) if rng.random() < 0.7 else Poly.one()
        p, q = f * _random_poly(rng), f * _vanishing(rng, 2) * _random_poly(rng)
    elif kind == "P-denominator":
        f = _random_poly(rng) if rng.random() < 0.7 else Poly.one()
        tail = _random_poly(rng, max_terms=1).scale(Fraction(rng.randint(1, 3), CERT_PRIME))
        p, q = f * (_random_poly(rng) + tail), f * _random_poly(rng)
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
    return Poly.build(p.vars, dict(p.items()))


def _to_sympy(p: Poly, q: Poly):
    """p and q as sympy polynomials over QQ, and back from one."""
    vars = sorted(set(p.vars) | set(q.vars)) or ["x"]
    gens = sympy.symbols([f"v{i}" for i in range(len(vars))])

    def to_sympy(a: Poly):
        pos = [vars.index(v) for v in a.vars]
        coeffs = {}
        for exps, c in a.items():
            full = [0] * len(vars)
            for i, e in zip(pos, exps):
                full[i] = e
            coeffs[tuple(full)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(coeffs, *gens, domain=sympy.QQ)

    def from_sympy(h) -> Poly:
        return Poly.build(vars, {m: Fraction(int(c.p), int(c.q)) for m, c in h.terms()})

    return to_sympy(p), to_sympy(q), from_sympy


def _sympy_gcd(p: Poly, q: Poly) -> Poly:
    """Uncached reference: sympy's cofactors over QQ, then normalized."""
    sp, sq, from_sympy = _to_sympy(p, q)
    h, _, _ = sp.cofactors(sq)
    g = from_sympy(h)
    return g if g.is_zero() else g.scale(1 / g.content)


def _sympy_div(p: Poly, q: Poly) -> Poly | None:
    """Reference quotient p/q by sympy's div over QQ; None if q does not divide."""
    sp, sq, from_sympy = _to_sympy(p, q)
    quotient, remainder = sp.div(sq)
    return None if remainder else from_sympy(quotient)


def _check_gcd_cofactors(p: Poly, q: Poly) -> None:
    g, pg, qg = poly_gcd_cofactors(p, q)
    assert g * pg == p
    assert g * qg == q
    reference = _sympy_gcd(p, q)
    assert g == reference
    if not g.is_zero():
        assert poly_divexact(p, g) == pg
        assert poly_divexact(q, g) == qg
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


def test_gcd_shortcuts_do_not_reach_the_ring(monkeypatch):
    def unreachable(p, q):
        raise AssertionError(f"a forced gcd reached the ring: {p!r}, {q!r}")

    monkeypatch.setattr(symexpr, "_ring_gcd_cofactors", unreachable)
    assert poly_gcd_cofactors(_p("x*y + 1"), _p("z:1*l1 - 3"))[0].is_one()
    assert poly_gcd_cofactors(Poly.const(6), _p("2*x + 4")) == (
        Poly.one(), Poly.const(6), _p("2*x + 4")
    )
    assert poly_gcd_cofactors(_p("2*x + 4"), _p("2*x + 4")) == (
        _p("x + 2"), Poly.const(2), Poly.const(2)
    )


def _count_integer_gcds(monkeypatch) -> list:
    """Record the operands of every top-level `_heu_gcd` call (not its recursion)."""
    calls = []
    depth = [0]
    heu_gcd = symexpr._heu_gcd

    def counted(f, g):
        if not depth[0]:
            calls.append((f, g))
        depth[0] += 1
        try:
            return heu_gcd(f, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(symexpr, "_heu_gcd", counted)
    return calls


def test_unforced_pairs_reach_the_integer_gcd(monkeypatch):
    calls = _count_integer_gcds(monkeypatch)
    rx, ry = _image_point("x"), _image_point("y")
    # (x - r_x)(y - r_y) + 1 has constant images mod P in x and in y
    f = _p(f"(x - {rx}) * (y - {ry}) + 1")
    # every image of v mod P vanishes
    v = _p(f"(x - {rx}) * (y - {ry}) * (x + y + 1)")
    pairs = [
        (_p("x + y + 1"), _p("x - y")),
        (_p("(x + 2*y) * (z:1 - 1)"), _p("x^2*z:1 + y^2 + 3")),
        (_p("l1^3 - x*l1 + 1/2"), _p("l1^2*x - 5/3*x + 1")),
        (f * _p("x + 2"), f * _p("y + 3")),
        (_p("(x + y + 1) * (x + 2)"), v),
        (_p("x + 2*y"), v),
        # 1/P has no residue mod P
        (_p(f"x + y/{CERT_PRIME}"), _p("x - y")),
        # a monomial operand
        (_p("6*x^2*y"), _p("x^3*z:1 + x*y^2")),
        (_p("x*y^2"), _p("-x^2*y")),
        (_p("2*x"), _p("y^2 - x")),
    ]
    for p, q in pairs:
        _check_gcd_cofactors(p, q)
    # one integer gcd per pair, and one on the copies that
    # `_check_gcd_cofactors` asks again
    assert len(calls) == 2 * len(pairs)


def test_image_points_are_fixed():
    # derived from the name alone: the same in every process
    assert 1 <= _image_point("x") < CERT_PRIME
    assert _image_point("x") == 619406836
    assert len({_image_point(n) for n in _GCD_NAMES}) == len(_GCD_NAMES)


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
    with pytest.raises(InexactDivision):
        # every monomial divides in turn; only a coefficient does not
        poly_divexact(_p("3 + x + 2*y + x*y"), _p("2 + x"))
    with pytest.raises(InexactDivision) as info:
        poly_divexact(_p("x*y + 1"), _p("x + y"))
    assert isinstance(info.value, ArithmeticError)
    assert not isinstance(info.value, ValueError)


def test_divexact_matches_sympy_div():
    rng = random.Random(20261020)
    outcomes = {"exact": 0, "inexact": 0}
    for _ in range(150):
        p, q = _random_gcd_pair(rng)
        if q.is_zero():
            continue
        dividend = p * q if rng.random() < 0.5 else p * q + _random_poly(rng)
        expected = _sympy_div(dividend, q)
        if expected is None:
            outcomes["inexact"] += 1
            with pytest.raises(InexactDivision):
                poly_divexact(dividend, q)
        else:
            outcomes["exact"] += 1
            assert poly_divexact(dividend, q) == expected
    assert min(outcomes.values()) >= 20


def _primitive(p: Poly) -> dict:
    """p / content(p) as a dict from exponent tuples to ints."""
    return {e: (c / p.content).numerator for e, c in p.items()}


def test_bounded_stage_alone_gives_the_gcd(monkeypatch):
    # The first variable has degree 3, so the images have norms past 4,900:
    # the level below must start at its own CGG bound, not at the cheap
    # point the level above would suggest, for the answer to be proven.
    h = Poly.build(("x", "y"), {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    a = Poly.build(("x", "y"), {(3, 0): 1, (0, 1): 2, (0, 0): 3})
    b = Poly.build(("x", "y"), {(3, 0): 1, (0, 1): -1, (0, 0): 5})
    f, g, gcd = (_primitive(c) for c in (h * a, h * b, h))
    assert symexpr._heu_gcd(f, g) == (gcd, _primitive(a), _primitive(b))
    # the same through the seam, on operands with large coefficients
    calls = _count_integer_gcds(monkeypatch)
    rng = random.Random(20261021)
    f = _random_poly(rng, size=10**6)
    pairs = [(f * _random_poly(rng, size=10**6), f * _random_poly(rng, size=10**6))]
    while len(pairs) < 12:
        p, q = _random_gcd_pair(rng)
        if not (p.is_zero() or q.is_zero()):
            pairs.append((p, q))
    for p, q in pairs:
        _check_gcd_cofactors(p, q)
    assert calls


def test_gcd_gives_up_with_named_error(monkeypatch):
    monkeypatch.setattr(symexpr, "GCDHEU_POINTS", 0)
    p, q = _p("(x + y) * (x - 2)"), _p("(x + y) * (y + 5)")
    with pytest.raises(HeuristicGcdFailed) as info:
        poly_gcd_cofactors(p, q)
    assert isinstance(info.value, ArithmeticError)
    # forced pairs are still answered
    assert poly_gcd_cofactors(_p("x + y"), _p("z:1 - 1"))[0].is_one()
    # and the failure leaves nothing behind: with the points back, the same
    # pair gets its gcd
    monkeypatch.undo()
    assert poly_gcd_cofactors(p, q) == (_p("x + y"), _p("x - 2"), _p("y + 5"))


# ---------------------------------------------------------------------------
# Packed kernel against a tuple-and-Fraction reference
# ---------------------------------------------------------------------------

_REF_VARS = sorted(_GCD_NAMES)


def _ref(p: Poly) -> dict:
    """p as ``{exponent tuple over _REF_VARS: Fraction}``, no zero values."""
    pos = [_REF_VARS.index(v) for v in p.vars]
    out = {}
    for exps, c in p.items():
        full = [0] * len(_REF_VARS)
        for i, e in zip(pos, exps):
            full[i] = e
        out[tuple(full)] = c
    return out


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_degree(a: dict) -> int:
    return max((sum(e) for e in a), default=0)


def _check_canonical(p: Poly) -> None:
    """The invariants of the module docstring, and a round trip through items."""
    if p.is_zero():
        assert (p.vars, p.content, p.terms) == ((), 0, {})
        return
    assert list(p.vars) == sorted(set(p.vars))
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(*p.terms.values()) == 1
    assert p.terms[max(p.terms)] > 0
    assert isinstance(p.content, Fraction) and p.content
    exps = [e for e, _ in p.items()]
    assert all(any(e[i] for e in exps) for i in range(len(p.vars)))
    assert Poly.build(p.vars, dict(p.items())) == p
    assert p.total_degree() == _ref_degree(_ref(p))


def test_build_rejects_malformed_input():
    # repeated or unsorted names, a short or long exponent tuple, an invalid
    # name: each would build a Poly that breaks the representation
    for vars, terms in [
        (("x", "x"), {(1, 1): 1}),
        (("y", "x"), {(2, 1): 1}),
        (("x",), {(1, 2): 1}),
        (("x",), {(-1,): 1}),
        (("x!",), {(1,): 1}),
    ]:
        with pytest.raises(ValueError):
            Poly.build(vars, terms)


def _check_against_reference(p: Poly, q: Poly) -> None:
    a, b = _ref(p), _ref(q)
    for got, expected in [
        (p + q, _ref_add(a, b)),
        (p - q, _ref_add(a, {e: -c for e, c in b.items()})),
    ]:
        _check_canonical(got)
        assert _ref(got) == expected
    if a and b and _ref_degree(a) + _ref_degree(b) > MAX_DEGREE:
        with pytest.raises(OverflowError):
            p * q
        return
    product = p * q
    _check_canonical(product)
    assert _ref(product) == _ref_mul(a, b)


def _kernel_operand(rng: random.Random) -> Poly:
    kind = rng.choice(["subset", "subset", "content", "negative-lead", "constant", "high"])
    names = rng.sample(_GCD_NAMES, rng.randint(1, len(_GCD_NAMES)))
    if kind == "constant":
        return Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if kind == "high":
        # total degree near MAX_DEGREE: products overflow about half the time
        vars = sorted(names)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * len(vars)
            for _ in range(rng.randint(MAX_DEGREE // 3, MAX_DEGREE * 2 // 3)):
                exps[rng.randrange(len(vars))] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return Poly.build(vars, terms)
    p = _random_poly(rng, names, max_terms=5)
    if kind == "content":
        p = p.scale(Fraction(rng.randint(-60, 60), rng.randint(1, 60)))
    elif kind == "negative-lead":
        p = _negative_lead(p)
    return p


def _kernel_pair(rng: random.Random) -> tuple[Poly, Poly]:
    p, q = _kernel_operand(rng), _kernel_operand(rng)
    roll = rng.random()
    if roll < 0.1:
        q = -p  # cancellation to zero
    elif roll < 0.2:
        q = p.scale(Fraction(-rng.randint(1, 5), rng.randint(1, 5)))
    elif roll < 0.3:
        q = q - p  # p + q cancels p, and drops the variables only p has
    return p, q


def test_kernel_matches_reference_on_seeded_random_pairs():
    rng = random.Random(20261022)
    overflowed = 0
    for _ in range(400):
        p, q = _kernel_pair(rng)
        _check_canonical(p)
        _check_canonical(q)
        _check_against_reference(p, q)
        overflowed += _ref_degree(_ref(p)) + _ref_degree(_ref(q)) > MAX_DEGREE
    assert overflowed >= 10


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(_GCD_NAMES)),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=6,
    ),
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(_GCD_NAMES)),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=6,
    ),
)
def test_kernel_matches_reference_property(a, b):
    p, q = Poly.build(_REF_VARS, a), Poly.build(_REF_VARS, b)
    assert _ref(p) == {e: c for e, c in a.items() if c}
    _check_against_reference(p, q)
    _check_against_reference(p, -p + q)


def test_degree_guard_raises_at_the_field_limit():
    x, y = (Poly.from_symbol(name) for name in ("x", "y"))
    top = x ** (MAX_DEGREE - 1) * y
    assert top.total_degree() == MAX_DEGREE
    assert (top.degree_in("x"), top.degree_in("y")) == (MAX_DEGREE - 1, 1)
    assert _ref(top) == _ref_mul(_ref(x ** (MAX_DEGREE - 1)), _ref(y))
    for overflow in [lambda: top * x, lambda: top * (y + Poly.one()), lambda: x ** (MAX_DEGREE + 1)]:
        with pytest.raises(OverflowError):
            overflow()
    with pytest.raises(OverflowError):
        Poly.build(_REF_VARS[:2], {(MAX_DEGREE, 1): Fraction(1)})
    # a zero coefficient is dropped before its exponents are packed
    low = Poly.build(_REF_VARS[:2], {(MAX_DEGREE, 1): 0, (1, 0): 1})
    assert low == Poly.from_symbol(_REF_VARS[0])
    with pytest.raises(OverflowError):
        symbol("x") ** (MAX_DEGREE + 1)
    assert (top.scale(3) + x).total_degree() == MAX_DEGREE


# ---------------------------------------------------------------------------
# Factored denominators against the cross-gcd reference
# ---------------------------------------------------------------------------

def _poly(text: str) -> Poly:
    return parse(text).num


# shared linear forms, including bare variables (monomial denominators)
_LINEAR_POOL = ["x - y", "x + y + 1", "2*x - 3*z:1", "l1 - 1", "l1 + x - 2", "y", "x"]
_NONLINEAR = "x^2 + y^2 + 1"  # irreducible over Q


def _check_factor_base(e: RationalFunctionExpr) -> None:
    """den is the product of the factors, which are normalized and coprime."""
    product = Poly.one()
    for f, m in e.factors:
        assert m >= 1 and not f.is_const()
        assert f.content == 1 and f.terms[max(f.terms)] > 0
        product = product * f**m
    assert product == e.den
    for (f, _), (g, _) in itertools.combinations(e.factors, 2):
        assert poly_gcd_cofactors(f, g)[0].is_one()


def _factored_operand(rng: random.Random) -> RationalFunctionExpr:
    num = RationalFunctionExpr.make(_random_poly(rng, max_terms=4), Poly.one())
    if rng.random() < 0.3:
        # a numerator that a pool factor divides, so that products cancel
        num = num * parse(rng.choice(_LINEAR_POOL))
    kind = rng.choice(["poly", "linear", "linear", "monomial", "nonlinear", "whole"])
    if kind == "poly":
        return num
    if kind == "linear":
        for text in rng.sample(_LINEAR_POOL, rng.randint(1, 3)):
            num = num / parse(text) ** rng.randint(1, 3)
        return num
    if kind == "monomial":
        den = _random_poly(rng, max_terms=1)
        return RationalFunctionExpr.make(num.num, Poly.one() if den.is_zero() else den)
    if kind == "nonlinear":
        out = num / parse(_NONLINEAR) ** rng.randint(1, 2)
        return out / parse(rng.choice(_LINEAR_POOL)) if rng.random() < 0.5 else out
    # a composite denominator that arrives whole, to be split later
    den = Poly.one()
    for text in rng.sample(_LINEAR_POOL, rng.randint(2, 3)):
        den = den * _poly(text)
    return RationalFunctionExpr.make(num.num, den)


def _check_against_cross_gcd(u: RationalFunctionExpr, v: RationalFunctionExpr) -> None:
    for got, expected in [
        (u + v, reference_add(u, v)),
        (u - v, reference_add(u, -v)),
        (u * v, reference_mul(u, v)),
    ]:
        _check_factor_base(got)
        assert got == expected
        assert str(got) == str(expected)


def test_factored_arithmetic_matches_cross_gcd_reference():
    rng = random.Random(20261101)
    zero_sums = 0
    for _ in range(250):
        u, v = _factored_operand(rng), _factored_operand(rng)
        roll = rng.random()
        if roll < 0.1:
            v = -u  # the sum cancels to zero
        elif roll < 0.2:
            v = v - u  # the sum cancels u
        _check_factor_base(u)
        _check_factor_base(v)
        _check_against_cross_gcd(u, v)
        zero_sums += (u + v).is_zero()
    assert zero_sums >= 10


def test_whole_composite_denominator_is_split_by_linear_factors():
    whole = RationalFunctionExpr.make(Poly.one(), _poly("(x + 1)*(y - 2)*(x - y)"))
    assert [m for _, m in whole.factors] == [1] and not _is_linear(whole.factors[0][0])
    total = whole + 1 / parse("x + 1")
    assert total == reference_add(whole, 1 / parse("x + 1"))
    assert dict(total.factors) == {_poly("x + 1"): 1, _poly("(y - 2)*(x - y)"): 1}
    _check_factor_base(total)
    total = total + 1 / parse("y - 2")
    assert dict(total.factors) == {_poly(f): 1 for f in ("x + 1", "y - 2", "x - y")}
    _check_factor_base(total)
    product = whole * parse("y - 2")
    assert product == reference_mul(whole, parse("y - 2"))
    _check_factor_base(product)


def test_nonlinear_factor_meets_its_powers():
    q = parse(_NONLINEAR)
    u = (parse("x") + 1) / q**2
    v = parse("y") / q
    for got, expected in [(u + v, reference_add(u, v)), (u * v, reference_mul(u, v))]:
        assert got == expected
        _check_factor_base(got)
    assert (u * v).factors == ((q.num, 3),)
    # the sum has q^2; taking u away again leaves y q / q^2 = y / q
    assert ((u + v) - u).factors == ((q.num, 1),)


def test_zero_residue_without_divisibility_is_refuted_by_division():
    f = _poly("x + y")
    t = _poly(f"x + y + {CERT_PRIME}")
    # every image of t vanishes where x + y does, mod P
    name = f.vars[0]
    image = _image(t, name)
    root = symexpr._root(f)
    assert root[0] == name
    value = 0
    for c in reversed(image):
        value = (value * root[1] + c) % CERT_PRIME
    assert value == 0
    assert _divide_linear(t, f) is None
    assert _divide_linear(_poly("(x + y)*(x - 3)"), f) == _poly("x - 3")
    u = 1 / parse("x + y")
    v = parse(f"x + y + {CERT_PRIME - 1}") / parse("x + y")
    assert u + v == reference_add(u, v)
    assert (u + v).factors == ((f, 1),)
    assert str(u + v) == f"(x + y + {CERT_PRIME})/(x + y)"


def test_images_of_reordered_terms_share_the_weights():
    p = _poly("3*x^2*y - 5*x*y + 7*y^2 + x - 11")
    q = Poly(p.vars, p.content, dict(reversed(list(p.terms.items()))))
    assert q == p and list(q.terms) != list(p.terms)
    symexpr._weights.cache_clear()
    _image.cache_clear()
    # q's images come from the weights memoized for p
    for poly, name in [(p, "x"), (q, "y"), (q, "x")]:
        image = _image(poly, name)
        # the image at t = 2 is p with the name at twice its image point
        point = {v: _image_point(v) * (2 if v == name else 1) for v in ("x", "y")}
        value = sum(c * 2**e for e, c in enumerate(image)) % CERT_PRIME
        direct = sum(
            c * math.prod(pow(point[v], e, CERT_PRIME) for v, e in zip(poly.vars, exps))
            for exps, c in poly.items()
        ) % CERT_PRIME
        # no trailing zeros, so the length is one more than deg_x p = 2
        assert len(image) == 3 and value == direct
