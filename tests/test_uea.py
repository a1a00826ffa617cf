"""Tests for the enveloping-algebra layer (words, straightening, PBW bases)."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _algebra_helpers import eps_coordinates, straighten
from kzdyn.roots import WeightVec
from kzdyn.symexpr import RF_ONE, RF_ZERO, rational, symbol
from kzdyn.uea import (
    GenWord,
    PBWBasis,
    Straightener,
    antipode_A,
    bracket_letters,
    chevalley_tau,
    f_letter,
    monomial_word,
    standard_basis,
    straightener,
    word,
)

# ---------------------------------------------------------------------------
# Independent oracle: a naive randomized rewriter over raw words whose
# brackets are computed from explicit matrix units (not from the module's
# structure-constant table).
# ---------------------------------------------------------------------------


def _letter_matrix(letter, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    kind, a, b = letter
    if kind == "e":
        m[a - 1][b - 1] = Fraction(1)
    else:
        m[a - 1][a - 1] = Fraction(1)
        m[b - 1][b - 1] = Fraction(-1)
    return m


def _matrix_bracket(x, y, n):
    mx, my = _letter_matrix(x, n), _letter_matrix(y, n)
    comm = [
        [
            sum(mx[i][p] * my[p][j] for p in range(n))
            - sum(my[i][p] * mx[p][j] for p in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    out = {}
    for i in range(n):
        for j in range(n):
            if i != j and comm[i][j]:
                out[("e", i + 1, j + 1)] = comm[i][j]
    acc = Fraction(0)
    for a in range(1, n):
        acc += comm[a - 1][a - 1]
        if acc:
            out[("c", a, a + 1)] = out.get(("c", a, a + 1), Fraction(0)) + acc
    return out


def _rank(letter):
    kind, a, b = letter
    if kind == "c":
        return 1
    return 0 if a > b else 2


def naive_plain_value(words, eps, basis, rng):
    """words * v as plain divided-monomial coefficients, by random rewriting."""
    n = basis.n_rank
    done = {}
    stack = [(w.letters, w.coeff) for w in words]
    while stack:
        letters, coeff = stack.pop()
        if coeff.is_zero():
            continue
        sites = []
        nlen = len(letters)
        if nlen and _rank(letters[-1]) >= 1:
            sites.append(("act", nlen - 1))
        for i in range(nlen - 1):
            x, y = letters[i], letters[i + 1]
            rx, ry = _rank(x), _rank(y)
            out_of_order = (
                rx == 0
                and ry == 0
                and basis.position[(x[2], x[1])] > basis.position[(y[2], y[1])]
            )
            if rx > ry or out_of_order:
                sites.append(("swap", i))
        if not sites:
            exps = [0] * len(basis.order)
            for letter in letters:
                exps[basis.position[(letter[2], letter[1])]] += 1
            extra = 1
            for e in exps:
                extra *= math.factorial(e)
            key = tuple(exps)
            acc = done.get(key, RF_ZERO) + coeff * extra
            done[key] = acc
            continue
        site, i = rng.choice(sites)
        if site == "act":
            letter = letters[-1]
            if _rank(letter) == 2:
                continue
            scalar = eps[letter[1] - 1] - eps[letter[2] - 1]
            stack.append((letters[:-1], coeff * scalar))
        else:
            x, y = letters[i], letters[i + 1]
            stack.append((letters[:i] + (y, x) + letters[i + 2 :], coeff))
            for z, cz in _matrix_bracket(x, y, n).items():
                stack.append((letters[:i] + (z,) + letters[i + 2 :], coeff * cz))
    return {k: v for k, v in done.items() if not v.is_zero()}


def engine_plain_value(words, hw_vec, basis):
    """words * v as plain divided-monomial coefficients, read off the engine's
    answer on F_J through M(J) = signed_factor(J) * F_J."""
    engine = Straightener(basis, hw_vec)
    total = {}
    for w in words:
        for k, v in engine.apply_word(w).items():
            sign = rational(basis.signed_factor(k))
            total[k] = total.get(k, RF_ZERO) + v * sign
    return {k: v for k, v in total.items() if not v.is_zero()}


def _symbolic_hw(n):
    return {j: symbol(f"l{j}") for j in range(1, n)}


def _hw_vec(n):
    return WeightVec(tuple(symbol(f"l{j}") for j in range(1, n)))


# ---------------------------------------------------------------------------
# Straightening basics
# ---------------------------------------------------------------------------


def test_lower_then_raise_gives_pairing_scalar():
    basis = standard_basis(2)
    result = straighten(word(("e", 1, 2), ("e", 2, 1)), _symbolic_hw(2), basis)
    assert result == {(0,): symbol("l1")}


def test_double_raise_double_lower():
    basis = standard_basis(2)
    l1 = symbol("l1")
    result = straighten(
        word(("e", 1, 2), ("e", 1, 2), ("e", 2, 1), ("e", 2, 1)),
        _symbolic_hw(2),
        basis,
    )
    expected = rational(2) * l1 * (l1 - rational(1))
    assert result == {(0,): expected}


def test_lowering_order_differs_by_a_bracket_term():
    basis = standard_basis(3)
    hw = _symbolic_hw(3)
    first = straighten(word(("e", 2, 1), ("e", 3, 2)), hw, basis)
    second = straighten(word(("e", 3, 2), ("e", 2, 1)), hw, basis)
    # e_{2,1}e_{3,2} - e_{3,2}e_{2,1} = [e_{2,1}, e_{3,2}] = -e_{3,1}, and the
    # basis monomial on the (1,3) root is itself -e_{3,1}.
    exps = basis.exps_from_roots({(1, 3): 1})
    delta = {e: first.get(e, RF_ZERO) - second.get(e, RF_ZERO) for e in first | second}
    assert {e: c for e, c in delta.items() if not c.is_zero()} == {exps: RF_ONE}


def test_cartan_letter_acts_by_pairing_sum():
    basis = standard_basis(3)
    hw = _symbolic_hw(3)
    out = straighten(word(("c", 1, 2)), hw, basis)
    assert out == {basis.zero_exps(): symbol("l1")}
    out13 = straighten(word(("c", 1, 3)), hw, basis)
    assert out13 == {basis.zero_exps(): symbol("l1") + symbol("l2")}


def test_raising_letter_annihilates_highest_vector():
    basis = standard_basis(3)
    assert straighten(word(("e", 1, 3)), _symbolic_hw(3), basis) == {}


def test_cartan_scalar_requires_weight():
    basis = standard_basis(2)
    engine = Straightener(basis, None)
    with pytest.raises(ValueError):
        engine.apply_letter(("c", 1, 2), basis.zero_exps())


def test_straighten_matches_naive_randomized_rewriter():
    # Every level-h arrangement of ranks 2 to 4 in turn: their signs mix +1
    # and -1, so both values of sigma meet every branch of the engine.
    rng = random.Random(20260815)
    bases = [PBWBasis(n, h) for n in (2, 3, 4) for h in range(1, n)]
    for trial in range(150):
        basis = bases[trial % len(bases)]
        n = basis.n_rank
        hw_vec = _hw_vec(n)
        letters_pool = [
            ("e", a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b
        ] + [("c", k, k + 1) for k in range(1, n)]
        length = rng.randrange(0, 7)
        letters = tuple(rng.choice(letters_pool) for _ in range(length))
        w = GenWord(rational(rng.randrange(1, 4)), letters)
        got = engine_plain_value([w], hw_vec, basis)
        expected = naive_plain_value([w], eps_coordinates(hw_vec), basis, rng)
        assert got == expected, (trial, basis, letters)


def test_basis_monomial_word_straightens_to_itself():
    # F_I written out as a word and applied to v is F_I v again, in every
    # level-h arrangement up to rank 4: this pins the sign each absorbed
    # lowering letter carries.
    for n in (2, 3, 4):
        for h in range(1, n):
            basis = PBWBasis(n, h)
            engine = straightener(basis)
            for exps in itertools.product(range(4), repeat=len(basis.order)):
                if sum(exps) <= 3:
                    got = engine.apply_word(monomial_word(basis, exps))
                    assert got == {exps: RF_ONE}, (basis, exps)


def test_jacobi_consistency_through_straightening():
    rng = random.Random(11)
    basis = standard_basis(3)
    hw = _hw_vec(3)
    pool = [("e", a, b) for a in range(1, 4) for b in range(1, 4) if a != b] + [
        ("c", 1, 2),
        ("c", 2, 3),
    ]

    def comm(ws1, ws2):
        out = [a * b for a in ws1 for b in ws2]
        out += [(b * a).scale(rational(-1)) for a in ws1 for b in ws2]
        return out

    for _ in range(25):
        x, y, z = (word(rng.choice(pool)) for _ in range(3))
        tail = tuple(
            f_letter(rng.choice([(1, 2), (1, 3), (2, 3)])) for _ in range(rng.randrange(3))
        )
        lhs = comm([x], comm([y], [z]))
        rhs = comm(comm([x], [y]), [z]) + comm([y], comm([x], [z]))
        lhs = [GenWord(w.coeff, w.letters + tail) for w in lhs]
        rhs = [GenWord(w.coeff, w.letters + tail) for w in rhs]
        assert engine_plain_value(lhs, hw, basis) == engine_plain_value(rhs, hw, basis)


# ---------------------------------------------------------------------------
# Re-expressing a monomial in another normal order
# ---------------------------------------------------------------------------


def test_three_term_reversal_identity_all_small_exponents_both_ways():
    # The sl3 orders of levels 2 and 1 differ by one three-term reversal of
    # the window x, x+y, y.  Straightened in the other order, exponents
    # (a, c, b) on (top, middle, bottom) become
    #   sum_r binom(c+r, r) (-1)^c  on  (b-r, c+r, a-r),
    # for r up to min(a, b); check every a, c, b <= 3 in both directions.
    for src, tgt in [
        (PBWBasis(3, 2), PBWBasis(3, 1)),
        (PBWBasis(3, 1), PBWBasis(3, 2)),
    ]:
        assert tgt.order == tuple(reversed(src.order))
        engine = Straightener(tgt)
        for a, c, b in itertools.product(range(4), repeat=3):
            got = engine.apply_word(monomial_word(src, (a, c, b)))
            expected = {
                (b - r, c + r, a - r): rational(math.comb(c + r, r) * (-1) ** c)
                for r in range(min(a, b) + 1)
            }
            assert got == expected, (src, a, c, b)


# ---------------------------------------------------------------------------
# Involution and antipode
# ---------------------------------------------------------------------------


def test_tau_letterwise_rule_and_involution():
    w = word(("e", 2, 1), ("e", 2, 1), ("e", 2, 1))
    image = chevalley_tau(w)
    assert image.letters == (("e", 1, 2),) * 3
    assert image.coeff == rational(-1)
    assert chevalley_tau(image) == w
    h = word(("c", 1, 2))
    assert chevalley_tau(h) == GenWord(rational(-1), (("c", 1, 2),))


def test_tau_respects_brackets():
    letters = [("e", a, b) for a in range(1, 4) for b in range(1, 4) if a != b]
    letters += [("c", a, b) for a in range(1, 4) for b in range(1, 4) if a != b]

    def tau_combo(combo):
        out = {}
        for letter, c in combo.items():
            gw = chevalley_tau(GenWord(rational(c), (letter,)))
            out[gw.letters[0]] = out.get(gw.letters[0], RF_ZERO) + gw.coeff
        return {k: v for k, v in out.items() if not v.is_zero()}

    for x, y in itertools.product(letters, repeat=2):
        lhs = tau_combo({k: Fraction(v) for k, v in bracket_letters(x, y).items()})
        tx = chevalley_tau(GenWord(RF_ONE, (x,)))
        ty = chevalley_tau(GenWord(RF_ONE, (y,)))
        rhs = {}
        for k, v in bracket_letters(tx.letters[0], ty.letters[0]).items():
            rhs[k] = rhs.get(k, RF_ZERO) + tx.coeff * ty.coeff * v
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        assert lhs == rhs, (x, y)


def test_tau_of_basis_monomial_is_raising_with_matching_multi_index():
    basis = PBWBasis(3, 1)
    exps = basis.exps_from_roots({(1, 3): 2, (2, 3): 1})
    image = chevalley_tau(monomial_word(basis, exps))
    assert all(a < b for _, a, b in image.letters)
    expected_letters = []
    for (k, l), e in zip(basis.order, exps):
        expected_letters.extend([("e", k, l)] * e)
    assert image.letters == tuple(expected_letters)
    signs = 1
    fact = 1
    for s, e in zip(basis.signs, exps):
        signs *= s**e
        fact *= math.factorial(e)
    assert image.coeff == rational(Fraction(signs, fact))


def test_antipode_generator_and_two_letter_examples():
    assert antipode_A(word(("e", 2, 1))) == GenWord(rational(-1), (("e", 2, 1),))
    two = antipode_A(word(("e", 2, 1), ("e", 3, 2)))
    assert two == GenWord(RF_ONE, (("e", 3, 2), ("e", 2, 1)))


def test_antipode_is_involutive_on_random_words():
    rng = random.Random(5)
    pool = [("e", a, b) for a in range(1, 5) for b in range(1, 5) if a != b] + [
        ("c", k, k + 1) for k in range(1, 4)
    ]
    for _ in range(25):
        letters = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 6)))
        w = GenWord(rational(rng.randrange(1, 5)), letters)
        assert antipode_A(antipode_A(w)) == w


def test_antipode_on_basis_monomial_reverses_and_drops_global_sign():
    basis = standard_basis(3)
    exps = basis.exps_from_roots({(1, 3): 2, (2, 3): 1})
    image = antipode_A(monomial_word(basis, exps))
    assert image.letters == (("e", 3, 1), ("e", 3, 1), ("e", 3, 2))
    assert image.coeff == rational(Fraction(1, 2))


def test_antipode_anti_homomorphism_through_straightening():
    # A(xy) v and A(y)A(x) v agree for random two-letter products.
    rng = random.Random(99)
    basis = standard_basis(3)
    hw = _hw_vec(3)
    pool = [("e", a, b) for a in range(1, 4) for b in range(1, 4) if a != b]
    for _ in range(20):
        x, y = rng.choice(pool), rng.choice(pool)
        lhs = antipode_A(word(x, y))
        rhs = antipode_A(word(y)) * antipode_A(word(x))
        assert engine_plain_value([lhs], hw, basis) == engine_plain_value(
            [rhs], hw, basis
        )


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


def test_monomial_word_reproduces_signed_divided_convention():
    basis = PBWBasis(3, 1)
    exps = basis.exps_from_roots({(1, 3): 2, (2, 3): 1})
    w = monomial_word(basis, exps)
    # (1,3) carries sign -1 at level 1; total degree 3.
    signs = 1
    fact = 1
    for s, e in zip(basis.signs, exps):
        signs *= s**e
        fact *= math.factorial(e)
    total = -1 if sum(exps) % 2 else 1
    assert w.coeff == rational(Fraction(total * signs, fact))
    assert len(w.letters) == 3 and all(a > b for _, a, b in w.letters)


# ---------------------------------------------------------------------------
# Structure-constant properties
# ---------------------------------------------------------------------------

_letter_strategy = st.tuples(
    st.sampled_from(["e", "c"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
).filter(lambda t: t[1] != t[2])


@settings(max_examples=60, deadline=None)
@given(_letter_strategy, _letter_strategy)
def test_bracket_antisymmetry(x, y):
    forward = bracket_letters(x, y)
    backward = bracket_letters(y, x)
    assert forward == {k: -v for k, v in backward.items()}


@settings(max_examples=60, deadline=None)
@given(_letter_strategy, _letter_strategy)
def test_bracket_matches_matrix_commutator(x, y):
    got = bracket_letters(x, y)
    expected = _matrix_bracket(x, y, 4)
    # The matrix decomposition writes Cartan parts on simple-coroot letters;
    # compare after expanding both sides to diagonal matrices.
    def expand(combo):
        m = [[Fraction(0)] * 4 for _ in range(4)]
        for letter, c in combo.items():
            lm = _letter_matrix(letter, 4)
            for i in range(4):
                for j in range(4):
                    m[i][j] += c * lm[i][j]
        return m

    assert expand(got) == expand(expected)
