"""Tests for the dynamical difference operators, the fusion element, the
KZ-operator assembly, and the exact compatibility / reduction checks."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _algebra_helpers import reference_root_terms
from _closed_forms import b_coeff, falling
from kzdyn import dyn
from kzdyn.dyn import (
    B_additive,
    B_alpha,
    B_w,
    CheckReport,
    K_operator,
    NonFiniteDim,
    PoleHit,
    check_K_exchange,
    check_nabla_K,
    check_rational_to_trig,
    det_ingredients,
    formal_z_exponents,
    fusion_solve,
    kappa_symbol,
    kz_operator,
    lambda_diagonal,
    lambda_pairing_symbols,
    nabla_K_rows,
    omega_operator,
    p_series,
    q_dagger,
    r_matrix_operator,
    shifted_pairings,
    z_symbols,
)
from kzdyn.rep import (
    WeightSpaceOperator,
    enumerate_basis,
    lp_module,
    operator_for_letter,
    p_elements,
    singular_vectors,
    verma_symbolic,
    verma_weight,
    word_operator,
)
from kzdyn.roots import (
    longest_element,
    nu_vec,
    omega_bracket,
    omega_vec,
    positive_roots,
    WeightVec,
    special_order,
)
from kzdyn.symexpr import RF_ONE, RF_ZERO, _is_linear, rational, symbol
from kzdyn.uea import GenWord, Straightener, standard_basis, word

E = lambda k, l: ("e", k, l)  # noqa: E731


# ---------------------------------------------------------------------------
# p-series and one-root operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n_rank, nu, n_factors, k",
    [(2, (1,), 1, 1), (2, (1,), 2, 1), (3, (2, 1), 2, 2), (3, (1, 1), 3, 1), (3, (1, 1), 3, 2)],
)
def test_K_operator_is_its_diagonal_composed_with_B_w(n_rank, nu, n_factors, k):
    # the reference builds the diagonal of z monomials from the factor
    # weights and composes it with B_w; K_operator scales the rows of B_w
    space = enumerate_basis([verma_symbolic(n_rank, j) for j in range(1, n_factors + 1)], nu)
    omega_k = omega_vec(n_rank, k)
    dressing = []
    for pos in range(space.dim):
        value = RF_ONE
        for j, z in enumerate(z_symbols(n_factors), 1):
            lowered = space.factors[j - 1].hw - space.factor_weight(pos, j)
            for _ in range(int(lowered.dot(omega_k).const_value())):
                value = value / z
        dressing.append(value)
    lam = lambda_pairing_symbols(n_rank)
    base = B_w(space, omega_bracket(n_rank, k)[1], lam)
    reference = WeightSpaceOperator.diagonal(space, dressing).compose(base)
    assert K_operator(space, k, lam) == reference


def test_p_series_single_step_scalar():
    # Rank-1 Verma, one lowering: F E / (t - H) acts by L/(t - (L - 2)) where
    # L is the highest-weight pairing; the k=0 term contributes 1.
    sp = enumerate_basis([verma_symbolic(2, 1)], (1,))
    L = symbol("L:1:1")
    t = symbol("l1")
    op = p_series(sp, (1, 2), t)
    expected = RF_ONE + L / (t - L + rational(2))
    assert op == WeightSpaceOperator(sp, sp, {(0, 0): expected})


def test_p_series_terminates_and_preserves_space():
    sp = enumerate_basis([verma_symbolic(2, 1), verma_symbolic(2, 2)], (2,))
    op = p_series(sp, (1, 2), symbol("l1"))
    assert op.domain == sp and op.codomain == sp


def test_p_series_poles_stay_linear_factors():
    # compatibility --n 3 --nu 2,0: every pole (t - H - j) of every one-root
    # series is its own linear factor of the entries' denominator base
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (2, 0))
    lam = lambda_pairing_symbols(3)
    with_poles = 0
    for alpha in positive_roots(3):
        for value in B_alpha(sp, alpha, lam).entries.values():
            assert all(_is_linear(f) for f, _ in value.factors), str(value)
            with_poles += bool(value.factors)
    assert with_poles


def test_b_alpha_rank1_closed_form():
    # On the m-step weight space of a rank-1 Verma the operator is the scalar
    # prod_{k=0}^{m-1} (l1 + L/2 - k)/(l1 - L/2 + k).
    L = symbol("L:1:1")
    l1 = symbol("l1")
    half = rational(Fraction(1, 2))
    for m in (1, 2, 3):
        sp = enumerate_basis([verma_symbolic(2, 1)], (m,))
        assert sp.dim == 1
        got = B_alpha(sp, (1, 2), (l1,)).entry(0, 0)
        expected = RF_ONE
        for k in range(m):
            expected = expected * (l1 + L * half - rational(k)) / (
                l1 - L * half + rational(k)
            )
        assert got == expected


def test_b_alpha_matches_selberg_ratio():
    # Finite-dimensional rank-1 factor: the one-root operator scalar equals
    # the Selberg-integral difference factor
    #   prod_{k=1}^m (a-1+b+c(2m-k-1)) / (a-1+c(m-k))
    # with a = -(1/kap)((lam,alpha)-1-(p-2m)/2)+1, b = -p/kap, c = 1/kap.
    l1 = symbol("l1")
    kap = kappa_symbol()
    c = RF_ONE / kap
    for p, m in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)]:
        sp = enumerate_basis([lp_module(p)], (m,))
        assert sp.dim == 1
        got = B_alpha(sp, (1, 2), (l1,)).entry(0, 0)
        a = -(l1 - RF_ONE - rational(Fraction(p - 2 * m, 2))) / kap + RF_ONE
        b = -rational(p) / kap
        expected = RF_ONE
        for k in range(1, m + 1):
            expected = (
                expected
                * (a - RF_ONE + b + c * rational(2 * m - k - 1))
                / (a - RF_ONE + c * rational(m - k))
            )
        assert got == expected


def test_b_alpha_pole_raises():
    sp = enumerate_basis([lp_module(2)], (1,))
    with pytest.raises(PoleHit):
        B_alpha(sp, (1, 2), [rational(1)])


def test_b_w_empty_word_is_identity():
    sp = enumerate_basis([verma_symbolic(2, 1)], (1,))
    assert B_w(sp, [], lambda_pairing_symbols(2)) == WeightSpaceOperator.identity(sp)


def test_b_w_single_reflection_equals_b_alpha():
    sp = enumerate_basis([verma_symbolic(3, 1)], (1, 1))
    lam = lambda_pairing_symbols(3)
    assert B_w(sp, [1], lam) == B_alpha(sp, (1, 2), lam)
    assert B_w(sp, [2], lam) == B_alpha(sp, (2, 3), lam)


def test_b_w_reduced_word_invariance_rank2():
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    lam = lambda_pairing_symbols(3)
    a = B_w(sp, [1, 2, 1], lam)
    b = B_w(sp, [2, 1, 2], lam)
    assert a == b
    assert B_w(sp, longest_element(3).reduced_word(), lam) == a


def test_b_w_reduced_word_invariance_rank3():
    sp = enumerate_basis([verma_symbolic(4, 1)], (1, 1, 1))
    words = [
        [1, 2, 1, 3, 2, 1],
        [3, 2, 3, 1, 2, 3],
        [2, 1, 2, 3, 2, 1],
        list(longest_element(4).reduced_word()),
    ]
    lam = lambda_pairing_symbols(4)
    ops = [B_w(sp, w, lam) for w in words]
    for other in ops[1:]:
        assert other == ops[0]


def test_b_w_longest_equals_normal_order_product():
    # The longest-word product equals the product over any one normal order.
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    lam = lambda_pairing_symbols(3)
    expected = B_w(sp, longest_element(3).reduced_word(), lam)
    for h in (1, 2):
        order = special_order(3, h)
        total = WeightSpaceOperator.identity(sp)
        for root in reversed(order):
            total = B_alpha(sp, root, lam).compose(total)
        assert total == expected


def test_b_w_bracket_decomposition():
    # Longest word factors as (sub-longest above r) (sub-longest below r)
    # (bracket word at r), all at the same argument.
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    lam = lambda_pairing_symbols(3)
    w0 = B_w(sp, longest_element(3).reduced_word(), lam)
    for r, upper_word in ((1, [2]), (2, [1])):
        _, bracket_word = omega_bracket(3, r)
        prod = B_w(sp, upper_word, lam).compose(B_w(sp, bracket_word, lam))
        assert prod == w0


def test_b_w_bracket_block_product():
    # The bracket-word product equals the product over the straddling block
    # of the level-r arrangement, first stored root applied first (the
    # bracket word's root sequence traverses exactly that block).
    for n_rank, r, nu0 in [(3, 1, (1, 1)), (3, 2, (1, 1)), (4, 2, (1, 1, 1))]:
        sp = enumerate_basis([verma_symbolic(n_rank, 1)], nu0)
        lam = lambda_pairing_symbols(n_rank)
        expected = B_w(sp, omega_bracket(n_rank, r)[1], lam)
        block = [(k, l) for (k, l) in special_order(n_rank, r) if k <= r < l]
        total = WeightSpaceOperator.identity(sp)
        for root in block:
            total = B_alpha(sp, root, lam).compose(total)
        assert total == expected


# ---------------------------------------------------------------------------
# Additive form
# ---------------------------------------------------------------------------


def _check_additive_equals_product(space, r):
    lam = lambda_pairing_symbols(space.pbw_basis.n_rank)
    add = B_additive(space, r, lam)
    arg = shifted_pairings(space, lam)
    prod = B_w(space, omega_bracket(space.pbw_basis.n_rank, r)[1], arg)
    assert add == prod


def test_additive_equals_product_rank1():
    for m in (1, 2, 3, 4):
        sp = enumerate_basis([verma_symbolic(2, 1), verma_symbolic(2, 2)], (m,))
        _check_additive_equals_product(sp, 1)


def test_additive_equals_product_rank2():
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    for r in (1, 2):
        _check_additive_equals_product(sp, r)


def test_additive_equals_product_rank2_deeper():
    sp = enumerate_basis([verma_symbolic(3, 1)], (2, 1))
    for r in (1, 2):
        _check_additive_equals_product(sp, r)


def test_additive_form_inverts_one_gram_per_straddling_weight(monkeypatch):
    # At level 1 of sl3 the straddling roots (1,2) and (1,3) lower by (1,0)
    # and (1,1): 6 of the 9 weights mu <= (2,2) carry a straddling index,
    # and each needs its dual elements once.
    calls = []

    def counting(aux):
        calls.append(aux.nu0)
        return p_elements(aux)

    monkeypatch.setattr("kzdyn.dyn.p_elements", counting)
    B_additive(enumerate_basis([verma_symbolic(3, 1)], (2, 2)), 1, lambda_pairing_symbols(3))
    assert sorted(calls) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


@settings(max_examples=8, deadline=None)
@given(
    p1=st.integers(min_value=1, max_value=4),
    p2=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=3),
)
def test_additive_equals_product_numeric_property(p1, p2, m):
    # Numeric non-resonant parameters on rank-1 tensors of finite factors.
    sp = enumerate_basis([lp_module(p1), lp_module(p2)], (m,))
    lam = (rational(Fraction(45, 7)),)
    add = B_additive(sp, 1, lam)
    arg = shifted_pairings(sp, lam)
    prod = B_w(sp, [1], arg)
    assert add == prod


def test_published_rank2_level_sums():
    # Frozen rank-2 double-sum forms of the two bracket operators at
    # lam + rho + nu/2: lowering by the straddling block, raising by a
    # binomial inner sum with falling-factorial denominators.
    l1, l2 = lambda_pairing_symbols(3)
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    add1 = B_additive(sp, 1, (l1, l2))
    add2 = B_additive(sp, 2, (l1, l2))

    def omega2_sum():
        n1, n2 = sp.nu0
        total = WeightSpaceOperator.zero(sp, sp)
        for k in range(n1 + 1):
            for s in range(n2 - k + 1):
                for j in range(k + 1):
                    coeff = rational(Fraction(math.comb(k, j))) / (
                        falling(l2, s + j) * falling(l1 + l2 + RF_ONE, k)
                    )
                    coeff = coeff * rational(
                        Fraction(1, math.factorial(k) * math.factorial(s))
                    )
                    letters = (
                        [E(3, 1)] * k
                        + [E(3, 2)] * s
                        + [E(1, 2)] * j
                        + [E(1, 3)] * (k - j)
                        + [E(2, 3)] * (s + j)
                    )
                    total = total + word_operator(sp, GenWord(coeff, tuple(letters)))
        return total

    def omega1_sum():
        n1, n2 = sp.nu0
        total = WeightSpaceOperator.zero(sp, sp)
        for k in range(min(n1, n2) + 1):
            for s in range(n1 - k + 1):
                for j in range(k + 1):
                    coeff = rational(Fraction((-1) ** j * math.comb(k, j))) / (
                        falling(l1, s + j) * falling(l1 + l2 + RF_ONE, k)
                    )
                    coeff = coeff * rational(
                        Fraction(1, math.factorial(k) * math.factorial(s))
                    )
                    letters = (
                        [E(3, 1)] * k
                        + [E(2, 1)] * s
                        + [E(2, 3)] * j
                        + [E(1, 3)] * (k - j)
                        + [E(1, 2)] * (s + j)
                    )
                    total = total + word_operator(sp, GenWord(coeff, tuple(letters)))
        return total

    assert omega2_sum() == add2
    assert omega1_sum() == add1


def test_published_longest_word_double_sum():
    # Frozen rank-2 closed form of the longest-word operator at
    # lam + rho + nu/2 via the b_coeff coefficients.
    l1, l2 = lambda_pairing_symbols(3)
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    arg = shifted_pairings(sp, (l1, l2))
    bw0 = B_w(sp, [1, 2, 1], arg)

    def w0_sum():
        n1, n2 = sp.nu0
        total = WeightSpaceOperator.zero(sp, sp)
        for a in range(n1 + 1):
            for b in range(n2 + 1):
                for m in range(min(a, b) + 1):
                    for k in range(min(a, b) + 1):
                        c = b_coeff(a, b, m, k, l1, l2) * rational((-1) ** m)
                        letters = (
                            [E(2, 1)] * (a - m)
                            + [E(3, 1)] * m
                            + [E(3, 2)] * (b - m)
                            + [E(1, 2)] * (a - k)
                            + [E(1, 3)] * k
                            + [E(2, 3)] * (b - k)
                        )
                        total = total + word_operator(
                            sp, GenWord(c, tuple(letters))
                        )
        return total

    assert w0_sum() == bw0


# ---------------------------------------------------------------------------
# Fusion element
# ---------------------------------------------------------------------------


def test_fusion_rank1_closed_form():
    l1 = symbol("l1")
    fus = fusion_solve(2, 4)
    assert fus.structure_ok()
    for k in range(1, 5):
        comp = fus.component((k,))
        assert set(comp) == {((k,), (k,))}
        expected = rational(math.factorial(k)) / falling(l1, k)
        assert comp[((k,), (k,))] == expected


def test_fusion_equals_dual_element_matrix():
    # The component at mu must match the coefficient matrix of the dual
    # elements of a symbolic highest-weight module at the same weight.
    for n_rank, weights in [
        (2, [(1,), (2,), (3,)]),
        (3, [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
    ]:
        lam = lambda_pairing_symbols(n_rank)
        basis = standard_basis(n_rank)
        fus = fusion_solve(n_rank, 4)
        aux_factor = verma_weight(n_rank, WeightVec(tuple(lam)))
        for mu in weights:
            aux = enumerate_basis([aux_factor], mu, basis)
            assert dict(fus.component(mu)) == p_elements(aux)


def _rank2_word(a, b, k):
    return word(*[E(2, 1)] * (a - k), *[E(3, 1)] * k, *[E(3, 2)] * (b - k))


def test_fusion_published_rank2_closed_form():
    # Frozen rank-2 closed form of the fusion element: coefficients
    # (-1)^{a+b+m+k} b_coeff on raw monomial pairs, re-expanded in the
    # divided signed bases on both sides.
    l1, l2 = lambda_pairing_symbols(3)
    basis = standard_basis(3)
    engine = Straightener(basis)
    fus = fusion_solve(3, 4)
    for a in range(3):
        for b in range(3):
            if a == b == 0:
                continue
            expected = {}
            for m in range(min(a, b) + 1):
                for k in range(min(a, b) + 1):
                    coeff = b_coeff(a, b, m, k, l1, l2) * rational(
                        (-1) ** (a + b + m + k)
                    )
                    lower = engine.apply_word(_rank2_word(a, b, k))
                    K = (b - m, m, a - m)
                    upfac = rational(
                        Fraction(
                            (-1) ** (a + b - m)
                            * math.factorial(b - m)
                            * math.factorial(m)
                            * math.factorial(a - m)
                            * basis.signed_factor(K)
                        )
                    )
                    for I, cI in lower.items():
                        key = (I, K)
                        expected[key] = (
                            expected.get(key, RF_ZERO) + coeff * cI * upfac
                        )
            expected = {kk: v for kk, v in expected.items() if not v.is_zero()}
            assert dict(fus.component((a, b))) == expected


def test_published_inverse_form_closed_form():
    # Frozen rank-2 closed form of the inverse contravariant form: pairs of
    # lowering monomials against the dual-element matrix.
    l1, l2 = lambda_pairing_symbols(3)
    basis = standard_basis(3)
    engine = Straightener(basis)
    lamw = WeightVec((l1, l2))
    for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        aux = enumerate_basis([verma_weight(3, lamw)], (a, b), basis)
        expected = {}
        for m in range(min(a, b) + 1):
            for k in range(min(a, b) + 1):
                coeff = b_coeff(a, b, m, k, l1, l2) * rational((-1) ** k)
                I0 = (b - m, m, a - m)
                cleft = rational(
                    Fraction(
                        math.factorial(b - m)
                        * math.factorial(m)
                        * math.factorial(a - m)
                        * basis.signed_factor(I0)
                    )
                )
                right = engine.apply_word(_rank2_word(a, b, k))
                for J, cJ in right.items():
                    key = (I0, J)
                    expected[key] = expected.get(key, RF_ZERO) + coeff * cleft * cJ
        expected = {kk: v for kk, v in expected.items() if not v.is_zero()}
        assert p_elements(aux) == expected


@settings(max_examples=6, deadline=None)
@given(depth=st.integers(min_value=1, max_value=3), n_rank=st.integers(2, 3))
def test_fusion_component_weights_property(depth, n_rank):
    fus = fusion_solve(n_rank, depth)
    assert fus.structure_ok()
    assert fus.depth == depth


# ---------------------------------------------------------------------------
# Daggered contraction
# ---------------------------------------------------------------------------


def test_q_dagger_equals_longest_product_down_shift():
    # With its coefficients read at lam - nu, the contraction equals the
    # longest-word product at lam + rho - nu/2.  No substitution is left in
    # the package, so both sides are compared at generic rational points.
    for factors, nu0 in [
        ([verma_symbolic(2, 1), verma_symbolic(2, 2)], (2,)),
        ([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1)),
    ]:
        sp = enumerate_basis(factors, nu0)
        n_rank = sp.pbw_basis.n_rank
        lam = lambda_pairing_symbols(n_rank)
        nu_pairs = sp.weight.pairings
        down = tuple(p - q for p, q in zip(lam, nu_pairs))
        bw0 = B_w(sp, longest_element(n_rank).reduced_word(), shifted_pairings(sp, down))
        contraction = q_dagger(sp, fusion_solve(n_rank, sum(nu0)))
        assert contraction.entries.keys() == bw0.entries.keys()
        names = sorted(
            {
                v
                for op in (contraction, bw0)
                for value in op.entries.values()
                for v in value.num.vars + value.den.vars
            }
            | {v for q in nu_pairs for v in q.num.vars + q.den.vars}
        )
        for seed in (1, 2):
            point = {v: Fraction(3 * k + 7 * seed, 11 + 5 * k + seed) for k, v in enumerate(names)}
            down_point = dict(point)
            for sym, q in zip(lam, nu_pairs):
                (name,) = sym.num.vars
                down_point[name] = point.get(name, Fraction(0)) - q.eval(point)
            for key, value in bw0.entries.items():
                assert contraction.entries[key].eval(down_point) == value.eval(point)


def test_q_dagger_up_shift_matches_additive_argument():
    # Contraction with the coefficients at lam == longest-word product at
    # lam + rho + nu/2, the additive form's argument; no Verma weight L:j:k
    # enters a denominator on either side.
    for factors, nu0 in [
        ([verma_symbolic(2, 1), verma_symbolic(2, 2)], (2,)),
        ([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1)),
    ]:
        sp = enumerate_basis(factors, nu0)
        n_rank = sp.pbw_basis.n_rank
        arg = shifted_pairings(sp, lambda_pairing_symbols(n_rank))
        bw0 = B_w(sp, longest_element(n_rank).reduced_word(), arg)
        contraction = q_dagger(sp, fusion_solve(n_rank, sum(nu0)))
        assert contraction == bw0
        for op in (contraction, bw0):
            den_vars = {v for value in op.entries.values() for v in value.den.vars}
            assert den_vars and not any(v.startswith("L:") for v in den_vars)


def test_q_dagger_insufficient_depth_raises():
    sp = enumerate_basis([verma_symbolic(2, 1)], (2,))
    fus = fusion_solve(2, 1)
    with pytest.raises(ValueError):
        q_dagger(sp, fus)


# ---------------------------------------------------------------------------
# KZ operators
# ---------------------------------------------------------------------------


def test_omega_full_on_highest_line():
    sp = enumerate_basis([verma_symbolic(2, 1), verma_symbolic(2, 2)], (0,))
    full = omega_operator(sp, 1, 2) + omega_operator(sp, 2, 1)
    hw1 = sp.factors[0].hw
    hw2 = sp.factors[1].hw
    assert full.entry(0, 0) == hw1.dot(hw2)


def test_omega_parts_sum():
    # the halves raising at factor 1 and at factor 2 share the diagonal, and
    # their sum, the Casimir operator, commutes with the diagonal action
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    plus, minus = omega_operator(sp, 1, 2), omega_operator(sp, 2, 1)
    assert all(plus.entry(p, p) == minus.entry(p, p) for p in range(sp.dim))
    for a, b in positive_roots(3):
        lower = operator_for_letter(sp, ("e", b, a))
        target = lower.codomain
        casimir = omega_operator(target, 1, 2) + omega_operator(target, 2, 1)
        assert casimir.compose(lower) == lower.compose(plus + minus)


@pytest.mark.parametrize(
    "factors, nu0",
    [
        ((lp_module(1), lp_module(2)), (2,)),
        ((verma_symbolic(3, 1), verma_symbolic(3, 2)), (1, 1)),
        ((verma_symbolic(3, 1), verma_symbolic(3, 2)), (2, 1)),
        (tuple(verma_symbolic(3, j) for j in (1, 2, 3)), (1, 1)),
        (tuple(verma_symbolic(3, j) for j in (1, 2, 3)), (2, 1)),
        (tuple(verma_symbolic(3, j) for j in (1, 2, 3, 4)), (1, 2)),
        ((verma_symbolic(3, 1), verma_symbolic(3, 2)), (2, 0)),
    ],
    ids=["sl2-lp1-lp2", "sl3-2-11", "sl3-2-21", "sl3-3-11", "sl3-3-21", "sl3-4-12", "sl3-2-20"],
)
def test_root_terms_match_the_lowered_space_reference(factors, nu0):
    # built through nu - alpha; the reference goes through nu + alpha
    sp = enumerate_basis(factors, nu0)
    pairs = [(i, j) for i in range(1, len(factors) + 1) for j in range(1, len(factors) + 1)]
    for i, j in pairs:
        if i != j:
            assert dyn._root_terms(sp, i, j) == reference_root_terms(sp, i, j)


def test_root_terms_through_an_empty_raised_space():
    # at depth (2, 0) no vector can be raised by alpha_2: those terms vanish
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (2, 0))
    assert operator_for_letter(sp, E(2, 3), only_factor=0).codomain.dim == 0
    terms = dyn._root_terms(sp, 1, 2)
    assert terms[(2, 3)].is_zero() and terms[(1, 3)].is_zero()
    assert not terms[(1, 2)].is_zero()


def test_r_matrix_unitarity():
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    z1, z2 = z_symbols(2)
    total = r_matrix_operator(sp, 1, 2, z1, z2) + r_matrix_operator(
        sp, 2, 1, z2, z1
    )
    assert total.is_zero()


def test_rational_kz_zero_orders_sum_to_zero():
    sp = enumerate_basis(
        [verma_symbolic(2, 1), verma_symbolic(2, 2), verma_symbolic(2, 3)], (1,)
    )
    lam = lambda_pairing_symbols(2)
    total = WeightSpaceOperator.zero(sp, sp)
    for i in (1, 2, 3):
        op = kz_operator(sp, "rational", i, lam)
        assert op.derivative_coeff == kappa_symbol()
        total = total + op.zero_order
    assert total.is_zero()


def test_trig_kz_zero_orders_sum_to_weight_scalar():
    sp = enumerate_basis([verma_symbolic(2, 1), verma_symbolic(2, 2)], (1,))
    lam = lambda_pairing_symbols(2)
    z1, z2 = z_symbols(2)
    total = WeightSpaceOperator.zero(sp, sp)
    for i in (1, 2):
        op = kz_operator(sp, "trigonometric", i, lam)
        assert op.derivative_coeff == kappa_symbol() * (z1 if i == 1 else z2)
        total = total + op.zero_order
    # Total of the two diagonal weight terms is (lam, nu) * identity.
    lam_vec = WeightVec(tuple(lam))
    nu = sp.factors[0].hw + sp.factors[1].hw - nu_vec(2, sp.nu0)
    scalar = lam_vec.dot(nu)
    expected = WeightSpaceOperator.identity(sp).scale(-scalar)
    assert total == expected


def test_kz_unknown_kind_raises():
    sp = enumerate_basis([verma_symbolic(2, 1)], (1,))
    with pytest.raises(ValueError):
        kz_operator(sp, "elliptic", 1, lambda_pairing_symbols(2))


# ---------------------------------------------------------------------------
# Coordinate-dressed operator and compatibility
# ---------------------------------------------------------------------------


def test_k_operator_structure_rank1():
    sp = enumerate_basis([verma_symbolic(2, 1), verma_symbolic(2, 2)], (1,))
    lam = lambda_pairing_symbols(2)
    z1, z2 = z_symbols(2)
    K = K_operator(sp, 1, lam)
    B = B_w(sp, [1], lam)
    # Row scaling: each row is divided by the coordinate of the factor that
    # carries the lowering step.
    for (r, c_), val in K.entries.items():
        exps = sp.basis[r]
        zrow = z1 if sum(exps[0]) else z2
        assert val == B.entry(r, c_) / zrow
    assert formal_z_exponents(sp, 1) == tuple(
        f.hw.dot(omega_vec(2, 1)) for f in sp.factors
    )


def test_k_exchange_rank2():
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    report = check_K_exchange(sp, 1, 2)
    assert report.passed, report.witness
    assert report.to_json()["passed"] is True


def test_k_exchange_rejects_one_level_twice():
    # both sides would be the same product of the same operators
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 0))
    with pytest.raises(ValueError):
        check_K_exchange(sp, 2, 2)


def test_nabla_k_rank1():
    sp = enumerate_basis([verma_symbolic(2, 1), verma_symbolic(2, 2)], (1,))
    for j in (1, 2):
        report = check_nabla_K(sp, j, 1)
        assert report.passed, report.witness
    sp2 = enumerate_basis([verma_symbolic(2, 1), verma_symbolic(2, 2)], (2,))
    for j in (1, 2):
        report = check_nabla_K(sp2, j, 1)
        assert report.passed, report.witness


def test_nabla_k_rank2():
    sp = enumerate_basis([verma_symbolic(3, 1), verma_symbolic(3, 2)], (1, 1))
    for k in (1, 2):
        for j in (1, 2):
            report = check_nabla_K(sp, j, k)
            assert report.passed, report.witness


def _compatibility_space(n, nu, specs=("verma", "verma")):
    """The space of ``kzdyn verify compatibility --n N --nu NU --factors SPECS``."""
    factors = [
        verma_symbolic(n, i + 1) if spec == "verma" else lp_module(int(spec[3:]))
        for i, spec in enumerate(specs)
    ]
    return enumerate_basis(factors, nu)


# the pinned `compatibility` default, rank 3, the one rank-3 space with two
# other factors per row, and a mix of finite-dimensional and Verma factors
_ROW_SPACES = {
    "defaults": (2, (1,)),
    "n3-nu11": (3, (1, 1)),
    "n3-nu11-verma3": (3, (1, 1), ("verma",) * 3),
    "n2-nu2-lp2-lp1-verma": (2, (2,), ("lp:2", "lp:1", "verma")),
}


@pytest.mark.parametrize("name", list(_ROW_SPACES))
def test_nabla_k_rows_agree_with_check_nabla_k(name):
    sp = _compatibility_space(*_ROW_SPACES[name])
    n_rank = sp.pbw_basis.n_rank
    rows = list(nabla_K_rows(sp))
    assert [(j, k) for j, k, _ in rows] == [
        (j, k) for j in range(1, len(sp.factors) + 1) for k in range(1, n_rank)
    ]
    for j, k, report in rows:
        assert report == check_nabla_K(sp, j, k) == CheckReport(True, sp.dim ** 2)


# each takes the original function and returns the mutant
_MUTANTS = {
    "formal exponent at level 1": (
        "formal_z_exponents",
        lambda f: lambda space, k: f(space, 1),
    ),
    "B_w roots reversed": (
        "roots_of_reduced_word",
        lambda f: lambda n_rank, word: f(n_rank, word)[::-1],
    ),
    "B_alpha argument off by one": (
        "p_series",
        lambda f: lambda space, alpha, t_val: f(space, alpha, t_val - RF_ONE),
    ),
}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_nabla_k_rows_fail_where_check_nabla_k_fails(mutant, monkeypatch):
    from kzdyn import dyn

    name, mutate = _MUTANTS[mutant]
    monkeypatch.setattr(dyn, name, mutate(getattr(dyn, name)))
    failed = 0
    for config in ("defaults", "n3-nu11", "n2-nu2-lp2-lp1-verma"):
        sp = _compatibility_space(*_ROW_SPACES[config])
        assert sp.dim <= 6
        got = [(j, k, report.passed) for j, k, report in nabla_K_rows(sp)]
        assert got == [(j, k, check_nabla_K(sp, j, k).passed) for j, k, _ in got]
        failed += sum(not passed for _, _, passed in got)
    assert failed


def _failing_witnesses(sp):
    out = {}
    for j, k, report in nabla_K_rows(sp):
        if not report.passed:
            assert report.checked == sp.dim ** 2
            out[(j, k)] = dict(report.witness)
    return out


def test_nabla_k_rows_witness_names_the_remainder(monkeypatch):
    # the exponents witness is checked through the CLI report in test_cli
    from kzdyn import dyn

    name, mutate = _MUTANTS["B_alpha argument off by one"]
    monkeypatch.setattr(dyn, name, mutate(getattr(dyn, name)))
    witnesses = _failing_witnesses(_compatibility_space(2, (1,)))
    assert list(witnesses) == [(1, 1), (2, 1)]
    for witness in witnesses.values():
        assert witness.pop("lhs") != witness.pop("rhs")
        assert witness.pop("part") == "remainder"
        assert set(witness) == {"row", "col"}


def test_nabla_k_rows_witness_names_a_casimir_commutator(monkeypatch):
    # a diagonal B that reads factor 1's weight moves weight between the
    # factors of Omega_12 and cannot commute with it
    from kzdyn import dyn

    monkeypatch.setattr(
        dyn, "B_w", lambda space, word, pairings: lambda_diagonal(space, 1, pairings)
    )
    sp = _compatibility_space(2, (1,))
    witnesses = _failing_witnesses(sp)
    assert list(witnesses) == [(1, 1), (2, 1)]
    assert not any(check_nabla_K(sp, j, 1).passed for j in (1, 2))
    for (j, _), witness in witnesses.items():
        assert witness.pop("lhs") != witness.pop("rhs")
        assert witness.pop("part") == "casimir" and witness.pop("i") == 3 - j
        assert set(witness) == {"row", "col"}


# ---------------------------------------------------------------------------
# Determinant ingredients
# ---------------------------------------------------------------------------


def test_det_ingredients_rank1_fixture():
    # L_3 (x) L_2 at two lowering steps: strings and traces computed by hand.
    sp = enumerate_basis([lp_module(3), lp_module(2)], (2,))
    ing = det_ingredients(sp, (1, 2))
    assert ing.multiplicities == {1: 1, 2: 1}
    l1 = symbol("l1")
    kap = kappa_symbol()
    # s = (nu, alpha) = 3 + 2 - 4 = 1; one string at m = 1 and one at m = 2,
    # each with the argument pairs at j = 1..m, h_j = (s + 2j)/2
    h1, h2 = rational(Fraction(3, 2)), rational(Fraction(5, 2))
    assert ing.gamma_ratio == Counter(
        {
            RF_ONE - (l1 - h1) / kap: 2,
            RF_ONE - (l1 + h1) / kap: -2,
            RF_ONE - (l1 - h2) / kap: 1,
            RF_ONE - (l1 + h2) / kap: -1,
        }
    )
    assert ing.lambda_traces[0] == l1 * rational(Fraction(3, 2))
    assert ing.lambda_traces[1] == RF_ZERO
    assert ing.epsilon[(1, 2)] == rational(-4)
    assert ing.gamma_sums == (rational(-4), rational(-4))
    assert ing.z_exponents[0] == (l1 * rational(Fraction(3, 2)) + rational(2)) / kap
    assert ing.z_exponents[1] == rational(2) / kap
    assert ing.pair_exponents[(1, 2)] == rational(-4) / kap


def test_det_ingredients_requires_finite_dim():
    sp = enumerate_basis([verma_symbolic(2, 1)], (1,))
    with pytest.raises(NonFiniteDim):
        det_ingredients(sp, (1, 2))


def test_det_ingredients_trace_consistency():
    # epsilon equals the trace of the full two-factor Casimir operator.
    sp = enumerate_basis([lp_module(2), lp_module(2)], (1,))
    ing = det_ingredients(sp, (1, 2))
    op = omega_operator(sp, 1, 2) + omega_operator(sp, 2, 1)
    tr = RF_ZERO
    for i in range(sp.dim):
        tr = tr + op.entry(i, i)
    assert ing.epsilon[(1, 2)] == tr


# ---------------------------------------------------------------------------
# Rational-to-trigonometric reduction
# ---------------------------------------------------------------------------


def test_rational_to_trig_rank1():
    for nu0 in ((1,), (2,)):
        sp = enumerate_basis(
            [verma_symbolic(2, 1), verma_symbolic(2, 2), verma_symbolic(2, 3)], nu0
        )
        vectors = singular_vectors(sp)
        for i in (1, 2):
            report = check_rational_to_trig(sp, i, vectors)
            assert report.passed, report.witness
            assert report.checked >= 1


def test_rational_to_trig_rank2():
    sp = enumerate_basis(
        [verma_symbolic(3, 1), verma_symbolic(3, 2), verma_symbolic(3, 3)], (1, 1)
    )
    vectors = singular_vectors(sp)
    for i in (1, 2):
        report = check_rational_to_trig(sp, i, vectors)
        assert report.passed, report.witness


def _apply_then_contract(space_prime, space, i, vec):
    """The full Casimir coupling of factor i to the last factor applied on
    the whole extended space, then contracted against the last factor's
    dual highest vector."""
    last = len(space_prime.factors)
    coupling = omega_operator(space_prime, i, last) + omega_operator(space_prime, last, i)
    zero = space_prime.pbw_basis.zero_exps()
    return {
        space.index_position[space_prime.basis[pos][:-1]]: c
        for pos, c in coupling.apply(vec).items()
        if space_prime.basis[pos][-1] == zero
    }


@pytest.mark.parametrize(
    "n_rank, n_factors, nu0",
    [(2, 2, (2,)), (3, 3, (1, 1)), (2, 4, (2,)), (3, 4, (1, 1))],
    ids=["sl2-2", "sl3-3", "sl2-4", "sl3-4"],
)
def test_projected_coupling_is_apply_then_contract(n_rank, n_factors, nu0):
    sp = enumerate_basis([verma_symbolic(n_rank, j) for j in range(1, n_factors + 1)], nu0)
    space = enumerate_basis(sp.factors[:-1], sp.nu0, sp.pbw_basis)
    vectors = singular_vectors(sp)
    assert vectors
    for i in range(1, n_factors):
        projected = dyn._coupling_to_last(sp, space, i)
        for vec in vectors:
            assert projected.apply(vec) == _apply_then_contract(sp, space, i, vec)
        # on every basis vector too: the two operators agree row by row
        for pos in range(sp.dim):
            vec = {pos: RF_ONE}
            assert projected.apply(vec) == _apply_then_contract(sp, space, i, vec)


# the first mismatch of each position under the swapped coupling: the
# singular vector, the position and both sides
_SWAPPED_COUPLING_WITNESSES = {
    1: {
        "singular_vector": 1,
        "pos": 2,
        "lhs": "0",
        "rhs": "-L:3:2",
    },
    2: {
        "singular_vector": 1,
        "pos": 0,
        "lhs": (
            "1/3 * L:1:1 * L:2:1 * L:3:2 + 1/6 * L:1:1 * L:2:2 * L:3:2"
            " + 1/6 * L:1:2 * L:2:1 * L:3:2 + 1/3 * L:1:2 * L:2:2 * L:3:2"
            " + 2/3 * L:2:1 * L:3:1 * L:3:2 + 1/3 * L:2:1 * L:3:2^2"
            " + 1/3 * L:2:2 * L:3:1 * L:3:2 + 2/3 * L:2:2 * L:3:2^2 - 1/2 * L:1:1 * L:3:2"
            " - 1/2 * L:1:2 * L:3:2 - L:2:1 * L:3:2 - L:2:2 * L:3:2 - L:3:1 * L:3:2"
            " - L:3:2^2 - L:3:2"
        ),
        "rhs": (
            "1/3 * L:1:1 * L:2:1 * L:3:2 + 1/6 * L:1:1 * L:2:2 * L:3:2"
            " + 1/6 * L:1:2 * L:2:1 * L:3:2 + 1/3 * L:1:2 * L:2:2 * L:3:2"
            " + 2/3 * L:2:1 * L:3:1 * L:3:2 + 1/3 * L:2:1 * L:3:2^2"
            " + 1/3 * L:2:2 * L:3:1 * L:3:2 + 2/3 * L:2:2 * L:3:2^2 - 1/2 * L:1:1 * L:3:2"
            " - 1/2 * L:1:2 * L:3:2 - L:3:1 * L:3:2 - L:3:2^2"
        ),
    },
}


def test_rational_to_trig_fails_with_one_half_of_the_coupling(monkeypatch):
    # the coupling's root terms raise at factor i instead of the last factor:
    # the half that the contraction never sees, so only the diagonal is left
    sp = enumerate_basis(
        [verma_symbolic(3, 1), verma_symbolic(3, 2), verma_symbolic(3, 3)], (1, 1)
    )
    vectors = singular_vectors(sp)
    original = dyn._root_letters

    def swapped(space, raise_at, lower_at):
        if space == sp:
            return original(space, lower_at, raise_at)
        return original(space, raise_at, lower_at)

    monkeypatch.setattr(dyn, "_root_letters", swapped)
    for i in (1, 2):
        report = check_rational_to_trig(sp, i, vectors)
        assert not report.passed
        assert {"singular_vector", "pos", "lhs", "rhs"} <= set(report.witness)
        assert report.witness["lhs"] != report.witness["rhs"]
        assert report.checked == 1
        assert report.witness == _SWAPPED_COUPLING_WITNESSES[i]
    monkeypatch.setattr(dyn, "_root_letters", original)
    assert all(check_rational_to_trig(sp, i, vectors).passed for i in (1, 2))


def test_rational_to_trig_requires_two_factors():
    sp = enumerate_basis([verma_symbolic(2, 1)], (1,))
    with pytest.raises(ValueError):
        check_rational_to_trig(sp, 1, [])


def test_check_report_json():
    assert CheckReport(True, 9).to_json() == {"passed": True, "checked": 9}
    rep = CheckReport(False, 4, {"row": 0})
    assert rep.to_json() == {"passed": False, "checked": 4, "witness": {"row": 0}}
