"""Tests for root-system combinatorics, normal orders, and the reversal schedule."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _algebra_helpers import eps_coordinates
from kzdyn.roots import (
    ElemTransform,
    NotReduced,
    OutOfRange,
    WeightVec,
    WeylElement,
    alpha_vec,
    apply_transform,
    identity_weyl,
    intermediate_orders,
    is_normal,
    longest_element,
    nu_vec,
    omega_bracket,
    omega_vec,
    positive_roots,
    rho_vec,
    roots_of_reduced_word,
    serialize_order,
    sigma_sequence,
    sign_table_a,
    simple_reflection,
    special_order,
)
from kzdyn.symexpr import RF_ZERO, rational, symbol


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------

def test_positive_root_count():
    for n in range(2, 8):
        assert len(positive_roots(n)) == n * (n - 1) // 2


def test_standard_order_rank3():
    # the standard order is the top level's
    assert special_order(3, 2) == ((2, 3), (1, 3), (1, 2))


def test_level1_order_rank3():
    assert special_order(3, 1) == ((1, 2), (1, 3), (2, 3))


def test_all_special_orders_normal():
    for n in range(2, 7):
        for h in range(1, n):
            assert is_normal(special_order(n, h)), (n, h)


def test_special_order_range_check():
    with pytest.raises(OutOfRange):
        special_order(3, 0)
    with pytest.raises(OutOfRange):
        special_order(3, 3)


def test_serialize_order():
    assert serialize_order(special_order(3, 2)) == "a(2,3),a(1,3),a(1,2)"
    assert serialize_order(special_order(3, 1)) == "a(1,2),a(1,3),a(2,3)"


def test_normality_predicate_detects_violation():
    # (1,3) must sit between (1,2) and (2,3).
    assert not is_normal(((1, 3), (1, 2), (2, 3)))
    assert is_normal(((1, 2), (1, 3), (2, 3)))


# ---------------------------------------------------------------------------
# Reversal schedule between consecutive special orders
# ---------------------------------------------------------------------------

def test_sigma_rank3_single_reversal():
    seq = sigma_sequence(3, 2)
    a2 = [t for t in seq if t.kind == "A2"]
    assert len(a2) == 1 and a2[0].label == (1, 3)


def test_sigma_rank4_level2_two_reversals():
    seq = sigma_sequence(4, 2)
    labels = sorted(t.label for t in seq if t.kind == "A2")
    assert labels == [(1, 3), (1, 4)]


def test_sigma_end_state_and_normal_intermediates():
    for n in range(3, 7):
        for h in range(2, n):
            order = special_order(n, h)
            for transform in sigma_sequence(n, h):
                order = apply_transform(order, transform)
                assert is_normal(order), (n, h, transform)
            assert order == special_order(n, h - 1)


def test_apply_transform_rejects_a_transform_that_does_not_apply():
    # raised, not asserted, so that `python -O` rejects them too
    with pytest.raises(ValueError, match=r"kind='A2'.*a\(2,3\),a\(1,3\),a\(1,2\)"):
        apply_transform(special_order(3, 2), ElemTransform("A2", 0, (9, 9)))
    # (1, 2) + (2, 3) is the root (1, 3): the pair cannot swap
    with pytest.raises(ValueError, match="kind='A1A1'"):
        apply_transform(((1, 2), (2, 3), (1, 3)), ElemTransform("A1A1", 0))


def test_sigma_reversal_label_multiset():
    for n in range(3, 7):
        for h in range(2, n):
            labels = sorted(
                t.label for t in sigma_sequence(n, h) if t.kind == "A2"
            )
            expected = sorted(
                (k, l) for k in range(1, h) for l in range(h + 1, n + 1)
            )
            assert labels == expected
            assert len(labels) == (h - 1) * (n - h)


def test_sigma_range_check():
    with pytest.raises(OutOfRange):
        sigma_sequence(3, 1)


def test_intermediate_orders_endpoints():
    orders = intermediate_orders(4, 3)
    assert orders[0] == special_order(4, 3)
    assert orders[-1] == special_order(4, 2)
    assert len(orders) == len(sigma_sequence(4, 3)) + 1


# ---------------------------------------------------------------------------
# Sign table
# ---------------------------------------------------------------------------

def _closed_form_sign_table(n: int, h: int) -> dict[tuple[int, int], int]:
    out = {}
    for k, l in positive_roots(n):
        if l <= h:
            out[(k, l)] = 0
        elif h < k:
            out[(k, l)] = l - k - 1
        else:
            out[(k, l)] = l - h - 1
    return out


def test_sign_table_examples():
    assert sign_table_a(3, 1)[(1, 3)] == 1
    assert all(v == 0 for v in sign_table_a(3, 2).values())


def test_sign_table_matches_closed_form():
    for n in range(2, 7):
        for h in range(1, n):
            assert sign_table_a(n, h) == _closed_form_sign_table(n, h)


# ---------------------------------------------------------------------------
# Weyl elements and reduced words
# ---------------------------------------------------------------------------

def test_omega_bracket_inverse_permutations_rank3():
    # the two block rotations are inverse to each other
    w1, _ = omega_bracket(3, 1)
    assert w1.perm == (3, 1, 2)
    w2, _ = omega_bracket(3, 2)
    assert w2.perm == (2, 3, 1)
    assert (w1 * w2).perm == (w2 * w1).perm == (1, 2, 3)


def test_omega_bracket_length_and_product_form():
    for n in range(2, 7):
        for k in range(1, n):
            w, word = omega_bracket(n, k)
            assert w.length() == k * (n - k) == len(word)
            # product of the order-reversing element with the parabolic one
            parabolic = WeylElement(
                tuple(k + 1 - i if i <= k else n + k + 1 - i for i in range(1, n + 1))
            )
            assert (longest_element(n) * parabolic).perm == w.perm


def test_roots_of_reduced_word_examples():
    assert roots_of_reduced_word(2, [1]) == [(1, 2)]
    assert roots_of_reduced_word(3, [1, 2, 1]) == [(1, 2), (1, 3), (2, 3)]


def test_roots_of_reduced_word_rejects_non_reduced():
    with pytest.raises(NotReduced):
        roots_of_reduced_word(3, [1, 1])
    with pytest.raises(NotReduced):
        roots_of_reduced_word(3, [1, 2, 1, 2])


def test_reduced_words_of_omega_bracket_are_valid():
    for n in range(2, 6):
        for k in range(1, n):
            w, word = omega_bracket(n, k)
            seq = roots_of_reduced_word(n, word)
            assert len(set(seq)) == len(seq) == w.length()


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_rho_pairs_to_one_with_simple_roots():
    for n in range(2, 6):
        rho = rho_vec(n)
        for k in range(1, n):
            assert rho.dot(alpha_vec(n, k)).const_value() == 1


def test_fundamental_weights_dual_to_simple_roots():
    for n in range(2, 6):
        for k in range(1, n):
            for j in range(1, n):
                value = omega_vec(n, k).dot(alpha_vec(n, j)).const_value()
                assert value == (1 if j == k else 0)


def test_root_vec_inner_products():
    # Cartan matrix entries of type A via the epsilon dot product.
    for n in range(2, 6):
        for k in range(1, n):
            for j in range(1, n):
                value = alpha_vec(n, k).dot(alpha_vec(n, j)).const_value()
                expected = 2 if j == k else (-1 if abs(j - k) == 1 else 0)
                assert value == expected


def test_nu_vec_balance():
    v = nu_vec(3, (2, 1))
    assert v.dot(omega_vec(3, 1)).const_value() + v.dot(omega_vec(3, 2)).const_value() == 3


def test_dot_is_the_epsilon_dot_product():
    # the inverse-Cartan form against sum_i eps_i eps'_i, exactly, on
    # symbolic, Fraction and mixed labels (zero labels among them)
    rng = random.Random(52)

    def fraction():
        return rational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

    for n in range(2, 6):
        ks = range(1, n)
        weights = [
            WeightVec(tuple(symbol(f"x{k}") for k in ks)),
            WeightVec(tuple(symbol(f"y{k}") * rational(k) - rational(k) for k in ks)),
            WeightVec(tuple(fraction() for _ in ks)),
            WeightVec(tuple(rng.choice([symbol(f"x{k}"), fraction(), RF_ZERO]) for k in ks)),
            WeightVec(tuple(rng.choice([symbol(f"y{k}") / rational(3), fraction()]) for k in ks)),
        ]
        for a in weights:
            for b in weights:
                pairs = zip(eps_coordinates(a), eps_coordinates(b))
                assert a.dot(b) == sum((x * y for x, y in pairs), RF_ZERO), (n, a, b)


def test_simple_reflection_on_roots():
    s1 = simple_reflection(3, 1)
    assert s1.act_root((1, 2)) == (-1, (1, 2))
    assert s1.act_root((2, 3)) == (1, (1, 3))
    assert identity_weyl(3).act_root((1, 3)) == (1, (1, 3))
