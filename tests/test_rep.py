"""Tests for weight spaces, generator actions, the contravariant form, and
dual-basis actions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from _algebra_helpers import apply_genword_at
from _closed_forms import b_coeff, falling
from kzdyn.hyper import index_counts, raising_dual_coefficients
from kzdyn.rep import (
    PBWVector,
    SingularGram,
    WeightSpaceOperator,
    dual_action_F,
    enumerate_basis,
    lp_module,
    operator_for_letter,
    p_elements,
    shapovalov_gram,
    singular_vectors,
    verma_symbolic,
    verma_weight,
    word_operator,
)
from kzdyn.roots import alpha_vec, weight_from_pairings
from kzdyn.symexpr import RF_ONE, RF_ZERO, rational, symbol
from kzdyn.uea import (
    GenWord,
    bracket_letters,
    f_letter,
    special_basis,
    standard_basis,
    word,
)


def _sym(j, n):
    return verma_symbolic(n, j)


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------


def test_enumerate_rank2_one_factor_depth_1_1():
    space = enumerate_basis([_sym(1, 3)], (1, 1))
    assert space.dim == 2
    basis = standard_basis(3)
    as_roots = [basis.roots_from_exps(index[0]) for index in space.basis]
    assert {(1, 3): 1} in as_roots
    assert {(1, 2): 1, (2, 3): 1} in as_roots


def test_enumerate_rank2_one_factor_depth_2_1():
    space = enumerate_basis([_sym(1, 3)], (2, 1))
    assert space.dim == 2


def test_enumerate_rank1_single_column():
    for m in range(5):
        assert enumerate_basis([_sym(1, 2)], (m,)).dim == 1


def test_enumerate_is_lexicographic_and_deterministic():
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (2, 1))
    again = enumerate_basis([_sym(1, 3), _sym(2, 3)], (2, 1))
    assert space.basis == again.basis
    root_rank = sorted(
        range(len(space.pbw_basis.order)),
        key=lambda i: (space.pbw_basis.order[i][1], space.pbw_basis.order[i][0]),
    )
    flat = [
        tuple(exps[i] for exps in index for i in root_rank) for index in space.basis
    ]
    assert flat == sorted(flat)


def test_enumerate_lp_truncates_depth():
    assert enumerate_basis([lp_module(2)], (2,)).dim == 1
    assert enumerate_basis([lp_module(2)], (3,)).dim == 0


# ---------------------------------------------------------------------------
# Generator actions
# ---------------------------------------------------------------------------


def test_leibniz_raising_on_plain_lowered_tensor():
    space0 = enumerate_basis([_sym(1, 2), _sym(2, 2)], (0,))
    top = PBWVector.basis_vector(space0, 0)
    lowered = apply_genword_at(space0, word(f_letter((1, 2))), 0, top)
    out = operator_for_letter(lowered.space, ("e", 1, 2)).apply(lowered)
    assert out.space == space0
    assert out.coeffs == {0: symbol("L:1:1")}


def test_cartan_acts_by_weight_pairing():
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (2, 1))
    lam = space.total_highest_weight()
    for pos in range(space.dim):
        v = PBWVector.basis_vector(space, pos)
        out = operator_for_letter(space, ("c", 1, 2)).apply(v)
        expected = (lam.eps[0] - lam.eps[1]) - rational(2 * 2 - 1)
        assert out.space == space
        assert out.coeffs == {pos: expected}


def test_raising_e13_matches_hand_bracket_expansion():
    # On the two depth-(1,1) monomials of a single rank-two Verma factor:
    # e_{1,3}(-e_{3,1} v) = -(l1+l2) v  and  e_{1,3}(e_{3,2}e_{2,1} v) = l1 v.
    space = enumerate_basis([_sym(1, 3)], (1, 1))
    basis = space.pbw_basis
    lam1, lam2 = symbol("L:1:1"), symbol("L:1:2")
    top_space = enumerate_basis([_sym(1, 3)], (0, 0))
    pos_e31 = space.index_position[(basis.exps_from_roots({(1, 3): 1}),)]
    pos_prod = space.index_position[
        (basis.exps_from_roots({(1, 2): 1, (2, 3): 1}),)
    ]
    e13 = operator_for_letter(space, ("e", 1, 3))
    out1 = e13.apply(PBWVector.basis_vector(space, pos_e31))
    # basis monomial on (1,3) is -e_{3,1} at the standard arrangement
    assert out1.space == top_space
    assert out1.coeffs == {0: RF_ZERO - (lam1 + lam2)}
    out2 = e13.apply(PBWVector.basis_vector(space, pos_prod))
    assert out2.coeffs == {0: lam1}


def test_action_respects_structure_constants():
    rng = random.Random(31)
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (1, 1))
    letters = [("e", a, b) for a in range(1, 4) for b in range(1, 4) if a != b]
    for _ in range(6):
        x, y = rng.choice(letters), rng.choice(letters)
        pos = rng.randrange(space.dim)
        v = PBWVector.basis_vector(space, pos)
        yv = operator_for_letter(space, y).apply(v)
        xv = operator_for_letter(space, x).apply(v)
        xy = operator_for_letter(yv.space, x).apply(yv)
        yx = operator_for_letter(xv.space, y).apply(xv)
        if xy.space.basis or yx.space.basis:
            direct = PBWVector.zero(xy.space)
            for z, c in bracket_letters(x, y).items():
                zv = operator_for_letter(space, z).apply(v)
                direct = direct + zv.scale(rational(c))
            assert xy - yx == direct


def test_lp_factor_truncates_action():
    space = enumerate_basis([lp_module(2)], (2,))
    v = PBWVector.basis_vector(space, 0)
    lowered = operator_for_letter(space, ("e", 2, 1)).apply(v)
    assert lowered.coeffs == {}  # falls off the (p+1)-dimensional module
    raised = operator_for_letter(space, ("e", 1, 2)).apply(v)
    # E on the degree-2 basis monomial: plain E e21^2/2! v = (p-1) e21 v with
    # p = 2, and the degree-1 basis monomial is -e21 v, so the matrix entry
    # is -(p-1) = -1.
    assert list(raised.coeffs.values()) == [rational(-1)]


def test_lp_sl2_irreducible_dimension_action_table():
    p = 3
    spaces = [enumerate_basis([lp_module(p)], (m,)) for m in range(p + 1)]
    # E F^i v = i (p - i + 1) F^{i-1} v on plain powers; divided bases carry
    # the sign convention, so check against the raw-word action.
    top = PBWVector.basis_vector(spaces[0], 0)
    vec = top
    for i in range(1, p + 1):
        vec = operator_for_letter(vec.space, ("e", 2, 1)).apply(vec)
        back = operator_for_letter(vec.space, ("e", 1, 2)).apply(vec)
        expected = top
        for _ in range(i - 1):
            lower = operator_for_letter(expected.space, ("e", 2, 1))
            expected = lower.apply(expected)
        assert back == expected.scale(rational(i * (p - i + 1)))


# ---------------------------------------------------------------------------
# Contravariant form
# ---------------------------------------------------------------------------


def test_gram_rank1_closed_form():
    l1 = symbol("l1")
    for k in range(1, 5):
        spec = verma_weight(2, weight_from_pairings(2, [l1]))
        space = enumerate_basis([spec], (k,))
        gram = shapovalov_gram(space)
        divided = falling(l1, k) / rational(math.factorial(k))
        assert gram.entry(0, 0) == divided
        # Raw-power convention: k!^2 times the divided entry.
        raw = gram.entry(0, 0) * rational(math.factorial(k) ** 2)
        assert raw == rational(math.factorial(k)) * falling(l1, k)


def test_gram_rank2_matrix_and_determinant_factors():
    space = enumerate_basis([_sym(1, 3)], (1, 1))
    gram = shapovalov_gram(space)
    l1, l2 = symbol("L:1:1"), symbol("L:1:2")
    dense = gram.dense()
    assert dense[0][1] == dense[1][0]
    det = dense[0][0] * dense[1][1] - dense[0][1] * dense[1][0]
    assert det == l1 * l2 * (l1 + l2 + rational(1))


def test_gram_symmetry_deeper_space():
    space = enumerate_basis([_sym(1, 3)], (2, 1))
    gram = shapovalov_gram(space)
    assert gram == gram.transpose()


def test_gram_requires_single_verma_factor():
    space = enumerate_basis([_sym(1, 2), _sym(2, 2)], (1,))
    with pytest.raises(ValueError):
        shapovalov_gram(space)


def test_p_elements_rank1_closed_form_and_delta():
    l1 = symbol("l1")
    spec = verma_weight(2, weight_from_pairings(2, [l1]))
    for k in range(1, 5):
        space = enumerate_basis([spec], (k,))
        coeff = p_elements(space)[(space.basis[0][0], (k,))]
        assert coeff == rational(math.factorial(k)) / falling(l1, k)
        # The coefficient on the raw power e21^k carries the arrangement
        # sign and the divided factorial: (-1)^k / (l1 (l1-1) ... (l1-k+1)).
        raw = coeff * rational(Fraction((-1) ** k, math.factorial(k)))
        assert raw == rational((-1) ** k) / falling(l1, k)


def test_p_elements_delta_property_rank2():
    for nu0 in [(1, 1), (2, 1)]:
        space = enumerate_basis([_sym(1, 3)], nu0)
        gram = shapovalov_gram(space)
        pmap = p_elements(space)
        for col, index in enumerate(space.basis):
            pvec = PBWVector(
                space,
                {
                    space.index_position[(hi,)]: c
                    for (lo, hi), c in pmap.items()
                    if lo == index[0]
                },
            )
            paired = gram.apply(pvec)
            expected = {col: RF_ONE}
            assert paired.coeffs == expected


def test_p_elements_singular_gram_error():
    spec = verma_weight(2, weight_from_pairings(2, [rational(0)]))
    space = enumerate_basis([spec], (1,))
    with pytest.raises(SingularGram):
        p_elements(space)


def test_tau_characterization_of_p_elements():
    # tau(P_I) v^* = (F_I v)^*: evaluating that functional on F_J v must give
    # delta_{IJ}.  A word acts on dual vectors through the antipode, so the
    # evaluations are the one row of the matrix of (A o tau)(P_I) into the
    # top space.
    from kzdyn.uea import antipode_A, chevalley_tau, monomial_word
    space = enumerate_basis([_sym(1, 3)], (1, 1))
    pmap = p_elements(space)
    top_space = enumerate_basis([_sym(1, 3)], (0, 0))
    for i, index_i in enumerate(space.basis):
        total = WeightSpaceOperator.zero(space, top_space)
        for exps, c in ((hi, c) for (lo, hi), c in pmap.items() if lo == index_i[0]):
            w = antipode_A(chevalley_tau(monomial_word(space.pbw_basis, exps)))
            total = total + word_operator(space, GenWord(w.coeff * c, w.letters))
        assert total == WeightSpaceOperator(space, top_space, {(0, i): RF_ONE})


# ---------------------------------------------------------------------------
# Dual-basis actions
# ---------------------------------------------------------------------------


def _dual_E(space, index, h):
    """`raising_dual_coefficients` on (F_index v)^*, keyed by the multi-indices
    of the space with one more level-h lowering."""
    n_rank = space.pbw_basis.n_rank
    deeper = space.shifted({h: +1})
    by_counts = {index_counts(m, deeper.pbw_basis): m for m in deeper.basis}
    pairings = [
        tuple(f.hw.dot(alpha_vec(n_rank, p)) for p in range(1, n_rank))
        for f in space.factors
    ]
    counts = index_counts(index, space.pbw_basis)
    return {
        by_counts[key]: c
        for key, c in raising_dual_coefficients(counts, h, pairings, n_rank)
    }


def _oracle_dual_E(space, h):
    deeper = space.shifted({h: +1})
    op = operator_for_letter(deeper, ("e", h, h + 1))
    out = {}
    for (row, col), v in op.entries.items():
        out.setdefault(space.basis[row], {})[deeper.basis[col]] = RF_ZERO - v
    return out


@pytest.mark.parametrize(
    "n_rank,nu0",
    [(2, (1,)), (2, (2,)), (2, (3,)), (3, (1, 1)), (3, (2, 1)), (3, (1, 2)), (3, (2, 2))],
)
def test_dual_action_E_equals_minus_transpose(n_rank, nu0):
    factors = tuple(_sym(j, n_rank) for j in (1, 2))
    space = enumerate_basis(factors, nu0)
    for h in range(1, n_rank):
        want = _oracle_dual_E(space, h)
        for index in space.basis:
            got = _dual_E(space, index, h)
            expected = {
                k: v for k, v in want.get(index, {}).items() if not v.is_zero()
            }
            assert got == expected


def test_dual_action_E_zero_index_keeps_only_weight_term():
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (0, 0))
    index = space.basis[0]
    got = _dual_E(space, index, 1)
    basis = space.pbw_basis
    unit = basis.exps_from_roots({(1, 2): 1})
    zero = basis.zero_exps()
    assert got == {
        ((unit), (zero)): symbol("L:1:1"),
        ((zero), (unit)): symbol("L:2:1"),
    }


def test_dual_action_E_rank1_single_lowering_coefficient():
    space = enumerate_basis([_sym(1, 2)], (1,))
    index = space.basis[0]
    got = _dual_E(space, index, 1)
    assert got == {((2,),): symbol("L:1:1") - rational(1)}


def test_dual_action_F_one_term_rule_and_oracle():
    for n_rank, nu0, h in [(3, (1, 1), 1), (3, (2, 2), 2), (4, (1, 1, 1), 2)]:
        basis = special_basis(n_rank, h)
        factors = tuple(_sym(j, n_rank) for j in (1, 2))
        space = enumerate_basis(factors, nu0, basis)
        straddling = [r for r in basis.order if r[0] <= h < r[1]]
        for root in straddling:
            shallow_nu0 = tuple(
                m - (1 if root[0] <= lev < root[1] else 0)
                for lev, m in zip(range(1, n_rank), nu0)
            )
            if any(m < 0 for m in shallow_nu0):
                continue
            shallow = enumerate_basis(factors, shallow_nu0, basis)
            sgn = basis.signs[basis.position[root]]
            opF = operator_for_letter(shallow, ("e", root[1], root[0])).scale(
                rational(sgn)
            )
            for index in space.basis:
                got = dual_action_F(space, index, h, root)
                expected = {}
                for (row, col), v in opF.entries.items():
                    if space.basis[row] == index:
                        expected[shallow.basis[col]] = RF_ZERO - v
                expected = {k: v for k, v in expected.items() if not v.is_zero()}
                assert got == expected


def test_dual_action_F_trivial_cases():
    basis = special_basis(3, 1)
    space = enumerate_basis([_sym(1, 3)], (1, 1), basis)
    zero_space = enumerate_basis([_sym(1, 3)], (0, 0), basis)
    assert dual_action_F(zero_space, zero_space.basis[0], 1, (1, 3)) == {}
    idx = (basis.exps_from_roots({(1, 3): 1}),)
    got = dual_action_F(space, idx, 1, (1, 3))
    assert got == {(basis.zero_exps(),): rational(1)}
    with pytest.raises(ValueError):
        dual_action_F(space, idx, 1, (2, 3))


# ---------------------------------------------------------------------------
# Singular vectors
# ---------------------------------------------------------------------------


def test_singular_vectors_whole_space_at_depth_zero():
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (0, 0))
    sings = singular_vectors(space)
    assert len(sings) == 1 and sings[0].coeffs == {0: RF_ONE}


def test_singular_vector_count_matches_rank_deficiency():
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (1, 1))
    sings = singular_vectors(space)
    for v in sings:
        for h in (1, 2):
            assert operator_for_letter(space, ("e", h, h + 1)).apply(v).is_zero()
    # Generic rank of the stacked raising maps: codomains have dim 2 each.
    assert space.dim == 6 and len(sings) == 2


def test_singular_vector_matches_rank2_double_sum():
    # sing(v ⊗ x) = v ⊗ x + lower terms, built from the closed-form
    # double-sum coefficients; compare with the computed joint kernel.
    factors = (_sym(1, 3), _sym(2, 3))
    space = enumerate_basis(factors, (1, 1))
    basis = space.pbw_basis
    lam1, lam2 = symbol("L:1:1"), symbol("L:1:2")
    zero = basis.zero_exps()
    sings = singular_vectors(space)

    def raw(letters):
        return GenWord(RF_ONE, tuple(letters))

    second_indices = [
        index for index in space.basis if index[0] == zero
    ]  # v_lambda ⊗ (depth (1,1) of factor 2)
    for start in second_indices:
        v0 = PBWVector.basis_vector(space, space.index_position[start])
        total = PBWVector.zero(space)
        for a, b in itertools.product(range(3), repeat=2):
            for m, k in itertools.product(range(min(a, b) + 1), repeat=2):
                coeff = b_coeff(a, b, m, k, lam1, lam2) * rational((-1) ** (a + b))
                w2 = raw(
                    [("e", 1, 2)] * (a - k) + [("e", 1, 3)] * k + [("e", 2, 3)] * (b - k)
                )
                mid = apply_genword_at(space, w2, 1, v0)
                w1 = raw(
                    [("e", 3, 2)] * (b - m) + [("e", 3, 1)] * m + [("e", 2, 1)] * (a - m)
                )
                out = apply_genword_at(mid.space, w1, 0, mid)
                if out.space == space:
                    total = total + out.scale(coeff)
        # membership in the computed kernel: match by the v ⊗ (...) block
        for h in (1, 2):
            assert operator_for_letter(space, ("e", h, h + 1)).apply(total).is_zero()
        lead = {
            i: total.coeffs.get(i, RF_ZERO)
            for i, index in enumerate(space.basis)
            if index[0] == zero
        }
        # Solve for the kernel combination with the same leading block.
        rows = []
        rhs_positions = sorted(lead)
        for pos in rhs_positions:
            rows.append({j: sings[j].coeffs.get(pos, RF_ZERO) for j in range(len(sings))})
        # two unknown coefficients c_j: lead[pos] = sum_j c_j sings[j][pos]
        # Solve the 2x2 system directly.
        a11, a12 = rows[0].get(0, RF_ZERO), rows[0].get(1, RF_ZERO)
        a21, a22 = rows[1].get(0, RF_ZERO), rows[1].get(1, RF_ZERO)
        det = a11 * a22 - a12 * a21
        b1, b2 = lead[rhs_positions[0]], lead[rhs_positions[1]]
        c1 = (b1 * a22 - b2 * a12) / det
        c2 = (a11 * b2 - a21 * b1) / det
        combo = sings[0].scale(c1) + sings[1].scale(c2)
        assert combo == total

