"""Tests for weight spaces, generator actions, the contravariant form, and
dual-basis actions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from _algebra_helpers import (
    dense,
    reference_invert,
    reference_nullspace,
    transpose,
    word_operator_at,
)
from _closed_forms import b_coeff, falling
from kzdyn.hyper import index_counts
from kzdyn.lemmas import dual_action_F, raising_dual_coefficients
from kzdyn.rep import (
    ModuleSpec,
    SingularGram,
    WeightSpaceOperator,
    enumerate_basis,
    lp_module,
    nullspace,
    operator_for_letter,
    p_elements,
    shapovalov_gram,
    singular_vectors,
    verma_symbolic,
    verma_weight,
    word_operator,
)
from kzdyn.roots import WeightVec, alpha_vec, nu_vec
from kzdyn.symexpr import RF_ONE, RF_ZERO, rational, symbol
from kzdyn.uea import (
    GenWord,
    PBWBasis,
    bracket_letters,
    f_letter,
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


def test_module_spec_needs_one_label_per_simple_root():
    # a weight with too few or too many labels is refused; zipped against a
    # rank-3 lowering, a one-label weight would lose its second label
    for labels in [(symbol("x"),), (symbol("x"), symbol("y"), symbol("z"))]:
        with pytest.raises(ValueError):
            verma_weight(3, WeightVec(labels))
    with pytest.raises(ValueError):
        ModuleSpec("lp", 2, WeightVec((rational(1), rational(1))), p=1)
    assert verma_weight(3, WeightVec((symbol("x"), symbol("y")))).hw.pairings[1] == symbol("y")


def test_shift_below_zero_keeps_its_depth():
    space = enumerate_basis([verma_symbolic(3, 1)], (0, 1))
    below = space.shifted({1: -1})
    assert (below.nu0, below.dim, space.dim) == ((-1, 1), 0, 1)
    assert below != space
    # raising the top vector leaves every weight space; lowering comes back
    top = enumerate_basis([verma_symbolic(3, 1)], (0, 0))
    op = word_operator(top, word(("e", 2, 1), ("e", 1, 2)))
    assert op.codomain == top and op.entries == {}


@pytest.mark.parametrize(
    "factors, nu0",
    [
        ([lp_module(3)], (2,)),
        ([lp_module(2), verma_symbolic(2, 1)], (3,)),
        ([lp_module(1), lp_module(2), verma_symbolic(2, 3)], (2,)),
        # empty: the two factors hold at most 1 + 2 lowerings
        ([lp_module(1), lp_module(2)], (6,)),
        ([verma_symbolic(3, 1)], (1, 1)),
        ([verma_symbolic(3, 1), verma_symbolic(3, 2)], (2, 1)),
        ([verma_symbolic(3, 1), verma_symbolic(3, 2), verma_symbolic(3, 3)], (1, 2)),
        ([verma_symbolic(4, 1)], (1, 1, 1)),
        ([verma_symbolic(4, 1), verma_symbolic(4, 2), verma_symbolic(4, 3)], (1, 0, 2)),
    ],
)
def test_space_weight_and_pairings_match_their_definition(factors, nu0):
    space = enumerate_basis(factors, nu0)
    n_rank = space.pbw_basis.n_rank
    top = sum((f.hw for f in factors), WeightVec((RF_ZERO,) * (n_rank - 1)))
    weight = top - nu_vec(n_rank, nu0)
    assert space.weight == weight and space.weight is space.weight
    assert space.weight.pairings == tuple(
        weight.dot(alpha_vec(n_rank, p)) for p in range(1, n_rank)
    )


# ---------------------------------------------------------------------------
# Generator actions
# ---------------------------------------------------------------------------


def test_leibniz_raising_on_plain_lowered_tensor():
    space0 = enumerate_basis([_sym(1, 2), _sym(2, 2)], (0,))
    lower = word_operator_at(space0, word(f_letter((1, 2))), 0)
    raise_ = operator_for_letter(lower.codomain, ("e", 1, 2))
    out = raise_.apply(lower.apply({0: RF_ONE}))
    assert raise_.codomain == space0
    assert out == {0: symbol("L:1:1")}


def test_cartan_acts_by_weight_pairing():
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (2, 1))
    lam = space.factors[0].hw + space.factors[1].hw
    cartan = operator_for_letter(space, ("c", 1, 2))
    assert cartan.codomain == space
    for pos in range(space.dim):
        out = cartan.apply({pos: RF_ONE})
        expected = lam.pairings[0] - rational(2 * 2 - 1)
        assert out == {pos: expected}


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
    out1 = e13.apply({pos_e31: RF_ONE})
    # basis monomial on (1,3) is -e_{3,1} at the standard arrangement
    assert e13.codomain == top_space
    assert out1 == {0: RF_ZERO - (lam1 + lam2)}
    out2 = e13.apply({pos_prod: RF_ONE})
    assert out2 == {0: lam1}


def test_action_respects_structure_constants():
    rng = random.Random(31)
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (1, 1))
    letters = [("e", a, b) for a in range(1, 4) for b in range(1, 4) if a != b]
    for _ in range(6):
        x, y = rng.choice(letters), rng.choice(letters)
        v = {rng.randrange(space.dim): RF_ONE}
        xy = operator_for_letter(space, y)
        xy = operator_for_letter(xy.codomain, x).compose(xy)
        yx = operator_for_letter(space, x)
        yx = operator_for_letter(yx.codomain, y).compose(yx)
        if xy.codomain.basis or yx.codomain.basis:
            direct = WeightSpaceOperator.zero(space, xy.codomain)
            for z, c in bracket_letters(x, y).items():
                direct = direct + operator_for_letter(space, z).scale(rational(c))
            assert (xy - yx).apply(v) == direct.apply(v)


def test_lp_factor_truncates_action():
    space = enumerate_basis([lp_module(2)], (2,))
    v = {0: RF_ONE}
    lowered = operator_for_letter(space, ("e", 2, 1)).apply(v)
    assert lowered == {}  # falls off the (p+1)-dimensional module
    raised = operator_for_letter(space, ("e", 1, 2)).apply(v)
    # E on the degree-2 basis monomial: plain E e21^2/2! v = (p-1) e21 v with
    # p = 2, and the degree-1 basis monomial is -e21 v, so the matrix entry
    # is -(p-1) = -1.
    assert list(raised.values()) == [rational(-1)]


def test_lp_sl2_irreducible_dimension_action_table():
    p = 3
    # E F^i v = i (p - i + 1) F^{i-1} v on plain powers; divided bases carry
    # the sign convention, so check against the raw-word action.  The top
    # space is spanned by v, so the matrices from it are the vectors.
    power = WeightSpaceOperator.identity(enumerate_basis([lp_module(p)], (0,)))
    for i in range(1, p + 1):
        previous = power
        power = operator_for_letter(power.codomain, ("e", 2, 1)).compose(power)
        back = operator_for_letter(power.codomain, ("e", 1, 2)).compose(power)
        assert back == previous.scale(rational(i * (p - i + 1)))


# ---------------------------------------------------------------------------
# Contravariant form
# ---------------------------------------------------------------------------


def test_gram_rank1_closed_form():
    l1 = symbol("l1")
    for k in range(1, 5):
        spec = verma_weight(2, WeightVec((l1,)))
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
    m = dense(gram)
    assert m[0][1] == m[1][0]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det == l1 * l2 * (l1 + l2 + rational(1))


def test_gram_symmetry_deeper_space():
    space = enumerate_basis([_sym(1, 3)], (2, 1))
    gram = shapovalov_gram(space)
    assert gram == transpose(gram)


def test_gram_requires_single_verma_factor():
    space = enumerate_basis([_sym(1, 2), _sym(2, 2)], (1,))
    with pytest.raises(ValueError):
        shapovalov_gram(space)


def test_p_elements_rank1_closed_form_and_delta():
    l1 = symbol("l1")
    spec = verma_weight(2, WeightVec((l1,)))
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
        assert gram.invert() == reference_invert(gram)
        pmap = p_elements(space)
        for col, index in enumerate(space.basis):
            pvec = {
                space.index_position[(hi,)]: c
                for (lo, hi), c in pmap.items()
                if lo == index[0]
            }
            paired = gram.apply(pvec)
            expected = {col: RF_ONE}
            assert paired == expected


def test_p_elements_singular_gram_error():
    spec = verma_weight(2, WeightVec((rational(0),)))
    space = enumerate_basis([spec], (1,))
    with pytest.raises(SingularGram):
        p_elements(space)
    with pytest.raises(SingularGram):
        reference_invert(shapovalov_gram(space))


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
        basis = PBWBasis(n_rank, h)
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
    basis = PBWBasis(3, 1)
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
    assert len(sings) == 1 and sings[0] == {0: RF_ONE}


@pytest.mark.parametrize(
    "factors, nu0",
    [
        ((_sym(1, 3), _sym(2, 3)), (1, 1)),
        ((_sym(1, 3), _sym(2, 3), _sym(3, 3)), (2, 1)),
        ((lp_module(2), _sym(2, 2), lp_module(1)), (2,)),
    ],
    ids=["sl3-two-verma", "sl3-three-verma", "sl2-lp-verma-lp"],
)
def test_singular_vectors_are_polynomial_multiples_of_the_nullspace(factors, nu0):
    space = enumerate_basis(factors, nu0)
    rows = []
    for h in range(1, space.pbw_basis.n_rank):
        op = operator_for_letter(space, ("e", h, h + 1))
        by_row = {}
        for (i, j), v in op.entries.items():
            by_row.setdefault(i, {})[j] = v
        rows.extend(by_row.values())
    # the multiple is 1
    sings = singular_vectors(space)
    assert sings == nullspace(rows, space.dim) == reference_nullspace(rows, space.dim)
    assert len(sings) > 0
    assert any(not c.is_const() for v in sings for c in v.values())


def test_singular_vector_count_matches_rank_deficiency():
    space = enumerate_basis([_sym(1, 3), _sym(2, 3)], (1, 1))
    sings = singular_vectors(space)
    for v in sings:
        for h in (1, 2):
            assert operator_for_letter(space, ("e", h, h + 1)).apply(v) == {}
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
    # the double sum as one operator on the space, applied to each start
    double_sum = WeightSpaceOperator.zero(space, space)
    for a, b in itertools.product(range(3), repeat=2):
        for m, k in itertools.product(range(min(a, b) + 1), repeat=2):
            coeff = b_coeff(a, b, m, k, lam1, lam2) * rational((-1) ** (a + b))
            w2 = raw(
                [("e", 1, 2)] * (a - k) + [("e", 1, 3)] * k + [("e", 2, 3)] * (b - k)
            )
            mid = word_operator_at(space, w2, 1)
            w1 = raw(
                [("e", 3, 2)] * (b - m) + [("e", 3, 1)] * m + [("e", 2, 1)] * (a - m)
            )
            out = word_operator_at(mid.codomain, w1, 0).compose(mid)
            if out.codomain == space:
                double_sum = double_sum + out.scale(coeff)
    for start in second_indices:
        total = double_sum.apply({space.index_position[start]: RF_ONE})
        # membership in the computed kernel: match by the v ⊗ (...) block
        for h in (1, 2):
            assert operator_for_letter(space, ("e", h, h + 1)).apply(total) == {}
        lead = {
            i: total.get(i, RF_ZERO)
            for i, index in enumerate(space.basis)
            if index[0] == zero
        }
        # Solve for the kernel combination with the same leading block.
        rows = []
        rhs_positions = sorted(lead)
        for pos in rhs_positions:
            rows.append({j: sings[j].get(pos, RF_ZERO) for j in range(len(sings))})
        # two unknown coefficients c_j: lead[pos] = sum_j c_j sings[j][pos]
        # Solve the 2x2 system directly.
        a11, a12 = rows[0].get(0, RF_ZERO), rows[0].get(1, RF_ZERO)
        a21, a22 = rows[1].get(0, RF_ZERO), rows[1].get(1, RF_ZERO)
        det = a11 * a22 - a12 * a21
        b1, b2 = lead[rhs_positions[0]], lead[rhs_positions[1]]
        c1 = (b1 * a22 - b2 * a12) / det
        c2 = (a11 * b2 - a21 * b1) / det
        combo = {
            i: sings[0].get(i, RF_ZERO) * c1 + sings[1].get(i, RF_ZERO) * c2
            for i in sorted(set(sings[0]) | set(sings[1]))
        }
        assert {i: c for i, c in combo.items() if not c.is_zero()} == total


# ---------------------------------------------------------------------------
# Sparse elimination against the dense reference
# ---------------------------------------------------------------------------

_A, _B = symbol("a"), symbol("b")


def _random_entry(rng):
    c = rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return rng.choice(
        [
            c,
            _A + c,
            _A * _B - c,
            (_A - c) / (_B + rational(2)),
            RF_ONE / (_A + _B + rational(1)),
            (_B * _B + c) / (_A + rational(1)),
        ]
    )


def _random_rows(rng, nrows, ncols, dependent, density=0.4):
    """Sparse rows over Q(a, b); with probability ``dependent`` a row is a
    multiple of an earlier one plus another, so that the rank drops."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < dependent:
            r, s = rng.sample(rows, 2)
            f = _random_entry(rng)
            row = {j: r.get(j, RF_ZERO) * f + s.get(j, RF_ZERO) for j in set(r) | set(s)}
        else:
            row = {j: _random_entry(rng) for j in range(ncols) if rng.random() < density}
        rows.append({j: x for j, x in row.items() if not x.is_zero()})
    return rows


def _sl2_space(dim):
    """A weight space of the given dimension: two rank-one Verma factors
    at depth dim - 1, or the empty space below the top for dim 0."""
    if dim == 0:
        return enumerate_basis([_sym(1, 2), _sym(2, 2)], (0,)).shifted({1: -1})
    return enumerate_basis([_sym(1, 2), _sym(2, 2)], (dim - 1,))


@pytest.mark.parametrize("seed", range(16))
def test_nullspace_matches_dense_reference(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
    rows = _random_rows(rng, nrows, ncols, dependent=0.5)
    if rows and seed % 4 == 0:
        rows.insert(rng.randrange(len(rows)), {})
    before = [dict(row) for row in rows]
    assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)
    assert rows == before


@pytest.mark.parametrize("seed", range(12))
def test_invert_matches_dense_reference(seed):
    rng = random.Random(100 + seed)
    space = _sl2_space(rng.randint(1, 5))
    # every third matrix is likely singular
    dependent = 0.5 if seed % 3 == 0 else 0.0
    rows = _random_rows(rng, space.dim, space.dim, dependent, density=0.7)
    op = WeightSpaceOperator(
        space, space, {(i, j): x for i, row in enumerate(rows) for j, x in row.items()}
    )
    try:
        expected = reference_invert(op)
    except SingularGram:
        with pytest.raises(SingularGram):
            op.invert()
        return
    inverse = op.invert()
    assert inverse == expected
    assert op.compose(inverse) == WeightSpaceOperator.identity(space)


@pytest.mark.parametrize("method", ["compose", "add", "invert"])
def test_mismatched_operand_spaces_raise_value_error(method):
    # `if` guards, not `assert`: they hold under python -O too
    e12 = operator_for_letter(enumerate_basis([_sym(1, 3)], (1, 1)), ("e", 1, 2))
    e23 = operator_for_letter(enumerate_basis([_sym(1, 3)], (1, 0)), ("e", 2, 3))
    call = {"compose": lambda: e12.compose(e23), "add": lambda: e12 + e23, "invert": e12.invert}
    with pytest.raises(ValueError, match="TensorWeightSpace.*TensorWeightSpace"):
        call[method]()


def test_elimination_edge_cases():
    # dim 0, and rows with no entries
    assert nullspace([], 0) == reference_nullspace([], 0) == []
    assert nullspace([{}, {}], 2) == reference_nullspace([{}, {}], 2) == [{0: RF_ONE}, {1: RF_ONE}]
    empty = _sl2_space(0)
    assert empty.dim == 0
    zero = WeightSpaceOperator.zero(empty, empty)
    assert zero.invert() == reference_invert(zero) == zero
    # the second row is a times the first, so one of the two cancels to
    # zero on the first pivot; the third is independent of both
    rows = [
        {0: _A, 1: _B, 2: RF_ONE},
        {0: _A * _A, 1: _A * _B, 2: _A},
        {1: _A + _B, 3: rational(2)},
    ]
    assert nullspace(rows, 4) == reference_nullspace(rows, 4)
    assert len(nullspace(rows, 4)) == 2
    # every entry of column 0 is nonconstant, so its pivot is too
    rows = [{0: _A, 1: RF_ONE}, {0: _A + _B, 2: _B}, {0: _A * _B, 1: _B, 2: RF_ONE}]
    assert all(not row[0].is_const() for row in rows)
    assert nullspace(rows, 3) == reference_nullspace(rows, 3) == []
    space = _sl2_space(3)
    op = WeightSpaceOperator(
        space, space, {(i, j): x for i, row in enumerate(rows) for j, x in row.items()}
    )
    assert op.invert() == reference_invert(op)
