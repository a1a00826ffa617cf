"""Tests for grounded-string functions and their exchange identities."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kzdyn import hyper
from kzdyn.dyn import lambda_pairing_symbols, space_weight_pairings
from kzdyn.hyper import (
    STANDARD,
    OrderFlavor,
    binomial_claim_check,
    color_counts,
    color_groups,
    dual_restriction_check,
    forest_of_index,
    index_counts,
    interp_flavor,
    lemma_rat2Dprime_check,
    level_flavor,
    log_derivative,
    master_exponents,
    phi_of_index,
    phi_vector,
    raising_dual_coefficients,
    switch_cor_witness,
    t_name,
    t_symbol,
    verify_order_invariance,
    z_shift_factorization,
)
from kzdyn.rep import (
    PBWVector,
    enumerate_basis,
    operator_for_letter,
    verma_symbolic,
    verma_weight,
)
from kzdyn.roots import (
    alpha_vec,
    nu_vec,
    omega_vec,
    positive_roots,
    rho_vec,
    sigma_sequence,
    weight_from_pairings,
)
from kzdyn.symexpr import (
    RF_ONE,
    RF_ZERO,
    parse,
    rational,
    rf_partial,
    symbol,
)
from kzdyn.uea import standard_basis

Z1 = (symbol("z:1"),)


def one_factor_space(n_rank, nu0):
    return enumerate_basis((verma_symbolic(n_rank, 1),), nu0)


# ---------------------------------------------------------------------------
# Grounded strings and their functions
# ---------------------------------------------------------------------------

class TestGroundedStrings:
    def test_adjacent_pair_product_standard(self):
        # two unit strings on adjacent simple intervals, both ground at z1
        value = phi_of_index([{(1, 2): 1, (2, 3): 1}], "standard", n_rank=3, grounds=Z1)
        expected = parse("1/((t:1:1 - z:1)*(t:2:1 - z:1))")
        assert (value - expected).is_zero()

    def test_long_string_standard(self):
        # one string across the full interval grounds at its last color
        value = phi_of_index([{(1, 3): 1}], "standard", n_rank=3, grounds=Z1)
        expected = parse("1/((t:1:1 - t:2:1)*(t:2:1 - z:1))")
        assert (value - expected).is_zero()

    def test_long_string_level_one(self):
        # at level 1 the same string grounds at its first color with a sign
        value = phi_of_index([{(1, 3): 1}], 1, n_rank=3, grounds=Z1)
        expected = parse("1/((t:2:1 - t:1:1)*(t:1:1 - z:1))")
        assert (value - expected).is_zero()

    def test_adjacent_pair_level_one_unchanged(self):
        value = phi_of_index([{(1, 2): 1, (2, 3): 1}], 1, n_rank=3, grounds=Z1)
        expected = parse("1/((t:1:1 - z:1)*(t:2:1 - z:1))")
        assert (value - expected).is_zero()

    def test_three_string_level_one_all_grounded(self):
        value = phi_of_index([{(1, 2): 2, (2, 3): 1}], 1, n_rank=3, grounds=Z1)
        expected = parse("1/((t:2:1 - z:1)*(t:1:1 - z:1)*(t:1:2 - z:1))")
        assert (value - expected).is_zero()

    def test_long_plus_short_level_one(self):
        # the long string takes the first copy of each color it spans
        value = phi_of_index([{(1, 2): 1, (1, 3): 1}], 1, n_rank=3, grounds=Z1)
        expected = parse("1/((t:2:1 - t:1:1)*(t:1:1 - z:1)*(t:1:2 - z:1))")
        assert (value - expected).is_zero()

    def test_empty_index_gives_one(self):
        value = phi_of_index([{}], "standard", n_rank=2, grounds=Z1)
        assert (value - RF_ONE).is_zero()

    def test_sl2_two_copies(self):
        value = phi_of_index([{(1, 2): 2}], "standard", n_rank=2, grounds=Z1)
        expected = parse("1/((t:1:1 - z:1)*(t:1:2 - z:1))")
        assert (value - expected).is_zero()

    def test_edge_product_matches_function(self):
        forest = forest_of_index(
            [{(1, 3): 1, (1, 2): 1}, {(2, 3): 1}], 1, n_rank=3
        )
        for string in forest.strings:
            assert (string.function() - string.edge_product()).is_zero()

    def test_ground_zero_string(self):
        value = phi_of_index([{(1, 2): 1}], "standard", n_rank=2, grounds=(RF_ZERO,))
        expected = parse("1/t:1:1")
        assert (value - expected).is_zero()

    def test_forest_json_shape(self):
        forest = forest_of_index([{(1, 3): 1}, {}], 1, n_rank=3, grounds=(symbol("z:1"), RF_ZERO))
        data = forest.to_json()
        assert data["n_rank"] == 3
        assert data["flavor"]["kind"] == "level" and data["flavor"]["h"] == 1
        (tree,) = data["trees"]
        assert tree["slot"] == 1 and tree["ground"] == "z:1"
        (string,) = tree["strings"]
        assert string["root"] == [1, 3]
        assert string["variables"] == ["t:1:1", "t:2:1"]
        assert string["sign"] == -1 and string["ground_color"] == 1
        json.dumps(data)  # must be serializable

    def test_color_counts(self):
        counts = index_counts([{(1, 3): 2, (2, 3): 1}, {(1, 2): 1}])
        assert color_counts(counts, n_rank=3) == (3, 3)
        assert color_groups((3, 1)) == [[t_name(1, d) for d in (1, 2, 3)]]

    def test_exponent_tuple_entries_need_basis(self):
        with pytest.raises(ValueError):
            index_counts([(1, 0, 0)])
        basis = standard_basis(3)
        counts = index_counts([(0, 1, 0)], basis)
        assert counts == ((((1, 3), 1),),)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            index_counts([{(1, 2): -1}])


# ---------------------------------------------------------------------------
# Coefficient vectors over weight spaces
# ---------------------------------------------------------------------------

class TestPhiVector:
    def test_two_term_expansion(self):
        space = one_factor_space(3, (1, 1))
        pv = phi_vector(space)
        assert len(pv.terms) == 2
        long_c = pv.coeff([{(1, 3): 1}])
        pair_c = pv.coeff([{(1, 2): 1, (2, 3): 1}])
        assert (long_c - parse("1/((t:1:1 - t:2:1)*(t:2:1 - z:1))")).is_zero()
        assert (pair_c - parse("1/((t:1:1 - z:1)*(t:2:1 - z:1))")).is_zero()

    def test_signed_monomial_display(self):
        # against plain (unsigned) divided monomials the long-string term
        # acquires the basis sign
        space = one_factor_space(3, (1, 1))
        pv = phi_vector(space)
        basis = pv.basis
        exps = basis.exps_from_roots({(1, 3): 1})
        displayed = pv.coeff([{(1, 3): 1}]) * rational(basis.signed_factor(exps))
        expected = parse("-1/((t:1:1 - t:2:1)*(t:2:1 - z:1))")
        assert (displayed - expected).is_zero()

    def test_trivial_weight_space(self):
        space = one_factor_space(3, (0, 0))
        pv = phi_vector(space)
        assert len(pv.terms) == 1
        assert (pv.terms[0][1] - RF_ONE).is_zero()

    def test_sl2_depth_two(self):
        space = one_factor_space(2, (2,))
        pv = phi_vector(space)
        assert len(pv.terms) == 1
        expected = parse("1/((t:1:1 - z:1)*(t:1:2 - z:1))")
        assert (pv.terms[0][1] - expected).is_zero()

    def test_missing_index_coefficient_is_zero(self):
        space = one_factor_space(2, (1,))
        pv = phi_vector(space)
        assert pv.coeff([{(1, 2): 42}]).is_zero()


# ---------------------------------------------------------------------------
# Order invariance of the weighted sums
# ---------------------------------------------------------------------------

class TestOrderInvariance:
    def test_sl2_trivial(self):
        space = one_factor_space(2, (1,))
        report = verify_order_invariance(space, 1)
        assert report.raw_equal and report.symmetrized_equal

    @pytest.mark.parametrize("h", [1, 2])
    def test_sl3_one_point(self, h):
        space = one_factor_space(3, (1, 1))
        report = verify_order_invariance(space, h)
        assert report.symmetrized_equal
        assert report.raw_equal  # canonical copies line up for this space

    @pytest.mark.parametrize("h", [1, 2])
    def test_sl3_two_points(self, h):
        space = enumerate_basis(
            (verma_symbolic(3, 1), verma_symbolic(3, 2)), (1, 1)
        )
        report = verify_order_invariance(space, h)
        assert report.symmetrized_equal

    @pytest.mark.parametrize("h", [1, 2])
    def test_sl3_deeper_weight(self, h):
        space = one_factor_space(3, (2, 1))
        report = verify_order_invariance(space, h)
        assert report.symmetrized_equal

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_sl4_one_point(self, h):
        space = one_factor_space(4, (1, 1, 1))
        report = verify_order_invariance(space, h)
        assert report.symmetrized_equal

    def test_report_json(self):
        space = one_factor_space(2, (1,))
        report = verify_order_invariance(space, 1)
        data = report.to_json()
        assert data["raw_equal"] is True and data["dim"] == 1
        json.dumps(data)


# ---------------------------------------------------------------------------
# Binomial string-exchange identity
# ---------------------------------------------------------------------------

class TestBinomialExchange:
    def test_single_long_string(self):
        # one full-interval string: the two-term alternating sum switches
        # the grounding rule exactly
        report = binomial_claim_check(0, 0, 1, (1, 3), 2)
        assert report.raw_equal and report.symmetrized_equal

    def test_no_long_strings_is_identity(self):
        report = binomial_claim_check(2, 1, 0, (1, 3), 2)
        assert report.raw_equal

    @pytest.mark.parametrize("abc", [(1, 1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2)])
    def test_mixed_multiplicities(self, abc):
        a, b, c = abc
        report = binomial_claim_check(a, b, c, (1, 3), 2)
        assert report.symmetrized_equal

    def test_wider_interval(self):
        report = binomial_claim_check(0, 0, 1, (1, 4), 2)
        assert report.symmetrized_equal

    def test_rejects_non_straddling_pair(self):
        with pytest.raises(ValueError):
            binomial_claim_check(0, 0, 1, (2, 3), 1)

    def test_rejects_large_multiplicities(self):
        with pytest.raises(ValueError):
            binomial_claim_check(4, 0, 0, (1, 3), 2)

    def test_report_json(self):
        data = binomial_claim_check(0, 0, 1, (1, 3), 2).to_json()
        assert data["pair"] == [1, 3]
        json.dumps(data)


# ---------------------------------------------------------------------------
# Weight-function exponents and exact logarithmic derivatives
# ---------------------------------------------------------------------------

def _as_int(expr):
    value = Fraction(str(expr).strip("()"))
    assert value.denominator == 1
    return int(value)


def _mul_pow(product, base, exponent):
    if exponent >= 0:
        return product * base ** exponent
    return product / base ** (-exponent)


class TestMasterExponents:
    def test_log_derivative_matches_explicit_product_sl2(self):
        # freeze all exponents to integers, build the product explicitly and
        # compare against the exact partial derivative
        factors = tuple(
            verma_weight(2, weight_from_pairings(2, (rational(4),)))
            for _ in range(2)
        )
        space = enumerate_basis(factors, (2,))
        me = master_exponents(space, pairings=(rational(5),))
        zs = [symbol("z:1"), symbol("z:2")]
        ts = [t_symbol(1, 1), t_symbol(1, 2)]
        product = RF_ONE
        product = _mul_pow(product, zs[0] - zs[1], _as_int(me.z_pair[(1, 2)]))
        for j in (1, 2):
            for d in (1, 2):
                product = _mul_pow(product, ts[d - 1] - zs[j - 1], _as_int(me.t_z[(1, j)]))
        product = _mul_pow(product, ts[0] - ts[1], _as_int(me.t_t[(1, 1)]))
        for d in (1, 2):
            product = _mul_pow(product, ts[d - 1], _as_int(me.t_pow[0]))
        for i in (1, 2):
            product = _mul_pow(product, zs[i - 1], _as_int(me.z_pow[i - 1]))
        for name in ("t:1:1", "t:1:2", "z:1", "z:2"):
            lhs = rf_partial(product, name) / product
            assert (lhs - log_derivative(me, name)).is_zero(), name

    def test_log_derivative_matches_explicit_product_sl3(self):
        # two colors: exercises the adjacent-color coupling exponent
        factor = verma_weight(3, weight_from_pairings(3, (rational(3), rational(3))))
        space = enumerate_basis((factor,), (1, 1))
        me = master_exponents(
            space, pairings=(rational(4), rational(6)), include_z_powers=False
        )
        z1 = symbol("z:1")
        t1, t2 = t_symbol(1, 1), t_symbol(2, 1)
        product = RF_ONE
        product = _mul_pow(product, t1 - z1, _as_int(me.t_z[(1, 1)]))
        product = _mul_pow(product, t2 - z1, _as_int(me.t_z[(2, 1)]))
        product = _mul_pow(product, t1 - t2, _as_int(me.t_t[(1, 2)]))
        product = _mul_pow(product, t1, _as_int(me.t_pow[0]))
        product = _mul_pow(product, t2, _as_int(me.t_pow[1]))
        for name in ("t:1:1", "t:2:1", "z:1"):
            lhs = rf_partial(product, name) / product
            assert (lhs - log_derivative(me, name)).is_zero(), name

    def test_same_color_coupling_is_two(self):
        space = one_factor_space(2, (2,))
        me = master_exponents(space)
        assert (me.t_t[(1, 1)] - rational(2)).is_zero()

    def test_enlarged_universe_changes_no_exponent(self):
        space = one_factor_space(2, (1,))
        me0 = master_exponents(space)
        me1 = master_exponents(space, m_counts=(3,))
        assert me1.m_counts == (3,)
        assert (me0.t_pow[0] - me1.t_pow[0]).is_zero()
        assert (me0.t_z[(1, 1)] - me1.t_z[(1, 1)]).is_zero()

    def test_rejects_unknown_variable(self):
        space = one_factor_space(2, (1,))
        me = master_exponents(space)
        with pytest.raises(ValueError):
            log_derivative(me, "t:1:2")
        with pytest.raises(ValueError):
            log_derivative(me, "z:2")
        with pytest.raises(ValueError):
            log_derivative(me, "bogus")


# ---------------------------------------------------------------------------
# Coordinate-shift factorization
# ---------------------------------------------------------------------------

class TestZShiftFactorization:
    def test_sl2_single_string(self):
        space = one_factor_space(2, (1,))
        report = z_shift_factorization(space, 1)
        assert report.verified and report.master_shift_verified

    @pytest.mark.parametrize("h", [1, 2])
    def test_sl3_both_levels(self, h):
        space = one_factor_space(3, (1, 1))
        report = z_shift_factorization(space, h)
        assert report.verified and report.master_shift_verified

    def test_no_level_variables_is_trivial(self):
        space = one_factor_space(3, (0, 1))
        report = z_shift_factorization(space, 1)
        assert report.verified
        assert all(term.z_drops == (0,) for term in report.terms)

    def test_sl2_depth_two(self):
        space = one_factor_space(2, (2,))
        report = z_shift_factorization(space, 1)
        assert report.verified and report.master_shift_verified

    def test_two_point_drops(self):
        space = enumerate_basis(
            (verma_symbolic(2, 1), verma_symbolic(2, 2)), (1,)
        )
        report = z_shift_factorization(space, 1)
        assert report.verified
        drops = sorted(term.z_drops for term in report.terms)
        assert drops == [(0, 1), (1, 0)]

    def test_formal_exponents_are_coweight_pairings(self):
        space = one_factor_space(3, (1, 1))
        report = z_shift_factorization(space, 1)
        expected = space.factors[0].hw.dot(omega_vec(3, 1))
        assert (report.formal_z_exponents[0] - expected).is_zero()

    def test_report_json(self):
        space = one_factor_space(2, (1,))
        json.dumps(z_shift_factorization(space, 1).to_json())


# ---------------------------------------------------------------------------
# Straddling-removal expansion
# ---------------------------------------------------------------------------

class TestRemovalExpansion:
    def test_sl2_single_string(self):
        space = one_factor_space(2, (1,))
        report = lemma_rat2Dprime_check(space, 1, space.basis[0])
        assert report.raw_equal and report.symmetrized_equal
        assert report.n_terms == 2

    def test_sl2_two_strings_needs_symmetrization(self):
        # with two same-color strings the transfer terms reassign copies, so
        # the identity holds only after averaging over copies
        space = one_factor_space(2, (2,))
        report = lemma_rat2Dprime_check(space, 1, space.basis[0])
        assert not report.raw_equal
        assert report.symmetrized_equal
        assert report.n_terms == 3

    @pytest.mark.parametrize("h", [1, 2])
    def test_sl3_all_indices(self, h):
        space = one_factor_space(3, (1, 1))
        for multi in space.basis:
            report = lemma_rat2Dprime_check(space, h, multi)
            assert report.symmetrized_equal

    def test_no_straddling_strings_trivial(self):
        space = one_factor_space(3, (1, 0))
        report = lemma_rat2Dprime_check(space, 2, space.basis[0])
        assert report.raw_equal
        assert report.n_terms == 1

    def test_two_point_index(self):
        space = enumerate_basis(
            (verma_symbolic(2, 1), verma_symbolic(2, 2)), (1,)
        )
        for multi in space.basis:
            report = lemma_rat2Dprime_check(space, 1, multi)
            assert report.symmetrized_equal

    def test_report_json(self):
        space = one_factor_space(2, (1,))
        json.dumps(lemma_rat2Dprime_check(space, 1, space.basis[0]).to_json())


# ---------------------------------------------------------------------------
# Raising action on basis functionals
# ---------------------------------------------------------------------------

def _raising_setup(n_rank, h, nu0):
    space = enumerate_basis((verma_symbolic(n_rank, 1),), nu0)
    lam = weight_from_pairings(n_rank, lambda_pairing_symbols(n_rank))
    nu = space.total_highest_weight() - nu_vec(n_rank, space.nu0)
    half = rational(Fraction(1, 2))
    aux = verma_weight(n_rank, lam - rho_vec(n_rank) - nu.scale(half))
    enlarged_nu = tuple(
        m + (1 if k == h else 0) for k, m in enumerate(space.nu0, start=1)
    )
    big = enumerate_basis((*space.factors, aux), enlarged_nu)
    small = enumerate_basis((*space.factors, aux), space.nu0)
    slot_pairs = [
        tuple(f.hw.dot(alpha_vec(n_rank, p)) for p in range(1, n_rank))
        for f in space.factors
    ]
    nu_pairs = space_weight_pairings(space)
    pair_syms = lambda_pairing_symbols(n_rank)
    slot_pairs.append(
        tuple(
            pair_syms[p - 1] - RF_ONE - nu_pairs[p - 1] * half
            for p in range(1, n_rank)
        )
    )
    return space, big, small, slot_pairs


class TestRaisingDualCoefficients:
    @pytest.mark.parametrize(
        "n_rank,h,nu0", [(2, 1, (2,)), (3, 1, (1, 1)), (3, 2, (1, 1))]
    )
    def test_matches_module_action(self, n_rank, h, nu0):
        # the functional-side coefficients must be the negatives of the
        # matrix entries of the raising generator on the enlarged space
        space, big, small, slot_pairs = _raising_setup(n_rank, h, nu0)
        raising = operator_for_letter(big, ("e", h, h + 1))
        for I_multi in small.basis:
            I_counts = index_counts(I_multi, small.pbw_basis)
            coeffs = dict(raising_dual_coefficients(I_counts, h, slot_pairs, n_rank))
            for J_pos, J_multi in enumerate(big.basis):
                image = raising.apply(PBWVector.basis_vector(big, J_pos))
                target = image.space
                got = RF_ZERO
                if I_multi in target.index_position:
                    got = image.coeffs.get(target.index_position[I_multi], RF_ZERO)
                want = coeffs.get(index_counts(J_multi, big.pbw_basis), RF_ZERO)
                assert (want + got).is_zero()

    def test_unit_string_creation_coefficient(self):
        # on the empty index only the creation term fires, with the slot's
        # full weight pairing
        pairing = symbol("l1")
        coeffs = raising_dual_coefficients(((),), 1, [(pairing,)], 2)
        assert len(coeffs) == 1
        index, coeff = coeffs[0]
        assert index == ((((1, 2), 1),),)
        assert (coeff - pairing).is_zero()

    def test_counting_shift_in_creation_coefficient(self):
        pairing = symbol("l1")
        coeffs = dict(
            raising_dual_coefficients(([((1, 2), 3)],), 1, [(pairing,)], 2)
        )
        key = ((((1, 2), 4),),)
        assert (coeffs[key] - (pairing - rational(3))).is_zero()


# ---------------------------------------------------------------------------
# Null-class witness for the raising action
# ---------------------------------------------------------------------------

class TestSwitchCorWitness:
    def test_empty_index_exact(self):
        space = one_factor_space(2, (1,))
        report = switch_cor_witness(space, [{}], 1)
        assert report.pullback_exact
        assert report.dual_raw_equal and report.dual_sign == -1

    def test_sl2_single_string(self):
        space = one_factor_space(2, (1,))
        report = switch_cor_witness(space, [{(1, 2): 1}], 1)
        assert report.pullback_exact
        assert report.dual_symmetrized_equal and report.dual_sign == -1

    def test_sl2_two_strings(self):
        space = one_factor_space(2, (2,))
        report = switch_cor_witness(space, [{(1, 2): 2}], 1)
        assert report.pullback_exact
        assert report.dual_symmetrized_equal and report.dual_sign == -1

    @pytest.mark.parametrize("h", [1, 2])
    def test_sl3_all_indices(self, h):
        space = one_factor_space(3, (1, 1))
        for multi in space.basis:
            idx = [dict(space.pbw_basis.roots_from_exps(e)) for e in multi]
            report = switch_cor_witness(space, idx, h)
            assert report.pullback_exact
            assert report.dual_symmetrized_equal and report.dual_sign == -1

    def test_extra_slot_string(self):
        # indices may already own strings grounded at zero
        space = one_factor_space(2, (1,))
        report = switch_cor_witness(space, [{}, {(1, 2): 1}], 1)
        assert report.pullback_exact
        assert report.dual_symmetrized_equal and report.dual_sign == -1

    def test_report_json(self):
        space = one_factor_space(2, (1,))
        json.dumps(switch_cor_witness(space, [{}], 1).to_json())


# ---------------------------------------------------------------------------
# Dual-side function maps
# ---------------------------------------------------------------------------

class TestDualFunctionMap:
    def test_restriction_agreement(self):
        assert dual_restriction_check(one_factor_space(3, (1, 1)))
        assert dual_restriction_check(
            enumerate_basis((verma_symbolic(2, 1), verma_symbolic(2, 2)), (2,))
        )
        assert dual_restriction_check(one_factor_space(3, (1, 1)), flavor=1)


# ---------------------------------------------------------------------------
# Flavor bookkeeping properties
# ---------------------------------------------------------------------------

def _case(root, flavor):
    return hyper._case_for(root, flavor)


@st.composite
def rank_and_level(draw):
    n_rank = draw(st.integers(min_value=2, max_value=6))
    h = draw(st.integers(min_value=1, max_value=n_rank - 1))
    return n_rank, h


class TestFlavorProperties:
    @given(rank_and_level())
    @settings(deadline=None, max_examples=40)
    def test_standard_is_top_level(self, nh):
        n_rank, _ = nh
        for root in positive_roots(n_rank):
            assert _case(root, STANDARD) == _case(root, level_flavor(n_rank - 1))

    @given(rank_and_level())
    @settings(deadline=None, max_examples=40)
    def test_ground_and_sign_ranges(self, nh):
        n_rank, h = nh
        for root in positive_roots(n_rank):
            k, l = root
            ground, sign = _case(root, level_flavor(h))
            assert k <= ground <= l - 1
            assert sign in (1, -1)

    @given(rank_and_level())
    @settings(deadline=None, max_examples=40)
    def test_interp_endpoints(self, nh):
        n_rank, h = nh
        if h < 2:
            return
        schedule = sigma_sequence(n_rank, h)
        start = interp_flavor(n_rank, h, 0)
        finish = interp_flavor(n_rank, h, len(schedule))
        for root in positive_roots(n_rank):
            assert _case(root, start) == _case(root, level_flavor(h))
            assert _case(root, finish) == _case(root, level_flavor(h - 1))

    @given(rank_and_level())
    @settings(deadline=None, max_examples=40)
    def test_non_straddling_roots_level_independent(self, nh):
        n_rank, h = nh
        if h < 2:
            return
        for root in positive_roots(n_rank):
            k, l = root
            if not (k < h < l):
                assert _case(root, level_flavor(h)) == _case(
                    root, level_flavor(h - 1)
                )

    @given(rank_and_level())
    @settings(deadline=None, max_examples=40)
    def test_switched_pairs_straddle(self, nh):
        n_rank, h = nh
        if h < 2:
            return
        schedule = sigma_sequence(n_rank, h)
        flavor = interp_flavor(n_rank, h, len(schedule))
        assert flavor.switched == frozenset(
            (k, l) for (k, l) in positive_roots(n_rank) if k < h < l
        )

    def test_flavor_validation(self):
        with pytest.raises(ValueError):
            OrderFlavor("bogus")
        with pytest.raises(ValueError):
            OrderFlavor("level")
        with pytest.raises(ValueError):
            OrderFlavor("standard", switched=frozenset({(1, 3)}))
        with pytest.raises(ValueError):
            interp_flavor(3, 2, 99)
