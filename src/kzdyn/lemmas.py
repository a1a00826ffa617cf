"""Exact checks of the lemmas behind the sl_N dynamical difference equations.

The paper proves that the hypergeometric solutions of trigonometric KZ
satisfy the dynamical difference equations through a chain of exact
identities between the weight functions of `kzdyn.hyper`.  Order invariance
of the function-weighted basis sums, the one that ``kzdyn verify
pbw-invariance`` runs, stays in `hyper`; this module checks the others:

* exponent bookkeeping for the multivalued weight function (pair exponents
  and pure powers, `master_exponents`) together with its exact logarithmic
  derivative (`log_derivative`),
* the interpolating flavors used to walk between two adjacent levels
  (`interp_flavor`), and the binomial string-exchange identity along that
  walk (`binomial_claim_check`),
* the coordinate-shift factorization through ground-at-zero strings
  (`z_shift_factorization`) and the dual-side restriction to an empty slot
  grounded at zero (`dual_restriction_check`),
* the straddling-removal expansion (`lemma_rat2Dprime_check`),
* the level-h raising action on basis functionals
  (`raising_dual_coefficients`) and the one-term dual lowering rule
  (`dual_action_F`), and
* the logarithmic-form pullback witness that the raising action lands in
  the null class (`switch_cor_witness`).

Only tests call these checks: no ``kzdyn verify`` or ``kzdyn dump`` run
imports this module.  Conventions are `hyper`'s: tensor slots are 1-based,
slot ``j`` grounds at ``z:j`` unless an explicit ground is supplied, color
``k`` variables are ``t:k:d``, and the identity checks report both the raw
verdict for the canonical copy assignment and the verdict after averaging
over permutations of same-color variables.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from ._record import record
from .symexpr import RF_ONE, RF_ZERO, RationalFunctionExpr, rational, rf_sums, symbol
from .roots import WeightVec, positive_roots, rho_vec, sigma_sequence
from .rep import MultiIndex, TensorWeightSpace
from .dyn import (
    formal_z_exponents,
    kappa_symbol,
    lambda_pairing_symbols,
    z_symbols,
)
from .hyper import (
    Forest,
    OrderFlavor,
    StringGraph,
    _averages_to_zero,
    forest_of_index,
    index_counts,
    t_name,
    t_symbol,
)

__all__ = [
    "interp_flavor",
    "color_counts",
    "BinomialClaimReport",
    "binomial_claim_check",
    "MasterExponents",
    "master_exponents",
    "log_derivative",
    "ZShiftTerm",
    "ZShiftFactorization",
    "z_shift_factorization",
    "dual_restriction_check",
    "raising_dual_coefficients",
    "dual_action_F",
    "LemmaExpansionReport",
    "lemma_rat2Dprime_check",
    "SwitchCorReport",
    "switch_cor_witness",
]


# ---------------------------------------------------------------------------
# Interpolating flavors and color counts
# ---------------------------------------------------------------------------

def interp_flavor(n_rank: int, h: int, steps: int) -> OrderFlavor:
    """The flavor reached after the first ``steps`` adjacent reversals on the
    way from level ``h`` down to level ``h-1``.

    Straddling pairs flip exactly when their three-term reversal has been
    performed; the set of flipped pairs after a prefix of the schedule is what
    the flavor records.
    """
    transforms = sigma_sequence(n_rank, h)
    if not (0 <= steps <= len(transforms)):
        raise ValueError(f"steps must be in 0..{len(transforms)}")
    switched = frozenset(
        t.label for t in transforms[:steps] if t.kind == "A2" and t.label
    )
    return OrderFlavor(h, switched)


def color_counts(index, n_rank: int) -> tuple[int, ...]:
    """Number of variables of each color used by an index."""
    index = index_counts(index)
    counts = [0] * (n_rank - 1)
    for slot in index:
        for (k, l), c in slot:
            for p in range(k, l):
                counts[p - 1] += c
    return tuple(counts)


def _counts_json(counts: tuple) -> list:
    return [[[list(root), c] for root, c in slot] for slot in counts]


# ---------------------------------------------------------------------------
# Binomial string-exchange identity
# ---------------------------------------------------------------------------

@record
class BinomialClaimReport:
    a: int
    b: int
    c: int
    pair: tuple[int, int]
    h: int
    raw_equal: bool
    symmetrized_equal: bool

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "pair": list(self.pair),
            "h": self.h,
            "raw_equal": self.raw_equal,
            "symmetrized_equal": self.symmetrized_equal,
        }


def binomial_claim_check(
    a: int, b: int, c: int, pair: tuple[int, int], h: int
) -> BinomialClaimReport:
    """Exchange identity for one straddling pair under a level step.

    With ``a`` strings on the upper interval, ``b`` on the lower interval and
    ``c`` on the full interval, the alternating binomial combination of
    level-``h`` functions over string transfers must equal the function in
    which the full-interval strings follow the level ``h-1`` rule.
    """
    k, l = pair
    if not (k < h < l):
        raise ValueError("the pair must straddle the level strictly")
    if not (0 <= min(a, b, c) and max(a, b, c) <= 3):
        raise ValueError("string multiplicities are limited to 0..3")
    ground = (symbol("z:1"),)
    rank = l

    def build(na: int, nb: int, nc: int, flav: OrderFlavor) -> RationalFunctionExpr:
        slot = {(h, l): na, (k, h): nb, (k, l): nc}
        return forest_of_index([slot], flav, n_rank=rank, grounds=ground).function()

    lhs = RF_ZERO
    for r in range(c + 1):
        sign = -1 if (c - r) % 2 else 1
        coeff = rational(sign * math.comb(c, r))
        lhs = lhs + coeff * build(a + r, b + r, c - r, OrderFlavor(h))
    rhs = build(a, b, c, OrderFlavor(h, frozenset([pair])))

    delta = lhs - rhs
    raw = delta.is_zero()
    counts = color_counts([{(h, l): a + c, (k, h): b + c}], n_rank=rank)
    symmetrized = raw or _averages_to_zero(delta, counts)
    return BinomialClaimReport(a, b, c, pair, h, raw, symmetrized)


# ---------------------------------------------------------------------------
# Weight-function exponents
# ---------------------------------------------------------------------------

@record
class MasterExponents:
    """Exponent records of the multivalued weight function.

    ``z_pair[(i, j)]`` is the exponent on ``z_i - z_j`` (``i < j``),
    ``t_z[(k, j)]`` the exponent on ``t_k^{(d)} - z_j`` for every copy ``d``,
    ``t_t[(k, l)]`` (``k <= l``) the exponent on earlier-vs-later copies of
    colors ``k`` and ``l``, and ``t_pow`` / ``z_pow`` the pure power
    exponents.  All entries are exact expressions in the weight symbols.
    """

    n_rank: int
    n_points: int
    m_counts: tuple[int, ...]
    z_pair: Mapping[tuple[int, int], RationalFunctionExpr]
    t_z: Mapping[tuple[int, int], RationalFunctionExpr]
    t_t: Mapping[tuple[int, int], RationalFunctionExpr]
    t_pow: tuple[RationalFunctionExpr, ...]
    z_pow: tuple[RationalFunctionExpr, ...]


def master_exponents(
    space: TensorWeightSpace,
    pairings: Sequence[RationalFunctionExpr],
    *,
    m_counts: Optional[Sequence[int]] = None,
) -> MasterExponents:
    """Exponents of the weight function of a space at a dynamical parameter.

    The pure ``t`` powers carry the pairing with the parameter lowered by the
    half-sum of positive roots and half the space's weight — exactly the
    contribution of an extra evaluation point frozen at zero.  ``m_counts``
    may enlarge the variable universe without changing any exponent.
    """
    rank = space.pbw_basis.n_rank
    n = len(space.factors)
    hws = [f.hw for f in space.factors]
    lam = WeightVec(tuple(pairings))
    nu = space.weight
    half = rational(Fraction(1, 2))

    z_pair = {
        (i, j): hws[i - 1].dot(hws[j - 1])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    t_z = {
        (k, j): -hws[j - 1].pairings[k - 1]
        for k in range(1, rank)
        for j in range(1, n + 1)
    }
    t_t = {}
    for k in range(1, rank):
        t_t[(k, k)] = rational(2)
        if k + 1 < rank:
            t_t[(k, k + 1)] = rational(-1)
    base = lam - rho_vec(rank) - nu.scale(half)
    t_pow = tuple(-p for p in base.pairings)
    z_pow = tuple(hw.dot(lam - nu.scale(half) + hw.scale(half)) for hw in hws)
    counts = tuple(m_counts) if m_counts is not None else tuple(space.nu0)
    if len(counts) != rank - 1:
        raise ValueError("need one variable count per color")
    return MasterExponents(rank, n, counts, z_pair, t_z, t_t, t_pow, z_pow)


def _parse_variable(name: str) -> tuple:
    parts = name.split(":")
    if parts[0] == "t" and len(parts) == 3:
        return ("t", int(parts[1]), int(parts[2]))
    if parts[0] == "z" and len(parts) == 2:
        return ("z", int(parts[1]))
    raise ValueError(f"not a coordinate symbol: {name!r}")


def log_derivative(me: MasterExponents, name: str) -> RationalFunctionExpr:
    """Exact logarithmic derivative of the weight function in one variable."""
    parsed = _parse_variable(name)
    if parsed[0] == "t":
        _, k, d = parsed
        if not (1 <= k < me.n_rank and 1 <= d <= me.m_counts[k - 1]):
            raise ValueError(f"variable {name!r} outside the universe")
        x = symbol(name)
        total = RF_ZERO
        for j in range(1, me.n_points + 1):
            exp = me.t_z[(k, j)]
            if not exp.is_zero():
                total = total + exp / (x - symbol(f"z:{j}"))
        if not me.t_pow[k - 1].is_zero():
            total = total + me.t_pow[k - 1] / x
        for l in (k - 1, k, k + 1):
            if not (1 <= l < me.n_rank):
                continue
            exp = me.t_t[(min(k, l), max(k, l))]
            if exp.is_zero():
                continue
            for dp in range(1, me.m_counts[l - 1] + 1):
                if l == k and dp == d:
                    continue
                total = total + exp / (x - t_symbol(l, dp))
        return total
    _, i = parsed
    if not (1 <= i <= me.n_points):
        raise ValueError(f"variable {name!r} outside the universe")
    x = symbol(name)
    total = RF_ZERO
    for j in range(1, me.n_points + 1):
        if j == i:
            continue
        exp = me.z_pair[(min(i, j), max(i, j))]
        if not exp.is_zero():
            total = total + exp / (x - symbol(f"z:{j}"))
    for k in range(1, me.n_rank):
        exp = me.t_z[(k, i)]
        if exp.is_zero():
            continue
        for d in range(1, me.m_counts[k - 1] + 1):
            total = total - exp / (t_symbol(k, d) - x)
    if not me.z_pow[i - 1].is_zero():
        total = total + me.z_pow[i - 1] / x
    return total


# ---------------------------------------------------------------------------
# Coordinate-shift factorization
# ---------------------------------------------------------------------------

def _straddle_split_product(forest: Forest, h: int) -> RationalFunctionExpr:
    """Product over strings, with straddling grounds split against zero.

    Every string whose root straddles the level contributes the difference of
    its grounded function and the same function grounded at zero; the rest
    contribute unchanged.
    """
    value = RF_ONE
    for s in forest.strings:
        k, l = s.root
        if k <= h < l:
            at_zero = StringGraph(
                s.root, s.slot, s.copy, s.ground_color, s.sign, s.variables, RF_ZERO
            )
            value = value * (s.function() - at_zero.function())
        else:
            value = value * s.function()
    return value


@record
class ZShiftTerm:
    index: tuple
    z_drops: tuple[int, ...]
    expanded: RationalFunctionExpr
    verified: bool


@record
class ZShiftFactorization:
    h: int
    verified: bool
    master_shift_verified: bool
    formal_z_exponents: tuple[RationalFunctionExpr, ...]
    terms: tuple[ZShiftTerm, ...]

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "verified": self.verified,
            "master_shift_verified": self.master_shift_verified,
            "formal_z_exponents": [str(e) for e in self.formal_z_exponents],
            "terms": [
                {
                    "index": [list(map(int, slot)) for slot in t.index],
                    "z_drops": list(t.z_drops),
                    "verified": t.verified,
                }
                for t in self.terms
            ],
        }


def z_shift_factorization(space: TensorWeightSpace, h: int) -> ZShiftFactorization:
    """Exact factorization of the color-``h`` coordinate division.

    For every index, dividing its level-``h`` function by all color-``h``
    variables equals the per-slot coordinate drops times the product in which
    each straddling string is split against a ground at zero — the inverse
    chain rule ``1/((t-z)t) = (1/z)(1/(t-z) - 1/t)`` applied once per
    straddling string.  Also verifies that shifting the dynamical parameter by
    the scaled level coweight changes the weight-function exponents by exactly
    one inverse power per color-``h`` variable and the recorded formal
    coordinate exponents.
    """
    rank = space.pbw_basis.n_rank
    pairings = lambda_pairing_symbols(rank)
    n = len(space.factors)
    grounds = z_symbols(n)
    m_h = space.nu0[h - 1]
    terms = []
    all_ok = True
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        forest = forest_of_index(counts, OrderFlavor(h), n_rank=rank, grounds=grounds)
        expanded = _straddle_split_product(forest, h)
        drops = tuple(
            sum(c for (k, l), c in slot if k <= h < l) for slot in counts
        )
        base = forest.function()
        lhs = base
        for j, m in enumerate(drops, start=1):
            for _ in range(m):
                lhs = lhs * symbol(f"z:{j}")
        rhs = expanded
        for d in range(1, m_h + 1):
            rhs = rhs * t_symbol(h, d)
        ok = (lhs - rhs).is_zero()
        all_ok = all_ok and ok
        terms.append(ZShiftTerm(multi, drops, expanded, ok))

    kap = kappa_symbol()
    shifted = list(pairings)
    shifted[h - 1] = shifted[h - 1] + kap
    me0 = master_exponents(space, pairings)
    me1 = master_exponents(space, tuple(shifted))
    shift_ok = True
    for k in range(1, rank):
        delta = me1.t_pow[k - 1] - me0.t_pow[k - 1]
        want = kap * rational(-1) if k == h else RF_ZERO
        if not (delta - want).is_zero():
            shift_ok = False
    formal = formal_z_exponents(space, h)
    for i in range(1, n + 1):
        delta = me1.z_pow[i - 1] - me0.z_pow[i - 1]
        if not (delta - kap * formal[i - 1]).is_zero():
            shift_ok = False
    return ZShiftFactorization(h, all_ok, shift_ok, formal, tuple(terms))


# ---------------------------------------------------------------------------
# Dual-side restriction
# ---------------------------------------------------------------------------

def dual_restriction_check(
    space: TensorWeightSpace,
    flavor: Union[str, int, OrderFlavor] = "standard",
) -> bool:
    """Embedded indices (empty extra slot, ground zero) keep their function."""
    rank = space.pbw_basis.n_rank
    grounds = z_symbols(len(space.factors))
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        plain = forest_of_index(counts, flavor, n_rank=rank, grounds=grounds)
        padded = forest_of_index(
            counts + ((),), flavor, n_rank=rank, grounds=grounds + (RF_ZERO,)
        )
        if not (plain.function() - padded.function()).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Straddling-removal expansion
# ---------------------------------------------------------------------------

@record
class LemmaExpansionReport:
    h: int
    index: tuple
    n_terms: int
    raw_equal: bool
    symmetrized_equal: bool

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "index": _counts_json(self.index),
            "n_terms": self.n_terms,
            "raw_equal": self.raw_equal,
            "symmetrized_equal": self.symmetrized_equal,
        }


def lemma_rat2Dprime_check(
    space: TensorWeightSpace,
    h: int,
    index,
) -> LemmaExpansionReport:
    """Expand split straddling grounds into ground-at-zero transfers.

    The product in which every straddling string is split against zero must
    equal the signed binomial sum over all ways of moving straddling strings
    from their slots to an extra slot grounded at zero.
    """
    rank = space.pbw_basis.n_rank
    n = len(space.factors)
    grounds = z_symbols(n)
    counts = index_counts(index, space.pbw_basis)
    forest = forest_of_index(counts, OrderFlavor(h), n_rank=rank, grounds=grounds)
    lhs = _straddle_split_product(forest, h)

    straddle_types = [r for r in positive_roots(rank) if r[0] <= h < r[1]]
    per_type_choices = []
    for root in straddle_types:
        avail = [dict(slot).get(root, 0) for slot in counts]
        options = []
        for removal in itertools.product(*(range(c + 1) for c in avail)):
            weight = 1
            for have, take in zip(avail, removal):
                weight *= math.comb(have, take)
            options.append((root, removal, weight))
        per_type_choices.append(options)

    rhs = RF_ZERO
    n_terms = 0
    for combo in itertools.product(*per_type_choices):
        removed_total = sum(sum(removal) for _, removal, _ in combo)
        weight = 1
        for _, _, w in combo:
            weight *= w
        slots = [dict(slot) for slot in counts]
        extra: dict[tuple[int, int], int] = {}
        for root, removal, _ in combo:
            taken = sum(removal)
            if taken:
                extra[root] = taken
            for j, take in enumerate(removal):
                if take:
                    slots[j][root] = slots[j][root] - take
        sign = -1 if removed_total % 2 else 1
        coeff = rational(sign * weight)
        forest = forest_of_index(
            slots + [extra],
            OrderFlavor(h),
            n_rank=rank,
            grounds=grounds + (RF_ZERO,),
        )
        rhs = rhs + coeff * forest.function()
        n_terms += 1

    delta = lhs - rhs
    raw = delta.is_zero()
    symmetrized = raw or _averages_to_zero(delta, color_counts(counts, n_rank=rank))
    return LemmaExpansionReport(h, counts, n_terms, raw, symmetrized)


# ---------------------------------------------------------------------------
# Raising action on basis functionals
# ---------------------------------------------------------------------------

def raising_dual_coefficients(
    index,
    h: int,
    slot_alpha_pairings: Sequence[Sequence[RationalFunctionExpr]],
    n_rank: int,
) -> list[tuple[tuple, RationalFunctionExpr]]:
    """Coefficients of the level-``h`` raising action on a basis functional.

    Each output index has one extra color-``h`` variable: a string of one slot
    is extended downward or upward across the level, or a new unit string
    appears with the slot's remaining weight pairing as coefficient.
    """
    counts = index_counts(index)

    def adjust(j: int, deltas: Mapping[tuple[int, int], int]) -> tuple:
        """``counts`` with the string counts of slot ``j`` moved by ``deltas``."""
        d = dict(counts[j])
        for root, step in deltas.items():
            d[root] = d.get(root, 0) + step
            if d[root] < 0:
                raise ValueError("negative string count")
            if d[root] == 0:
                del d[root]
        return counts[:j] + (tuple(sorted(d.items())),) + counts[j + 1 :]

    def terms():
        for j, slot in enumerate(counts):
            here = dict(slot)
            for p in range(h + 2, n_rank + 1):
                c = here.get((h + 1, p), 0)
                if c:
                    yield adjust(j, {(h, p): 1, (h + 1, p): -1}), rational(c)
            for p in range(1, h):
                c = here.get((p, h), 0)
                if c:
                    yield adjust(j, {(p, h + 1): 1, (p, h): -1}), rational(-c)
            scalar = slot_alpha_pairings[j][h - 1]
            for p in range(1, h):
                scalar = scalar + rational(here.get((p, h), 0))
            for p in range(1, h + 1):
                scalar = scalar - rational(here.get((p, h + 1), 0))
            yield adjust(j, {(h, h + 1): 1}), scalar

    return sorted(rf_sums(terms()).items())

# ---------------------------------------------------------------------------
# Dual lowering rule
# ---------------------------------------------------------------------------

def dual_action_F(
    space: TensorWeightSpace, index: MultiIndex, h: int, root: tuple[int, int]
) -> dict[MultiIndex, RationalFunctionExpr]:
    """Closed form for the flavored lowering vector on (F_index v)^*.

    Only the straddling roots k <= h < l admit this one-term form (they are
    the top block of the level-h arrangement, so the lowering vector absorbs
    without corrections); the space must carry the level-h arrangement.
    """
    basis = space.pbw_basis
    if not root[0] <= h < root[1]:
        raise ValueError("the one-term dual lowering rule needs k <= h < l")
    pos = basis.position[root]

    def lowered(j: int) -> MultiIndex:
        exps = list(index[j])
        exps[pos] -= 1
        return index[:j] + (tuple(exps),) + index[j + 1 :]

    # each factor gives its own key, so no key takes a second term
    return {
        lowered(j): rational(index[j][pos]) for j in range(len(space.factors)) if index[j][pos]
    }


# ---------------------------------------------------------------------------
# Logarithmic-form pullback witness
# ---------------------------------------------------------------------------

def _sorted_key_sign(key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    items = list(key)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def _wedge(a: dict, b: dict) -> dict:
    def terms():
        for ka, ca in a.items():
            seen = set(ka)
            for kb, cb in b.items():
                if seen & set(kb):
                    continue
                key, sign = _sorted_key_sign(ka + kb)
                coeff = ca * cb
                yield key, coeff if sign > 0 else -coeff

    return rf_sums(terms())


@record
class SwitchCorReport:
    h: int
    index: tuple
    pullback_exact: bool
    pullback_sign: int
    dual_raw_equal: bool
    dual_sign: int
    dual_symmetrized_equal: bool
    n_dual_terms: int

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "index": _counts_json(self.index),
            "pullback_exact": self.pullback_exact,
            "pullback_sign": self.pullback_sign,
            "dual_raw_equal": self.dual_raw_equal,
            "dual_sign": self.dual_sign,
            "dual_symmetrized_equal": self.dual_symmetrized_equal,
            "n_dual_terms": self.n_dual_terms,
        }


def switch_cor_witness(space: TensorWeightSpace, index, h: int) -> SwitchCorReport:
    """Certify that the raising action lands in the null class.

    Two exact statements are verified over the universe enlarged by one
    color-``h`` variable.  First, wedging the exact logarithmic derivative
    one-form of the weight function with the index's logarithmic chain form
    yields, on the volume component, plus or minus the new-variable
    logarithmic derivative times the index function.  Second, the image of the
    raised basis functional under the function map equals minus that product —
    raw if variable copies align, otherwise after averaging over same-color
    copies.
    """
    rank = space.pbw_basis.n_rank
    n = len(space.factors)
    counts = index_counts(index)
    if len(counts) == n:
        counts = counts + ((),)
    if len(counts) != n + 1:
        raise ValueError("index must cover the slots plus at most one extra")
    grounds = z_symbols(n) + (RF_ZERO,)

    base_counts = color_counts(counts, n_rank=rank)
    enlarged = tuple(
        m + 1 if k == h else m for k, m in enumerate(base_counts, start=1)
    )
    new_var = t_name(h, base_counts[h - 1] + 1)
    me = master_exponents(space, lambda_pairing_symbols(rank), m_counts=enlarged)

    var_ids = {}
    for k, m in enumerate(enlarged, start=1):
        for d in range(1, m + 1):
            var_ids[t_name(k, d)] = len(var_ids)
    volume_key = tuple(range(len(var_ids)))

    forest = forest_of_index(counts, n_rank=rank, grounds=grounds)
    phi_index = forest.function()

    eta: dict[tuple[int, ...], RationalFunctionExpr] = {(): RF_ONE}
    for s in forest.strings:
        k, l = s.root
        for p in range(k, l - 1):
            va, vb = t_symbol(*s.variables[p - k]), t_symbol(*s.variables[p + 1 - k])
            ia = var_ids[t_name(*s.variables[p - k])]
            ib = var_ids[t_name(*s.variables[p + 1 - k])]
            factor = RF_ONE / (va - vb)
            eta = _wedge(eta, {(ia,): factor, (ib,): factor * rational(-1)})
        g = s.variables[l - 1 - k]
        factor = RF_ONE / (t_symbol(*g) - s.ground)
        eta = _wedge(eta, {(var_ids[t_name(*g)],): factor})

    one_form = {
        (i,): log_derivative(me, name) for name, i in var_ids.items()
    }
    total = _wedge(one_form, eta)
    volume = total.get(volume_key, RF_ZERO)
    target = log_derivative(me, new_var) * phi_index
    if (volume - target).is_zero():
        pullback_exact, pullback_sign = True, 1
    elif (volume + target).is_zero():
        pullback_exact, pullback_sign = True, -1
    else:
        pullback_exact, pullback_sign = False, 0

    # the pairings (hw_j, alpha_p) of the slots and (lambda - rho - nu/2,
    # alpha_p) of the extra slot frozen at zero, as the exponents record them
    slot_pairs = [tuple(-me.t_z[(p, j)] for p in range(1, rank)) for j in range(1, n + 1)]
    slot_pairs.append(tuple(-e for e in me.t_pow))

    dual_image = RF_ZERO
    coeffs = raising_dual_coefficients(counts, h, slot_pairs, rank)
    for new_index, coeff in coeffs:
        forest = forest_of_index(new_index, n_rank=rank, grounds=grounds)
        dual_image = dual_image + coeff * forest.function()

    dual_raw, dual_sign = False, 0
    if (dual_image + target).is_zero():
        dual_raw, dual_sign = True, -1
    elif (dual_image - target).is_zero():
        dual_raw, dual_sign = True, 1
    elif _averages_to_zero(dual_image + target, enlarged):
        dual_sign = -1
    elif _averages_to_zero(dual_image - target, enlarged):
        dual_sign = 1
    dual_sym = dual_sign != 0
    return SwitchCorReport(
        h,
        counts,
        pullback_exact,
        pullback_sign,
        dual_raw,
        dual_sign,
        dual_sym,
        len(coeffs),
    )
