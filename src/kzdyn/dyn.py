"""Dynamical difference operators on tensor-product weight spaces.

This module builds the weight-space operators that enter the difference
equations attached to the trigonometric KZ system.  Every operator is a
`WeightSpaceOperator` assembled from the letter matrices of `rep`
(``operator_for_letter`` and the word matrices ``word_operator``):

* the terminating series ``p_series`` and the one-root operators
  ``B_alpha``,
* ordered products ``B_w`` over the root sequence of a reduced word,
* the additive (single-sum) form ``B_additive``, a sum of word matrices
  weighted by the dual-element table of a symbolic highest-weight module
  (`rep.p_elements`),
* the multiplicative ``K_operator``, the rows of B_w scaled by the integer
  z powers of its diagonal coordinate prefactor (`rep`'s ``scale_rows``),
  and ``formal_z_exponents``, the prefactor's symbolic part, which depends
  on neither lambda nor the row,
* the shifted fusion element (``fusion_solve``) solved weight by weight from
  its defining recurrence, and the lowering/raising contraction ``q_dagger``
  built from its coefficients as solved; it and ``B_additive`` sum
  ``(lo, hi, c)`` rows, standing for ``c A(F_lo) tau(F_hi)``, in one
  ``_contract``,
* KZ-operator assembly (``kz_operator``, ``omega_operator``,
  ``r_matrix_operator``) and the exact compatibility checks
  ``check_K_exchange`` / ``check_nabla_K``; ``nabla_K_rows`` proves every
  row of the latter through identities free of z and kappa, since K_k is a
  diagonal of z monomials times B_w(lambda), which has neither (Tarasov and
  Varchenko, IMRN 2000): the residual splits into a Casimir commutator, a
  remainder and an exponent identity,
* exact ingredients of the determinant formula (``det_ingredients``) and the
  weight-space identity behind the rational-to-trigonometric reduction
  (``check_rational_to_trig``).

Conventions
-----------
The dynamical parameter is always passed as its tuple of pairings with the
simple coroots (entry ``i`` is the pairing with the ``i``-th simple root);
``lambda_pairing_symbols`` returns the canonical symbolic tuple
``(l1, ..., l{N-1})``.  Tensor factors are numbered 1-based in this module's
public API, matching the coordinate symbols ``z:1, z:2, ...``.

The product forms are compared at one shift of the parameter, the pairings
of ``lambda + rho + nu/2`` (`shifted_pairings`): `B_additive` at
``lambda`` equals the bracket-word product there, and `q_dagger` with the
fusion coefficients at ``lambda`` equals the longest-word product there.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ._record import record
from .rep import (
    TensorWeightSpace,
    WeightSpaceOperator,
    enumerate_basis,
    operator_for_letter,
    p_elements,
    verma_weight,
    word_operator,
)
from .roots import (
    WeightVec,
    nu_vec,
    omega_bracket,
    omega_vec,
    positive_roots,
    rho_vec,
    roots_of_reduced_word,
)
from .symexpr import (
    RF_ONE,
    RF_ZERO,
    PoleHit,
    RationalFunctionExpr,
    rational,
    rf_sums,
    symbol,
)
from .uea import (
    PBWBasis,
    antipode_A,
    chevalley_tau,
    monomial_word,
    standard_basis,
    straightener,
)

__all__ = [
    "PoleHit",
    "NonFiniteDim",
    "FusionElement",
    "CheckReport",
    "DetIngredients",
    "KZOperator",
    "lambda_pairing_symbols",
    "kappa_symbol",
    "z_symbols",
    "shifted_pairings",
    "p_series",
    "B_alpha",
    "B_w",
    "B_additive",
    "K_operator",
    "formal_z_exponents",
    "fusion_solve",
    "q_dagger",
    "omega_operator",
    "r_matrix_operator",
    "lambda_diagonal",
    "kz_operator",
    "check_K_exchange",
    "check_nabla_K",
    "nabla_K_rows",
    "det_ingredients",
    "check_rational_to_trig",
]

_HALF = rational(Fraction(1, 2))


class NonFiniteDim(ValueError):
    """An operation requiring finite-dimensional factors met a Verma factor."""


# ---------------------------------------------------------------------------
# Parameter helpers
# ---------------------------------------------------------------------------


def lambda_pairing_symbols(n_rank: int) -> tuple[RationalFunctionExpr, ...]:
    """Canonical symbols for the dynamical parameter's simple-coroot pairings."""
    return tuple(symbol(f"l{i}") for i in range(1, n_rank))


def kappa_symbol() -> RationalFunctionExpr:
    """The step symbol of the difference equations."""
    return symbol("kap")


def z_symbols(n_factors: int) -> tuple[RationalFunctionExpr, ...]:
    """Symbols for the evaluation points, one per tensor factor."""
    return tuple(symbol(f"z:{j}") for j in range(1, n_factors + 1))


def _root_pairing(
    pairings: Sequence[RationalFunctionExpr], root: tuple[int, int]
) -> RationalFunctionExpr:
    """Pairing with a positive root, by linearity over its simple summands."""
    k, l = root
    total = RF_ZERO
    for i in range(k, l):
        total = total + pairings[i - 1]
    return total


def shifted_pairings(
    space: TensorWeightSpace, pairings: Sequence[RationalFunctionExpr]
) -> tuple[RationalFunctionExpr, ...]:
    """Pairings of ``lambda + rho + nu/2`` on this space."""
    return tuple(
        p + RF_ONE + q * _HALF for p, q in zip(pairings, space.weight.pairings)
    )


def _exps_coords(basis: PBWBasis, exps: Sequence[int]) -> tuple[int, ...]:
    """Simple-root coordinates of the weight lowered by a basis monomial."""
    coords = [0] * (basis.n_rank - 1)
    for (k, l), e in zip(basis.order, exps):
        if e:
            for h in range(k, l):
                coords[h - 1] += e
    return tuple(coords)


def _root_coords(n_rank: int, root: tuple[int, int]) -> tuple[int, ...]:
    """Simple-root coordinates of the positive root ``(k, l)``: ones at k..l-1."""
    k, l = root
    return tuple(int(k <= h < l) for h in range(1, n_rank))


# ---------------------------------------------------------------------------
# p-series and one-root operators
# ---------------------------------------------------------------------------


def p_series(
    space: TensorWeightSpace, alpha: tuple[int, int], t_val: RationalFunctionExpr
) -> WeightSpaceOperator:
    """Matrix of the terminating series ``sum_k F^k E^k / (k! prod_j (t - H - j))``.

    The Cartan factors act first (rightmost), so ``H`` is evaluated on the
    weight of the space.  The series terminates because iterated raising
    eventually annihilates the whole weight space.  Memoized per (space,
    root, series argument): every caller shares the result, so never mutate
    it.
    """
    return _p_series(space, alpha, t_val)


# Entries of the one-root memo.  `compatibility --n 3` asks for 12 series,
# 4 of them distinct: the shifted K's repeat every root that the shift does
# not touch, and `nabla_K_rows` repeats the unshifted B_k.  `cli.run_suite`
# clears it, so that no run reads another's operators.  (It sits behind
# `p_series`, so that wrapping or replacing that name keeps the memo.)
@lru_cache(maxsize=64)
def _p_series(
    space: TensorWeightSpace, alpha: tuple[int, int], t_val: RationalFunctionExpr
) -> WeightSpaceOperator:
    """`p_series`, memoized."""
    k0, l0 = alpha
    raise_letter = ("e", k0, l0)
    lower_letter = ("e", l0, k0)
    h_val = _root_pairing(space.weight.pairings, alpha)

    total = WeightSpaceOperator.identity(space)
    up = total  # E^k, from the space to the k-times raised space
    down = total  # F^k, back from the k-times raised space
    scale = RF_ONE  # 1 / (k! prod_j (t - H - j)), one linear factor per pole
    k = 0
    while True:
        k += 1
        up = operator_for_letter(up.codomain, raise_letter).compose(up)
        if up.is_zero():
            break
        pole = t_val - h_val - rational(k - 1)
        if pole.is_zero():
            raise PoleHit(
                f"series denominator factor vanishes at step {k} for root {alpha}"
            )
        scale = scale / (pole * rational(k))
        down = down.compose(operator_for_letter(up.codomain, lower_letter))
        total = total + down.compose(up).scale(scale)
    return total


def B_alpha(
    space: TensorWeightSpace,
    alpha: tuple[int, int],
    pairings: Sequence[RationalFunctionExpr],
) -> WeightSpaceOperator:
    """One-root difference operator on a weight space.

    The series argument is ``(lambda + nu/2, alpha) - 1`` where ``nu`` is the
    weight of the space, so the operator preserves the space.
    """
    nu_pair = _root_pairing(space.weight.pairings, alpha)
    t_val = _root_pairing(pairings, alpha) + nu_pair * _HALF - RF_ONE
    return p_series(space, alpha, t_val)


def B_w(
    space: TensorWeightSpace,
    word: Sequence[int],
    pairings: Sequence[RationalFunctionExpr],
) -> WeightSpaceOperator:
    """Ordered product of one-root operators along a reduced word.

    The word ``[i_1, ..., i_m]`` yields the root sequence
    ``alpha^1, ..., alpha^m``; the factor for ``alpha^1`` is applied first.
    The result is independent of the choice of reduced word (a tested
    property, not an assumption).
    """
    n_rank = space.pbw_basis.n_rank
    total = WeightSpaceOperator.identity(space)
    for root in roots_of_reduced_word(n_rank, word):
        total = B_alpha(space, root, pairings).compose(total)
    return total


# ---------------------------------------------------------------------------
# Additive form
# ---------------------------------------------------------------------------


def _contract(
    space: TensorWeightSpace,
    basis: PBWBasis,
    rows: Iterable[tuple[tuple[int, ...], tuple[int, ...], RationalFunctionExpr]],
) -> WeightSpaceOperator:
    """``sum c A(F_lo) tau(F_hi)`` over ``(lo, hi, c)`` rows of ``basis``
    monomials, every row's word matrix streamed into one running sum per
    entry (`rf_sums`)."""

    def terms():
        for lo, hi, c in rows:
            w = antipode_A(monomial_word(basis, lo)) * chevalley_tau(monomial_word(basis, hi))
            yield from word_operator(space, w.scale(c)).entries.items()

    return WeightSpaceOperator(space, space, rf_sums(terms()))


def B_additive(
    space: TensorWeightSpace,
    r: int,
    pairings: Sequence[RationalFunctionExpr],
) -> WeightSpaceOperator:
    """Single-sum form of the level-``r`` difference operator.

    Each term lowers by an index supported on the roots straddling level
    ``r`` (in the level-``r`` arrangement) after raising by the Chevalley
    image of the corresponding dual element of a symbolic highest-weight
    module whose highest weight is the dynamical parameter.  The assembled
    matrix equals the product-form operator evaluated at
    ``lambda + rho + nu/2``.
    """
    n_rank = space.pbw_basis.n_rank
    basis_r = PBWBasis(n_rank, r)
    aux_factor = verma_weight(n_rank, WeightVec(tuple(pairings)))
    straddling = [k <= r < l for k, l in basis_r.order]

    def straddles(exps: tuple[int, ...]) -> bool:
        return all(s or not e for s, e in zip(straddling, exps))

    rows = []
    for mu in itertools.product(*(range(m + 1) for m in space.nu0)):
        aux = enumerate_basis([aux_factor], mu, basis_r)
        # the dual elements are needed only where a straddling index lives
        if any(straddles(index[0]) for index in aux.basis):
            rows.extend(
                (lo, hi, c) for (lo, hi), c in p_elements(aux).items() if straddles(lo)
            )
    return _contract(space, basis_r, rows)


# ---------------------------------------------------------------------------
# Coordinate-dressed operator
# ---------------------------------------------------------------------------


def K_operator(
    space: TensorWeightSpace,
    k: int,
    pairings: Sequence[RationalFunctionExpr],
) -> WeightSpaceOperator:
    """Level-``k`` difference-equation operator with coordinate prefactor.

    The prefactor is diagonal: each factor ``j`` contributes the coordinate
    ``z_j`` raised to the pairing of its weight with the ``k``-th fundamental
    coweight.  The basis-dependent integer part of that exponent multiplies
    the matrix entries directly; the symbolic highest-weight part, the same
    on every row and at every parameter, is `formal_z_exponents`.
    """
    # built first: omega_bracket rejects a k outside 1..N-1
    base = B_w(space, omega_bracket(space.pbw_basis.n_rank, k)[1], pairings)
    zs = z_symbols(len(space.factors))
    dressing = []
    for index in space.basis:
        value = RF_ONE
        for z, exps in zip(zs, index):
            drop = _exps_coords(space.pbw_basis, exps)[k - 1]
            if drop:
                value = value * z ** -drop
        dressing.append(value)
    return base.scale_rows(dressing)


def formal_z_exponents(
    space: TensorWeightSpace, k: int
) -> tuple[RationalFunctionExpr, ...]:
    """The formal z exponents of `K_operator`'s prefactor at level ``k``: each
    factor's highest weight paired with the ``k``-th fundamental coweight."""
    omega_k = omega_vec(space.pbw_basis.n_rank, k)
    return tuple(f.hw.dot(omega_k) for f in space.factors)


# ---------------------------------------------------------------------------
# Fusion element
# ---------------------------------------------------------------------------


@record
class FusionElement:
    """Weight-graded element of (lowering) x (raising) divided-power bases.

    ``components`` maps simple-root coordinates ``mu`` to a mapping from
    pairs ``(lower_exps, upper_exps)`` to scalar coefficients.  A pair stands
    for the signed divided lowering monomial with exponents ``lower_exps``
    tensored with the Chevalley image of the one with ``upper_exps``; both
    sides of every stored pair have weight ``mu``, so each term has total
    weight zero.  The zero component is the identity pair with coefficient
    one.
    """

    n_rank: int
    depth: int
    components: Mapping[
        tuple[int, ...],
        Mapping[tuple[tuple[int, ...], tuple[int, ...]], RationalFunctionExpr],
    ]

    def component(
        self, mu: Sequence[int]
    ) -> Mapping[tuple[tuple[int, ...], tuple[int, ...]], RationalFunctionExpr]:
        return self.components.get(tuple(mu), {})

    def triples(
        self, mu: Sequence[int]
    ) -> list[tuple[tuple[int, ...], tuple[int, ...], RationalFunctionExpr]]:
        """The component at ``mu`` as (lowering, raising, coefficient) rows."""
        comp = self.component(mu)
        return [(lo, hi, c) for (lo, hi), c in sorted(comp.items())]

    def structure_ok(self) -> bool:
        """The zero component is the identity pair, and both sides of every
        stored pair have the weight of their component."""
        basis = standard_basis(self.n_rank)
        zero = basis.zero_exps()
        top = self.components.get(tuple([0] * (self.n_rank - 1)))
        return top == {(zero, zero): RF_ONE} and all(
            _exps_coords(basis, lo) == mu and _exps_coords(basis, hi) == mu
            for mu, comp in self.components.items()
            for lo, hi in comp
        )

    def residual_zero(self) -> bool:
        """Each component times `_fusion_scalar` equals its `_recurrence_image`,
        the recurrence `fusion_solve` solves; at weight zero both sides vanish."""
        engine = straightener(standard_basis(self.n_rank))
        for mu, comp in self.components.items():
            scalar = _fusion_scalar(self.n_rank, mu)
            image = _recurrence_image(engine, self.components, mu)
            for key in comp.keys() | image.keys():
                if not (comp.get(key, RF_ZERO) * scalar - image.get(key, RF_ZERO)).is_zero():
                    return False
        return True


def _weight_compositions(n_parts: int, total: int):
    if n_parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weight_compositions(n_parts - 1, total - first):
            yield (first,) + rest


def _fusion_scalar(n_rank: int, mu: Sequence[int]) -> RationalFunctionExpr:
    """The dividing scalar ``(lambda + rho, mu) - (mu, mu)/2`` of the fusion
    recurrence at the weight with simple-root coordinates ``mu``, at
    `lambda_pairing_symbols`."""
    pairings = lambda_pairing_symbols(n_rank)
    mu_vec = nu_vec(n_rank, mu)
    scalar = RF_ZERO
    for i, m in enumerate(mu):
        if m:
            scalar = scalar + (pairings[i] + RF_ONE) * rational(m)
    return scalar - mu_vec.dot(mu_vec) * _HALF


def _recurrence_image(engine, components: Mapping, mu: Sequence[int]) -> dict:
    """The image under ``-sum_alpha e_{-alpha} x e_alpha`` of the components
    one positive root below ``mu``: the root's lowering letter on both sides
    of every pair."""
    n_rank = len(mu) + 1

    def terms():
        for root in positive_roots(n_rank):
            below = tuple(m - c for m, c in zip(mu, _root_coords(n_rank, root)))
            letter = ("e", root[1], root[0])
            for (lo, hi), psi in components.get(below, {}).items():
                left = engine.apply_letter(letter, lo)
                right = engine.apply_letter(letter, hi)
                for lo2, c_lo in left.items():
                    for hi2, c_hi in right.items():
                        yield (lo2, hi2), psi * c_lo * c_hi

    return rf_sums(terms())


def fusion_solve(n_rank: int, depth: int) -> FusionElement:
    """Solve the defining recurrence of the shifted fusion element.

    Components are produced weight by weight: the component at ``mu`` is its
    `_recurrence_image` divided by `_fusion_scalar`.  Coefficients are
    rational in the canonical parameter symbols, where the scalar never
    vanishes: at ``mu != 0`` it has a term ``m_i l_i`` for some ``m_i > 0``.
    """
    basis = standard_basis(n_rank)
    engine = straightener(basis)
    zero = basis.zero_exps()
    components: dict = {
        tuple([0] * (n_rank - 1)): {(zero, zero): RF_ONE}
    }
    for height in range(1, depth + 1):
        for mu in _weight_compositions(n_rank - 1, height):
            scalar = _fusion_scalar(n_rank, mu)
            comp = {}
            for key, val in _recurrence_image(engine, components, mu).items():
                quot = val / scalar
                if not quot.is_zero():
                    comp[key] = quot
            components[mu] = comp
    return FusionElement(n_rank, depth, components)


def q_dagger(space: TensorWeightSpace, fusion: FusionElement) -> WeightSpaceOperator:
    """Matrix of the fusion element contracted on a weight space.

    Each fusion pair contributes the antipode of its lowering part applied
    after its raising part, weighted by its coefficient as `fusion_solve`
    returns it, at ``lambda``.  The sum equals `B_w` of the longest element
    at `shifted_pairings`, ``lambda + rho + nu/2`` (the ``fusion`` suite's
    last row).
    """
    n_rank = space.pbw_basis.n_rank
    if fusion.depth < sum(space.nu0) or fusion.n_rank != n_rank:
        raise ValueError("fusion element not solved to sufficient depth")
    rows = [
        (lo, hi, psi)
        for mu, comp in fusion.components.items()
        if all(m <= n for m, n in zip(mu, space.nu0))
        for (lo, hi), psi in comp.items()
    ]
    return _contract(space, standard_basis(n_rank), rows)


# ---------------------------------------------------------------------------
# KZ operators
# ---------------------------------------------------------------------------


def omega_operator(space: TensorWeightSpace, i: int, j: int) -> WeightSpaceOperator:
    """The half of the Casimir operator between factors ``i`` and ``j``
    (1-based) that raises at ``i``: the diagonal half plus, per positive
    root (a, b), ``e_ab`` on factor ``i`` after ``e_ba`` on factor ``j``.

    The half that lowers at ``i`` is ``omega_operator(space, j, i)``, and
    the Casimir operator is the sum of the two.
    """
    return _half_diagonal(space, i, j) + sum(
        _root_terms(space, i, j).values(), WeightSpaceOperator.zero(space, space)
    )


def _half_diagonal(space: TensorWeightSpace, i: int, j: int) -> WeightSpaceOperator:
    """``(mu_i, mu_j) / 2`` on the row of factor weights mu_i, mu_j: the
    diagonal of `omega_operator`, the same at (i, j) and (j, i)."""
    if i == j:
        raise ValueError("factor indices must differ")
    pairs = [space.factor_weight(p, i).dot(space.factor_weight(p, j)) for p in range(space.dim)]
    return WeightSpaceOperator.diagonal(space, [pair * _HALF for pair in pairs])


def _root_terms(
    space: TensorWeightSpace, raise_at: int, lower_at: int
) -> dict[tuple[int, int], WeightSpaceOperator]:
    """Per positive root (a, b): ``e_ab`` on factor ``raise_at`` after ``e_ba``
    on factor ``lower_at``, the off-diagonal terms of `omega_operator`,
    composed from `_root_letters`."""
    return {
        root: lower.compose(raiser)
        for root, raiser, lower in _root_letters(space, raise_at, lower_at)
    }


def _root_letters(
    space: TensorWeightSpace, raise_at: int, lower_at: int
) -> Iterator[tuple[tuple[int, int], WeightSpaceOperator, WeightSpaceOperator]]:
    """Per positive root (a, b), one at a time: ``((a, b), raiser, lower)``,
    ``e_ab`` on factor ``raise_at`` and then ``e_ba`` on factor ``lower_at``.

    The two letters act on different tensor factors, so they commute, and
    they pass through the raised space nu - alpha, which is smaller than the
    lowered nu + alpha and empty when nu - alpha has a negative depth.
    """
    for (a, b) in positive_roots(space.pbw_basis.n_rank):
        raiser = operator_for_letter(space, ("e", a, b), only_factor=raise_at - 1)
        lower = operator_for_letter(raiser.codomain, ("e", b, a), only_factor=lower_at - 1)
        if lower.codomain != space:
            raise ValueError(f"e_{b}{a} e_{a}{b} maps {space!r} to {lower.codomain!r}")
        yield (a, b), raiser, lower


def r_matrix_operator(
    space: TensorWeightSpace,
    i: int,
    j: int,
    z_i: RationalFunctionExpr,
    z_j: RationalFunctionExpr,
) -> WeightSpaceOperator:
    """Trigonometric two-factor kernel ``(O+ z_i + O- z_j) / (z_i - z_j)``."""
    plus = omega_operator(space, i, j)
    minus = omega_operator(space, j, i)
    scale = RF_ONE / (z_i - z_j)
    return plus.scale(z_i * scale) + minus.scale(z_j * scale)


def lambda_diagonal(
    space: TensorWeightSpace,
    i: int,
    pairings: Sequence[RationalFunctionExpr],
) -> WeightSpaceOperator:
    """Diagonal operator pairing the weight lambda with labels ``pairings``
    (the parameter, in the KZ operators) with each row's factor-``i`` weight.

    Row p's factor weight is hw_i - sum_h d_h(p) alpha_h, where d_h(p) are
    its level drops, so the row reads (lambda, hw_i) - sum_h d_h(p) lambda_h:
    one `WeightVec.dot` per call, and d_h(p) lambda_h is summed as d_h(p)
    copies of lambda_h, so that no row multiplies.
    """
    top = WeightVec(tuple(pairings)).dot(space.factors[i - 1].hw)
    values = []
    for index in space.basis:
        drops = _exps_coords(space.pbw_basis, index[i - 1])
        lowered = (lam for lam, d in zip(pairings, drops) for _ in range(d))
        values.append(top - sum(lowered, RF_ZERO))
    return WeightSpaceOperator.diagonal(space, values)


@record
class KZOperator:
    """A first-order operator: derivative coefficient plus zeroth-order matrix."""

    kind: str
    index: int
    derivative_coeff: RationalFunctionExpr
    zero_order: WeightSpaceOperator


def kz_operator(
    space: TensorWeightSpace,
    kind: str,
    i: int,
    pairings: Sequence[RationalFunctionExpr],
) -> KZOperator:
    """Assemble the ``i``-th KZ operator (1-based factor index).

    ``kind="rational"`` gives derivative coefficient ``kappa`` and zeroth
    order ``-sum_j Omega^(ij)/(z_i - z_j)``; ``kind="trigonometric"`` gives
    ``kappa z_i`` and ``-lambda^(i) - sum_j r(z_i/z_j)^(ij)``, with
    ``lambda`` read from ``pairings``; the rational kind does not read them.
    """
    n = len(space.factors)
    if not 1 <= i <= n:
        raise ValueError(f"factor index {i} out of range")
    zs = z_symbols(n)
    kap = kappa_symbol()
    zero = WeightSpaceOperator.zero(space, space)
    if kind == "rational":
        for j in range(1, n + 1):
            if j == i:
                continue
            casimir = omega_operator(space, i, j) + omega_operator(space, j, i)
            term = casimir.scale(RF_ONE / (zs[i - 1] - zs[j - 1]))
            zero = zero + term
        return KZOperator(kind, i, kap, zero.scale(rational(-1)))
    if kind == "trigonometric":
        zero = zero + lambda_diagonal(space, i, pairings)
        for j in range(1, n + 1):
            if j == i:
                continue
            zero = zero + r_matrix_operator(space, i, j, zs[i - 1], zs[j - 1])
        return KZOperator(kind, i, kap * zs[i - 1], zero.scale(rational(-1)))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Compatibility checks
# ---------------------------------------------------------------------------


@record
class CheckReport:
    """Outcome of an exact identity check with an optional witness."""

    passed: bool
    checked: int
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"passed": self.passed, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _first_mismatch(
    lhs: WeightSpaceOperator, rhs: WeightSpaceOperator
) -> Optional[dict]:
    keys = set(lhs.entries) | set(rhs.entries)
    for key in sorted(keys):
        a = lhs.entry(*key)
        b = rhs.entry(*key)
        if a != b:
            return {"row": key[0], "col": key[1], "lhs": str(a), "rhs": str(b)}
    return None


def _kappa_shift(
    pairings: Sequence[RationalFunctionExpr], level: int, kap: RationalFunctionExpr
) -> tuple[RationalFunctionExpr, ...]:
    return tuple(
        p + kap if idx == level - 1 else p for idx, p in enumerate(pairings)
    )


def check_K_exchange(space: TensorWeightSpace, k: int, l: int) -> CheckReport:
    """Exact matrix check of the exchange relation between two levels, at the
    symbolic pairings `lambda_pairing_symbols`.

    Verifies that shifting the parameter by ``kappa`` times one fundamental
    coweight and applying the other level's operator commutes.  Both sides
    carry the formal prefactor of exponents f_k + f_l (`formal_z_exponents`,
    free of lambda), so only the matrices are compared.  The levels must
    differ: at ``k == l`` both sides are the same product and the check
    cannot fail.
    """
    if k == l:
        raise ValueError(f"exchange needs two distinct levels, got k = l = {k}")
    pairings = lambda_pairing_symbols(space.pbw_basis.n_rank)
    kap = kappa_symbol()
    lhs = K_operator(space, k, _kappa_shift(pairings, l, kap)).compose(
        K_operator(space, l, pairings)
    )
    rhs = K_operator(space, l, _kappa_shift(pairings, k, kap)).compose(
        K_operator(space, k, pairings)
    )
    witness = _first_mismatch(lhs, rhs)
    return CheckReport(witness is None, space.dim ** 2, witness)


def check_nabla_K(space: TensorWeightSpace, j: int, k: int) -> CheckReport:
    """Exact zeroth-order residual of the derivative/difference intertwining.

    With Z(lambda) the zeroth-order matrix of the j-th trigonometric KZ
    operator (`kz_operator`), the residual is ``kappa (dK + K formal_j) +
    Z(lambda + kappa omega_k) K - K Z(lambda)``.  The derivative hits only
    the coordinate prefactor, whose logarithmic derivative is the formal
    highest-weight exponent plus the integer exponent of each matrix row.
    The residual must vanish identically at `lambda_pairing_symbols`.
    """
    pairings = lambda_pairing_symbols(space.pbw_basis.n_rank)
    kap = kappa_symbol()
    K = K_operator(space, k, pairings)

    drops = [_exps_coords(space.pbw_basis, index[j - 1])[k - 1] for index in space.basis]
    dK = K.scale_rows([rational(-drop) for drop in drops])
    formal_j = formal_z_exponents(space, k)[j - 1]
    term_derivative = (dK + K.scale(formal_j)).scale(kap)
    shifted = kz_operator(space, "trigonometric", j, _kappa_shift(pairings, k, kap))
    plain = kz_operator(space, "trigonometric", j, pairings)
    residual = (
        term_derivative
        + shifted.zero_order.compose(K)
        - K.compose(plain.zero_order)
    )
    witness = _first_mismatch(residual, WeightSpaceOperator.zero(space, space))
    return CheckReport(witness is None, space.dim ** 2, witness)


def nabla_K_rows(space: TensorWeightSpace) -> Iterator[tuple[int, int, CheckReport]]:
    """`check_nabla_K` at the symbolic pairings for every factor j and level
    k, as ``(j, k, report)`` with j outer, proved through identities free of z
    and kappa.

    K_k = D B with D `K_operator`'s diagonal of z monomials and B = B_w(lambda)
    free of z and kappa (Tarasov and Varchenko, IMRN 2000).  Put x_i = z_j/z_i
    and write the trigonometric r-matrix r(x_i) = (x_i P_ji + Q_ji)/(x_i - 1) =
    P_ji + Omega_ji/(x_i - 1), where P_ji = `omega_operator`(space, j, i)
    raises at j, Q_ji = `omega_operator`(space, i, j) raises at i and
    Omega_ji = P_ji + Q_ji.  Conjugating by D scales
    the terms of roots (a, b) with a <= k < b by x_i^-1 in P_ji and by x_i in
    Q_ji; with A_k and C_k those terms of P_ji and Q_ji, that adds C_k - A_k
    to r(x_i).  The shift lambda -> lambda + kappa omega_k adds
    kappa (omega_k, mu_j) to Lambda_j (`lambda_diagonal`), so the residual R
    of `check_nabla_K` reduces to

        D^-1 R = kappa diag(f_j - drop_j - (omega_k, mu_j)) B + [B, Lambda_j]
                 - sum_{i != j} ([P_ji, B] + (C_k - A_k) B)
                 - sum_{i != j} [Omega_ji, B] / (x_i - 1),

    with f_j the formal z_j exponent, drop_j(p) the level-k drop of factor j
    in row p and mu_j(p) its weight.  The functions kappa, 1 and the
    1/(x_i - 1) are linearly independent over Q(lambda), and B is invertible
    (it tends to 1 as lambda grows), so R = 0 exactly when three parts hold:

    * ``exponents``: f_j - drop_j(p) = (omega_k, mu_j(p)) on every row p;
    * ``casimir``: [Omega_ji, B] = 0 for every i != j;
    * ``remainder``: B (Lambda_j + sum P_ji) = (Lambda_j + sum (P_ji + C_k
      - A_k)) B.

    The proof needs B free of z and kappa, so B and Lambda_j are built at
    `lambda_pairing_symbols`, the pairings `check_nabla_K` reads too.
    A failing report's witness names its ``part`` (with ``i`` for a Casimir)
    and the first unequal entry.  Each B_k, Omega and root term is built once
    per call.
    """
    n_rank = space.pbw_basis.n_rank
    pairings = lambda_pairing_symbols(n_rank)
    factors = range(1, len(space.factors) + 1)
    terms = {
        (a, b): _root_terms(space, a, b) for a in factors for b in factors if a != b
    }
    zero = WeightSpaceOperator.zero(space, space)
    plus = {
        pair: _half_diagonal(space, *pair) + sum(by_root.values(), zero)
        for pair, by_root in terms.items()
    }
    casimir = {(i, j): plus[(i, j)] + plus[(j, i)] for i, j in terms if i < j}
    bs: dict[int, WeightSpaceOperator] = {}
    commutes: dict[tuple[int, int, int], Optional[dict]] = {}

    def witness(j: int, k: int) -> Optional[dict]:
        formal = formal_z_exponents(space, k)[j - 1]
        omega_k = omega_vec(n_rank, k)
        for p, index in enumerate(space.basis):
            lhs = formal - rational(_exps_coords(space.pbw_basis, index[j - 1])[k - 1])
            rhs = omega_k.dot(space.factor_weight(p, j))
            if lhs != rhs:
                entry = {"row": p, "col": p, "lhs": str(lhs), "rhs": str(rhs)}
                return {"part": "exponents", **entry}
        if k not in bs:
            bs[k] = B_w(space, omega_bracket(n_rank, k)[1], pairings)
        B = bs[k]
        others = [i for i in factors if i != j]
        for i in others:
            key = (min(i, j), max(i, j), k)
            if key not in commutes:
                omega = casimir[key[:2]]
                commutes[key] = _first_mismatch(omega.compose(B), B.compose(omega))
            if commutes[key] is not None:
                return {"part": "casimir", "i": i, **commutes[key]}
        left = sum((plus[(j, i)] for i in others), lambda_diagonal(space, j, pairings))
        right = left
        for i in others:
            for root, term in terms[(i, j)].items():
                if root[0] <= k < root[1]:
                    right = right + term - terms[(j, i)][root]
        mismatch = _first_mismatch(B.compose(left), right.compose(B))
        return None if mismatch is None else {"part": "remainder", **mismatch}

    for j in factors:
        for k in range(1, n_rank):
            found = witness(j, k)
            yield j, k, CheckReport(found is None, space.dim ** 2, found)


# ---------------------------------------------------------------------------
# Determinant ingredients
# ---------------------------------------------------------------------------


@record
class DetIngredients:
    """Exact ingredients of the determinant formula on one weight space.

    ``gamma_ratio`` is the formula's gamma product as ``{argument:
    exponent}``, the form of `kzdyn.gamma`: per string multiplicity d at m,
    the product over j = 1..m of Gamma(1 - (l_alpha - h_j)/kap)^d /
    Gamma(1 - (l_alpha + h_j)/kap)^d, with h_j = (s + 2j)/2 for the pairing
    s of the weight with alpha.  Exponents of the coordinate prefactors are
    exact expressions in the parameter symbols.
    """

    multiplicities: Mapping[int, int]
    gamma_ratio: Counter
    lambda_traces: tuple[RationalFunctionExpr, ...]
    epsilon: Mapping[tuple[int, int], RationalFunctionExpr]
    gamma_sums: tuple[RationalFunctionExpr, ...]
    z_exponents: tuple[RationalFunctionExpr, ...]
    pair_exponents: Mapping[tuple[int, int], RationalFunctionExpr]


def det_ingredients(space: TensorWeightSpace, alpha: tuple[int, int]) -> DetIngredients:
    """Weight-string multiplicities, traces, and exponents for the determinant,
    at the symbolic pairings `lambda_pairing_symbols`.

    Requires every tensor factor to be finite dimensional.  Multiplicities
    count the strings of the ``alpha``-triple through this weight space by
    dimension differences along the ``alpha`` direction.  The traces of the
    Casimir operators are sums of weight pairings, since their nilpotent
    parts move weight between two factors and have no diagonal.
    """
    if any(f.kind != "lp" for f in space.factors):
        raise NonFiniteDim("determinant ingredients need finite-dimensional factors")
    n_rank = space.pbw_basis.n_rank
    pairings = lambda_pairing_symbols(n_rank)
    kap = kappa_symbol()
    coords = _root_coords(n_rank, alpha)

    def dim_at(m: int) -> int:
        return space.shifted({h: -m * rc for h, rc in enumerate(coords, 1)}).dim

    # `ModuleSpec` allows "lp" factors only at rank one, with integer weights
    s_pair = int(space.weight.pairings[0].const_value())
    lam_alpha = _root_pairing(pairings, alpha)
    mult: dict[int, int] = {}
    ratio: Counter = Counter()
    m = max(1, -s_pair)
    while dim_at(m) > 0:
        d = dim_at(m) - dim_at(m + 1)
        if d:
            mult[m] = d
            halves = [rational(Fraction(s_pair + 2 * j, 2)) for j in range(1, m + 1)]
            ratio.update({RF_ONE - (lam_alpha - h) / kap: d for h in halves})
            ratio.update({RF_ONE - (lam_alpha + h) / kap: -d for h in halves})
        m += 1

    n = len(space.factors)
    lam_vec = WeightVec(tuple(pairings))
    weights = [
        [space.factor_weight(pos, i) for i in range(1, n + 1)]
        for pos in range(space.dim)
    ]
    lam_traces = [sum((lam_vec.dot(w[i]) for w in weights), RF_ZERO) for i in range(n)]
    epsilon = {
        (i + 1, j + 1): sum((w[i].dot(w[j]) for w in weights), RF_ZERO)
        for i in range(n)
        for j in range(i + 1, n)
    }
    gamma_sums = [
        sum((e for pair, e in epsilon.items() if i in pair), RF_ZERO)
        for i in range(1, n + 1)
    ]
    z_exponents = tuple(
        (lam_traces[i] - gamma_sums[i] * _HALF) / kap for i in range(n)
    )
    pair_exponents = {key: val / kap for key, val in epsilon.items()}
    return DetIngredients(
        multiplicities=mult,
        gamma_ratio=ratio,
        lambda_traces=tuple(lam_traces),
        epsilon=epsilon,
        gamma_sums=tuple(gamma_sums),
        z_exponents=z_exponents,
        pair_exponents=pair_exponents,
    )


# ---------------------------------------------------------------------------
# Rational-to-trigonometric weight identity
# ---------------------------------------------------------------------------


def _contract_last_factor(
    space_prime: TensorWeightSpace, space: TensorWeightSpace
) -> list[int]:
    """The 0/1 contraction of the last factor against its dual highest
    vector, as the one column it reads per row: row ``pos`` of ``space``
    reads the basis vector ``pos`` tensored with the last factor's highest
    vector, and every other column of ``space_prime`` contracts to zero."""
    zero = space_prime.pbw_basis.zero_exps()
    return [space_prime.index_position[mi + (zero,)] for mi in space.basis]


def _coupling_to_last(
    space_prime: TensorWeightSpace, space: TensorWeightSpace, i: int
) -> WeightSpaceOperator:
    """The Casimir operator between factor ``i`` and the last factor of
    ``space_prime``, restricted to the rows that `_contract_last_factor`
    lists, as an operator into ``space``.

    On those rows the last factor is its highest vector, which the half
    that lowers the last factor never reaches.  So they hold the diagonal
    (mu_i, mu_last) and the root terms that raise at the last factor.  The
    lowering acts on factor i, so the raiser is cut to those rows first.
    """
    last = len(space_prime.factors)
    top = {row: pos for pos, row in enumerate(_contract_last_factor(space_prime, space))}
    zero = space_prime.pbw_basis.zero_exps()
    # factor i weighs the same at row and at pos; the last one is at its top
    diagonal = lambda_diagonal(space, i, space_prime.factors[-1].hw.pairings)

    def terms():
        for row, pos in top.items():
            yield (pos, row), diagonal.entry(pos, pos)
        for _, raiser, lower in _root_letters(space_prime, last, i):
            raised = lower.domain
            kept = {k: c for k, c in raiser.entries.items() if raised.basis[k[0]][-1] == zero}
            term = lower.compose(WeightSpaceOperator(space_prime, raised, kept))
            for (row, col), c in term.entries.items():
                if row in top:
                    yield (top[row], col), c

    return WeightSpaceOperator(space_prime, space, rf_sums(terms()))


def check_rational_to_trig(
    space_prime: TensorWeightSpace,
    i: int,
    vectors: Sequence[Mapping[int, RationalFunctionExpr]],
) -> CheckReport:
    """Exact check of the weight identity behind the trigonometric reduction.

    Both sides are operators from ``space_prime`` into the space of its
    first n factors, built once.  The left side is the contraction of the
    last factor (`_contract_last_factor`) followed by the pairing with the
    last highest weight plus the rho and half-weight shifts (`lambda_diagonal`
    at its labels), minus half the factor Casimir value.  The right side is
    `_coupling_to_last` plus the lowering halves ``omega_operator(space, j,
    i)``, j != i, after the same contraction.  Both apply to each of
    ``vectors``, the singular vectors of ``space_prime``
    (`rep.singular_vectors`); the witness names the first vector, then the
    first position, where they differ.
    """
    n_rank = space_prime.pbw_basis.n_rank
    n = len(space_prime.factors) - 1
    if n < 1:
        raise ValueError("need at least two factors")
    if not 1 <= i <= n:
        raise ValueError(f"factor index {i} out of range")
    space = enumerate_basis(
        space_prime.factors[:-1], space_prime.nu0, space_prime.pbw_basis
    )
    rho = rho_vec(n_rank)
    shift_vec = space_prime.factors[-1].hw + rho + space.weight.scale(_HALF)
    hw_i = space.factors[i - 1].hw
    casimir_i = (hw_i.dot(hw_i) + hw_i.dot(rho) + hw_i.dot(rho)) * _HALF

    lift = _contract_last_factor(space_prime, space)
    shifted = lambda_diagonal(space, i, shift_vec.pairings)
    diagonal = {
        (pos, row): shifted.entry(pos, pos) - casimir_i for pos, row in enumerate(lift)
    }
    lhs_op = WeightSpaceOperator(space_prime, space, diagonal)
    lowering = (
        ((row, lift[col]), c)
        for j in range(1, n + 1)
        if j != i
        for (row, col), c in omega_operator(space, j, i).entries.items()
    )
    coupling = _coupling_to_last(space_prime, space, i).entries.items()
    rhs_op = WeightSpaceOperator(space_prime, space, rf_sums(itertools.chain(coupling, lowering)))
    for checked, u0 in enumerate(vectors, 1):
        lhs, rhs = lhs_op.apply(u0), rhs_op.apply(u0)
        for pos in sorted(set(lhs) | set(rhs)):
            a, b = lhs.get(pos, RF_ZERO), rhs.get(pos, RF_ZERO)
            if a != b:
                return CheckReport(
                    False,
                    checked,
                    {"singular_vector": checked, "pos": pos, "lhs": str(a), "rhs": str(b)},
                )
    return CheckReport(True, len(vectors))
