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
* the multiplicative ``K_operator`` with its diagonal coordinate prefactor,
* the shifted fusion element (``fusion_solve``) solved weight by weight from
  its defining recurrence, and the lowering/raising contraction ``q_dagger``
  built from it, each coefficient substituted once; it and ``B_additive``
  sum ``(lo, hi, c)`` rows, standing for ``c A(F_lo) tau(F_hi)``, in one
  ``_contract``,
* KZ-operator assembly (``kz_operator``, ``omega_operator``,
  ``r_matrix_operator``) and the exact compatibility checks
  ``check_K_exchange`` / ``check_nabla_K``,
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

The difference operators appear in the literature-style identities at
three distinct shifts of the same parameter; callers pass the shifted
pairings (`shifted_pairings`).  `B_additive` at ``lambda`` equals the
product form at ``lambda + rho + nu/2``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .rep import (
    PBWVector,
    TensorWeightSpace,
    WeightSpaceOperator,
    enumerate_basis,
    operator_for_letter,
    p_elements,
    singular_vectors,
    verma_weight,
    word_operator,
)
from .roots import (
    WeightVec,
    WeylElement,
    alpha_vec,
    nu_vec,
    omega_bracket,
    omega_vec,
    positive_roots,
    rho_vec,
    root_vec,
    roots_of_reduced_word,
    weight_from_pairings,
)
from .symexpr import (
    RF_ONE,
    RF_ZERO,
    DivisionByZero,
    RationalFunctionExpr,
    rational,
    rf_substitute,
    symbol,
)
from .uea import (
    PBWBasis,
    antipode_A,
    chevalley_tau,
    monomial_word,
    special_basis,
    standard_basis,
    straightener,
)

__all__ = [
    "PoleHit",
    "ResonantWeight",
    "NonFiniteDim",
    "DynOperator",
    "FusionElement",
    "CheckReport",
    "DetIngredients",
    "KZOperator",
    "lambda_pairing_symbols",
    "kappa_symbol",
    "z_symbols",
    "space_weight_pairings",
    "shifted_pairings",
    "p_series",
    "B_alpha",
    "B_w",
    "B_additive",
    "K_operator",
    "fusion_solve",
    "q_dagger",
    "omega_operator",
    "r_matrix_operator",
    "lambda_diagonal",
    "kz_operator",
    "check_K_exchange",
    "check_nabla_K",
    "det_ingredients",
    "check_rational_to_trig",
]

_HALF = rational(Fraction(1, 2))


class PoleHit(ArithmeticError):
    """A series denominator vanished identically for the given parameters."""


class ResonantWeight(ArithmeticError):
    """The fusion recurrence hit a vanishing dividing scalar."""


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


def _total_weight(space: TensorWeightSpace) -> WeightVec:
    n_rank = space.pbw_basis.n_rank
    return space.total_highest_weight() - nu_vec(n_rank, space.nu0)


def space_weight_pairings(space: TensorWeightSpace) -> tuple[RationalFunctionExpr, ...]:
    """Pairings of the space's (single) total weight with the simple coroots."""
    n_rank = space.pbw_basis.n_rank
    total = _total_weight(space)
    return tuple(total.dot(alpha_vec(n_rank, i)) for i in range(1, n_rank))


def shifted_pairings(
    space: TensorWeightSpace,
    pairings: Sequence[RationalFunctionExpr],
    rho_steps: int = 0,
    nu_halves: int = 0,
) -> tuple[RationalFunctionExpr, ...]:
    """Pairings of ``lambda + rho_steps*rho + (nu_halves/2)*nu`` on this space."""
    nu_pairs = space_weight_pairings(space)
    out = []
    for i, p in enumerate(pairings):
        shifted = p + rational(rho_steps)
        if nu_halves:
            shifted = shifted + nu_pairs[i] * _HALF * rational(nu_halves)
        out.append(shifted)
    return tuple(out)


def _default_pairings(
    space: TensorWeightSpace, pairings: Optional[Sequence[RationalFunctionExpr]]
) -> tuple[RationalFunctionExpr, ...]:
    if pairings is None:
        return lambda_pairing_symbols(space.pbw_basis.n_rank)
    return tuple(pairings)


def _factor_weight(space: TensorWeightSpace, position: int, j: int) -> WeightVec:
    """Weight of tensor factor ``j`` (1-based) of one basis element."""
    n_rank = space.pbw_basis.n_rank
    exps = space.basis[position][j - 1]
    total = space.factors[j - 1].hw
    for (k, l), e in zip(space.pbw_basis.order, exps):
        if e:
            total = total - root_vec(n_rank, k, l).scale(e)
    return total


def _exps_coords(basis: PBWBasis, exps: Sequence[int]) -> tuple[int, ...]:
    """Simple-root coordinates of the weight lowered by a basis monomial."""
    coords = [0] * (basis.n_rank - 1)
    for (k, l), e in zip(basis.order, exps):
        if e:
            for h in range(k, l):
                coords[h - 1] += e
    return tuple(coords)


# ---------------------------------------------------------------------------
# Operator record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynOperator:
    """A coordinate-dressed operator (`K_operator`).

    Its diagonal prefactor splits into a formal part (symbolic highest-weight
    exponents, recorded per factor in ``formal_z_exponents``) and the integer
    exponents carried inside the matrix entries of ``op`` themselves.
    """

    op: WeightSpaceOperator
    formal_z_exponents: tuple[RationalFunctionExpr, ...]


# ---------------------------------------------------------------------------
# p-series and one-root operators
# ---------------------------------------------------------------------------


def p_series(
    space: TensorWeightSpace, alpha: tuple[int, int], t_val: RationalFunctionExpr
) -> WeightSpaceOperator:
    """Matrix of the terminating series ``sum_k F^k E^k / (k! prod_j (t - H - j))``.

    The Cartan factors act first (rightmost), so ``H`` is evaluated on the
    weight of the space.  The series terminates because iterated raising
    eventually annihilates the whole weight space.
    """
    k0, l0 = alpha
    raise_letter = ("e", k0, l0)
    lower_letter = ("e", l0, k0)
    n_rank = space.pbw_basis.n_rank
    h_val = _total_weight(space).dot(root_vec(n_rank, k0, l0))

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
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> WeightSpaceOperator:
    """One-root difference operator on a weight space.

    The series argument is ``(lambda + nu/2, alpha) - 1`` where ``nu`` is the
    weight of the space, so the operator preserves the space.
    """
    pairings = _default_pairings(space, pairings)
    n_rank = space.pbw_basis.n_rank
    nu_pair = _total_weight(space).dot(root_vec(n_rank, *alpha))
    t_val = _root_pairing(pairings, alpha) + nu_pair * _HALF - RF_ONE
    return p_series(space, alpha, t_val)


def B_w(
    space: TensorWeightSpace,
    w: Union[WeylElement, Sequence[int]],
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> WeightSpaceOperator:
    """Ordered product of one-root operators along a reduced word.

    The word ``[i_1, ..., i_m]`` yields the root sequence
    ``alpha^1, ..., alpha^m``; the factor for ``alpha^1`` is applied first.
    The result is independent of the choice of reduced word (a tested
    property, not an assumption).
    """
    pairings = _default_pairings(space, pairings)
    word = list(w.reduced_word()) if isinstance(w, WeylElement) else list(w)
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
    monomials, every row's word matrix added into one entries dict."""
    entries: dict[tuple[int, int], RationalFunctionExpr] = {}
    for lo, hi, c in rows:
        w = antipode_A(monomial_word(basis, lo)) * chevalley_tau(monomial_word(basis, hi))
        for key, v in word_operator(space, w.scale(c)).entries.items():
            entries[key] = entries.get(key, RF_ZERO) + v
    return WeightSpaceOperator(space, space, entries)


def B_additive(
    space: TensorWeightSpace,
    r: int,
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> WeightSpaceOperator:
    """Single-sum form of the level-``r`` difference operator.

    Each term lowers by an index supported on the roots straddling level
    ``r`` (in the level-``r`` arrangement) after raising by the Chevalley
    image of the corresponding dual element of a symbolic highest-weight
    module whose highest weight is the dynamical parameter.  The assembled
    matrix equals the product-form operator evaluated at
    ``lambda + rho + nu/2``.
    """
    pairings = _default_pairings(space, pairings)
    n_rank = space.pbw_basis.n_rank
    basis_r = special_basis(n_rank, r)
    aux_factor = verma_weight(n_rank, weight_from_pairings(n_rank, pairings))
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
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> DynOperator:
    """Level-``k`` difference-equation operator with coordinate prefactor.

    The prefactor is diagonal: each factor ``j`` contributes the coordinate
    ``z_j`` raised to the pairing of its weight with the ``k``-th fundamental
    coweight.  The symbolic highest-weight part of that exponent is kept as a
    formal record per factor; the basis-dependent integer part multiplies the
    matrix entries directly.
    """
    pairings = _default_pairings(space, pairings)
    n_rank = space.pbw_basis.n_rank
    zs = z_symbols(len(space.factors))
    base = B_w(space, omega_bracket(n_rank, k)[1], pairings)
    diag: dict[tuple[int, int], RationalFunctionExpr] = {}
    for i in range(space.dim):
        value = RF_ONE
        for j, exps in enumerate(space.basis[i]):
            drop = _exps_coords(space.pbw_basis, exps)[k - 1]
            if drop:
                value = value * zs[j] ** -drop
        diag[(i, i)] = value
    dressed = WeightSpaceOperator(space, space, diag).compose(base)
    formal = tuple(f.hw.dot(omega_vec(n_rank, k)) for f in space.factors)
    return DynOperator(dressed, formal)


# ---------------------------------------------------------------------------
# Fusion element
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


def _weight_compositions(n_parts: int, total: int):
    if n_parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weight_compositions(n_parts - 1, total - first):
            yield (first,) + rest


def fusion_solve(n_rank: int, depth: int) -> FusionElement:
    """Solve the defining recurrence of the shifted fusion element.

    Components are produced weight by weight: the component at ``mu`` is the
    image of the lower component under ``-sum_alpha e_{-alpha} x e_alpha``
    divided by the scalar ``(lambda + rho, mu) - (mu, mu)/2``.  Coefficients
    are rational in the canonical parameter symbols; the scalar cannot vanish
    there, but the guard protects numeric use.
    """
    basis = standard_basis(n_rank)
    engine = straightener(basis)
    pairings = lambda_pairing_symbols(n_rank)
    zero = basis.zero_exps()
    components: dict = {
        tuple([0] * (n_rank - 1)): {(zero, zero): RF_ONE}
    }
    roots = positive_roots(n_rank)
    coords_of = {
        root: _exps_coords(basis, basis.exps_from_roots({root: 1})) for root in roots
    }
    for height in range(1, depth + 1):
        for mu in _weight_compositions(n_rank - 1, height):
            mu_vec = nu_vec(n_rank, mu)
            scalar = RF_ZERO
            for i, m in enumerate(mu):
                if m:
                    scalar = scalar + (pairings[i] + RF_ONE) * rational(m)
            scalar = scalar - mu_vec.dot(mu_vec) * _HALF
            if scalar.is_zero():
                raise ResonantWeight(f"vanishing dividing scalar at weight {mu}")
            rhs: dict = {}
            for root in roots:
                rc = coords_of[root]
                prev_mu = tuple(m - c for m, c in zip(mu, rc))
                if any(m < 0 for m in prev_mu):
                    continue
                prev = components.get(prev_mu)
                if not prev:
                    continue
                letter = ("e", root[1], root[0])
                for (lo, hi), psi in prev.items():
                    left = engine.apply_letter(letter, lo)
                    right = engine.apply_letter(letter, hi)
                    for lo2, c_lo in left.items():
                        for hi2, c_hi in right.items():
                            key = (lo2, hi2)
                            rhs[key] = rhs.get(key, RF_ZERO) + psi * c_lo * c_hi
            comp = {}
            for key, val in rhs.items():
                quot = val / scalar
                if not quot.is_zero():
                    comp[key] = quot
            components[mu] = comp
    return FusionElement(n_rank, depth, components)


def q_dagger(
    space: TensorWeightSpace,
    pairings: Optional[Sequence[RationalFunctionExpr]],
    fusion: Optional[FusionElement] = None,
) -> WeightSpaceOperator:
    """Matrix of the fusion element contracted on a weight space.

    Each fusion pair contributes the antipode of its lowering part applied
    after its raising part, weighted by the coefficient with the parameter
    shifted down by the weight of the space (the scalar gauge of the shifted
    fusion element absorbs the weight operator this way).
    """
    pairings = _default_pairings(space, pairings)
    n_rank = space.pbw_basis.n_rank
    need = sum(space.nu0)
    if fusion is None:
        fusion = fusion_solve(n_rank, need)
    if fusion.depth < need or fusion.n_rank != n_rank:
        raise ValueError("fusion element not solved to sufficient depth")
    nu_pairs = space_weight_pairings(space)
    subs = {
        f"l{i + 1}": pairings[i] - nu_pairs[i] for i in range(n_rank - 1)
    }
    rows = []
    for mu, comp in fusion.components.items():
        if any(m > n for m, n in zip(mu, space.nu0)):
            continue
        for (lo, hi), psi in comp.items():
            try:
                rows.append((lo, hi, rf_substitute(psi, subs)))
            except DivisionByZero as exc:
                raise ResonantWeight(
                    f"fusion coefficient has a pole at the shifted parameter: {exc}"
                ) from exc
    return _contract(space, standard_basis(n_rank), rows)


# ---------------------------------------------------------------------------
# KZ operators
# ---------------------------------------------------------------------------


def omega_operator(
    space: TensorWeightSpace, i: int, j: int, part: str = "full"
) -> WeightSpaceOperator:
    """Casimir-type two-factor operator between factors ``i`` and ``j`` (1-based).

    ``part`` selects the diagonal half (``"zero"``), the diagonal half plus
    raising-at-``i`` terms (``"plus"``), the diagonal half plus
    lowering-at-``i`` terms (``"minus"``), or the sum of the plus and minus
    parts (``"full"``).
    """
    if i == j:
        raise ValueError("factor indices must differ")
    n_rank = space.pbw_basis.n_rank
    diag: dict[tuple[int, int], RationalFunctionExpr] = {}
    for pos in range(space.dim):
        mu_i = _factor_weight(space, pos, i)
        mu_j = _factor_weight(space, pos, j)
        val = mu_i.dot(mu_j) * _HALF
        if not val.is_zero():
            diag[(pos, pos)] = val
    zero_part = WeightSpaceOperator(space, space, diag)
    if part == "zero":
        return zero_part

    def nilpotent(raise_at: int, lower_at: int) -> WeightSpaceOperator:
        total = WeightSpaceOperator.zero(space, space)
        for (a, b) in positive_roots(n_rank):
            lower = operator_for_letter(
                space, ("e", b, a), only_factor=lower_at - 1
            )
            raiser = operator_for_letter(
                lower.codomain, ("e", a, b), only_factor=raise_at - 1
            )
            assert raiser.codomain == space
            total = total + raiser.compose(lower)
        return total

    if part == "plus":
        return zero_part + nilpotent(i, j)
    if part == "minus":
        return zero_part + nilpotent(j, i)
    if part == "full":
        return zero_part + zero_part + nilpotent(i, j) + nilpotent(j, i)
    raise ValueError(f"unknown part {part!r}")


def r_matrix_operator(
    space: TensorWeightSpace,
    i: int,
    j: int,
    z_i: RationalFunctionExpr,
    z_j: RationalFunctionExpr,
) -> WeightSpaceOperator:
    """Trigonometric two-factor kernel ``(O+ z_i + O- z_j) / (z_i - z_j)``."""
    plus = omega_operator(space, i, j, "plus")
    minus = omega_operator(space, i, j, "minus")
    scale = RF_ONE / (z_i - z_j)
    return plus.scale(z_i * scale) + minus.scale(z_j * scale)


def lambda_diagonal(
    space: TensorWeightSpace,
    i: int,
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> WeightSpaceOperator:
    """Diagonal operator pairing the parameter with the factor-``i`` weight."""
    pairings = _default_pairings(space, pairings)
    n_rank = space.pbw_basis.n_rank
    lam_vec = weight_from_pairings(n_rank, pairings)
    entries: dict[tuple[int, int], RationalFunctionExpr] = {}
    for pos in range(space.dim):
        val = lam_vec.dot(_factor_weight(space, pos, i))
        if not val.is_zero():
            entries[(pos, pos)] = val
    return WeightSpaceOperator(space, space, entries)


@dataclass(frozen=True)
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
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> KZOperator:
    """Assemble the ``i``-th KZ operator (1-based factor index).

    ``kind="rational"`` gives derivative coefficient ``kappa`` and zeroth
    order ``-sum_j Omega^(ij)/(z_i - z_j)``; ``kind="trigonometric"`` gives
    ``kappa z_i`` and ``-lambda^(i) - sum_j r(z_i/z_j)^(ij)``.
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
            term = omega_operator(space, i, j, "full").scale(
                RF_ONE / (zs[i - 1] - zs[j - 1])
            )
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


@dataclass(frozen=True)
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


def check_K_exchange(
    space: TensorWeightSpace,
    k: int,
    l: int,
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> CheckReport:
    """Exact matrix check of the exchange relation between two levels.

    Verifies that shifting the parameter by ``kappa`` times one fundamental
    coweight and applying the other level's operator commutes, including the
    formal coordinate-prefactor records.  The levels must differ: at
    ``k == l`` both sides are the same product and the check cannot fail.
    """
    if k == l:
        raise ValueError(f"exchange needs two distinct levels, got k = l = {k}")
    pairings = _default_pairings(space, pairings)
    kap = kappa_symbol()
    K_k_shift = K_operator(space, k, _kappa_shift(pairings, l, kap))
    K_l_plain = K_operator(space, l, pairings)
    K_l_shift = K_operator(space, l, _kappa_shift(pairings, k, kap))
    K_k_plain = K_operator(space, k, pairings)
    lhs = K_k_shift.op.compose(K_l_plain.op)
    rhs = K_l_shift.op.compose(K_k_plain.op)
    formal_lhs = tuple(
        a + b
        for a, b in zip(K_k_shift.formal_z_exponents, K_l_plain.formal_z_exponents)
    )
    formal_rhs = tuple(
        a + b
        for a, b in zip(K_l_shift.formal_z_exponents, K_k_plain.formal_z_exponents)
    )
    if any(a != b for a, b in zip(formal_lhs, formal_rhs)):
        return CheckReport(False, space.dim ** 2, {"formal": "prefactor mismatch"})
    witness = _first_mismatch(lhs, rhs)
    return CheckReport(witness is None, space.dim ** 2, witness)


def check_nabla_K(
    space: TensorWeightSpace,
    j: int,
    k: int,
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> CheckReport:
    """Exact zeroth-order residual of the derivative/difference intertwining.

    With Z(lambda) the zeroth-order matrix of the j-th trigonometric KZ
    operator (`kz_operator`), the residual is ``kappa (dK + K formal_j) +
    Z(lambda + kappa omega_k) K - K Z(lambda)``.  The derivative hits only
    the coordinate prefactor, whose logarithmic derivative is the formal
    highest-weight exponent plus the integer exponent of each matrix row.
    The residual must vanish identically.
    """
    pairings = _default_pairings(space, pairings)
    kap = kappa_symbol()
    Kd = K_operator(space, k, pairings)
    K = Kd.op

    row_exp = [
        -_exps_coords(space.pbw_basis, index[j - 1])[k - 1] for index in space.basis
    ]
    d_entries = {
        (r, c): v * rational(row_exp[r]) for (r, c), v in K.entries.items()
    }
    dK = WeightSpaceOperator(space, space, d_entries)
    formal_j = Kd.formal_z_exponents[j - 1]
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


# ---------------------------------------------------------------------------
# Determinant ingredients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetIngredients:
    """Exact ingredients of the determinant formula on one weight space.

    ``gamma_ratio_args`` lists, per decomposition multiplicity, the gamma
    function arguments: rows ``(d, num_args, den_args)`` contribute
    ``prod_j Gamma(num_j)/Gamma(den_j)`` raised to ``d``.  Exponents of the
    coordinate prefactors are exact expressions in the parameter symbols.
    """

    multiplicities: Mapping[int, int]
    gamma_ratio_args: tuple[
        tuple[int, tuple[RationalFunctionExpr, ...], tuple[RationalFunctionExpr, ...]],
        ...,
    ]
    lambda_traces: tuple[RationalFunctionExpr, ...]
    epsilon: Mapping[tuple[int, int], RationalFunctionExpr]
    gamma_sums: tuple[RationalFunctionExpr, ...]
    z_exponents: tuple[RationalFunctionExpr, ...]
    pair_exponents: Mapping[tuple[int, int], RationalFunctionExpr]


def det_ingredients(
    space: TensorWeightSpace,
    alpha: tuple[int, int],
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> DetIngredients:
    """Weight-string multiplicities, traces, and exponents for the determinant.

    Requires every tensor factor to be finite dimensional.  Multiplicities
    count the strings of the ``alpha``-triple through this weight space by
    dimension differences along the ``alpha`` direction.
    """
    if any(f.kind != "lp" for f in space.factors):
        raise NonFiniteDim("determinant ingredients need finite-dimensional factors")
    pairings = _default_pairings(space, pairings)
    n_rank = space.pbw_basis.n_rank
    kap = kappa_symbol()
    coords = _exps_coords(space.pbw_basis, space.pbw_basis.exps_from_roots({alpha: 1}))

    def dim_at(m: int) -> int:
        nu0 = tuple(c - m * rc for c, rc in zip(space.nu0, coords))
        if any(c < 0 for c in nu0):
            return 0
        return enumerate_basis(space.factors, nu0, space.pbw_basis).dim

    # `ModuleSpec` allows "lp" factors only at rank one (n_rank == 2), where
    # the pairing of the total weight with the root is sum(p) - 2 nu0
    s_pair = sum(f.p for f in space.factors) - 2 * space.nu0[0]
    lam_alpha = _root_pairing(pairings, alpha)
    mult: dict[int, int] = {}
    ratio_rows = []
    m = max(1, -s_pair)
    while dim_at(m) > 0:
        d = dim_at(m) - dim_at(m + 1)
        if d:
            mult[m] = d
            nums = []
            dens = []
            for jj in range(1, m + 1):
                half_pair = rational(Fraction(s_pair + 2 * jj, 2))
                nums.append(RF_ONE - (lam_alpha - half_pair) / kap)
                dens.append(RF_ONE - (lam_alpha + half_pair) / kap)
            ratio_rows.append((d, tuple(nums), tuple(dens)))
        m += 1

    n = len(space.factors)
    lam_traces = []
    lam_vec = weight_from_pairings(n_rank, pairings)
    for i in range(1, n + 1):
        tr = RF_ZERO
        for pos in range(space.dim):
            tr = tr + lam_vec.dot(_factor_weight(space, pos, i))
        lam_traces.append(tr)
    epsilon: dict[tuple[int, int], RationalFunctionExpr] = {}
    for i in range(1, n + 1):
        for jj in range(i + 1, n + 1):
            op = omega_operator(space, i, jj, "full")
            tr = RF_ZERO
            for pos in range(space.dim):
                tr = tr + op.entry(pos, pos)
            epsilon[(i, jj)] = tr
    gamma_sums = []
    for i in range(1, n + 1):
        g = RF_ZERO
        for jj in range(1, n + 1):
            if jj == i:
                continue
            g = g + epsilon[(min(i, jj), max(i, jj))]
        gamma_sums.append(g)
    z_exponents = tuple(
        (lam_traces[i] - gamma_sums[i] * _HALF) / kap for i in range(n)
    )
    pair_exponents = {key: val / kap for key, val in epsilon.items()}
    return DetIngredients(
        multiplicities=mult,
        gamma_ratio_args=tuple(ratio_rows),
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
    space_prime: TensorWeightSpace, vec: PBWVector, space: TensorWeightSpace
) -> PBWVector:
    """Project onto components whose last factor is the highest vector."""
    zero = space_prime.pbw_basis.zero_exps()
    out: dict[int, RationalFunctionExpr] = {}
    for pos, c in vec.coeffs.items():
        mi = space_prime.basis[pos]
        if mi[-1] == zero:
            out[space.index_position[mi[:-1]]] = c
    return PBWVector(space, out)


def check_rational_to_trig(
    space_prime: TensorWeightSpace,
    i: int,
    vectors: Optional[Sequence[PBWVector]] = None,
) -> CheckReport:
    """Exact check of the weight identity behind the trigonometric reduction.

    For every singular vector of the extended space, the diagonal pairing
    with the last factor's highest weight (plus the rho and half-weight
    shifts, minus half the factor Casimir value) must reproduce, after
    contracting the last factor against its dual highest vector, the
    lowering half of the pairwise Casimir terms plus the full Casimir
    coupling to the last factor.  ``vectors`` are the singular vectors of
    ``space_prime``, when the caller has computed them already.
    """
    n_rank = space_prime.pbw_basis.n_rank
    n_plus_1 = len(space_prime.factors)
    if n_plus_1 < 2:
        raise ValueError("need at least two factors")
    n = n_plus_1 - 1
    if not 1 <= i <= n:
        raise ValueError(f"factor index {i} out of range")
    space = enumerate_basis(
        space_prime.factors[:-1], space_prime.nu0, space_prime.pbw_basis
    )
    last_hw = space_prime.factors[-1].hw
    rho = rho_vec(n_rank)
    nu = _total_weight(space)
    shift_vec = last_hw + rho + nu.scale(_HALF)
    hw_i = space.factors[i - 1].hw
    casimir_i = (hw_i.dot(hw_i) + hw_i.dot(rho) + hw_i.dot(rho)) * _HALF

    minus_parts = [
        omega_operator(space, i, jj, "minus") for jj in range(1, n + 1) if jj != i
    ]
    coupling = omega_operator(space_prime, i, n_plus_1, "full")
    checked = 0
    if vectors is None:
        vectors = singular_vectors(space_prime)
    for u0 in vectors:
        v_prime = _contract_last_factor(space_prime, u0, space)
        lhs: dict[int, RationalFunctionExpr] = {}
        for pos, c in v_prime.coeffs.items():
            val = shift_vec.dot(_factor_weight(space, pos, i)) - casimir_i
            lhs[pos] = c * val
        rhs: dict[int, RationalFunctionExpr] = {}
        for op in minus_parts:
            for pos, c in op.apply(v_prime).coeffs.items():
                rhs[pos] = rhs.get(pos, RF_ZERO) + c
        coupled = coupling.apply(u0)
        contracted = _contract_last_factor(space_prime, coupled, space)
        for pos, c in contracted.coeffs.items():
            rhs[pos] = rhs.get(pos, RF_ZERO) + c
        checked += 1
        for pos in set(lhs) | set(rhs):
            a = lhs.get(pos, RF_ZERO)
            b = rhs.get(pos, RF_ZERO)
            if a != b:
                return CheckReport(
                    False,
                    checked,
                    {"singular_vector": checked, "pos": pos, "lhs": str(a), "rhs": str(b)},
                )
    return CheckReport(True, checked)
