"""Highest-weight modules, tensor weight spaces, and bilinear-form data.

A `ModuleSpec` describes one tensor factor: a Verma module with a symbolic or
explicit highest weight, or the (p+1)-dimensional irreducible for rank one.
A `TensorWeightSpace` enumerates the monomial vectors ``F_I v = F_{I_1} v_1
⊗ … ⊗ F_{I_n} v_n`` spanning the subspace of a prescribed lowering depth
``nu0`` (one non-negative integer per simple root), with every monomial taken
in one PBW arrangement (`PBWBasis` from `uea`).

Generator actions are letter matrices (`operator_for_letter`), computed per
factor with the straightening engine and combined by the tensor Leibniz rule;
the matrix of a word of letters composes them (`word_operator`), and every
word in this module is applied that way.  On top of the actions the module
builds the contravariant bilinear form (row I is the word ``(A ∘ tau)(F_I)``
into the top space), the dual elements of its inverse as one table
``{(lo, hi): c}`` in the form of a fusion component (`p_elements`), joint
kernels of the simple raising operators, and the one-term dual lowering
rule on basis functionals (`dual_action_F`).  The raising action on basis
functionals is `hyper.raising_dual_coefficients`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .roots import WeightVec, weight_from_pairings
from .symexpr import RF_ONE, RF_ZERO, RationalFunctionExpr, rational, symbol
from .uea import (
    GenWord,
    Letter,
    PBWBasis,
    Straightener,
    antipode_A,
    chevalley_tau,
    monomial_word,
    standard_basis,
    straightener,
)

__all__ = [
    "SingularGram",
    "ModuleSpec",
    "verma_symbolic",
    "verma_weight",
    "lp_module",
    "TensorWeightSpace",
    "enumerate_basis",
    "PBWVector",
    "WeightSpaceOperator",
    "operator_for_letter",
    "word_operator",
    "nullspace",
    "shapovalov_gram",
    "p_elements",
    "dual_action_F",
    "singular_vectors",
]


class SingularGram(Exception):
    """The contravariant Gram matrix is identically singular."""


# ---------------------------------------------------------------------------
# Module factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModuleSpec:
    """One tensor factor: a Verma module or the rank-one irreducible L_p."""

    kind: str  # "verma" | "lp"
    n_rank: int
    hw: WeightVec
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("verma", "lp"):
            raise ValueError(f"unknown module kind {self.kind!r}")
        if self.kind == "lp" and (self.n_rank != 2 or self.p is None or self.p < 0):
            raise ValueError("the irreducible factor is rank-one with p >= 0")


def verma_symbolic(n_rank: int, j: int) -> ModuleSpec:
    """Verma factor number j with symbolic simple-root pairings L:j:k."""
    pairings = [symbol(f"L:{j}:{k}") for k in range(1, n_rank)]
    return ModuleSpec("verma", n_rank, weight_from_pairings(n_rank, pairings))


def verma_weight(n_rank: int, hw: WeightVec) -> ModuleSpec:
    return ModuleSpec("verma", n_rank, hw)


def lp_module(p: int) -> ModuleSpec:
    hw = weight_from_pairings(2, [rational(p)])
    return ModuleSpec("lp", 2, hw, p=p)


# ---------------------------------------------------------------------------
# Weight spaces
# ---------------------------------------------------------------------------

MultiIndex = tuple  # tuple over factors of per-factor exponent tuples


def _root_levels(root: tuple[int, int]) -> range:
    k, l = root
    return range(k, l)


def _factor_indices(basis: PBWBasis, nu0: tuple[int, ...], cap: Optional[int]):
    """All exponent tuples over basis.order with level sums <= nu0."""
    order = basis.order
    results: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(pos: int, remaining: tuple[int, ...], acc: tuple[int, ...]) -> None:
        if pos == len(order):
            results.append((acc, remaining))
            return
        k, l = order[pos]
        max_e = min(remaining[h - 1] for h in _root_levels((k, l)))
        if cap is not None:
            max_e = min(max_e, cap)
        for e in range(max_e + 1):
            rem = list(remaining)
            for h in _root_levels((k, l)):
                rem[h - 1] -= e
            rec(pos + 1, tuple(rem), acc + (e,))

    rec(0, nu0, ())
    return results


class TensorWeightSpace:
    """Monomial basis of the nu0-lowered subspace of a tensor product."""

    __slots__ = (
        "factors",
        "nu0",
        "pbw_basis",
        "basis",
        "index_position",
        "straighteners",
        "_hash",
    )

    def __init__(
        self,
        factors: tuple[ModuleSpec, ...],
        nu0: tuple[int, ...],
        pbw_basis: PBWBasis,
        basis: tuple[MultiIndex, ...],
    ):
        self.factors = factors
        self.nu0 = nu0
        self.pbw_basis = pbw_basis
        self.basis = basis
        self.index_position = {index: i for i, index in enumerate(basis)}
        # one shared engine per factor, read from the `uea` memo once
        self.straighteners: tuple[Straightener, ...] = tuple(
            straightener(pbw_basis, f.hw) for f in factors
        )
        self._hash = hash((factors, nu0, pbw_basis))

    def __eq__(self, other):
        if not isinstance(other, TensorWeightSpace):
            return NotImplemented
        return (
            self.factors == other.factors
            and self.nu0 == other.nu0
            and self.pbw_basis == other.pbw_basis
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"TensorWeightSpace(n={len(self.factors)}, nu0={self.nu0}, "
            f"dim={len(self.basis)}, order={self.pbw_basis.tag})"
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def total_highest_weight(self) -> WeightVec:
        total = self.factors[0].hw
        for f in self.factors[1:]:
            total = total + f.hw
        return total

    def shifted(self, level_shifts: Mapping[int, int]) -> "TensorWeightSpace":
        nu0 = list(self.nu0)
        for h, d in level_shifts.items():
            nu0[h - 1] += d
        if any(m < 0 for m in nu0):
            nu0 = [max(m, 0) for m in nu0]
            return TensorWeightSpace(self.factors, tuple(nu0), self.pbw_basis, ())
        return enumerate_basis(self.factors, tuple(nu0), self.pbw_basis)


@lru_cache(maxsize=None)
def _enumerate_cached(
    factors: tuple[ModuleSpec, ...], nu0: tuple[int, ...], pbw_basis: PBWBasis
) -> TensorWeightSpace:
    n_rank = pbw_basis.n_rank
    if len(nu0) != n_rank - 1 or any(m < 0 for m in nu0):
        raise ValueError("nu0 must list a non-negative depth per simple root")
    per_factor = [
        _factor_indices(pbw_basis, nu0, f.p if f.kind == "lp" else None)
        for f in factors
    ]

    indices: list[MultiIndex] = []

    def rec(j: int, remaining: tuple[int, ...], acc: tuple) -> None:
        if j == len(factors):
            if all(r == 0 for r in remaining):
                indices.append(acc)
            return
        for exps, rem in _choices(per_factor[j], remaining):
            rec(j + 1, rem, acc + (exps,))

    def _choices(options, remaining):
        for exps, used_rem in options:
            # options were computed against nu0; recompute feasibility.
            usage = [a - b for a, b in zip(nu0, used_rem)]
            if all(u <= r for u, r in zip(usage, remaining)):
                yield exps, tuple(r - u for r, u in zip(remaining, usage))

    rec(0, nu0, ())
    # Deterministic: lexicographic on the flattened exponent vector, factors
    # in order, roots by matrix-unit index (l, k) ascending within a factor.
    root_rank = sorted(
        range(len(pbw_basis.order)),
        key=lambda i: (pbw_basis.order[i][1], pbw_basis.order[i][0]),
    )

    def flat(index: MultiIndex):
        return tuple(exps[i] for exps in index for i in root_rank)

    indices.sort(key=flat)
    return TensorWeightSpace(factors, nu0, pbw_basis, tuple(indices))


def enumerate_basis(
    factors: Sequence[ModuleSpec],
    nu0: Sequence[int],
    pbw_basis: Optional[PBWBasis] = None,
) -> TensorWeightSpace:
    if pbw_basis is None:
        pbw_basis = standard_basis(factors[0].n_rank)
    return _enumerate_cached(tuple(factors), tuple(nu0), pbw_basis)


# ---------------------------------------------------------------------------
# Vectors and operators
# ---------------------------------------------------------------------------

class PBWVector:
    """A vector in one TensorWeightSpace, coefficients on monomial indices."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: TensorWeightSpace, coeffs: Mapping[int, RationalFunctionExpr]):
        self.space = space
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero()}

    @staticmethod
    def basis_vector(space: TensorWeightSpace, position: int) -> "PBWVector":
        return PBWVector(space, {position: RF_ONE})

    @staticmethod
    def zero(space: TensorWeightSpace) -> "PBWVector":
        return PBWVector(space, {})

    def __add__(self, other: "PBWVector") -> "PBWVector":
        assert self.space == other.space
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, RF_ZERO) + c
        return PBWVector(self.space, out)

    def __sub__(self, other: "PBWVector") -> "PBWVector":
        return self + other.scale(rational(-1))

    def scale(self, c) -> "PBWVector":
        if isinstance(c, (int, Fraction)):
            c = rational(c)
        return PBWVector(self.space, {i: v * c for i, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, PBWVector):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def __repr__(self):
        items = ", ".join(f"{i}: {c}" for i, c in sorted(self.coeffs.items()))
        return f"PBWVector({{{items}}} in {self.space!r})"


class WeightSpaceOperator:
    """Sparse exact matrix between two weight-space bases."""

    __slots__ = ("domain", "codomain", "entries")

    def __init__(self, domain, codomain, entries: Mapping[tuple[int, int], RationalFunctionExpr]):
        self.domain = domain
        self.codomain = codomain
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}

    @staticmethod
    def identity(space) -> "WeightSpaceOperator":
        return WeightSpaceOperator(
            space, space, {(i, i): RF_ONE for i in range(space.dim)}
        )

    @staticmethod
    def zero(domain, codomain) -> "WeightSpaceOperator":
        return WeightSpaceOperator(domain, codomain, {})

    def entry(self, i: int, j: int) -> RationalFunctionExpr:
        return self.entries.get((i, j), RF_ZERO)

    def apply(self, vec: PBWVector) -> PBWVector:
        assert vec.space == self.domain
        out: dict[int, RationalFunctionExpr] = {}
        for (i, j), m in self.entries.items():
            c = vec.coeffs.get(j)
            if c is not None:
                out[i] = out.get(i, RF_ZERO) + m * c
        return PBWVector(self.codomain, out)

    def compose(self, other: "WeightSpaceOperator") -> "WeightSpaceOperator":
        """self ∘ other (apply other first)."""
        assert other.codomain == self.domain
        by_col: dict[int, list[tuple[int, RationalFunctionExpr]]] = {}
        for (i, j), m in other.entries.items():
            by_col.setdefault(j, []).append((i, m))
        out: dict[tuple[int, int], RationalFunctionExpr] = {}
        # organize self by its domain index k: entries (i, k)
        self_by_k: dict[int, list[tuple[int, RationalFunctionExpr]]] = {}
        for (i, k), a in self.entries.items():
            self_by_k.setdefault(k, []).append((i, a))
        for j, col in by_col.items():
            for k, m in col:
                for i, a in self_by_k.get(k, ()):  # i <- k <- j
                    key = (i, j)
                    out[key] = out.get(key, RF_ZERO) + a * m
        return WeightSpaceOperator(other.domain, self.codomain, out)

    def __add__(self, other: "WeightSpaceOperator") -> "WeightSpaceOperator":
        assert self.domain == other.domain and self.codomain == other.codomain
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, RF_ZERO) + v
        return WeightSpaceOperator(self.domain, self.codomain, out)

    def __sub__(self, other: "WeightSpaceOperator") -> "WeightSpaceOperator":
        return self + other.scale(rational(-1))

    def scale(self, c) -> "WeightSpaceOperator":
        if isinstance(c, (int, Fraction)):
            c = rational(c)
        return WeightSpaceOperator(
            self.domain, self.codomain, {k: v * c for k, v in self.entries.items()}
        )

    def transpose(self) -> "WeightSpaceOperator":
        return WeightSpaceOperator(
            self.codomain, self.domain, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self.entries

    def dense(self) -> list[list[RationalFunctionExpr]]:
        rows = self.codomain.dim
        cols = self.domain.dim
        m = [[RF_ZERO] * cols for _ in range(rows)]
        for (i, j), v in self.entries.items():
            m[i][j] = v
        return m

    def __eq__(self, other):
        if not isinstance(other, WeightSpaceOperator):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def invert(self) -> "WeightSpaceOperator":
        """Exact inverse via Gauss-Jordan on ``[A | I]`` over the expression field."""
        assert self.domain == self.codomain
        n = self.domain.dim
        mat = [
            row + [RF_ONE if i == j else RF_ZERO for j in range(n)]
            for i, row in enumerate(self.dense())
        ]
        if len(_row_reduce(mat, n)) < n:
            raise SingularGram("matrix is singular over the expression field")
        entries = {
            (i, j): x
            for i, row in enumerate(mat)
            for j, x in enumerate(row[n:])
            if not x.is_zero()
        }
        return WeightSpaceOperator(self.domain, self.codomain, entries)


# ---------------------------------------------------------------------------
# Generator actions
# ---------------------------------------------------------------------------

def _letter_level_shift(n_rank: int, letter: Letter) -> dict[int, int]:
    kind, a, b = letter
    if kind == "c":
        return {}
    if a > b:  # lowering e_{a,b}: adds alpha_b + ... + alpha_{a-1}
        return {h: 1 for h in range(b, a)}
    return {h: -1 for h in range(a, b)}


def _target_space(space: TensorWeightSpace, letter: Letter) -> TensorWeightSpace:
    shift = _letter_level_shift(space.pbw_basis.n_rank, letter)
    if not shift:
        return space
    return space.shifted(shift)


def operator_for_letter(
    space: TensorWeightSpace, letter: Letter, only_factor=None
) -> WeightSpaceOperator:
    """letter acting on a weight space: the Leibniz sum over the factors
    (or on ``only_factor`` alone) of each factor's straightened action."""
    target = _target_space(space, letter)
    factors = range(len(space.factors)) if only_factor is None else [only_factor]
    entries: dict[tuple[int, int], RationalFunctionExpr] = {}
    for col, index in enumerate(space.basis):
        for j in factors:
            factor, engine = space.factors[j], space.straighteners[j]
            for new_exps, c in engine.apply_letter(letter, index[j]).items():
                if factor.kind == "lp" and new_exps[0] > factor.p:
                    continue
                new_index = index[:j] + (new_exps,) + index[j + 1 :]
                row = target.index_position.get(new_index)
                if row is None:
                    if target.basis:
                        raise AssertionError(f"index {new_index} escaped target space")
                    continue
                entries[(row, col)] = entries.get((row, col), RF_ZERO) + c
    return WeightSpaceOperator(space, target, entries)


def word_operator(space: TensorWeightSpace, w: GenWord) -> WeightSpaceOperator:
    """Matrix of a word of letters on a weight space (rightmost letter first).

    The codomain is the space the word lands in; the coefficient of the word
    scales the composed letter matrices once, at the end.
    """
    total = WeightSpaceOperator.identity(space)
    for letter in reversed(w.letters):
        total = operator_for_letter(total.codomain, letter).compose(total)
    return total.scale(w.coeff)


# ---------------------------------------------------------------------------
# Contravariant form and inverse elements
# ---------------------------------------------------------------------------

def shapovalov_gram(space: TensorWeightSpace) -> WeightSpaceOperator:
    """Gram matrix S(F_I v, F_J v) for a single Verma factor."""
    if len(space.factors) != 1 or space.factors[0].kind != "verma":
        raise ValueError("the contravariant Gram matrix needs one Verma factor")
    entries: dict[tuple[int, int], RationalFunctionExpr] = {}
    for i, index in enumerate(space.basis):
        # S(F_I v, F_J v) = coefficient of v in (A∘tau)(F_I) F_J v: row I is
        # the matrix of that word into the top space, spanned by v.
        adj = antipode_A(chevalley_tau(monomial_word(space.pbw_basis, index[0])))
        for (_, j), v in word_operator(space, adj).entries.items():
            entries[(i, j)] = v
    return WeightSpaceOperator(space, space, entries)


def p_elements(
    space: TensorWeightSpace,
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], RationalFunctionExpr]:
    """Dual elements P_I, with S(P_I v, F_J v) = delta_{IJ}, as one table.

    The table maps ``(lo, hi)`` to the coefficient of F_hi in P_lo, the form
    of a `dyn.FusionElement` component.
    """
    basis = space.basis
    return {
        (basis[col][0], basis[row][0]): c
        for (row, col), c in shapovalov_gram(space).invert().entries.items()
    }


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
    out: dict[MultiIndex, RationalFunctionExpr] = {}
    for j in range(len(space.factors)):
        c = index[j][pos]
        if c:
            exps = list(index[j])
            exps[pos] -= 1
            key = index[:j] + (tuple(exps),) + index[j + 1 :]
            out[key] = out.get(key, RF_ZERO) + rational(c)
    return out


# ---------------------------------------------------------------------------
# Singular vectors
# ---------------------------------------------------------------------------

def _row_reduce(mat: list[list[RationalFunctionExpr]], ncols: int) -> list[int]:
    """Gauss-Jordan on the dense rows of ``mat`` in place, over the first
    ``ncols`` columns; returns the pivot columns, the k-th in row k."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero()), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        scale = mat[r][col].reciprocal()
        mat[r] = [x * scale for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return pivots


def nullspace(rows: list[dict[int, RationalFunctionExpr]], dim: int) -> list[dict[int, RationalFunctionExpr]]:
    """Exact nullspace of a stacked sparse system over the expression field."""
    # Dense Gaussian elimination: rows are functionals on R^dim.
    mat = [[row.get(j, RF_ZERO) for j in range(dim)] for row in rows]
    pivots = _row_reduce(mat, dim)
    free = [c for c in range(dim) if c not in pivots]
    out = []
    for fc in free:
        vec = {fc: RF_ONE}
        for prow, pcol in enumerate(pivots):
            v = mat[prow][fc]
            if not v.is_zero():
                vec[pcol] = RF_ZERO - v
        out.append(vec)
    return out


def singular_vectors(space: TensorWeightSpace) -> list[PBWVector]:
    """Basis of the joint kernel of the simple raising operators."""
    n_rank = space.pbw_basis.n_rank
    rows: list[dict[int, RationalFunctionExpr]] = []
    for h in range(1, n_rank):
        op = operator_for_letter(space, ("e", h, h + 1))
        by_row: dict[int, dict[int, RationalFunctionExpr]] = {}
        for (i, j), v in op.entries.items():
            by_row.setdefault(i, {})[j] = v
        rows.extend(by_row.values())
    return [PBWVector(space, coeffs) for coeffs in nullspace(rows, space.dim)]

