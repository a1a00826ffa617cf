"""Highest-weight modules, tensor weight spaces, and bilinear-form data.

A `ModuleSpec` describes one tensor factor: a Verma module with a symbolic or
explicit highest weight, or the (p+1)-dimensional irreducible for rank one.
A `TensorWeightSpace` enumerates the monomial vectors ``F_I v = F_{I_1} v_1
⊗ … ⊗ F_{I_n} v_n`` spanning the subspace of a prescribed lowering depth
``nu0`` (one non-negative integer per simple root), with every monomial taken
in one PBW arrangement (`PBWBasis` from `uea`).  A vector is a dict
``{position: coefficient}`` over that basis, without zeros.

Generator actions are letter matrices (`operator_for_letter`), computed per
factor with the straightening engine and combined by the tensor Leibniz rule;
the matrix of a word of letters composes them (`word_operator`), and every
word in this module is applied that way; a diagonal is built by
`WeightSpaceOperator.diagonal`, or applied to rows by `scale_rows`.  On top
of the actions the module builds the contravariant bilinear form (row I is
the word ``(A ∘ tau)(F_I)`` into the top space), the dual elements of its
inverse as one table ``{(lo, hi): c}`` in the form of a fusion component
(`p_elements`), and joint kernels of the simple raising operators.  The actions on basis
functionals, `lemmas.raising_dual_coefficients` and `lemmas.dual_action_F`,
live with the lemma checks that use them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from ._record import record
from .roots import WeightVec, nu_vec, root_vec
from .symexpr import (
    RF_ONE,
    RF_ZERO,
    RationalFunctionExpr,
    rational,
    rf_sums,
    symbol,
)
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
    "WeightSpaceOperator",
    "operator_for_letter",
    "word_operator",
    "nullspace",
    "shapovalov_gram",
    "p_elements",
    "singular_vectors",
]


class SingularGram(Exception):
    """The contravariant Gram matrix is identically singular."""


# ---------------------------------------------------------------------------
# Module factors
# ---------------------------------------------------------------------------

@record
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
        if len(self.hw.pairings) != self.n_rank - 1:
            raise ValueError(
                f"a rank-{self.n_rank} highest weight has {self.n_rank - 1} labels"
            )


def verma_symbolic(n_rank: int, j: int) -> ModuleSpec:
    """Verma factor number j with symbolic simple-root pairings L:j:k."""
    pairings = tuple(symbol(f"L:{j}:{k}") for k in range(1, n_rank))
    return ModuleSpec("verma", n_rank, WeightVec(pairings))


def verma_weight(n_rank: int, hw: WeightVec) -> ModuleSpec:
    return ModuleSpec("verma", n_rank, hw)


def lp_module(p: int) -> ModuleSpec:
    return ModuleSpec("lp", 2, WeightVec((rational(p),)), p=p)


# ---------------------------------------------------------------------------
# Weight spaces
# ---------------------------------------------------------------------------

MultiIndex = tuple  # tuple over factors of per-factor exponent tuples


def _factor_indices(basis: PBWBasis, nu0: tuple[int, ...], cap: Optional[int]):
    """All exponent tuples over basis.order with level sums <= nu0, each as
    ``(exps, sums)``: a root (k, l) with exponent e adds e to the sums of
    levels k..l-1."""
    order = basis.order
    results: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(pos: int, sums: tuple[int, ...], acc: tuple[int, ...]) -> None:
        if pos == len(order):
            results.append((acc, sums))
            return
        k, l = order[pos]
        max_e = min(nu0[h] - sums[h] for h in range(k - 1, l - 1))
        if cap is not None:
            max_e = min(max_e, cap)
        for e in range(max_e + 1):
            raised = tuple(s + e if k <= h < l else s for h, s in enumerate(sums, 1))
            rec(pos + 1, raised, acc + (e,))

    rec(0, (0,) * len(nu0), ())
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
        "_factor_weights",
        "_weight",
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
        self._factor_weights: dict[tuple[int, int], WeightVec] = {}
        self._weight: Optional[WeightVec] = None
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
            f"dim={len(self.basis)}, h={self.pbw_basis.h})"
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def weight(self) -> WeightVec:
        """The weight of the space: the factors' highest weights summed and
        lowered by ``nu0``, computed on first use and kept with the space."""
        if self._weight is None:
            total = sum((f.hw for f in self.factors[1:]), self.factors[0].hw)
            self._weight = total - nu_vec(self.pbw_basis.n_rank, self.nu0)
        return self._weight

    def factor_weight(self, position: int, j: int) -> WeightVec:
        """Weight of tensor factor ``j`` (1-based) of basis element
        ``position``, computed on first use and kept with the space."""
        weight = self._factor_weights.get((position, j))
        if weight is None:
            n_rank = self.pbw_basis.n_rank
            weight = self.factors[j - 1].hw
            for (k, l), e in zip(self.pbw_basis.order, self.basis[position][j - 1]):
                if e:
                    weight = weight - root_vec(n_rank, k, l).scale(e)
            self._factor_weights[(position, j)] = weight
        return weight

    def shifted(self, level_shifts: Mapping[int, int]) -> "TensorWeightSpace":
        nu0 = list(self.nu0)
        for h, d in level_shifts.items():
            nu0[h - 1] += d
        if any(m < 0 for m in nu0):
            # no weight lies there; the true depth keeps it apart from every real space
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

    def rec(j: int, sums: tuple[int, ...], acc: tuple) -> None:
        if j == len(factors):
            if sums == nu0:
                indices.append(acc)
            return
        for exps, used in per_factor[j]:
            total = tuple(s + u for s, u in zip(sums, used))
            if all(t <= m for t, m in zip(total, nu0)):
                rec(j + 1, total, acc + (exps,))

    rec(0, (0,) * len(nu0), ())
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
# Operators
# ---------------------------------------------------------------------------

class WeightSpaceOperator:
    """Sparse exact matrix between two weight-space bases."""

    __slots__ = ("domain", "codomain", "entries")

    def __init__(self, domain, codomain, entries: Mapping[tuple[int, int], RationalFunctionExpr]):
        self.domain = domain
        self.codomain = codomain
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}

    @staticmethod
    def diagonal(space, values: Sequence[RationalFunctionExpr]) -> "WeightSpaceOperator":
        """The operator on ``space`` with ``values[i]`` at (i, i)."""
        return WeightSpaceOperator(space, space, {(i, i): v for i, v in enumerate(values)})

    @staticmethod
    def identity(space) -> "WeightSpaceOperator":
        return WeightSpaceOperator.diagonal(space, [RF_ONE] * space.dim)

    @staticmethod
    def zero(domain, codomain) -> "WeightSpaceOperator":
        return WeightSpaceOperator(domain, codomain, {})

    def entry(self, i: int, j: int) -> RationalFunctionExpr:
        return self.entries.get((i, j), RF_ZERO)

    def apply(self, vec: Mapping[int, RationalFunctionExpr]) -> dict:
        """The image of a vector ``{position: coefficient}``, without zeros."""
        return rf_sums((i, m * vec[j]) for (i, j), m in self.entries.items() if j in vec)

    def compose(self, other: "WeightSpaceOperator") -> "WeightSpaceOperator":
        """self ∘ other (apply other first)."""
        if other.codomain != self.domain:
            raise ValueError(f"cannot compose: {other.codomain!r} is not {self.domain!r}")
        by_col: dict[int, list[tuple[int, RationalFunctionExpr]]] = {}
        for (i, j), m in other.entries.items():
            by_col.setdefault(j, []).append((i, m))
        # organize self by its domain index k: entries (i, k)
        self_by_k: dict[int, list[tuple[int, RationalFunctionExpr]]] = {}
        for (i, k), a in self.entries.items():
            self_by_k.setdefault(k, []).append((i, a))
        out = rf_sums(
            ((i, j), a * m)
            for j, col in by_col.items()
            for k, m in col
            for i, a in self_by_k.get(k, ())  # i <- k <- j
        )
        return WeightSpaceOperator(other.domain, self.codomain, out)

    def __add__(self, other: "WeightSpaceOperator") -> "WeightSpaceOperator":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError(
                f"cannot add operators {self.domain!r} -> {self.codomain!r}"
                f" and {other.domain!r} -> {other.codomain!r}"
            )
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

    def scale_rows(self, values: Sequence[RationalFunctionExpr]) -> "WeightSpaceOperator":
        """Row i times ``values[i]``: the composition with a diagonal on the
        codomain, without its sums."""
        entries = {(i, j): values[i] * v for (i, j), v in self.entries.items()}
        return WeightSpaceOperator(self.domain, self.codomain, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, WeightSpaceOperator):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def invert(self) -> "WeightSpaceOperator":
        """Exact inverse via Gauss-Jordan on the sparse rows of ``[A | I]``."""
        if self.domain != self.codomain:
            raise ValueError(f"cannot invert {self.domain!r} -> {self.codomain!r}")
        n = self.domain.dim
        rows: list[dict[int, RationalFunctionExpr]] = [{n + i: RF_ONE} for i in range(n)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        reduced = _row_reduce(rows, n)
        if len(reduced) < n:
            raise SingularGram("matrix is singular over the expression field")
        entries = {
            (i, j - n): row[j]
            for i, row in reduced.items()
            for j in sorted(row)
            if j >= n
        }
        return WeightSpaceOperator(self.domain, self.codomain, entries)


# ---------------------------------------------------------------------------
# Generator actions
# ---------------------------------------------------------------------------

def _target_space(space: TensorWeightSpace, letter: Letter) -> TensorWeightSpace:
    kind, a, b = letter
    if kind == "c":
        return space
    if a > b:  # lowering e_{a,b}: adds alpha_b + ... + alpha_{a-1}
        return space.shifted({h: 1 for h in range(b, a)})
    return space.shifted({h: -1 for h in range(a, b)})


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
# Singular vectors
# ---------------------------------------------------------------------------

def _pivot_cost(row: dict[int, RationalFunctionExpr], col: int) -> tuple[bool, int, int]:
    """Simplest pivot first: a constant denominator, then the fewest terms,
    then the shortest row (the fewest entries to update, after Markowitz)."""
    x = row[col]
    return (not x.den.is_one(), len(x.num.terms) + len(x.den.terms), len(row))


def _row_reduce(
    rows: list[dict[int, RationalFunctionExpr]], ncols: int
) -> dict[int, dict[int, RationalFunctionExpr]]:
    """Gauss-Jordan on sparse rows ``{column: nonzero entry}``, pivoting in
    the first ``ncols`` columns; returns the nonzero rows of the reduced row
    echelon form keyed by their pivot column, in increasing column order.
    ``rows`` is not modified.

    Zeros are never stored or visited, and a row that cancels to nothing
    leaves the elimination.  In each column the pivot is the simplest
    nonzero entry among the rows not used yet (`_pivot_cost`), so the
    reciprocal that scales its row is as small as that column allows.

    The choice changes no result.  Over a field the reduced row echelon
    form of a matrix is unique for a fixed column order: every echelon form
    spans the same row space and has the same pivot columns (the columns
    not spanned by the ones before them), and a row of that space is fixed
    by its values at the pivot columns, here 1 at its own and 0 at the
    others.  So every pivot choice ends in the same rows, and the canonical
    entries are equal under ``==``.
    """
    pending = [dict(row) for row in rows if row]
    reduced: dict[int, dict[int, RationalFunctionExpr]] = {}
    for col in range(ncols):
        hits = [i for i, row in enumerate(pending) if col in row]
        if not hits:
            continue
        p = min(hits, key=lambda i: _pivot_cost(pending[i], col))
        scale = pending[p][col].reciprocal()
        pivot = {j: x * scale for j, x in pending[p].items() if j != col}
        others = [pending[i] for i in hits if i != p]
        others += [row for row in reduced.values() if col in row]
        for row in others:
            f = row.pop(col)
            for j, y in pivot.items():
                x = row.get(j, RF_ZERO) - f * y
                if x.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = x
        pivot[col] = RF_ONE
        reduced[col] = pivot
        del pending[p]
        pending = [row for row in pending if row]
    return reduced


def nullspace(rows: list[dict[int, RationalFunctionExpr]], dim: int) -> list[dict[int, RationalFunctionExpr]]:
    """Exact nullspace of a stacked sparse system over the expression field:
    one vector per free column, 1 there and minus that column of the
    reduced rows at the pivot columns."""
    reduced = _row_reduce(rows, dim)
    out = []
    for fc in range(dim):
        if fc in reduced:
            continue
        vec = {fc: RF_ONE}
        for pcol, row in reduced.items():
            v = row.get(fc)
            if v is not None:
                vec[pcol] = -v
        out.append(vec)
    return out


def singular_vectors(space: TensorWeightSpace) -> list[dict[int, RationalFunctionExpr]]:
    """Basis of the joint kernel of the simple raising operators: the
    `nullspace` of their stacked rows, 1 at each free column."""
    n_rank = space.pbw_basis.n_rank
    rows: list[dict[int, RationalFunctionExpr]] = []
    for h in range(1, n_rank):
        op = operator_for_letter(space, ("e", h, h + 1))
        by_row: dict[int, dict[int, RationalFunctionExpr]] = {}
        for (i, j), v in op.entries.items():
            by_row.setdefault(i, {})[j] = v
        rows.extend(by_row.values())
    return nullspace(rows, space.dim)

