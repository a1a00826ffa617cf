"""Type-A root combinatorics: positive roots, weights in epsilon-coordinates,
the symmetric group as Weyl group, normal orders on positive roots, and the
explicit elementary-transformation schedule converting one special order into
the next.

Conventions
-----------
Positive roots of sl_N are pairs ``(k, l)`` with ``1 <= k < l <= N`` standing
for ``e_k - e_l`` in epsilon-coordinates.  Orders on positive roots are stored
as tuples **largest first**.

The standard order puts ``(k, l)`` above ``(k', l')`` iff ``l > l'`` or
(``l = l'`` and ``k > k'``).  The special order for a level ``h`` splits the
roots into three blocks, top to bottom:

* ``A_h = {(k, l): k <= h < l}`` ordered by ``l`` ascending, then ``k``
  descending;
* ``B_h = {(k, l): l <= h}`` in the standard order;
* ``C_h = {(k, l): h < k}`` ordered by ``k`` ascending, then ``l`` ascending.

``h = N - 1`` reproduces the standard order.

A linear order is *normal* when for every pair of positive roots whose sum is
again a root, the sum lies between the two summands.  Normal orders are
connected by two kinds of adjacent reversals: a swap of two neighbours whose
sum is not a root (``A1A1``) and a reversal of a three-term window
``x, x+y, y`` (``A2``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .symexpr import RF_ZERO, RationalFunctionExpr, rational

__all__ = [
    "OutOfRange",
    "NotReduced",
    "Root",
    "positive_roots",
    "root_sum",
    "is_normal",
    "standard_order",
    "special_order",
    "serialize_order",
    "ElemTransform",
    "apply_transform",
    "sigma_sequence",
    "intermediate_orders",
    "sign_table_a",
    "WeightVec",
    "root_vec",
    "alpha_vec",
    "rho_vec",
    "omega_vec",
    "weight_from_pairings",
    "nu_vec",
    "WeylElement",
    "identity_weyl",
    "simple_reflection",
    "longest_element",
    "omega_bracket",
    "roots_of_reduced_word",
]


class OutOfRange(ValueError):
    """Index outside the valid range for the root system."""


class NotReduced(ValueError):
    """A word in simple reflections that is not reduced."""


Root = tuple
# a positive root is a pair (k, l), 1 <= k < l <= N


# ---------------------------------------------------------------------------
# Roots and orders
# ---------------------------------------------------------------------------

def positive_roots(n_rank: int) -> list[tuple[int, int]]:
    """All positive roots of sl_N as pairs (k, l), k < l."""
    if n_rank < 2:
        raise OutOfRange(f"rank must be >= 2, got {n_rank}")
    return [(k, l) for k in range(1, n_rank) for l in range(k + 1, n_rank + 1)]


def root_sum(a: tuple[int, int], b: tuple[int, int]) -> Optional[tuple[int, int]]:
    """The root a + b if it is again a root, else None."""
    if a[1] == b[0]:
        return (a[0], b[1])
    if b[1] == a[0]:
        return (b[0], a[1])
    return None


def is_normal(order: Sequence[tuple[int, int]]) -> bool:
    """Every root that is a sum of two others lies between them."""
    pos = {root: i for i, root in enumerate(order)}
    for a, b in itertools.combinations(order, 2):
        s = root_sum(a, b)
        if s is not None:
            i, j, m = pos[a], pos[b], pos[s]
            if not (min(i, j) < m < max(i, j)):
                return False
    return True


def standard_order(n_rank: int) -> tuple[tuple[int, int], ...]:
    """Standard order, largest first: (k,l) before (k',l') iff l>l' or l=l',k>k'."""
    return tuple(sorted(positive_roots(n_rank), key=lambda kl: (kl[1], kl[0]), reverse=True))


def special_order(n_rank: int, h: int) -> tuple[tuple[int, int], ...]:
    """The level-h order, largest first (A block, then B, then C)."""
    if not isinstance(h, int) or not (1 <= h <= n_rank - 1):
        raise OutOfRange(f"h must be in 1..{n_rank - 1}, got {h}")
    block_a = sorted(
        ((k, l) for k, l in positive_roots(n_rank) if k <= h < l),
        key=lambda kl: (kl[1], -kl[0]),
    )
    block_b = sorted(
        ((k, l) for k, l in positive_roots(n_rank) if l <= h),
        key=lambda kl: (kl[1], kl[0]),
        reverse=True,
    )
    block_c = sorted((k, l) for k, l in positive_roots(n_rank) if h < k)
    return tuple(block_a + block_b + block_c)


def serialize_order(order: Sequence[tuple[int, int]]) -> str:
    """Comma list ``a(k,l)`` largest first."""
    return ",".join(f"a({k},{l})" for k, l in order)


# ---------------------------------------------------------------------------
# Elementary transformations and the sigma schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElemTransform:
    """An adjacent reversal acting on a largest-first root order.

    ``A1A1`` swaps positions (position, position+1); ``A2`` reverses the
    window (position, position+1, position+2) and carries the middle root as
    its label.
    """

    kind: str  # "A1A1" | "A2"
    position: int
    label: Optional[tuple[int, int]] = None


def apply_transform(
    order: Sequence[tuple[int, int]], transform: ElemTransform
) -> tuple[tuple[int, int], ...]:
    out = list(order)
    i = transform.position
    if transform.kind == "A1A1":
        assert root_sum(out[i], out[i + 1]) is None
        out[i], out[i + 1] = out[i + 1], out[i]
    elif transform.kind == "A2":
        assert root_sum(out[i], out[i + 2]) == out[i + 1] == transform.label
        out[i], out[i + 2] = out[i + 2], out[i]
    else:  # pragma: no cover - guarded by construction
        raise ValueError(f"unknown transform kind {transform.kind!r}")
    return tuple(out)


def sigma_sequence(n_rank: int, h: int) -> list[ElemTransform]:
    """Elementary transformations converting the level-h order into level h-1.

    Two phases: first each root ``(k, h)`` (k = h-1 down to 1) bubbles to the
    top through the A block — using the forced three-term reversal whenever
    its bracket partner is adjacent — then each ``(h, l)`` (l = N down to h+1)
    bubbles down to the top of the C block.  Exactly one A2 reversal occurs
    for every pair ``(k, l)`` with ``k < h < l``, labeled by its middle root;
    every intermediate order stays normal.
    """
    if not isinstance(h, int) or not (2 <= h <= n_rank - 1):
        raise OutOfRange(f"h must be in 2..{n_rank - 1}, got {h}")
    order = list(special_order(n_rank, h))
    transforms: list[ElemTransform] = []

    # Phase one: move (k, h) up through the A block, for k = h-1, ..., 1.
    for k in range(h - 1, 0, -1):
        target = (k, h)
        i = order.index(target)
        stop = h - 1 - k
        while i > stop:
            if i >= 2 and root_sum(order[i - 2], target) == order[i - 1]:
                transforms.append(ElemTransform("A2", i - 2, order[i - 1]))
                order[i - 2], order[i] = order[i], order[i - 2]
                i -= 2
            else:
                assert root_sum(order[i - 1], target) is None
                transforms.append(ElemTransform("A1A1", i - 1))
                order[i - 1], order[i] = order[i], order[i - 1]
                i -= 1

    # Phase two: move (h, l) down to the top of the C block, l = N, ..., h+1.
    total = len(order)
    c_size = sum(1 for k, _ in order if k > h)
    for offset, l in enumerate(range(n_rank, h, -1)):
        target = (h, l)
        i = order.index(target)
        stop = total - c_size - offset - 1
        while i < stop:
            assert root_sum(order[i + 1], target) is None
            transforms.append(ElemTransform("A1A1", i))
            order[i], order[i + 1] = order[i + 1], order[i]
            i += 1

    assert tuple(order) == special_order(n_rank, h - 1)
    return transforms


def intermediate_orders(n_rank: int, h: int) -> list[tuple[tuple[int, int], ...]]:
    """All orders visited while converting level h into level h-1 (inclusive)."""
    order = special_order(n_rank, h)
    orders = [order]
    for transform in sigma_sequence(n_rank, h):
        order = apply_transform(order, transform)
        orders.append(order)
    return orders


def sign_table_a(n_rank: int, h: int) -> dict[tuple[int, int], int]:
    """For each root (k,l), the number of p with k<p<l and (k,p) above (p,l).

    This counts the three-term subsystems of the level-h order having (k,l)
    as middle root in reversed position; closed form: 0 if k<l<=h, l-k-1 if
    h<k<l, l-h-1 if k<=h<l.
    """
    order = special_order(n_rank, h)
    pos = {root: i for i, root in enumerate(order)}
    table: dict[tuple[int, int], int] = {}
    for k, l in positive_roots(n_rank):
        # position index 0 is the largest element
        table[(k, l)] = sum(1 for p in range(k + 1, l) if pos[(k, p)] < pos[(p, l)])
    return table


# ---------------------------------------------------------------------------
# Weights in epsilon-coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVec:
    """A weight of gl_N/sl_N as exact epsilon-coordinates (sum zero)."""

    eps: tuple[RationalFunctionExpr, ...]

    def __add__(self, other: "WeightVec") -> "WeightVec":
        return WeightVec(tuple(a + b for a, b in zip(self.eps, other.eps)))

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        return WeightVec(tuple(a - b for a, b in zip(self.eps, other.eps)))

    def __neg__(self) -> "WeightVec":
        return WeightVec(tuple(-a for a in self.eps))

    def scale(self, c) -> "WeightVec":
        factor = c if isinstance(c, RationalFunctionExpr) else rational(Fraction(c))
        return WeightVec(tuple(a * factor for a in self.eps))

    def dot(self, other: "WeightVec") -> RationalFunctionExpr:
        total = RF_ZERO
        for a, b in zip(self.eps, other.eps):
            total = total + a * b
        return total

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.eps)

    def validate(self) -> None:
        total = RF_ZERO
        for a in self.eps:
            total = total + a
        if not total.is_zero():
            raise ValueError("epsilon-coordinates must sum to zero")


def root_vec(n_rank: int, k: int, l: int) -> WeightVec:
    """The root e_k - e_l as a weight vector."""
    if not (1 <= k < l <= n_rank):
        raise OutOfRange(f"not a positive root: ({k},{l})")
    eps = [RF_ZERO] * n_rank
    eps[k - 1] = rational(1)
    eps[l - 1] = rational(-1)
    return WeightVec(tuple(eps))


def alpha_vec(n_rank: int, k: int) -> WeightVec:
    """The k-th simple root e_k - e_{k+1}."""
    return root_vec(n_rank, k, k + 1)


def rho_vec(n_rank: int) -> WeightVec:
    """Half-sum of positive roots: coordinates (N+1-2i)/2."""
    return WeightVec(
        tuple(rational(Fraction(n_rank + 1 - 2 * i, 2)) for i in range(1, n_rank + 1))
    )


def omega_vec(n_rank: int, k: int) -> WeightVec:
    """Fundamental (co)weight: (1 - k/N) on the first k slots, -k/N after."""
    if not (1 <= k <= n_rank - 1):
        raise OutOfRange(f"fundamental weight index must be in 1..{n_rank - 1}")
    high = rational(Fraction(n_rank - k, n_rank))
    low = rational(Fraction(-k, n_rank))
    return WeightVec(tuple(high if i <= k else low for i in range(1, n_rank + 1)))


def weight_from_pairings(n_rank: int, pairings: Sequence[RationalFunctionExpr]) -> WeightVec:
    """The weight with prescribed pairings against the simple roots.

    ``pairings[k-1]`` is the (possibly symbolic) value of the pairing with the
    k-th simple root; the weight is the corresponding combination of
    fundamental weights.
    """
    if len(pairings) != n_rank - 1:
        raise OutOfRange("need one pairing per simple root")
    total = WeightVec(tuple([RF_ZERO] * n_rank))
    for k, c in enumerate(pairings, start=1):
        total = total + omega_vec(n_rank, k).scale(c)
    return total


def nu_vec(n_rank: int, multiplicities: Sequence[int]) -> WeightVec:
    """Non-negative combination of simple roots with the given multiplicities."""
    if len(multiplicities) != n_rank - 1:
        raise OutOfRange("need one multiplicity per simple root")
    total = WeightVec(tuple([RF_ZERO] * n_rank))
    for k, m in enumerate(multiplicities, start=1):
        if m:
            total = total + alpha_vec(n_rank, k).scale(m)
    return total


# ---------------------------------------------------------------------------
# Weyl group (symmetric group on coordinates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylElement:
    """A permutation of 1..N; ``perm[i-1]`` is the image of i."""

    perm: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self*other)(i) = self(other(i)): other acts first.
        return WeylElement(tuple(self.perm[j - 1] for j in other.perm))

    def length(self) -> int:
        """Inversion count."""
        p = self.perm
        return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])

    def act_root(self, root: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        """Image of e_k - e_l: returns (sign, positive root)."""
        a, b = self.perm[root[0] - 1], self.perm[root[1] - 1]
        if a < b:
            return 1, (a, b)
        return -1, (b, a)

    def reduced_word(self) -> list[int]:
        """A reduced word [i1, ..., im]: the element equals s_{im}...s_{i1}.

        Greedy: repeatedly strip the smallest descent on the right.
        """
        word: list[int] = []
        perm = list(self.perm)
        n = len(perm)
        while True:
            descent = next((i for i in range(1, n) if perm[i - 1] > perm[i]), None)
            if descent is None:
                return word
            word.append(descent)
            perm[descent - 1], perm[descent] = perm[descent], perm[descent - 1]


def identity_weyl(n_rank: int) -> WeylElement:
    return WeylElement(tuple(range(1, n_rank + 1)))


def simple_reflection(n_rank: int, i: int) -> WeylElement:
    if not (1 <= i <= n_rank - 1):
        raise OutOfRange(f"simple reflection index must be in 1..{n_rank - 1}")
    perm = list(range(1, n_rank + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return WeylElement(tuple(perm))


def longest_element(n_rank: int) -> WeylElement:
    return WeylElement(tuple(range(n_rank, 0, -1)))


def omega_bracket(n_rank: int, k: int) -> tuple[WeylElement, list[int]]:
    """The k-th block-rotation Weyl element and one reduced word for it.

    As a permutation: i <= k maps to N-k+i, i > k maps to i-k (the product of
    the longest element with the longest element of the parabolic S_k x
    S_{N-k}).  Its length is k(N-k).
    """
    if not (1 <= k <= n_rank - 1):
        raise OutOfRange(f"k must be in 1..{n_rank - 1}, got {k}")
    perm = tuple(
        (n_rank - k + i) if i <= k else (i - k) for i in range(1, n_rank + 1)
    )
    element = WeylElement(perm)
    return element, element.reduced_word()


def roots_of_reduced_word(n_rank: int, word: Sequence[int]) -> list[tuple[int, int]]:
    """The root sequence of a reduced word.

    For word [i1, ..., im] (element s_{im}...s_{i1}) the p-th root is
    s_{i1}...s_{i_{p-1}} applied to the i_p-th simple root.  Raises
    NotReduced if any image fails to be a new positive root.
    """
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    w = identity_weyl(n_rank)
    for i in word:
        if not (1 <= i <= n_rank - 1):
            raise OutOfRange(f"simple reflection index {i} out of range")
        sign, root = w.act_root((i, i + 1))
        if sign < 0 or root in seen:
            raise NotReduced(f"word {list(word)} is not reduced")
        seen.add(root)
        out.append(root)
        w = w * simple_reflection(n_rank, i)
    return out

