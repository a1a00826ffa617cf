"""Rational-function layer behind the integral solutions.

This module builds the combinatorial rational functions attached to the
monomial basis of a tensor weight space: every basis index is a collection of
"strings" (one per divided-power unit), each string carries one variable of
every color in its root interval, and the attached function is a product of
inverse differences along the string with a grounding factor at the slot's
evaluation point.  On top of that it provides

* the level flavors of the functions, in which straddling strings ground at
  the level color with alternating signs (the standard arrangement is the
  top level N-1, named ``standard``),
* the function-weighted basis sum of a level (`phi_vector`), and
* the exact verifier of order invariance of these sums
  (`order_invariance_reports` straightens the level-``h`` `phi_vector`,
  for each h = 1, ..., N-2, slot by slot onto the standard basis and
  compares it with the standard one, built once).

This is what ``kzdyn verify pbw-invariance`` and the ``phi-vector`` and
``forest`` dumps run.  The other identities of the proof chain, checked only
by tests, are in `kzdyn.lemmas`, which no CLI run imports.

Conventions: tensor slots are 1-based, slot ``j`` grounds at the symbol
``z:j`` unless an explicit ground (possibly the literal zero) is supplied;
color ``k`` variables are the symbols ``t:k:d`` with copy index ``d`` starting
at 1.  Variable copies are assigned canonically: strings are scanned by
(slot, position of the root in the standard order, copy) and each takes the
next unused copy of every color it needs.  The order-invariance check reports
both the raw verdict for this canonical assignment and the verdict after
averaging over permutations of same-color variables.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional, Sequence, Union

from ._record import record
from .symexpr import (
    RF_ONE,
    RF_ZERO,
    RationalFunctionExpr,
    rational,
    rf_sums,
    rf_symmetrize,
    symbol,
)
from .roots import OutOfRange
from .uea import (
    PBWBasis,
    monomial_word,
    standard_basis,
    straightener,
)
from .rep import TensorWeightSpace
from .dyn import z_symbols

__all__ = [
    "OrderFlavor",
    "StringGraph",
    "Forest",
    "forest_of_index",
    "PhiVector",
    "phi_vector",
    "OrderInvarianceReport",
    "order_invariance_reports",
    "t_name",
    "t_symbol",
    "color_groups",
    "index_counts",
]


# ---------------------------------------------------------------------------
# Order flavors
# ---------------------------------------------------------------------------

@record
class OrderFlavor:
    """Which grounding rule each string follows.

    At level ``h``, a string on the root (k, l) below the level (l <= h)
    grounds at its last color with positive sign; one that straddles it
    (k <= h < l) grounds at color ``h``, and one above it (h < k) at color
    k, both with sign alternating in the distance to the top color l - 1.
    The straddling pairs listed in ``switched`` already follow the level
    ``h-1`` rule (an interpolating flavor, `lemmas.interp_flavor`).  The
    standard arrangement is the top level N - 1, where every string grounds
    at its last color.
    """

    h: int
    switched: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.h, int) or self.h < 1:
            raise ValueError("flavors need a positive level")

    def to_json(self) -> dict:
        return {"h": self.h, "switched": sorted(self.switched)}


def _flavor(value: Union[str, int, OrderFlavor], n_rank: int) -> OrderFlavor:
    """The flavor ``value`` names at rank ``n_rank``: an `OrderFlavor`, a
    level, or ``standard``, the name of level n_rank-1; any level outside
    1..n_rank-1, and any other value, raises `OutOfRange`."""
    if value == "standard":
        value = n_rank - 1
    h = value.h if isinstance(value, OrderFlavor) else value
    if not (isinstance(h, int) and 1 <= h < n_rank):
        raise OutOfRange(f"h must be in 1..{n_rank - 1}, got {h}")
    return value if isinstance(value, OrderFlavor) else OrderFlavor(h)


def _case_for(root: tuple[int, int], flavor: OrderFlavor) -> tuple[int, int]:
    """Ground color and sign of one string under a flavor."""
    k, l = root
    h = flavor.h - 1 if root in flavor.switched else flavor.h
    if l <= h:
        return l - 1, 1
    if k <= h:
        return h, -1 if (l - 1 - h) % 2 else 1
    return k, -1 if (l - 1 - k) % 2 else 1


# ---------------------------------------------------------------------------
# Indices: per-slot root counts
# ---------------------------------------------------------------------------

SlotCounts = tuple  # sorted tuple of ((k, l), count) pairs


def _slot_counts(entry, basis: Optional[PBWBasis]) -> SlotCounts:
    if isinstance(entry, Mapping):
        items = entry.items()
    elif all(
        isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], tuple)
        for x in entry
    ):
        items = tuple(entry)
    else:
        if basis is None:
            raise ValueError("exponent tuples need an explicit basis")
        items = basis.roots_from_exps(tuple(entry)).items()
    out = []
    for root, count in items:
        k, l = root
        if not (1 <= k < l):
            raise ValueError(f"invalid positive root {root}")
        if count < 0:
            raise ValueError("string counts must be non-negative")
        if count:
            out.append(((k, l), int(count)))
    return tuple(sorted(out))


def index_counts(index, basis: Optional[PBWBasis] = None) -> tuple[SlotCounts, ...]:
    """Canonical per-slot root-count form of a basis multi-index.

    Each slot may be given as a mapping ``root -> count`` or as an exponent
    tuple read against ``basis``.
    """
    return tuple(_slot_counts(entry, basis) for entry in index)


def color_groups(counts: Sequence[int]) -> list[list[str]]:
    """Same-color symbol groups with at least two members (for averaging)."""
    return [
        [t_name(k, d) for d in range(1, m + 1)]
        for k, m in enumerate(counts, start=1)
        if m >= 2
    ]


def t_name(k: int, d: int) -> str:
    return f"t:{k}:{d}"


def t_symbol(k: int, d: int) -> RationalFunctionExpr:
    return symbol(t_name(k, d))


# ---------------------------------------------------------------------------
# Strings and forests
# ---------------------------------------------------------------------------

@record
class StringGraph:
    """One grounded string: a chain of consecutive-color variables.

    ``variables`` lists the (color, copy) pairs for colors ``k..l-1``;
    ``ground_color`` is the color whose variable carries the grounding edge,
    and ``sign`` the grounding sign prescribed by the flavor.  The attached
    function is ``sign * prod 1/(t_p - t_{p+1}) * 1/(t_g - ground)``, equal to
    the product of the oriented edge functions.
    """

    root: tuple[int, int]
    slot: int
    copy: int
    ground_color: int
    sign: int
    variables: tuple[tuple[int, int], ...]
    ground: RationalFunctionExpr

    def _var(self, color: int) -> RationalFunctionExpr:
        k = self.root[0]
        return t_symbol(*self.variables[color - k])

    def function(self) -> RationalFunctionExpr:
        k, l = self.root
        value = RF_ONE if self.sign > 0 else rational(-1)
        for p in range(k, l - 1):
            value = value / (self._var(p) - self._var(p + 1))
        return value / (self._var(self.ground_color) - self.ground)

    def edges(self) -> list[tuple[str, str]]:
        """Oriented edges flowing toward the grounding vertex."""
        k, l = self.root
        out = []
        for p in range(k, l - 1):
            a, b = self.variables[p - k], self.variables[p + 1 - k]
            if p < self.ground_color:
                out.append((t_name(*a), t_name(*b)))
            else:
                out.append((t_name(*b), t_name(*a)))
        out.append((t_name(*self.variables[self.ground_color - k]), str(self.ground)))
        return out

    def to_json(self) -> dict:
        return {
            "root": list(self.root),
            "slot": self.slot,
            "copy": self.copy,
            "ground": str(self.ground),
            "ground_color": self.ground_color,
            "sign": self.sign,
            "variables": [t_name(*v) for v in self.variables],
            "edges": [list(e) for e in self.edges()],
        }


@record
class Forest:
    """All strings of one index, grouped into per-slot trees by their ground."""

    n_rank: int
    flavor: OrderFlavor
    strings: tuple[StringGraph, ...]

    def function(self) -> RationalFunctionExpr:
        value = RF_ONE
        for s in self.strings:
            value = value * s.function()
        return value

    def trees(self) -> dict[int, tuple[StringGraph, ...]]:
        out: dict[int, list[StringGraph]] = {}
        for s in self.strings:
            out.setdefault(s.slot, []).append(s)
        return {slot: tuple(group) for slot, group in out.items()}

    def to_json(self) -> dict:
        return {
            "n_rank": self.n_rank,
            "flavor": self.flavor.to_json(),
            "trees": [
                {
                    "slot": slot,
                    "ground": str(group[0].ground),
                    "strings": [s.to_json() for s in group],
                }
                for slot, group in sorted(self.trees().items())
            ],
        }


def forest_of_index(
    index,
    flavor: Union[str, int, OrderFlavor] = "standard",
    *,
    n_rank: int,
    grounds: Optional[Sequence[RationalFunctionExpr]] = None,
) -> Forest:
    """Strings of one index with canonically assigned variable copies.

    Its ``function()`` is the product of grounded-string functions attached
    to the index.
    """
    flav = _flavor(flavor, n_rank)
    counts = index_counts(index)
    if grounds is None:
        grounds = z_symbols(len(counts))
    if len(grounds) != len(counts):
        raise ValueError("need one ground per slot")
    std_pos = standard_basis(n_rank).position
    next_copy = [1] * n_rank
    strings: list[StringGraph] = []
    for j, slot in enumerate(counts, start=1):
        ground = grounds[j - 1]
        for root, count in sorted(slot, key=lambda rc: std_pos[rc[0]]):
            k, l = root
            g, sign = _case_for(root, flav)
            for q in range(1, count + 1):
                variables = []
                for p in range(k, l):
                    variables.append((p, next_copy[p - 1]))
                    next_copy[p - 1] += 1
                strings.append(StringGraph(root, j, q, g, sign, tuple(variables), ground))
    return Forest(n_rank, flav, tuple(strings))


# ---------------------------------------------------------------------------
# Function-weighted basis sums
# ---------------------------------------------------------------------------

@record
class PhiVector:
    """Formal sum of basis vectors weighted by their index functions.

    ``terms`` pairs each multi-index of the space (exponents against the
    flavor's normal order) with its coefficient function.
    """

    space: TensorWeightSpace
    flavor: OrderFlavor
    basis: PBWBasis
    terms: tuple[tuple[tuple, RationalFunctionExpr], ...]


def phi_vector(
    space: TensorWeightSpace, flavor: Union[str, int, OrderFlavor] = "standard"
) -> PhiVector:
    """Coefficient functions of every basis index of a weight space."""
    rank = space.pbw_basis.n_rank
    flav = _flavor(flavor, rank)
    if flav.switched:
        raise ValueError("interpolating flavors have no single attached basis")
    basis = PBWBasis(rank, flav.h)
    terms = []
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        exps = tuple(
            basis.exps_from_roots({root: c for root, c in slot}) for slot in counts
        )
        forest = forest_of_index(counts, flav, n_rank=rank)
        terms.append((exps, forest.function()))
    return PhiVector(space, flav, basis, tuple(terms))


# ---------------------------------------------------------------------------
# Order invariance
# ---------------------------------------------------------------------------

def _averages_to_zero(delta: RationalFunctionExpr, counts: Sequence[int]) -> bool:
    """Whether ``delta`` vanishes after averaging over permutations of the
    same-color variables, ``counts[k - 1]`` of color ``k``."""
    groups = color_groups(counts)
    return bool(groups) and rf_symmetrize(delta, groups).is_zero()


def _expand_in_standard(basis: PBWBasis, exps: tuple) -> dict:
    """Coefficients of one flavored basis monomial on the standard basis,
    straightened in the standard order."""
    engine = straightener(standard_basis(basis.n_rank))
    return engine.apply_word(monomial_word(basis, exps))


@record
class OrderInvarianceReport:
    h: int
    dim: int
    raw_equal: bool
    symmetrized_equal: bool
    mismatches: tuple[tuple, ...]

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "dim": self.dim,
            "raw_equal": self.raw_equal,
            "symmetrized_equal": self.symmetrized_equal,
            "mismatches": [list(map(list, m)) for m in self.mismatches],
        }


def order_invariance_reports(space: TensorWeightSpace) -> Iterator[OrderInvarianceReport]:
    """Compare the level-``h`` `phi_vector` with the standard one, level N-1,
    at each level h = 1, ..., N-2 in turn.

    Each slot of the level-``h`` vector is straightened onto the standard
    monomial basis; coefficient functions must then agree index by index.
    Both the raw verdict (canonical variable copies) and the verdict after
    averaging over same-color copies are reported.  The standard vector is
    built once; below sl3 there is no level to compare, and nothing is
    yielded.
    """
    standard_side = dict(phi_vector(space, "standard").terms)
    for h in range(1, space.pbw_basis.n_rank - 1):
        yield _order_invariance(space, h, standard_side)


def _order_invariance(
    space: TensorWeightSpace, h: int, standard_side: dict
) -> OrderInvarianceReport:
    level = phi_vector(space, h)

    def level_terms():
        for exps, value in level.terms:
            slot_expansions = [_expand_in_standard(level.basis, e) for e in exps]
            for combo in itertools.product(*(e.items() for e in slot_expansions)):
                coeff = value
                for _, c in combo:
                    coeff = coeff * c
                yield tuple(e for e, _ in combo), coeff

    level_side = rf_sums(level_terms())

    raw = True
    mismatches = []
    for key in set(standard_side) | set(level_side):
        delta = standard_side.get(key, RF_ZERO) - level_side.get(key, RF_ZERO)
        if not delta.is_zero():
            raw = False
            if not _averages_to_zero(delta, space.nu0):
                mismatches.append(key)
    symmetrized = not mismatches
    return OrderInvarianceReport(h, space.dim, raw, symmetrized, tuple(mismatches))
