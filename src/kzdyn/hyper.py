"""Rational-function layer behind the integral solutions.

This module builds the combinatorial rational functions attached to the
monomial basis of a tensor weight space: every basis index is a collection of
"strings" (one per divided-power unit), each string carries one variable of
every color in its root interval, and the attached function is a product of
inverse differences along the string with a grounding factor at the slot's
evaluation point.  On top of that it provides

* exponent bookkeeping for the multivalued weight function (pair exponents
  and pure powers) together with its exact logarithmic derivative,
* the level-flavored variants of the functions in which straddling strings
  ground at the level color with alternating signs, plus the interpolating
  flavors used to walk between two adjacent levels,
* the level-h raising action on basis functionals, and
* exact verifiers for the identities that power the difference-operator
  compatibility: order invariance of the function-weighted sums, the binomial
  string-exchange identity, the coordinate-shift factorization through
  ground-at-zero strings, the straddling-removal expansion, and the
  logarithmic-form pullback witness.

Conventions: tensor slots are 1-based, slot ``j`` grounds at the symbol
``z:j`` unless an explicit ground (possibly the literal zero) is supplied;
color ``k`` variables are the symbols ``t:k:d`` with copy index ``d`` starting
at 1.  Variable copies are assigned canonically: strings are scanned by
(slot, position of the root in the standard order, copy) and each takes the
next unused copy of every color it needs.  All identity checks report both the
raw verdict for this canonical assignment and the verdict after averaging over
permutations of same-color variables.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Union

from .symexpr import (
    RF_ONE,
    RF_ZERO,
    RationalFunctionExpr,
    rational,
    rf_symmetrize,
    symbol,
)
from .roots import (
    OutOfRange,
    alpha_vec,
    nu_vec,
    omega_vec,
    positive_roots,
    rho_vec,
    sigma_sequence,
    weight_from_pairings,
)
from .uea import (
    PBWBasis,
    monomial_word,
    special_basis,
    standard_basis,
    straightener,
)
from .rep import TensorWeightSpace
from .dyn import kappa_symbol, lambda_pairing_symbols, space_weight_pairings, z_symbols

__all__ = [
    "OrderFlavor",
    "STANDARD",
    "level_flavor",
    "interp_flavor",
    "StringGraph",
    "Forest",
    "forest_of_index",
    "phi_of_index",
    "PhiVector",
    "phi_vector",
    "OrderInvarianceReport",
    "verify_order_invariance",
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
    "LemmaExpansionReport",
    "lemma_rat2Dprime_check",
    "SwitchCorReport",
    "switch_cor_witness",
    "t_name",
    "t_symbol",
    "color_counts",
    "color_groups",
    "index_counts",
]


# ---------------------------------------------------------------------------
# Order flavors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderFlavor:
    """Which grounding rule each string follows.

    ``kind`` is "standard" (every string grounds at its last color, positive
    sign), "level" (strings straddling level ``h`` ground at color ``h`` with
    sign alternating in the distance to the top), or "interp" (level-``h``
    rules except that the straddling pairs listed in ``switched`` already
    follow the level ``h-1`` rule).
    """

    kind: str
    h: Optional[int] = None
    switched: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in ("standard", "level", "interp"):
            raise ValueError(f"unknown flavor kind {self.kind!r}")
        if self.kind != "standard" and (self.h is None or self.h < 1):
            raise ValueError("level flavors need a positive level")
        if self.kind != "interp" and self.switched:
            raise ValueError("only interpolating flavors carry switched pairs")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "h": self.h,
            "switched": sorted(self.switched),
        }


STANDARD = OrderFlavor("standard")


def level_flavor(h: int) -> OrderFlavor:
    return OrderFlavor("level", h)


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
    return OrderFlavor("interp", h, switched)


def _flavor(value: Union[str, int, OrderFlavor]) -> OrderFlavor:
    if isinstance(value, OrderFlavor):
        return value
    if value == "standard":
        return STANDARD
    if isinstance(value, int):
        return level_flavor(value)
    raise ValueError(f"cannot interpret flavor {value!r}")


def _case_for(root: tuple[int, int], flavor: OrderFlavor) -> tuple[int, int]:
    """Ground color and sign of one string under a flavor."""
    k, l = root
    if flavor.kind == "standard":
        return l - 1, 1
    h = flavor.h
    if flavor.kind == "interp" and root in flavor.switched:
        h = h - 1
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


def _counts_json(counts: tuple) -> list:
    return [[[list(root), c] for root, c in slot] for slot in counts]


def index_counts(index, basis: Optional[PBWBasis] = None) -> tuple[SlotCounts, ...]:
    """Canonical per-slot root-count form of a basis multi-index.

    Each slot may be given as a mapping ``root -> count`` or as an exponent
    tuple read against ``basis``.
    """
    return tuple(_slot_counts(entry, basis) for entry in index)


def color_counts(index, n_rank: Optional[int] = None) -> tuple[int, ...]:
    """Number of variables of each color used by an index."""
    index = index_counts(index)
    rank = n_rank or _infer_rank(index)
    counts = [0] * (rank - 1)
    for slot in index:
        for (k, l), c in slot:
            for p in range(k, l):
                counts[p - 1] += c
    return tuple(counts)


def color_groups(counts: Sequence[int]) -> list[list[str]]:
    """Same-color symbol groups with at least two members (for averaging)."""
    return [
        [t_name(k, d) for d in range(1, m + 1)]
        for k, m in enumerate(counts, start=1)
        if m >= 2
    ]


def _infer_rank(index) -> int:
    top = 2
    for slot in index:
        for (k, l), _ in slot:
            top = max(top, l)
    return top


def t_name(k: int, d: int) -> str:
    return f"t:{k}:{d}"


def t_symbol(k: int, d: int) -> RationalFunctionExpr:
    return symbol(t_name(k, d))


# ---------------------------------------------------------------------------
# Strings and forests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    ground_name: str

    def _var(self, color: int) -> RationalFunctionExpr:
        k = self.root[0]
        return t_symbol(*self.variables[color - k])

    def function(self) -> RationalFunctionExpr:
        k, l = self.root
        value = RF_ONE if self.sign > 0 else rational(-1)
        for p in range(k, l - 1):
            value = value / (self._var(p) - self._var(p + 1))
        return value / (self._var(self.ground_color) - self.ground)

    def with_ground(self, ground: RationalFunctionExpr, name: str) -> "StringGraph":
        return StringGraph(
            self.root,
            self.slot,
            self.copy,
            self.ground_color,
            self.sign,
            self.variables,
            ground,
            name,
        )

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
        out.append((t_name(*self.variables[self.ground_color - k]), self.ground_name))
        return out

    def edge_product(self) -> RationalFunctionExpr:
        """Product of ``1/(tail - head)`` over the oriented edges."""
        value = RF_ONE
        for tail, head in self.edges():
            head_value = self.ground if head == self.ground_name else symbol(head)
            value = value / (symbol(tail) - head_value)
        return value

    def to_json(self) -> dict:
        return {
            "root": list(self.root),
            "slot": self.slot,
            "copy": self.copy,
            "ground": self.ground_name,
            "ground_color": self.ground_color,
            "sign": self.sign,
            "variables": [t_name(*v) for v in self.variables],
            "edges": [list(e) for e in self.edges()],
        }


@dataclass(frozen=True)
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
                    "ground": group[0].ground_name,
                    "strings": [s.to_json() for s in group],
                }
                for slot, group in sorted(self.trees().items())
            ],
        }


def _default_grounds(n_slots: int) -> tuple[RationalFunctionExpr, ...]:
    return z_symbols(n_slots)


def _ground_label(ground: RationalFunctionExpr, slot: int) -> str:
    if ground.is_zero():
        return "0"
    return str(ground)


def forest_of_index(
    index,
    flavor: Union[str, int, OrderFlavor] = "standard",
    *,
    basis: Optional[PBWBasis] = None,
    n_rank: Optional[int] = None,
    grounds: Optional[Sequence[RationalFunctionExpr]] = None,
) -> Forest:
    """Strings of one index with canonically assigned variable copies."""
    flav = _flavor(flavor)
    counts = index_counts(index, basis)
    rank = n_rank or (basis.n_rank if basis is not None else _infer_rank(counts))
    if flav.h is not None and not 1 <= flav.h <= rank - 1:
        raise OutOfRange(f"h must be in 1..{rank - 1}, got {flav.h}")
    if grounds is None:
        grounds = _default_grounds(len(counts))
    if len(grounds) != len(counts):
        raise ValueError("need one ground per slot")
    std_pos = standard_basis(rank).position
    next_copy = [1] * rank
    strings: list[StringGraph] = []
    for j, slot in enumerate(counts, start=1):
        ground = grounds[j - 1]
        label = _ground_label(ground, j)
        for root, count in sorted(slot, key=lambda rc: std_pos[rc[0]]):
            k, l = root
            g, sign = _case_for(root, flav)
            for q in range(1, count + 1):
                variables = []
                for p in range(k, l):
                    variables.append((p, next_copy[p - 1]))
                    next_copy[p - 1] += 1
                strings.append(
                    StringGraph(root, j, q, g, sign, tuple(variables), ground, label)
                )
    return Forest(rank, flav, tuple(strings))


def phi_of_index(
    index,
    flavor: Union[str, int, OrderFlavor] = "standard",
    *,
    basis: Optional[PBWBasis] = None,
    n_rank: Optional[int] = None,
    grounds: Optional[Sequence[RationalFunctionExpr]] = None,
) -> RationalFunctionExpr:
    """The product of grounded-string functions attached to one index."""
    return forest_of_index(
        index, flavor, basis=basis, n_rank=n_rank, grounds=grounds
    ).function()


# ---------------------------------------------------------------------------
# Function-weighted basis sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhiVector:
    """Formal sum of basis vectors weighted by their index functions.

    ``terms`` pairs each multi-index of the space (exponents against the
    flavor's normal order) with its coefficient function.
    """

    space: TensorWeightSpace
    flavor: OrderFlavor
    basis: PBWBasis
    terms: tuple[tuple[tuple, RationalFunctionExpr], ...]

    def coeff(self, index) -> RationalFunctionExpr:
        want = index_counts(index, self.basis)
        for idx, value in self.terms:
            if index_counts(idx, self.basis) == want:
                return value
        return RF_ZERO


def _flavor_basis(rank: int, flavor: OrderFlavor) -> PBWBasis:
    if flavor.kind == "standard":
        return standard_basis(rank)
    if flavor.kind == "level":
        return special_basis(rank, flavor.h)
    raise ValueError("interpolating flavors have no single attached basis")


def phi_vector(
    space: TensorWeightSpace,
    flavor: Union[str, int, OrderFlavor] = "standard",
    *,
    grounds: Optional[Sequence[RationalFunctionExpr]] = None,
) -> PhiVector:
    """Coefficient functions of every basis index of a weight space."""
    flav = _flavor(flavor)
    rank = space.pbw_basis.n_rank
    basis = _flavor_basis(rank, flav)
    if grounds is None:
        grounds = _default_grounds(len(space.factors))
    terms = []
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        exps = tuple(
            basis.exps_from_roots({root: c for root, c in slot}) for slot in counts
        )
        value = phi_of_index(counts, flav, n_rank=rank, grounds=grounds)
        terms.append((exps, value))
    return PhiVector(space, flav, basis, tuple(terms))


# ---------------------------------------------------------------------------
# Order invariance
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _expand_in_standard(basis: PBWBasis, exps: tuple) -> dict:
    """Coefficients of one flavored basis monomial on the standard basis.

    The monomial is straightened in the standard order; the dict is shared
    by every call with the same arguments: never mutate it.
    """
    engine = straightener(standard_basis(basis.n_rank))
    return engine.apply_word(monomial_word(basis, exps))


@dataclass(frozen=True)
class OrderInvarianceReport:
    h: int
    dim: int
    raw_equal: bool
    symmetrized_equal: bool
    mismatches: tuple[tuple, ...]
    seconds: float

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "dim": self.dim,
            "raw_equal": self.raw_equal,
            "symmetrized_equal": self.symmetrized_equal,
            "mismatches": [list(map(list, m)) for m in self.mismatches],
            "seconds": round(self.seconds, 3),
        }


def verify_order_invariance(
    space: TensorWeightSpace,
    h: int,
    *,
    grounds: Optional[Sequence[RationalFunctionExpr]] = None,
) -> OrderInvarianceReport:
    """Compare the level-``h`` weighted sum with the standard one.

    The level-``h`` side is re-expressed on the standard monomial basis slot
    by slot; coefficient functions must then agree index by index.  Both the
    raw verdict (canonical variable copies) and the verdict after averaging
    over same-color copies are reported.
    """
    start = time.monotonic()
    rank = space.pbw_basis.n_rank
    flav = level_flavor(h)
    basis_h = special_basis(rank, h)
    if grounds is None:
        grounds = _default_grounds(len(space.factors))
    groups = color_groups(space.nu0)

    standard_side: dict[tuple, RationalFunctionExpr] = {}
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        std = tuple(
            standard_basis(rank).exps_from_roots(dict(slot)) for slot in counts
        )
        standard_side[std] = phi_of_index(counts, STANDARD, n_rank=rank, grounds=grounds)

    level_side: dict[tuple, RationalFunctionExpr] = {}
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        value = phi_of_index(counts, flav, n_rank=rank, grounds=grounds)
        slot_expansions = [
            _expand_in_standard(basis_h, basis_h.exps_from_roots(dict(slot)))
            for slot in counts
        ]
        for combo in itertools.product(*(e.items() for e in slot_expansions)):
            coeff = value
            for _, c in combo:
                coeff = coeff * c
            key = tuple(e for e, _ in combo)
            level_side[key] = level_side.get(key, RF_ZERO) + coeff

    raw = True
    mismatches = []
    for key in set(standard_side) | set(level_side):
        delta = standard_side.get(key, RF_ZERO) - level_side.get(key, RF_ZERO)
        if not delta.is_zero():
            raw = False
            if groups and rf_symmetrize(delta, groups).is_zero():
                continue
            mismatches.append(key)
    symmetrized = not mismatches
    return OrderInvarianceReport(
        h, space.dim, raw, symmetrized, tuple(mismatches), time.monotonic() - start
    )


# ---------------------------------------------------------------------------
# Binomial string-exchange identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        return phi_of_index([slot], flav, n_rank=rank, grounds=ground)

    lhs = RF_ZERO
    for r in range(c + 1):
        sign = -1 if (c - r) % 2 else 1
        coeff = rational(sign * math.comb(c, r))
        lhs = lhs + coeff * build(a + r, b + r, c - r, level_flavor(h))
    rhs = build(a, b, c, OrderFlavor("interp", h, frozenset([pair])))

    delta = lhs - rhs
    raw = delta.is_zero()
    if raw:
        symmetrized = True
    else:
        counts = color_counts([{(h, l): a + c, (k, h): b + c}], n_rank=rank)
        groups = color_groups(counts)
        symmetrized = rf_symmetrize(delta, groups).is_zero() if groups else False
    return BinomialClaimReport(a, b, c, pair, h, raw, symmetrized)


# ---------------------------------------------------------------------------
# Weight-function exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
    *,
    m_counts: Optional[Sequence[int]] = None,
    include_z_powers: bool = True,
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
    alphas = {k: alpha_vec(rank, k) for k in range(1, rank)}
    if pairings is None:
        pairings = lambda_pairing_symbols(rank)
    lam = weight_from_pairings(rank, tuple(pairings))
    nu = space.total_highest_weight() - nu_vec(rank, space.nu0)
    half = rational(Fraction(1, 2))
    minus_one = rational(-1)

    z_pair = {
        (i, j): hws[i - 1].dot(hws[j - 1])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    t_z = {
        (k, j): hws[j - 1].dot(alphas[k]) * minus_one
        for k in range(1, rank)
        for j in range(1, n + 1)
    }
    t_t = {}
    for k in range(1, rank):
        t_t[(k, k)] = rational(2)
        if k + 1 < rank:
            t_t[(k, k + 1)] = minus_one
    base = lam - rho_vec(rank) - nu.scale(half)
    t_pow = tuple(base.dot(alphas[k]) * minus_one for k in range(1, rank))
    if include_z_powers:
        z_pow = tuple(
            hw.dot(lam - nu.scale(half) + hw.scale(half)) for hw in hws
        )
    else:
        z_pow = tuple(RF_ZERO for _ in hws)
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
            value = value * (s.function() - s.with_ground(RF_ZERO, "0").function())
        else:
            value = value * s.function()
    return value


@dataclass(frozen=True, eq=False)
class ZShiftTerm:
    index: tuple
    z_drops: tuple[int, ...]
    expanded: RationalFunctionExpr
    verified: bool


@dataclass(frozen=True, eq=False)
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


def z_shift_factorization(
    space: TensorWeightSpace,
    h: int,
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> ZShiftFactorization:
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
    if pairings is None:
        pairings = lambda_pairing_symbols(rank)
    n = len(space.factors)
    grounds = _default_grounds(n)
    m_h = space.nu0[h - 1]
    terms = []
    all_ok = True
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        forest = forest_of_index(counts, level_flavor(h), n_rank=rank, grounds=grounds)
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
    omega = omega_vec(rank, h)
    formal = tuple(f.hw.dot(omega) for f in space.factors)
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
    flav = _flavor(flavor)
    rank = space.pbw_basis.n_rank
    n = len(space.factors)
    grounds = _default_grounds(n)
    for multi in space.basis:
        counts = index_counts(multi, space.pbw_basis)
        plain = phi_of_index(counts, flav, n_rank=rank, grounds=grounds)
        padded = phi_of_index(
            counts + ((),), flav, n_rank=rank, grounds=grounds + (RF_ZERO,)
        )
        if not (plain - padded).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Straddling-removal expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    grounds = _default_grounds(n)
    counts = index_counts(index, space.pbw_basis)
    forest = forest_of_index(counts, level_flavor(h), n_rank=rank, grounds=grounds)
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
        value = phi_of_index(
            slots + [extra],
            level_flavor(h),
            n_rank=rank,
            grounds=grounds + (RF_ZERO,),
        )
        rhs = rhs + coeff * value
        n_terms += 1

    delta = lhs - rhs
    raw = delta.is_zero()
    if raw:
        symmetrized = True
    else:
        groups = color_groups(color_counts(counts, n_rank=rank))
        symmetrized = rf_symmetrize(delta, groups).is_zero() if groups else False
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
    out: dict[tuple, RationalFunctionExpr] = {}

    def add(new_counts, coeff):
        if coeff.is_zero():
            return
        key = tuple(new_counts)
        out[key] = out.get(key, RF_ZERO) + coeff

    def adjust(slot: SlotCounts, deltas: Mapping[tuple[int, int], int]) -> SlotCounts:
        d = dict(slot)
        for root, step in deltas.items():
            d[root] = d.get(root, 0) + step
            if d[root] < 0:
                raise ValueError("negative string count")
            if d[root] == 0:
                del d[root]
        return tuple(sorted(d.items()))

    for j, slot in enumerate(counts):
        here = dict(slot)
        for p in range(h + 2, n_rank + 1):
            c = here.get((h + 1, p), 0)
            if c:
                new = list(counts)
                new[j] = adjust(slot, {(h, p): 1, (h + 1, p): -1})
                add(new, rational(c))
        for p in range(1, h):
            c = here.get((p, h), 0)
            if c:
                new = list(counts)
                new[j] = adjust(slot, {(p, h + 1): 1, (p, h): -1})
                add(new, rational(-c))
        scalar = slot_alpha_pairings[j][h - 1]
        for p in range(1, h):
            scalar = scalar + rational(here.get((p, h), 0))
        for p in range(1, h + 1):
            scalar = scalar - rational(here.get((p, h + 1), 0))
        new = list(counts)
        new[j] = adjust(slot, {(h, h + 1): 1})
        add(new, scalar)
    return sorted(out.items())


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
    out: dict[tuple[int, ...], RationalFunctionExpr] = {}
    for ka, ca in a.items():
        seen = set(ka)
        for kb, cb in b.items():
            if seen & set(kb):
                continue
            key, sign = _sorted_key_sign(ka + kb)
            coeff = ca * cb
            if sign < 0:
                coeff = coeff * rational(-1)
            prev = out.get(key)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return out


@dataclass(frozen=True, eq=False)
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


def switch_cor_witness(
    space: TensorWeightSpace,
    index,
    h: int,
    pairings: Optional[Sequence[RationalFunctionExpr]] = None,
) -> SwitchCorReport:
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
    if pairings is None:
        pairings = lambda_pairing_symbols(rank)
    counts = index_counts(index)
    if len(counts) == n:
        counts = counts + ((),)
    if len(counts) != n + 1:
        raise ValueError("index must cover the slots plus at most one extra")
    grounds = _default_grounds(n) + (RF_ZERO,)

    base_counts = color_counts(counts, n_rank=rank)
    enlarged = tuple(
        m + 1 if k == h else m for k, m in enumerate(base_counts, start=1)
    )
    new_var = t_name(h, base_counts[h - 1] + 1)
    me = master_exponents(
        space, pairings, m_counts=enlarged, include_z_powers=False
    )

    var_ids = {}
    for k, m in enumerate(enlarged, start=1):
        for d in range(1, m + 1):
            var_ids[t_name(k, d)] = len(var_ids)
    volume_key = tuple(range(len(var_ids)))

    forest = forest_of_index(counts, STANDARD, n_rank=rank, grounds=grounds)
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

    nu_pairs = space_weight_pairings(space)
    half = rational(Fraction(1, 2))
    slot_pairs = [
        tuple(f.hw.dot(alpha_vec(rank, p)) for p in range(1, rank))
        for f in space.factors
    ]
    aux = tuple(
        pairings[p - 1] - RF_ONE - nu_pairs[p - 1] * half for p in range(1, rank)
    )
    slot_pairs.append(aux)

    dual_image = RF_ZERO
    coeffs = raising_dual_coefficients(counts, h, slot_pairs, rank)
    for new_index, coeff in coeffs:
        dual_image = dual_image + coeff * phi_of_index(
            new_index, STANDARD, n_rank=rank, grounds=grounds
        )

    dual_raw, dual_sign = False, 0
    if (dual_image + target).is_zero():
        dual_raw, dual_sign = True, -1
    elif (dual_image - target).is_zero():
        dual_raw, dual_sign = True, 1
    if dual_raw:
        dual_sym = True
    else:
        groups = color_groups(enlarged)
        dual_sym = False
        if groups:
            if rf_symmetrize(dual_image + target, groups).is_zero():
                dual_sym, dual_sign = True, -1
            elif rf_symmetrize(dual_image - target, groups).is_zero():
                dual_sym, dual_sign = True, 1
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
