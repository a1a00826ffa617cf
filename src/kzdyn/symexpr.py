"""Exact multivariate rational-function arithmetic over the rationals.

Representation
--------------
A polynomial (`Poly`) is ``content * sum(c_k x^k)``: a rational ``content``
that carries the sign, and ``terms``, a sparse map from packed exponent
keys ``k`` to nonzero ``int`` coefficients ``c_k`` whose gcd is 1 and whose
leading one (at the largest key) is positive.  ``vars`` is the name-sorted
tuple of the symbol names that actually occur.  A key over n = ``len(vars)``
variables is an integer of n + 1 fields of `FIELD_BITS` bits: the top field
holds the total degree, and below it each variable's exponent in ``vars``
order.
Integer order on keys is therefore graded-lexicographic order, the leading
term is ``max(terms)``, and a monomial product is one integer addition.
Every exponent is at most the total degree, so no field overflows as long
as the total degree stays at most `MAX_DEGREE`; products and constructors
raise `OverflowError` past it.  Scaling by a constant touches only the
content, and a product needs no content gcd (Gauss's lemma).  The zero
polynomial has no terms, content 0 and an empty variable set.

A rational function (`RationalFunctionExpr`) is a pair ``num/den`` of
polynomials kept in canonical form:

* ``gcd(num, den) = 1``;
* ``den`` has coprime integer coefficients and a positive leading
  coefficient in graded-lexicographic order (the scalar is folded into
  ``num``);
* zero is represented as ``0/1``.

Two expressions are equal as functions if and only if their canonical forms
are identical, so ``==`` is exact semantic equality.  An expression also
keeps ``factors``, a coprime base of its denominator: pairwise coprime
normalized non-constant polynomials f with multiplicities m, whose powers
f^m multiply to ``den``.  The base is not unique and takes no part in
``==``, hashing or the text form.  A factor of total degree 1 (linear) is
irreducible; any other may be composite.

Sums and products combine the bases instead of taking gcds of whole
denominators (the partially factored representation of Lewis' *Fermat*).
Over a common base, lcm(b, d) takes each factor at its larger multiplicity
and a/b + c/d = t/lcm.  A factor of unequal multiplicities divides exactly
one of the two terms of t and shares no irreducible factor with the other,
so it is coprime to t (Henrici; Knuth, TAOCP vol. 2, 4.5.1): t is divided
only by the factors of equal multiplicity.  In a product each numerator is
divided by the other operand's factors.  A linear factor f is tried by a
residue first: every variable but one is set to its `_image_point` and f =
0 mod P = `CERT_PRIME` is solved for the last.  The primitive part of a
multiple of f vanishes there (Gauss's lemma), so a nonzero value proves that
f does not divide; a zero value is settled by exact division.  A nonlinear
factor f of multiplicity m is cancelled by ``gcd(numerator, f^m)`` through
the gcd seam.  A denominator that arrives whole (`make`, `reciprocal`) gets
one factor per variable of its monomial part and the rest as one factor.
Two bases are merged by factor refinement (Bach, Driscoll and Shallit, J.
Algorithms 15 (1993)): two factors with a common factor g are replaced by g
and the two cofactors, multiplicities added, until the base is coprime.
Distinct linear factors, and two factors of one base, need no test; a
linear factor is tried against a nonlinear one by trial division, and two
nonlinear ones go through the gcd seam.  Substitution maps the factors one
by one, so the image of a linear factor stays one factor.

Multivariate gcds and exact divisions go through the two seams
`poly_gcd_cofactors` / `poly_divexact`.  The gcd seam answers directly only
when the result is forced: for a zero or constant operand, for equal
operands, and for operands with no common variable (the gcd is 1).  Every
other pair is proven by one argument: the primitive parts are unpacked to
integer polynomials keyed by exponent tuples and their gcd is computed by
the heuristic gcd of Char, Geddes and Gonnet (GCDHEU, J. Symbolic Comput. 7
(1989)), in `_heu_gcd`: one variable is set to an integer point xi, the gcd
of the images is computed recursively down to an integer gcd, each level is
rebuilt from balanced base-xi digits, and a candidate is kept only when it
divides both operands exactly.  Every point at every level is at least
2 min(|f|, |g|) + 2 for the max norms of that level's operands, where a
dividing candidate is the gcd (the CGG bound; the argument is in
`_heu_gcd`), so every answer is proven.  `HeuristicGcdFailed` is raised
when no point gives one.  Exact division is sparse long division over Z by
the primitive divisor (Gauss's lemma) and raises `InexactDivision` when the
divisor does not divide.

A symbol is its name: variables are keyed and ordered by name alone, so the
canonical form and the text of an expression do not depend on which symbols
were used before, or in which order.  Names follow ``[A-Za-z][A-Za-z0-9:]*``,
checked where they enter (`symbol`, `Poly.from_symbol`, `Poly.build`,
`parse`, `rf_symmetrize`).  By convention the package uses ``l1, l2, ...`` for weight
coordinates, ``kap`` for the difference step, ``z:j`` for evaluation points,
``t:k:d`` for integration variables (color ``k``, copy ``d``) and ``L:j:k``
for pairings of the j-th factor weight with the k-th simple root.

Text form round-trips exactly: ``parse(str(e)) == e`` and
``str(parse(str(e))) == str(e)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterator, Mapping, Sequence, Union

__all__ = [
    "DivisionByZero",
    "HeuristicGcdFailed",
    "InexactDivision",
    "ParseError",
    "Poly",
    "RationalFunctionExpr",
    "RFE",
    "RF_ZERO",
    "RF_ONE",
    "symbol",
    "rational",
    "parse",
    "poly_divexact",
    "rf_substitute",
    "rf_symmetrize",
    "rf_partial",
]


class DivisionByZero(ZeroDivisionError):
    """Division by an expression that is identically zero."""


class ParseError(ValueError):
    """Malformed expression text."""


class InexactDivision(ArithmeticError):
    """Exact polynomial division by a polynomial that does not divide."""


_SYMBOL_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9:]*\Z")


def _check_name(name: str) -> str:
    if not _SYMBOL_NAME_RE.match(name):
        raise ValueError(f"invalid symbol name: {name!r}")
    return name


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Bits per field of a packed exponent key: one byte, so that keys convert
# to and from exponent vectors through bytes.  The total degree, and so
# every exponent, is at most MAX_DEGREE.
FIELD_BITS = 8
MAX_DEGREE = (1 << FIELD_BITS) - 1


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(f"total degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")


def _pack(exps: Sequence[int]) -> int:
    """The packed key of an exponent vector."""
    degree = sum(exps)
    _check_degree(degree)
    return int.from_bytes(bytes((degree, *exps)), "big")


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of a key over n variables."""
    return tuple(key.to_bytes(n + 1, "big")[1:])


def _shift(p: "Poly", name: str) -> int:
    """The bit offset of the exponent field of variable ``name`` in p's keys."""
    return FIELD_BITS * (len(p.vars) - 1 - p.vars.index(name))


class Poly:
    """Immutable sparse multivariate polynomial over Q.

    Instances must be built through the class methods or arithmetic; the
    constructor trusts its arguments (the invariants of the module
    docstring).  ``terms`` is never mutated after construction: scaling
    shares it, and the memos of this module hand the same instances to
    every caller.
    """

    __slots__ = ("vars", "content", "terms", "_hash")

    vars: tuple[str, ...]
    content: Fraction
    terms: dict[int, int]

    def __init__(self, vars: tuple[str, ...], content: Fraction, terms: dict[int, int]):
        self.vars = vars
        self.content = content
        self.terms = terms
        self._hash: int | None = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _POLY_ZERO

    @staticmethod
    def one() -> "Poly":
        return _POLY_ONE

    @staticmethod
    def const(value: Union[int, Fraction]) -> "Poly":
        c = value if isinstance(value, Fraction) else Fraction(value)
        if not c:
            return _POLY_ZERO
        return Poly((), c, _POLY_ONE.terms)

    @staticmethod
    def from_symbol(name: str) -> "Poly":
        return _variable(_check_name(name))

    @staticmethod
    def build(vars: Sequence[str], terms: Mapping[tuple[int, ...], Fraction]) -> "Poly":
        """Build from untrusted ``{exponent tuple: coefficient}`` over
        ``vars``, valid symbol names in strictly increasing order."""
        vars = tuple(_check_name(name) for name in vars)
        if any(a >= b for a, b in zip(vars, vars[1:])):
            raise ValueError(f"variables must be distinct and name-sorted: {vars!r}")
        for e in terms:
            if len(e) != len(vars) or any(x < 0 for x in e):
                raise ValueError(f"exponent {e!r} needs {len(vars)} non-negative entries")
        terms = {e: Fraction(c) for e, c in terms.items() if c}
        den = math.lcm(*(c.denominator for c in terms.values()))
        ints = ((e, c.numerator * (den // c.denominator)) for e, c in terms.items())
        return _from_tuples(vars, Fraction(1, den), ints)

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """``(exponents, coefficient)`` per term, in descending graded-lex order."""
        n, content, terms = len(self.vars), self.content, self.terms
        for k in sorted(terms, reverse=True):
            yield _unpack(k, n), content * terms[k]

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def is_one(self) -> bool:
        return not self.vars and self.content == 1

    def const_value(self) -> Fraction:
        if self.vars:
            raise ValueError("not a constant polynomial")
        return self.content

    def total_degree(self) -> int:
        return max(self.terms) >> FIELD_BITS * len(self.vars) if self.terms else 0

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        s = _shift(self, name)
        return max(k >> s & MAX_DEGREE for k in self.terms)

    # -- hashing / equality --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.vars, self.content, self.terms) == (other.vars, other.content, other.terms)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, self.content, frozenset(self.terms.items())))
            self._hash = h
        return h

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "Poly":
        if not self.terms:
            return self
        return Poly(self.vars, -self.content, self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        vars, a, b = _align(self, other)
        cp, cq = self.content, other.content
        # cp = content * ma and cq = content * mb with coprime integers ma, mb
        num = math.gcd(cp.numerator, cq.numerator)
        den = math.lcm(cp.denominator, cq.denominator)
        ma = cp.numerator // num * (den // cp.denominator)
        mb = cq.numerator // num * (den // cq.denominator)
        out = dict(a) if ma == 1 else {k: ma * c for k, c in a.items()}
        for k, c in b.items():
            if k in out:
                out[k] += mb * c
            else:
                out[k] = mb * c
        return _make(vars, Fraction(num, den), out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _POLY_ZERO
        if not self.vars:
            return other.scale(self.content)
        if not other.vars:
            return self.scale(other.content)
        vars, a, b = _align(self, other)
        top = FIELD_BITS * len(vars)
        _check_degree((max(a) >> top) + (max(b) >> top))
        out: dict[int, int] = {}
        b_items = list(b.items())
        for k1, c1 in a.items():
            for k2, c2 in b_items:
                k = k1 + k2
                if k in out:
                    out[k] += c1 * c2
                else:
                    out[k] = c1 * c2
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        # primitive with a positive leading coefficient, by Gauss's lemma
        return Poly(vars, self.content * other.content, out)

    def scale(self, c: Fraction) -> "Poly":
        if not c or not self.terms:
            return _POLY_ZERO
        if c == 1:
            return self
        return Poly(self.vars, self.content * c, self.terms)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- calculus / evaluation -------------------------------------------------

    def diff(self, name: str) -> "Poly":
        if name not in self.vars:
            return _POLY_ZERO
        s = _shift(self, name)
        step = (1 << s) + (1 << FIELD_BITS * len(self.vars))  # x and the degree
        out = {}
        for k, c in self.terms.items():
            e = k >> s & MAX_DEGREE
            if e:
                out[k - step] = c * e
        return _make(self.vars, self.content, out, shrink=True)

    def eval(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = _ZERO
        values = [assignment[v] for v in self.vars]
        for e, term in self.items():
            for val, ei in zip(values, e):
                if ei:
                    term *= val ** ei
            total += term
        return total

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        """Replace variables by variables (``{old: new}``); merges collisions."""
        if not self.terms or not any(v in mapping for v in self.vars):
            return self
        new_vars = tuple(sorted({mapping.get(v, v) for v in self.vars}))
        pos = [new_vars.index(mapping.get(v, v)) for v in self.vars]
        n = len(self.vars)

        def moved(k: int) -> list[int]:
            ne = [0] * len(new_vars)
            for i, ei in zip(pos, _unpack(k, n)):
                ne[i] += ei
            return ne

        return _from_tuples(new_vars, self.content, ((moved(k), c) for k, c in self.terms.items()))

    def __repr__(self) -> str:
        return f"Poly({_poly_str(self)})"


def _variable(name: str) -> Poly:
    """The polynomial ``name``, for a name already checked (one in some ``vars``)."""
    return Poly((name,), _ONE, {1 << FIELD_BITS | 1: 1})


def _make(vars: tuple[str, ...], content: Fraction, terms: dict[int, int], shrink=False) -> Poly:
    """The canonical Poly ``content * sum(c x^k)`` for any int ``terms`` over ``vars``.

    Drops zero coefficients and, when some were dropped or ``shrink`` is set,
    unused variables; then moves the integer content and the sign of the
    leading coefficient into ``content``.
    """
    if not all(terms.values()):
        terms = {k: c for k, c in terms.items() if c}
        shrink = True
    if not terms:
        return _POLY_ZERO
    if shrink:
        vars, terms = _shrink(vars, terms)
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    if g != 1:
        terms = {k: c // g for k, c in terms.items()}
        content = content * g
    return Poly(vars, content, terms)


def _from_tuples(vars: tuple[str, ...], content: Fraction, pairs) -> Poly:
    """`_make` from ``(exponent vector, int coefficient)`` pairs; merges repeats."""
    out: dict[int, int] = {}
    for e, c in pairs:
        k = _pack(e)
        out[k] = out.get(k, 0) + c
    return _make(vars, content, out, shrink=True)


def _shrink(vars: tuple[str, ...], terms: dict[int, int]):
    """Drop the variables whose exponent is zero in every key."""
    used = reduce(operator.or_, terms)
    n = len(vars)
    keep = [i for i in range(n) if used >> FIELD_BITS * (n - 1 - i) & MAX_DEGREE]
    if len(keep) == n:
        return vars, terms
    kept = tuple(vars[i] for i in keep)
    moves = _moves(kept, vars)  # the widening that this undoes
    return kept, {sum(k >> s & m for m, s in moves): c for k, c in terms.items()}


# fusion --n 3 --nu 2,2 --depth 2 and compatibility --n 3 --nu 2,1, run in
# one process, align 831 to 840 distinct pairs of variable sets (hash seeds
# 0-2: the seed orders sets of factors, and so the order of some products)
@lru_cache(maxsize=4096)
def _moves(old: tuple[str, ...], new: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """``(mask, shift)`` blocks taking a key over ``old`` to one over ``new``.

    ``new`` contains ``old``; the new key is the sum of ``(key & mask) <<
    shift``.  Fields that stay adjacent move together, the degree field
    first, so most alignments need one or two blocks.
    """
    n, N = len(old), len(new)
    blocks: list[list] = []  # [mask, shift] from the top field down
    for j, v in enumerate((None,) + old):
        shift = FIELD_BITS * (N - n + j - (new.index(v) + 1 if j else 0))
        low = FIELD_BITS * (n - j)
        if blocks and blocks[-1][1] == shift:
            blocks[-1][0] |= MAX_DEGREE << low
        else:
            blocks.append([(MAX_DEGREE << low) if j else -(1 << low), shift])
    return tuple(map(tuple, blocks))


def _widen(terms: dict[int, int], old: tuple[str, ...], new: tuple[str, ...]) -> dict[int, int]:
    """``terms`` re-keyed from variables ``old`` to the superset ``new``."""
    if old == new:
        return terms
    moves = _moves(old, new)
    if len(moves) == 1:
        ((_, s),) = moves
        return {k << s: c for k, c in terms.items()}
    if len(moves) == 2:
        (m1, s1), (m2, s2) = moves
        return {(k & m1) << s1 | (k & m2) << s2: c for k, c in terms.items()}
    return {sum((k & m) << s for m, s in moves): c for k, c in terms.items()}


def _align(p: Poly, q: Poly):
    if p.vars == q.vars:
        return p.vars, p.terms, q.terms
    vars = tuple(sorted(set(p.vars).union(q.vars)))
    return vars, _widen(p.terms, p.vars, vars), _widen(q.terms, q.vars, vars)


def _tuples(p: Poly, vars: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """The primitive part of p keyed by exponent tuples over ``vars`` ⊇ p.vars."""
    n = len(vars)
    return {_unpack(k, n): c for k, c in _widen(p.terms, p.vars, vars).items()}


_POLY_ZERO = Poly((), _ZERO, {})
_POLY_ONE = Poly((), _ONE, {0: 1})


# ---------------------------------------------------------------------------
# GCD / exact division seam (heuristic gcd and long division over Z)
# ---------------------------------------------------------------------------

# Evaluation points the heuristic gcd tries per level (the value of sympy's
# HEU_GCD_MAX).
GCDHEU_POINTS = 6


class HeuristicGcdFailed(ArithmeticError):
    """The heuristic gcd found no proven gcd at any of its evaluation points."""


def _normalize_poly(p: Poly) -> Poly:
    """Primitive integer coefficients, positive leading coefficient."""
    if p.is_zero() or p.content == 1:
        return p
    return Poly(p.vars, _ONE, p.terms) if p.vars else _POLY_ONE


def poly_gcd_cofactors(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Return ``(g, p/g, q/g)`` with g the normalized gcd.

    The gcd is primitive with integer coefficients and positive leading
    coefficient (``1`` for coprime inputs, including any nonzero constant
    input).
    """
    if p.is_zero() and q.is_zero():
        return _POLY_ZERO, _POLY_ONE, _POLY_ONE
    if p.is_zero():
        return _normalize_poly(q), _POLY_ZERO, Poly.const(q.content)
    if q.is_zero():
        return _normalize_poly(p), Poly.const(p.content), _POLY_ZERO
    if p.is_const() or q.is_const():
        return _POLY_ONE, p, q
    if p == q:
        c = Poly.const(p.content)
        return _normalize_poly(p), c, c
    if set(p.vars).isdisjoint(q.vars):
        # a common factor could only involve variables occurring in both
        return _POLY_ONE, p, q
    return _ring_gcd_cofactors(p, q)


# The prime of the residue screen for linear factors (`_divide_linear`):
# 2^31 - 1.
CERT_PRIME = 2**31 - 1


@lru_cache(maxsize=None)
def _image_point(name: str) -> int:
    """The fixed nonzero residue mod `CERT_PRIME` that symbol ``name`` takes,
    derived from the name by a fixed digest."""
    from hashlib import blake2b  # here, not at import: only the modular images need it

    digest = blake2b(name.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (CERT_PRIME - 1) + 1


# Entries of the weight memo: the images of one operand in several
# variables are asked for together.  Cap-scale compatibility (n = 3, nu =
# 2,1), in a fresh process with the image memo at 128 entries, looks weights
# up 7,715 times and computes them 4,214 times with 16 entries, 3,997 with
# 128, and 2,649 with no bound.
@lru_cache(maxsize=16)
def _weights(p: Poly) -> tuple[tuple[int, ...], list[int]] | None:
    """The keys of p and, per key, ``c prod_v r_v^e_v mod P`` for the term
    c x^e of p's primitive part and every variable v at its `_image_point`.

    None when the content's denominator is divisible by P, so that some
    coefficient of p has no residue.  (The keys are kept because an equal
    Poly may order its terms otherwise.)
    """
    prime, n = CERT_PRIME, len(p.vars)
    if not p.content.denominator % prime:
        return None
    top = max(p.terms) >> FIELD_BITS * n
    powers = [_ONES]  # for the total-degree field of a key
    for v in p.vars:
        r, row = _image_point(v), [1]
        for _ in range(top):
            row.append(row[-1] * r % prime)
        powers.append(row)
    get = list.__getitem__
    return tuple(p.terms), [
        c * math.prod(map(get, powers, k.to_bytes(n + 1, "big"))) % prime
        for k, c in p.terms.items()
    ]


_ONES = [1] * (MAX_DEGREE + 1)


# Entries of the image memo; 128 is the size of the memo of all of an
# operand's images that it replaces.  Cap-scale compatibility, in a fresh
# process with the weight memo at 16 entries, misses 9,932 of its 20,316
# lookups with 16 entries, 7,715 with 128, 6,552 with 512 and 5,407 with no
# bound.
@lru_cache(maxsize=128)
def _image(p: Poly, name: str) -> tuple[int, ...] | None:
    """The image of p for its variable x = ``name``.

    That is p's primitive part mod P with every variable v but x at its
    `_image_point` r_v and x at r_x t, as a little-endian coefficient
    tuple in t without trailing zeros.  Scaling t by the unit r_x changes no
    degree, and lets every term carry one weight (`_weights`); `_root` gives
    a linear factor's zero in the same t.  None as for `_weights`.
    Memoized, because one operand meets many linear factors.
    """
    weights = _weights(p)
    if weights is None:
        return None
    s = _shift(p, name)
    exps = [k >> s & MAX_DEGREE for k in weights[0]]
    image = [0] * (max(exps) + 1)
    for e, w in zip(exps, weights[1]):
        image[e] += w
    image = [c % CERT_PRIME for c in image]
    while image and not image[-1]:
        image.pop()
    return tuple(image)


def _ring_gcd_cofactors(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """`poly_gcd_cofactors` for non-forced operands.

    The pair is cleared of denominators and handed to `_heu_gcd`, whose
    answer the CGG bound proves to be the gcd; `HeuristicGcdFailed` is
    raised when it finds none.
    """
    vars = tuple(sorted(set(p.vars) | set(q.vars)))
    found = _heu_gcd(_tuples(p, vars), _tuples(q, vars))
    if found is None:
        raise HeuristicGcdFailed(f"no proven gcd after {GCDHEU_POINTS} points")
    h, cf, cg = found
    if len(h) == 1 and not any(next(iter(h))):
        return _POLY_ONE, p, q
    # h = u * g for the normalized gcd g and a unit u = g_poly.content
    g_poly = _from_tuples(vars, _ONE, h.items())
    u = g_poly.content
    pg = _from_tuples(vars, p.content * u, cf.items())
    qg = _from_tuples(vars, q.content * u, cg.items())
    return _normalize_poly(g_poly), pg, qg


# Integer polynomials below are dicts from exponent tuples (all of one
# length) to nonzero ints.


def _evaluate_first(f: dict, xi: int) -> dict:
    """f with its first variable set to the integer ``xi``."""
    powers = [1]
    for _ in range(max(e[0] for e in f)):
        powers.append(powers[-1] * xi)
    out: dict = {}
    for e, c in f.items():
        rest = e[1:]
        out[rest] = out.get(rest, 0) + c * powers[e[0]]
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, xi: int) -> dict:
    """Lift h to one more (first) variable x by balanced base-``xi`` digits.

    Each coefficient c becomes sum_i d_i x^i with c = sum_i d_i xi^i and every
    digit in (-xi/2, xi/2], so the result H satisfies H(xi) = h.
    """
    half = xi // 2
    out = {}
    for e, c in h.items():
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(i,) + e] = d
            c = (c - d) // xi
            i += 1
    return out


def _int_quotient(f: dict, h: dict) -> dict | None:
    """f / h when h divides f over Z, else None.

    Sparse long division from the lexicographically smallest term: if f = h s
    then min(f) = min(h) min(s) in any monomial order, and every step removes
    the smallest term of the remainder h (s - partial quotient).  The
    quotient's degree in each variable is deg f - deg h, which bounds the
    terms tried and makes a failing division stop.
    """
    if len(h) == 1:
        ((low, lc),) = h.items()
        out = {}
        for e, c in f.items():
            t = tuple(map(operator.sub, e, low))
            qc, rem = divmod(c, lc)
            if rem or min(t, default=0) < 0:
                return None
            out[t] = qc
        return out
    low = min(h)
    top = list(map(operator.sub, map(max, zip(*f)), map(max, zip(*h))))
    if min(top, default=0) < 0:
        return None
    lc = h[low]
    rest = [(e, c) for e, c in h.items() if e != low]
    remainder = dict(f)
    heap = list(remainder)
    heapq.heapify(heap)
    quotient = {}
    while heap:
        m = heapq.heappop(heap)
        c = remainder.pop(m, 0)
        if not c:
            continue
        t = tuple(map(operator.sub, m, low))
        qc, rem = divmod(c, lc)
        if rem or any(ti < 0 or ti > bi for ti, bi in zip(t, top)):
            return None
        quotient[t] = qc
        for e, hc in rest:
            mm = tuple(map(operator.add, t, e))
            v = remainder.get(mm)
            if v is None:
                remainder[mm] = -qc * hc
                heapq.heappush(heap, mm)
            else:
                v -= qc * hc
                if v:
                    remainder[mm] = v
                else:
                    del remainder[mm]
    return quotient


def _heu_gcd(f: dict, g: dict):
    """Heuristic gcd (GCDHEU) of nonzero integer polynomials f and g.

    Char, Geddes and Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
    based on integer GCD computation", J. Symbolic Comput. 7 (1989).  The
    first variable is set to an integer xi, the gcd gamma of the images is
    computed recursively (an integer gcd once no variable is left), and the
    candidate G with balanced base-xi digits of gamma, made primitive, is
    kept when it divides f and g exactly.

    Returns ``(h, f/h, g/h)`` with h the gcd over Z, or None after
    `GCDHEU_POINTS` points.  Every point is at least the CGG bound, xi >=
    2 min(|f|, |g|) + 2 (max norms, after the common content is removed),
    and by induction on the number of variables gamma is the gcd of the
    images.  Then pp(G), if it divides f and g, is their primitive gcd.
    Proof: the primitive gcd is g0 = pp(G) c with c over Z (Gauss).  Since
    g0(xi) divides gamma = cont(G) pp(G)(xi), the image c(xi) is an
    integer dividing cont(G), and |cont(G)| <= xi/2 because the coefficients
    of G are balanced digits.  If c involved any other variable, take the
    lex-largest monomial mu of those variables in c: the slice of c at mu
    (its coefficient, a polynomial in the first variable) vanishes at xi and
    divides the slice of f (say |f| is the smaller norm) at f's lex-largest
    monomial in those variables, but every root of that slice is below
    1 + |f| < xi in absolute value (Cauchy).  So c is univariate and divides
    a slice of f; if it were not constant, each root would again be below
    1 + |f| and |c(xi)| > (xi - 1 - |f|)^deg c >= xi/2.  So c is a constant
    dividing g0: c = +-1.
    """
    if () in f:
        a, b = f[()], g[()]
        h = math.gcd(a, b)
        return {(): h}, {(): a // h}, {(): b // h}
    content = math.gcd(math.gcd(*f.values()), math.gcd(*g.values()))
    if content != 1:
        f = {e: c // content for e, c in f.items()}
        g = {e: c // content for e, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 2
    big = bound + 27
    xi = max(
        bound,
        min(big, 99 * math.isqrt(big)),
        2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4,
    )
    for _ in range(GCDHEU_POINTS):
        ff = _evaluate_first(f, xi)
        gg = _evaluate_first(g, xi)
        sub = _heu_gcd(ff, gg) if ff and gg else None
        if sub is not None:
            h = _interpolate(sub[0], xi)
            unit = math.gcd(*h.values())
            if h[max(h)] < 0:
                unit = -unit
            h = {e: c // unit for e, c in h.items()}
            cf = _int_quotient(f, h)
            cg = _int_quotient(g, h) if cf is not None else None
            if cg is not None:
                if content != 1:
                    h = {e: c * content for e, c in h.items()}
                return h, cf, cg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def poly_divexact(p: Poly, q: Poly) -> Poly:
    """Exact quotient p/q; raises InexactDivision if q does not divide p.

    With p = c_p P and q = c_q Q for primitive integer P and Q, q divides p
    over Q exactly when Q divides P over Z (Gauss's lemma), so the division
    is integer long division (`_int_quotient`).
    """
    if q.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero():
        return _POLY_ZERO
    if q.is_const():
        return p.scale(1 / q.const_value())
    vars = tuple(sorted(set(p.vars) | set(q.vars)))
    quotient = _int_quotient(_tuples(p, vars), _tuples(q, vars))
    if quotient is None:
        raise InexactDivision("inexact polynomial division")
    return _from_tuples(vars, p.content / q.content, quotient.items())


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

Scalar = Union[int, Fraction]
ExprLike = Union["RationalFunctionExpr", Poly, int, Fraction]


class RationalFunctionExpr:
    """Canonical quotient of two `Poly` (see module docstring)."""

    __slots__ = ("num", "den", "factors", "_hash")

    num: Poly
    den: Poly
    factors: tuple[tuple[Poly, int], ...]

    def __init__(self, num: Poly, den: Poly, factors: tuple[tuple[Poly, int], ...] = ()):
        # Trusted constructor: (num, den) must already be canonical, and
        # ``factors`` a coprime base of den (see the module docstring).
        self.num = num
        self.den = den
        self.factors = factors
        self._hash: int | None = None

    # -- construction ---------------------------------------------------------

    @staticmethod
    def make(num: Poly, den: Poly) -> "RationalFunctionExpr":
        """Canonicalize an arbitrary num/den pair (full gcd reduction)."""
        if den.is_zero():
            raise DivisionByZero("denominator is identically zero")
        if num.is_zero():
            return RF_ZERO
        g, num, den = poly_gcd_cofactors(num, den)
        return _make_reduced(num, den)

    @staticmethod
    def from_const(value: Scalar) -> "RationalFunctionExpr":
        c = value if isinstance(value, Fraction) else Fraction(value)
        if not c:
            return RF_ZERO
        if c == 1:
            return RF_ONE
        return RationalFunctionExpr(Poly.const(c), _POLY_ONE)

    @staticmethod
    def from_symbol(name: str) -> "RationalFunctionExpr":
        return RationalFunctionExpr(Poly.from_symbol(name), _POLY_ONE)

    # -- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_one()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant expression")
        return self.num.const_value()

    def free_symbols(self) -> set[str]:
        return set(self.num.vars) | set(self.den.vars)

    # -- equality ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = RationalFunctionExpr.from_const(other)
        if not isinstance(other, RationalFunctionExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            self._hash = h
        return h

    # -- arithmetic ----------------------------------------------------------------

    def __neg__(self) -> "RationalFunctionExpr":
        if self.num.is_zero():
            return self
        return RationalFunctionExpr(-self.num, self.den, self.factors)

    def __add__(self, other: ExprLike) -> "RationalFunctionExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if not self.factors and not other.factors:
            num = self.num + other.num
            if num.is_zero():
                return RF_ZERO
            return RationalFunctionExpr(num, _POLY_ONE)
        # a/b + c/d = t/L with L = lcm(b, d): only a factor of equal
        # multiplicity in b and d can divide t (Henrici)
        base = _common_base(self.factors, other.factors)
        t = self.num * _power_product((f, k - m) for f, m, k in base if k > m)
        t = t + other.num * _power_product((f, m - k) for f, m, k in base if m > k)
        if t.is_zero():
            return RF_ZERO
        factors = []
        for f, m, k in base:
            if m == k:
                t, rest = _cancel(t, f, m)
                factors += rest
            else:
                factors.append((f, max(m, k)))
        return _from_factors(t, factors)

    def __radd__(self, other: ExprLike) -> "RationalFunctionExpr":
        return self.__add__(other)

    def __sub__(self, other: ExprLike) -> "RationalFunctionExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other: ExprLike) -> "RationalFunctionExpr":
        return (-self).__add__(other)

    def __mul__(self, other: ExprLike) -> "RationalFunctionExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        if not self.factors and not other.factors:
            return RationalFunctionExpr(self.num * other.num, _POLY_ONE)
        # each numerator is already coprime to its own denominator
        a, d = _cancel_all(self.num, other.factors)
        c, b = _cancel_all(other.num, self.factors)
        return _from_factors(a * c, [(f, m + k) for f, m, k in _common_base(b, d)])

    def __rmul__(self, other: ExprLike) -> "RationalFunctionExpr":
        return self.__mul__(other)

    def reciprocal(self) -> "RationalFunctionExpr":
        if self.num.is_zero():
            raise DivisionByZero("reciprocal of zero")
        return _make_reduced(self.den, self.num)

    def __truediv__(self, other: ExprLike) -> "RationalFunctionExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZero("division by zero expression")
        return self.__mul__(other.reciprocal())

    def __rtruediv__(self, other: ExprLike) -> "RationalFunctionExpr":
        return self.reciprocal().__mul__(other)

    def __pow__(self, n: int) -> "RationalFunctionExpr":
        if n == 0:
            return RF_ONE
        if n < 0:
            return self.reciprocal() ** (-n)
        result = RF_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- evaluation / substitution ----------------------------------------------

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact evaluation at a rational point; DivisionByZero on poles."""
        assignment = {name: Fraction(v) for name, v in point.items()}
        d = self.den.eval(assignment)
        if not d:
            raise DivisionByZero("evaluation hit a pole")
        return self.num.eval(assignment) / d

    def rename(self, mapping: Mapping[str, str]) -> "RationalFunctionExpr":
        """Bijective variable renaming (stays reduced, re-normalizes sign)."""
        if self.num.is_zero():
            return self
        num, den = self.num.rename(mapping), self.den.rename(mapping)
        factors = tuple((_normalize_poly(f.rename(mapping)), m) for f, m in self.factors)
        return RationalFunctionExpr(num.scale(1 / den.content), _normalize_poly(den), factors)

    def __str__(self) -> str:
        if self.den.is_one():
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"RFE({self})"


RFE = RationalFunctionExpr

RF_ZERO = RationalFunctionExpr(_POLY_ZERO, _POLY_ONE)
RF_ONE = RationalFunctionExpr(_POLY_ONE, _POLY_ONE)


def _coerce(value: ExprLike) -> "RationalFunctionExpr":
    if isinstance(value, RationalFunctionExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunctionExpr.from_const(value)
    if isinstance(value, Poly):
        if value.is_zero():
            return RF_ZERO
        return RationalFunctionExpr(value, _POLY_ONE)
    return NotImplemented


def _make_reduced(num: Poly, den: Poly) -> RationalFunctionExpr:
    """Canonicalize a pair already known coprime (content/sign step only).

    The denominator arrives whole: its base is one linear factor per
    variable of its monomial part and the rest as one factor.
    """
    if den.is_zero():
        raise DivisionByZero("denominator is identically zero")
    if num.is_zero():
        return RF_ZERO
    c = den.content
    if c != 1:
        num = num.scale(1 / c)
    den = _normalize_poly(den)
    if den.is_one():
        return RationalFunctionExpr(num, den)
    return RationalFunctionExpr(num, den, _split_whole(den))


def _split_whole(den: Poly) -> tuple[tuple[Poly, int], ...]:
    """The base of a normalized non-constant denominator that arrives whole:
    the variables of its monomial part, and the rest as one factor."""
    n = len(den.vars)
    exps = [min(k >> FIELD_BITS * (n - 1 - i) & MAX_DEGREE for k in den.terms) for i in range(n)]
    factors = tuple((_variable(v), e) for v, e in zip(den.vars, exps) if e)
    low = _pack(exps)
    vars, terms = _shrink(den.vars, {k - low: c for k, c in den.terms.items()})
    rest = Poly(vars, _ONE, terms)
    return factors if rest.is_const() else factors + ((rest, 1),)


def _from_factors(num: Poly, factors) -> RationalFunctionExpr:
    """``num / prod(f^m)`` for a coprime base of normalized factors, num coprime to it."""
    factors = tuple(factors)
    return RationalFunctionExpr(num, _power_product(factors), factors)


def _power_product(factors) -> Poly:
    """The product of ``f^m`` over ``(f, m)`` pairs."""
    key = frozenset(factors)
    return _expand(key) if key else _POLY_ONE


# The four rank-3 runs (fusion 3/1,1, compatibility 3/2,0, pbw-invariance
# 4/1,2,2, appendix-b 3/2,1), in one process, expand 217 distinct products
# in 5,313 calls, and cap-scale fusion and compatibility 222 in 35,710.  The
# entries of a summed operator that share a base then share one denominator
# instead of holding a copy each.
@lru_cache(maxsize=512)
def _expand(factors: frozenset) -> Poly:
    out = _POLY_ONE
    for f, m in factors:
        out = out * (f if m == 1 else f**m)
    return out


def _is_linear(f: Poly) -> bool:
    return max(f.terms) >> FIELD_BITS * len(f.vars) == 1


# the four rank-3 runs of `_expand` meet 44 distinct linear factors, and
# the two cap-scale runs 27
@lru_cache(maxsize=256)
def _root(f: Poly) -> tuple[str, int] | None:
    """``(name, t)``: with every other variable at its `_image_point`, the
    linear factor f vanishes mod `CERT_PRIME` where ``name`` is t times its
    own point, so at t in the ``name`` `_image`.

    None when every variable's coefficient is divisible by the prime.
    """
    prime, n = CERT_PRIME, len(f.vars)
    top = 1 << FIELD_BITS * n
    points = [_image_point(v) for v in f.vars]
    coefficients = [f.terms[top | 1 << FIELD_BITS * (n - 1 - i)] for i in range(n)]
    for i, c in enumerate(coefficients):
        if c % prime:
            rest = f.terms.get(0, 0) + sum(map(operator.mul, coefficients, points)) - c * points[i]
            return f.vars[i], -rest * pow(c * points[i], -1, prime) % prime
    return None


def _divide_linear(p: Poly, f: Poly) -> Poly | None:
    """p / f for a linear factor f that divides p, else None.

    A factor of p has every variable of its own in p.  If f divides p, the
    primitive parts satisfy pp(p) = f s over Z (Gauss), so pp(p) vanishes
    mod P wherever f does: a nonzero value of p's image at the `_root` of f
    proves that f does not divide p.  A zero value is confirmed or refuted
    by exact division.
    """
    if not set(f.vars).issubset(p.vars):
        return None
    root = _root(f)
    image = None if root is None else _image(p, root[0])
    if image is not None:
        value = 0
        for c in reversed(image):
            value = (value * root[1] + c) % CERT_PRIME
        if value:
            return None
    try:
        return poly_divexact(p, f)
    except InexactDivision:
        return None


def _cancel(p: Poly, f: Poly, m: int) -> tuple[Poly, list[tuple[Poly, int]]]:
    """``(p / g, base of f^m / g)`` for g = gcd(p, f^m), f a normalized factor."""
    if p.is_const():
        return p, [(f, m)]
    if _is_linear(f):
        while m:
            q = _divide_linear(p, f)
            if q is None:
                break
            p, m = q, m - 1
        return p, [(f, m)] if m else []
    g, p, rest = poly_gcd_cofactors(p, f**m)
    if g.is_one():
        return p, [(f, m)]
    # rest = f^m / g is normalized, and its factors are those of f
    return p, [] if rest.is_const() else [(rest, 1)]


def _cancel_all(p: Poly, factors) -> tuple[Poly, tuple[tuple[Poly, int], ...]]:
    """`_cancel` of p against every factor of a coprime base."""
    out: list[tuple[Poly, int]] = []
    for f, m in factors:
        p, rest = _cancel(p, f, m)
        out += rest
    return p, tuple(out)


# The four rank-3 runs of `_expand` combine 715 distinct pairs of bases in
# 4,865 calls; cap-scale fusion and compatibility miss 2,084 of 27,125.
@lru_cache(maxsize=2048)
def _common_base(fa, fb) -> tuple[tuple[Poly, int, int], ...]:
    """``(f, m, k)``: one coprime base of two bases, with the multiplicity
    of f in the first (m) and in the second (k); see the module docstring.
    """
    # the last field is 1 or 2 for a factor of one base, 3 for a factor of
    # both, and 0 for a refined piece: two factors of one base are coprime
    entries = {f: [f, m, 0, 1] for f, m in fa}
    for f, k in fb:
        entry = entries.setdefault(f, [f, 0, 0, 0])
        entry[2:] = k, entry[3] | 2
    out: list[list] = []
    todo = list(entries.values())
    while todo:
        entry = f, m, k, side = todo.pop()
        for i, (g, mg, kg, side_g) in enumerate(out):
            if side & side_g:
                continue
            h, f_h, g_h = _factor_gcd(f, g)
            if not h.is_one():
                del out[i]
                pieces = ((h, m + mg, k + kg), (f_h, m, k), (g_h, mg, kg))
                todo += [[q, a, b, 0] for q, a, b in pieces if not q.is_const()]
                break
        else:
            out.append(entry)
    return tuple((f, m, k) for f, m, k, _ in out)


def _factor_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """`poly_gcd_cofactors` for two normalized factors."""
    if f == g:
        return f, _POLY_ONE, _POLY_ONE
    if _is_linear(f) and _is_linear(g):
        return _POLY_ONE, f, g
    if _is_linear(f) or _is_linear(g):
        low, high = (f, g) if _is_linear(f) else (g, f)
        q = _divide_linear(high, low)
        if q is None:
            return _POLY_ONE, f, g
        return (low, _POLY_ONE, q) if low is f else (low, q, _POLY_ONE)
    return poly_gcd_cofactors(f, g)


def symbol(name: str) -> RationalFunctionExpr:
    """The expression consisting of a single symbol."""
    return RationalFunctionExpr.from_symbol(name)


def rational(value: Scalar, den: int = 1) -> RationalFunctionExpr:
    """A constant expression (``rational(3, 4)`` is 3/4)."""
    return RationalFunctionExpr.from_const(Fraction(value) / den if den != 1 else Fraction(value))


# ---------------------------------------------------------------------------
# Substitution / symmetrization / differentiation
# ---------------------------------------------------------------------------

def _poly_substitute(p: Poly, smap: Mapping[str, RationalFunctionExpr]) -> RationalFunctionExpr:
    """Evaluate a polynomial at expression values (unmapped vars stay)."""
    if p.is_zero():
        return RF_ZERO
    bases: list[RationalFunctionExpr] = []
    max_pow: list[int] = []
    for v in p.vars:
        repl = smap.get(v)
        bases.append(repl if repl is not None else RationalFunctionExpr(_variable(v), _POLY_ONE))
        max_pow.append(p.degree_in(v))
    powers: list[list[RationalFunctionExpr]] = []
    for base, top in zip(bases, max_pow):
        row = [RF_ONE]
        for _ in range(top):
            row.append(row[-1] * base)
        powers.append(row)
    total = RF_ZERO
    for e, c in p.items():
        term = RationalFunctionExpr.from_const(c)
        for i, ei in enumerate(e):
            if ei:
                term = term * powers[i][ei]
        total = total + term
    return total


def rf_substitute(
    expr: RationalFunctionExpr,
    subs: Mapping[str, ExprLike],
) -> RationalFunctionExpr:
    """Simultaneous substitution of symbols by expressions.

    Raises DivisionByZero if the substituted denominator vanishes identically.
    """
    smap: dict[str, RationalFunctionExpr] = {}
    for name, v in subs.items():
        coerced = _coerce(v)
        if coerced is NotImplemented:
            raise TypeError(f"cannot substitute value of type {type(v).__name__}")
        smap[name] = coerced
    if smap.keys().isdisjoint(expr.free_symbols()):
        return expr
    # factor by factor, so that the image of a linear factor stays one
    out = _poly_substitute(expr.num, smap)
    for f, m in expr.factors:
        value = _poly_substitute(f, smap)
        if value.is_zero():
            raise DivisionByZero("substitution makes the denominator vanish")
        out = out / value**m
    return out


def rf_symmetrize(
    expr: RationalFunctionExpr,
    groups: Sequence[Sequence[str]],
) -> RationalFunctionExpr:
    """Average over all permutations of each symbol group (idempotent).

    ``groups`` is a list of disjoint symbol-name lists; the result is
    ``(prod |g|!)^{-1} * sum`` over products of per-group permutations of the
    correspondingly renamed expression.
    """
    seen: set[str] = set()
    for g in groups:
        for name in g:
            if name in seen:
                raise ValueError("symmetrization groups must be disjoint")
            seen.add(_check_name(name))
    count = 1
    for g in groups:
        count *= math.factorial(len(g))
    total = RF_ZERO
    for combo in itertools.product(*[itertools.permutations(g) for g in groups]):
        mapping: dict[str, str] = {}
        for orig, perm in zip(groups, combo):
            for a, b in zip(orig, perm):
                if a != b:
                    mapping[a] = b
        total = total + (expr.rename(mapping) if mapping else expr)
    return total * Fraction(1, count)


def rf_partial(expr: RationalFunctionExpr, name: str) -> RationalFunctionExpr:
    """Exact partial derivative with respect to one symbol."""
    n, d = expr.num, expr.den
    dn = n.diff(name)
    dd = d.diff(name)
    if dd.is_zero():
        if dn.is_zero():
            return RF_ZERO
        return RationalFunctionExpr.make(dn, d)
    return RationalFunctionExpr.make(dn * d - n * dd, d * d)


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def _poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts: list[tuple[bool, str]] = []
    for e, c in p.items():
        factors = []
        for v, ei in zip(p.vars, e):
            if ei == 1:
                factors.append(v)
            elif ei:
                factors.append(f"{v}^{ei}")
        mag = -c if c < 0 else c
        if factors and mag == 1:
            body = " * ".join(factors)
        elif factors:
            body = str(mag) + " * " + " * ".join(factors)
        else:
            body = str(mag)
        parts.append((c < 0, body))
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+/\d+)|(?P<int>\d+)|(?P<sym>[A-Za-z][A-Za-z0-9:]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {pos}: {text[pos:pos+10]!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        assert kind is not None
        tokens.append((kind, m.group(kind)))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse_expr(self) -> RationalFunctionExpr:
        value = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def parse_term(self) -> RationalFunctionExpr:
        value = self.parse_unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_unary()
                value = value * rhs if val == "*" else value / rhs
            else:
                return value

    def parse_unary(self) -> RationalFunctionExpr:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.parse_unary()
            return inner if val == "+" else -inner
        return self.parse_power()

    def parse_power(self) -> RationalFunctionExpr:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val = self.next()
            if kind == "op" and val == "-":
                sign = -1
                kind, val = self.next()
            if kind != "int":
                raise ParseError(f"expected integer exponent, found {val!r}")
            return base ** (sign * int(val))
        return base

    def parse_atom(self) -> RationalFunctionExpr:
        kind, val = self.next()
        if kind == "rat":
            n, d = val.split("/")
            return RationalFunctionExpr.from_const(Fraction(int(n), int(d)))
        if kind == "int":
            return RationalFunctionExpr.from_const(int(val))
        if kind == "sym":
            return RationalFunctionExpr.from_symbol(val)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def parse(text: str) -> RationalFunctionExpr:
    """Parse the text form produced by ``str()`` (and ordinary arithmetic text)."""
    parser = _Parser(_tokenize(text))
    value = parser.parse_expr()
    kind, val = parser.next()
    if kind != "end":
        raise ParseError(f"trailing input starting at {val!r}")
    return value
