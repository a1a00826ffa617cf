"""Enveloping-algebra machinery for sl_N / gl_N.

Letters and words
-----------------
A *letter* is either a matrix-unit generator ``("e", a, b)`` with ``a != b``
or a Cartan difference ``("c", a, b)`` standing for ``e_{a,a} - e_{b,b}``.
Brackets follow ``[e_{a,b}, e_{c,d}] = delta_{bc} e_{a,d} - delta_{d,a}
e_{c,b}``.  A `GenWord` is a scalar times a sequence of letters, read left to
right as an operator product (the rightmost letter acts first).

PBW data
--------
A `PBWBasis` is a level: ``PBWBasis(n_rank, h)`` is the level-``h`` normal
order on the positive roots (largest first, `roots.special_order`) with the
sign ``s = (-1)^{a_{k,l}(h)}`` per root (`roots.sign_table_a`), and
`standard_basis` is the top level ``n_rank - 1``.  The lowering vector
attached to the root ``(k, l)`` at sign ``s`` is ``s * e_{l,k}``.  The basis
monomial for a multi-index ``I`` (stored as an exponent tuple aligned with
the order) is::

    F_I = (-1)^{sum I} * prod_pos (sign_pos * e_{l,k})^{I_pos} / I_pos!
        = prod_pos (sigma_pos * e_{l,k})^{I_pos} / I_pos!,  sigma_pos = -sign_pos,

with factors arranged largest root leftmost; ``signed_factor(I)`` is the sign
that F_I carries against ``prod_pos e_{l,k}^{I_pos} / I_pos!``.

Straightening
-------------
`Straightener.apply_letter` rewrites ``letter * F_I * v`` as an exact
combination of ``F_J * v`` for a highest-weight vector ``v`` of a given
weight, and `Straightener.apply_word` rewrites ``w * v`` for a word ``w``:
raising letters annihilate ``v``, Cartan letters act by exact scalar, a
lowering letter absorbed on the left carries its ``sigma_pos``, and divided
powers commute through the identity
``X f^m/m! = sum_r f^{m-r}/(m-r)! (ad^r X)/r!``, times ``sigma^m`` for F's
leading factor ``(sigma f)^m/m!``.  Everything is memoized per (letter,
exponent) pair, so repeated operator assembly is cheap.  There is one memo
per level and highest weight, shared by every caller: `straightener`
returns the same engine for equal arguments.  The dicts its methods return are
the memo's own entries and must never be mutated; no caller mutates them.

A basis monomial of another level, written out by `monomial_word`,
straightens like any word: that is how a monomial is re-expressed in the
engine's order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from ._record import record
from .roots import WeightVec, sign_table_a, special_order
from .symexpr import RF_ONE, RF_ZERO, RationalFunctionExpr, rational, rf_sums

__all__ = [
    "Letter",
    "GenWord",
    "word",
    "PBWBasis",
    "standard_basis",
    "Straightener",
    "straightener",
    "bracket_letters",
    "f_letter",
    "chevalley_tau",
    "antipode_A",
    "monomial_word",
]

Letter = tuple  # ("e", a, b) with a != b, or ("c", a, b) for e_aa - e_bb


def f_letter(root: tuple[int, int]) -> Letter:
    """Plain lowering letter for a positive root (k,l): the unit e_{l,k}."""
    k, l = root
    return ("e", l, k)


def bracket_letters(x: Letter, y: Letter) -> dict[Letter, Fraction]:
    """The bracket [x, y] as an exact combination of letters."""
    out: dict[Letter, Fraction] = {}

    def add(letter: Letter, c: Fraction) -> None:
        s = out.get(letter, _F0) + c
        if s:
            out[letter] = s
        elif letter in out:
            del out[letter]

    kx, ky = x[0], y[0]
    if kx == "e" and ky == "e":
        a, b = x[1], x[2]
        c, d = y[1], y[2]
        if b == c and a == d:
            # Canonical Cartan letter: indices increasing.
            if a < b:
                add(("c", a, b), _F1)
            else:
                add(("c", b, a), -_F1)
        else:
            if b == c:
                add(("e", a, d), _F1)
            if d == a:
                add(("e", c, b), -_F1)
    elif kx == "c" and ky == "e":
        a, b = x[1], x[2]
        c, d = y[1], y[2]
        coeff = (
            (1 if a == c else 0) - (1 if a == d else 0)
            - (1 if b == c else 0) + (1 if b == d else 0)
        )
        if coeff:
            add(y, Fraction(coeff))
    elif kx == "e" and ky == "c":
        for letter, c in bracket_letters(y, x).items():
            add(letter, -c)
    # Cartan with Cartan commutes.
    return out


_F0 = Fraction(0)
_F1 = Fraction(1)


@record
class GenWord:
    """A scalar multiple of a product of letters (rightmost acts first)."""

    coeff: RationalFunctionExpr
    letters: tuple[Letter, ...]

    def __mul__(self, other: "GenWord") -> "GenWord":
        return GenWord(self.coeff * other.coeff, self.letters + other.letters)

    def scale(self, c) -> "GenWord":
        return GenWord(self.coeff * c, self.letters)


def word(*letters: Letter) -> GenWord:
    return GenWord(RF_ONE, tuple(letters))


# ---------------------------------------------------------------------------
# PBW bases
# ---------------------------------------------------------------------------

class PBWBasis:
    """The level-``h`` basis of sl_{n_rank}: the order `special_order` with
    the signs (-1)^{a_{k,l}(h)} of `sign_table_a` (see module doc)."""

    __slots__ = ("n_rank", "h", "order", "signs", "position", "_hash")

    def __init__(self, n_rank: int, h: int):
        self.n_rank = n_rank
        self.h = h
        self.order = special_order(n_rank, h)
        table = sign_table_a(n_rank, h)
        self.signs = tuple(-1 if table[root] % 2 else 1 for root in self.order)
        self.position = {root: i for i, root in enumerate(self.order)}
        self._hash = hash((n_rank, h))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PBWBasis):
            return NotImplemented
        return self.n_rank == other.n_rank and self.h == other.h

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PBWBasis(h={self.h}, n_rank={self.n_rank})"

    # -- monomial helpers ----------------------------------------------------

    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * len(self.order)

    def exps_from_roots(self, assignment: Mapping[tuple[int, int], int]) -> tuple[int, ...]:
        exps = [0] * len(self.order)
        for root, value in assignment.items():
            exps[self.position[root]] = value
        return tuple(exps)

    def roots_from_exps(self, exps: Sequence[int]) -> dict[tuple[int, int], int]:
        return {root: e for root, e in zip(self.order, exps) if e}

    def signed_factor(self, exps: Sequence[int]) -> int:
        """Scalar relating the basis monomial to the plain divided monomial."""
        total = sum(exps)
        sign = -1 if total % 2 else 1
        for s, e in zip(self.signs, exps):
            if s < 0 and e % 2:
                sign = -sign
        return sign


@lru_cache(maxsize=None)
def standard_basis(n_rank: int) -> PBWBasis:
    """The level-(n_rank - 1) basis, built once per rank."""
    return PBWBasis(n_rank, n_rank - 1)


def monomial_word(basis: PBWBasis, exps: Sequence[int]) -> GenWord:
    """The basis monomial F_I as an explicit word of plain letters.

    Includes the sign convention and the divided-power scalars, so that
    evaluating the word reproduces F_I exactly.
    """
    coeff = Fraction(basis.signed_factor(exps))
    letters: list[Letter] = []
    for root, e in zip(basis.order, exps):
        if e:
            letters.extend([f_letter(root)] * e)
            coeff /= math.factorial(e)
    return GenWord(rational(coeff), tuple(letters))


# ---------------------------------------------------------------------------
# Straightening engine
# ---------------------------------------------------------------------------

class Straightener:
    """Memoized letter-by-letter rewriting against one PBW basis (a level).

    ``hw`` is the highest weight by its simple-root pairings (a `WeightVec`);
    it may be None for computations in which no Cartan letter can reach the
    vector (e.g. pure lowering words).
    """

    def __init__(self, basis: PBWBasis, hw: Optional[WeightVec] = None):
        self.basis = basis
        self.hw = hw
        self._cache: dict = {}
        self._lower_pos = {
            f_letter(root): i for i, root in enumerate(basis.order)
        }
        self._sigma = tuple(-s for s in basis.signs)

    # -- scalars ---------------------------------------------------------------

    def _cartan_scalar(self, a: int, b: int) -> RationalFunctionExpr:
        if self.hw is None:
            raise ValueError("Cartan letter reached the vector but no weight given")
        # e_aa - e_bb, a < b, is the coroot of alpha_a + ... + alpha_{b-1}
        return sum(self.hw.pairings[a - 1 : b - 1], RF_ZERO)

    # -- core recursion ----------------------------------------------------------

    def apply_letter(self, letter: Letter, exps: tuple[int, ...]):
        """letter * F_exps * v as {exps': coefficient} on the basis F."""
        key = (letter, exps)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        result = self._apply_letter_uncached(letter, exps)
        self._cache[key] = result
        return result

    def _apply_letter_uncached(self, letter: Letter, exps: tuple[int, ...]):
        pos_letter = self._lower_pos.get(letter)
        top = next((i for i, e in enumerate(exps) if e), None)

        if top is None:
            # Acting directly on the highest-weight vector.
            if letter[0] == "c":
                return {exps: self._cartan_scalar(letter[1], letter[2])}
            if pos_letter is None:
                return {}  # raising letter annihilates v
            unit = list(exps)
            unit[pos_letter] = 1
            return {tuple(unit): rational(self._sigma[pos_letter])}

        if pos_letter is not None and pos_letter <= top:
            # Lowering letter that can be absorbed on the left.
            out = list(exps)
            out[pos_letter] += 1
            coeff = self._sigma[pos_letter]
            if pos_letter == top:
                coeff *= exps[top] + 1
            return {tuple(out): rational(coeff)}

        # Commute through the leading divided power f_top^m/m! of
        # F_exps = sigma_top^m * f_top^m/m! * F_rest.
        m = exps[top]
        rest = list(exps)
        rest[top] = 0
        rest = tuple(rest)
        f_top = f_letter(self.basis.order[top])

        def terms():
            # r = 0 term: f_top^m/m! * (letter * F_rest v)
            for k_exps, c in self.apply_letter(letter, rest).items():
                for k2, c2 in self._insert_power(top, m, k_exps).items():
                    yield k2, c * c2
            # r >= 1 terms with iterated brackets ad^r(letter)/r!
            current: dict[Letter, Fraction] = {letter: _F1}
            for r in range(1, m + 1):
                nxt: dict[Letter, Fraction] = {}
                for y, cy in current.items():
                    for z, cz in bracket_letters(y, f_top).items():
                        s = nxt.get(z, _F0) + cy * cz
                        if s:
                            nxt[z] = s
                        elif z in nxt:
                            del nxt[z]
                current = nxt
                if not current:
                    break
                inv_rfact = Fraction(1, math.factorial(r))
                for y, cy in current.items():
                    scale = rational(cy * inv_rfact)
                    for k_exps, c in self.apply_letter(y, rest).items():
                        for k2, c2 in self._insert_power(top, m - r, k_exps).items():
                            yield k2, scale * c * c2

        state = rf_sums(terms())
        if self._sigma[top] < 0 and m % 2:
            return {k: -c for k, c in state.items()}
        return state

    def _insert_power(self, pos: int, power: int, exps: tuple[int, ...]):
        """f_pos^power/power! * F_exps as a state dict."""
        if power == 0:
            return {exps: RF_ONE}
        f = f_letter(self.basis.order[pos])
        state = {exps: RF_ONE}
        for _ in range(power):
            state = self._apply_to_state(f, state)
        inv = rational(Fraction(1, math.factorial(power)))
        return {k: c * inv for k, c in state.items()}

    # -- word application -----------------------------------------------------------

    def apply_word(self, w: GenWord) -> dict:
        """``w * v`` for the highest-weight vector ``v``, as the exact
        coefficients ``{J: c_J}`` of ``F_J * v`` (rightmost letter first)."""
        state = {self.basis.zero_exps(): w.coeff}
        for letter in reversed(w.letters):
            state = self._apply_to_state(letter, state)
        return state

    def _apply_to_state(self, letter: Letter, state: Mapping) -> dict:
        """``letter`` applied to the state ``{exps: c}`` of ``sum c F_exps v``."""
        return rf_sums(
            (k2, c * c2)
            for exps, c in state.items()
            for k2, c2 in self.apply_letter(letter, exps).items()
        )


@lru_cache(maxsize=None)
def straightener(basis: PBWBasis, hw: Optional[WeightVec] = None) -> Straightener:
    """The shared engine of one level and highest weight."""
    return Straightener(basis, hw)


# ---------------------------------------------------------------------------
# (Anti)automorphisms
# ---------------------------------------------------------------------------

def _tau_letter(letter: Letter) -> tuple[Fraction, Letter]:
    kind, a, b = letter
    if kind == "e":
        return -_F1, ("e", b, a)
    return -_F1, letter  # Cartan: h -> -h


def chevalley_tau(x: GenWord) -> GenWord:
    """The involution transposing matrix units with a sign: e_{k,l} -> -e_{l,k}."""
    coeff = x.coeff
    letters = []
    for letter in x.letters:
        c, image = _tau_letter(letter)
        coeff = coeff * c
        letters.append(image)
    return GenWord(coeff, tuple(letters))


def antipode_A(x: GenWord) -> GenWord:
    """The anti-automorphism acting by -1 on every Lie-algebra letter."""
    coeff = x.coeff if len(x.letters) % 2 == 0 else -x.coeff
    return GenWord(coeff, tuple(reversed(x.letters)))
