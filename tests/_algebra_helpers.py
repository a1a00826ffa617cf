"""Test-only conveniences over the straightening engine and the tensor actions,
and the cross-gcd reference for rational-function arithmetic.

The package computes with `Straightener.apply_word` and the tensor Leibniz
action directly; these helpers package the same machinery in
the shapes the tests state their identities in.  They are not used by the
package.
"""

from kzdyn.rep import PBWVector, TensorWeightSpace, operator_for_letter
from kzdyn.roots import weight_from_pairings
from kzdyn.symexpr import (
    RF_ZERO,
    RationalFunctionExpr,
    _make_reduced,
    poly_divexact,
    poly_gcd_cofactors,
)
from kzdyn.uea import GenWord, PBWBasis, Straightener


def straighten(w: GenWord, pairings, basis: PBWBasis) -> dict:
    """Rewrite w * v as an exact combination ``{I: c_I}`` of F_I * v.

    ``pairings`` maps each simple index k to the pairing of the highest
    weight of v with the k-th simple coroot.
    """
    hw = weight_from_pairings(basis.n_rank, [pairings[k] for k in range(1, basis.n_rank)])
    return Straightener(basis, hw).apply_word(w)


def apply_genword_at(
    space: TensorWeightSpace, w: GenWord, j: int, vec: PBWVector
) -> PBWVector:
    """Apply a word of letters to tensor factor j only."""
    out = vec.scale(w.coeff)
    for letter in reversed(w.letters):
        out = operator_for_letter(out.space, letter, only_factor=j).apply(out)
    return out


def reference_add(x: RationalFunctionExpr, y: RationalFunctionExpr) -> RationalFunctionExpr:
    """x + y through general gcds of whole denominators (Henrici's sum).

    With g1 = gcd(b, d), a/b + c/d = t / (b/g1 * d) for t = a (d/g1) +
    c (b/g1), and only g2 = gcd(t, g1) can cancel.
    """
    if x.num.is_zero():
        return y
    if y.num.is_zero():
        return x
    a, b = x.num, x.den
    c, d = y.num, y.den
    if b.is_one() and d.is_one():
        return _make_reduced(a + c, b)
    g1, db, dd = poly_gcd_cofactors(b, d)
    if g1.is_one():
        return _make_reduced(a * d + c * b, b * d)
    t = a * dd + c * db
    if t.is_zero():
        return RF_ZERO
    g2, t, _ = poly_gcd_cofactors(t, g1)
    if g2.is_one():
        return _make_reduced(t, db * d)
    return _make_reduced(t, db * poly_divexact(d, g2))


def reference_mul(x: RationalFunctionExpr, y: RationalFunctionExpr) -> RationalFunctionExpr:
    """x * y through the cross gcds gcd(a, d) and gcd(c, b)."""
    if x.num.is_zero() or y.num.is_zero():
        return RF_ZERO
    a, b = x.num, x.den
    c, d = y.num, y.den
    if b.is_one() and d.is_one():
        return _make_reduced(a * c, b)
    _, a, d = poly_gcd_cofactors(a, d)
    _, c, b = poly_gcd_cofactors(c, b)
    return _make_reduced(a * c, b * d)
