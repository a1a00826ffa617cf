"""Test-only conveniences over the straightening engine and the tensor actions,
and the cross-gcd reference for rational-function arithmetic.

The package computes with `Straightener` words, `change_pbw_basis` and the
tensor Leibniz action directly; these helpers package the same machinery in
the shapes the tests state their identities in.  They are not used by the
package.
"""

from kzdyn.rep import PBWVector, TensorWeightSpace, operator_for_letter
from kzdyn.roots import ElemTransform, sigma_sequence, weight_from_pairings
from kzdyn.symexpr import (
    RF_ZERO,
    RationalFunctionExpr,
    _make_reduced,
    poly_divexact,
    poly_gcd_cofactors,
)
from kzdyn.uea import (
    GenWord,
    PBWBasis,
    Straightener,
    UEAElement,
    _apply_transform_to_basis,
    _state_add,
    monomial_word,
    special_basis,
)


def bases_along_sigma(n_rank: int, h: int) -> tuple[list[PBWBasis], list[ElemTransform]]:
    """All bases visited converting level h to level h-1 (first is level h,
    last equals the level h-1 basis), together with the transform list."""
    transforms = sigma_sequence(n_rank, h)
    basis = special_basis(n_rank, h)
    chain = [basis]
    for transform in transforms:
        basis = _apply_transform_to_basis(basis, transform)
        chain.append(basis)
    assert chain[-1] == special_basis(n_rank, h - 1)
    chain[-1] = special_basis(n_rank, h - 1)  # canonical tag
    return chain, transforms


def straighten(w: GenWord, pairings, basis: PBWBasis) -> UEAElement:
    """Rewrite w * v as an exact combination of F_I * v.

    ``pairings`` maps each simple index k to the pairing of the highest
    weight of v with the k-th simple coroot.
    """
    hw = weight_from_pairings(basis.n_rank, [pairings[k] for k in range(1, basis.n_rank)])
    state = Straightener(basis, hw).apply_word(w.letters, {basis.zero_exps(): w.coeff})
    # plain divided monomials -> signed basis monomials
    return UEAElement(basis, {e: c * basis.signed_factor(e) for e, c in state.items()})


def element_in_reference(element: UEAElement, engine: Straightener):
    """Coefficients of the element on the engine's plain divided monomials.

    The element acts on a formal highest-weight vector; pure lowering, so no
    weight is needed.  Used as the order-independent fingerprint.
    """
    total: dict[tuple[int, ...], RationalFunctionExpr] = {}
    for exps, c in element.terms.items():
        w = monomial_word(element.basis, exps)
        state = engine.apply_word(w.letters, {engine.basis.zero_exps(): w.coeff * c})
        for k, v in state.items():
            _state_add(total, k, v)
    return total


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
