"""Test-only conveniences over the straightening engine and the tensor actions,
the epsilon-coordinates of a weight, the dense and transposed views of an
operator, the edge-product form of a grounded string's function and the
coefficient lookup of a `PhiVector`, the cross-gcd reference for
rational-function arithmetic, the dense Gauss-Jordan reference for
`rep.nullspace` and `WeightSpaceOperator.invert`, the lowered-space reference
for `dyn._root_terms`, the exact polynomial division `poly_divexact` of the
reference arithmetic, and the exponent-tuple references for `poly_divexact`
and `Poly.rename`.  `poly_divexact` runs the package's long division on
packed keys (`symexpr._divide`, largest key first); `_int_quotient` below
divides over exponent tuples from the smallest term up, so that the division
reference shares no division code with the package.

The package computes with `Straightener.apply_word` and the tensor Leibniz
action directly; these helpers package the same machinery in
the shapes the tests state their identities in.  They are not used by the
package.
"""

import heapq
import operator

from kzdyn.hyper import PhiVector, StringGraph, index_counts
from kzdyn.rep import (
    SingularGram,
    TensorWeightSpace,
    WeightSpaceOperator,
    operator_for_letter,
)
from kzdyn.roots import WeightVec, positive_roots
from kzdyn.symexpr import (
    RF_ONE,
    RF_ZERO,
    DivisionByZero,
    InexactDivision,
    Poly,
    RationalFunctionExpr,
    _divide,
    _make,
    _make_reduced,
    _ratio,
    _unpack,
    _widen,
    poly_gcd_cofactors,
    symbol,
)
from kzdyn.uea import GenWord, PBWBasis, Straightener


def straighten(w: GenWord, pairings, basis: PBWBasis) -> dict:
    """Rewrite w * v as an exact combination ``{I: c_I}`` of F_I * v.

    ``pairings`` maps each simple index k to the pairing of the highest
    weight of v with the k-th simple coroot.
    """
    hw = WeightVec(tuple(pairings[k] for k in range(1, basis.n_rank)))
    return Straightener(basis, hw).apply_word(w)


def eps_coordinates(weight: WeightVec) -> tuple[RationalFunctionExpr, ...]:
    """The weight's epsilon-coordinates, summing to zero:
    eps_i = sum_{k >= i} mu_k - sum_k k mu_k / N, for labels mu_k = (mu, alpha_k).

    The tests' reference for `WeightVec.dot`, which is sum_i eps_i eps'_i.
    """
    labels = weight.pairings
    n = len(labels) + 1
    mean = sum((mu * k for k, mu in enumerate(labels, 1)), RF_ZERO) / n
    return tuple(sum(labels[i - 1 :], RF_ZERO) - mean for i in range(1, n + 1))


def word_operator_at(space: TensorWeightSpace, w: GenWord, j: int) -> WeightSpaceOperator:
    """Matrix of a word of letters acting on tensor factor j only (rightmost
    letter first), into the space the word lands in."""
    total = WeightSpaceOperator.identity(space)
    for letter in reversed(w.letters):
        total = operator_for_letter(total.codomain, letter, only_factor=j).compose(total)
    return total.scale(w.coeff)


def dense(op: WeightSpaceOperator) -> list[list[RationalFunctionExpr]]:
    """The operator's matrix, codomain rows by domain columns, zeros filled in."""
    m = [[RF_ZERO] * op.domain.dim for _ in range(op.codomain.dim)]
    for (i, j), v in op.entries.items():
        m[i][j] = v
    return m


def transpose(op: WeightSpaceOperator) -> WeightSpaceOperator:
    return WeightSpaceOperator(
        op.codomain, op.domain, {(j, i): v for (i, j), v in op.entries.items()}
    )


def edge_product(string: StringGraph) -> RationalFunctionExpr:
    """Product of ``1/(tail - head)`` over the string's oriented edges."""
    value = RF_ONE
    for tail, head in string.edges():
        head_value = string.ground if head == str(string.ground) else symbol(head)
        value = value / (symbol(tail) - head_value)
    return value


def phi_coeff(pv: PhiVector, index) -> RationalFunctionExpr:
    """The coefficient function of a basis index in ``pv``, zero if absent."""
    want = index_counts(index, pv.basis)
    for idx, value in pv.terms:
        if index_counts(idx, pv.basis) == want:
            return value
    return RF_ZERO


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


def reference_row_reduce(mat: list[list[RationalFunctionExpr]], ncols: int) -> list[int]:
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


def reference_nullspace(
    rows: list[dict[int, RationalFunctionExpr]], dim: int
) -> list[dict[int, RationalFunctionExpr]]:
    """`rep.nullspace` through `reference_row_reduce` on dense rows."""
    mat = [[row.get(j, RF_ZERO) for j in range(dim)] for row in rows]
    pivots = reference_row_reduce(mat, dim)
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


def reference_invert(op: WeightSpaceOperator) -> WeightSpaceOperator:
    """`WeightSpaceOperator.invert` through `reference_row_reduce` on the
    dense ``[A | I]``."""
    assert op.domain == op.codomain
    n = op.domain.dim
    mat = [
        row + [RF_ONE if i == j else RF_ZERO for j in range(n)]
        for i, row in enumerate(dense(op))
    ]
    if len(reference_row_reduce(mat, n)) < n:
        raise SingularGram("matrix is singular over the expression field")
    entries = {
        (i, j): x
        for i, row in enumerate(mat)
        for j, x in enumerate(row[n:])
        if not x.is_zero()
    }
    return WeightSpaceOperator(op.domain, op.codomain, entries)


def reference_root_terms(
    space: TensorWeightSpace, raise_at: int, lower_at: int
) -> dict[tuple[int, int], WeightSpaceOperator]:
    """`dyn._root_terms` composed lower letter first: per positive root
    (a, b), ``e_ab`` on factor ``raise_at`` applied to ``e_ba`` on factor
    ``lower_at``, through the lowered space nu + alpha."""
    terms = {}
    for a, b in positive_roots(space.pbw_basis.n_rank):
        lower = operator_for_letter(space, ("e", b, a), only_factor=lower_at - 1)
        raiser = operator_for_letter(lower.codomain, ("e", a, b), only_factor=raise_at - 1)
        assert raiser.codomain == space
        terms[(a, b)] = raiser.compose(lower)
    return terms


def _tuples(p: Poly, vars: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """The primitive part of p keyed by exponent tuples over ``vars`` ⊇ p.vars."""
    at = [vars.index(v) for v in p.vars]
    out = {}
    for k, c in p.terms.items():
        e = [0] * len(vars)
        for i, x in zip(at, _unpack(k, len(p.vars))):
            e[i] = x
        out[tuple(e)] = c
    return out


def _from_tuples(vars: tuple[str, ...], content, pairs) -> Poly:
    """``content * sum(c x^e)`` from ``(exponents, int c)`` pairs; merges repeats."""
    terms: dict[tuple[int, ...], int] = {}
    for e, c in pairs:
        e = tuple(e)
        terms[e] = terms.get(e, 0) + c
    return Poly.build(vars, terms).scale(content)


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


def poly_divexact(p: Poly, q: Poly) -> Poly:
    """Exact quotient p/q; raises InexactDivision if q does not divide p.

    With p = c_p P and q = c_q Q for primitive integer P and Q, q divides p
    over Q exactly when Q divides P over Z (Gauss's lemma).  A factor of P
    has no variable that P lacks, so such a q fails at once.  Otherwise Q is
    widened to P's variables and the package's `_divide` runs the long
    division on the packed keys.
    """
    if q.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero():
        return Poly.zero()
    if q.is_const():
        return p.scale(1 / q.const_value())
    vars = p.vars
    if not set(q.vars).issubset(vars):
        raise InexactDivision("inexact polynomial division")
    quotient = _divide(p.terms, _widen(q.terms, q.vars, vars), len(vars))
    if quotient is None:
        raise InexactDivision("inexact polynomial division")
    return _make(vars, _ratio(p._content, q._content), quotient, shrink=True)


def reference_divexact(p: Poly, q: Poly) -> Poly:
    """`poly_divexact` on exponent tuples: `_int_quotient` of the primitive
    parts over the union of the variables, repacked."""
    if q.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero():
        return Poly.zero()
    if q.is_const():
        return p.scale(1 / q.const_value())
    vars = tuple(sorted(set(p.vars) | set(q.vars)))
    quotient = _int_quotient(_tuples(p, vars), _tuples(q, vars))
    if quotient is None:
        raise InexactDivision("inexact polynomial division")
    return _from_tuples(vars, p.content / q.content, quotient.items())


def reference_rename(p: Poly, mapping) -> Poly:
    """`Poly.rename` on exponent tuples: each key unpacked, its exponents
    added up by new name, and repacked."""
    if not p.terms or not any(v in mapping for v in p.vars):
        return p
    new_vars = tuple(sorted({mapping.get(v, v) for v in p.vars}))
    pos = [new_vars.index(mapping.get(v, v)) for v in p.vars]
    n = len(p.vars)

    def moved(k: int) -> list[int]:
        ne = [0] * len(new_vars)
        for i, ei in zip(pos, _unpack(k, n)):
            ne[i] += ei
        return ne

    return _from_tuples(new_vars, p.content, ((moved(k), c) for k, c in p.terms.items()))
