"""Exact gamma products over the rational functions of `symexpr`.

A gamma product is a `collections.Counter` ``{argument: exponent}``.
`selberg_gamma` writes the Selberg closed form of the ordered beta integral
as one, and `normal_form` proves an identity between two of them.  This
module imports only `symexpr`.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from .symexpr import RF_ONE, rational

__all__ = ["falling", "selberg_gamma", "normal_form", "gamma_text"]


def falling(t, k: int):
    """The falling factorial t (t - 1) ... (t - k + 1)."""
    out = RF_ONE
    for i in range(k):
        out = out * (t - rational(i))
    return out


def selberg_gamma(a, b, c, m: int) -> Counter:
    """The m-dimensional ordered beta integral S(a, b, c) as a gamma product.

    Its closed form, 1/m! times the product over j < m of
    Gamma(1 + (j + 1)c) Gamma(a + jc) Gamma(b + jc) / (Gamma(1 + c)
    Gamma(a + b + (m + j - 1)c)), as ``{argument: exponent}`` with 1/m! as
    Gamma(m + 1)^-1.  ``a``, ``b`` and ``c`` are expressions;
    ``numeric.selberg_signed`` is the same product in floats.
    """
    gamma = Counter({rational(m + 1): -1, RF_ONE + c: -m})
    jc = [rational(j) * c for j in range(2 * m)]
    a_b = a + b
    for j in range(m):
        gamma[RF_ONE + jc[j + 1]] += 1
        gamma[a + jc[j]] += 1
        gamma[b + jc[j]] += 1
        gamma[a_b + jc[m + j - 1]] -= 1
    return gamma


def normal_form(num: Mapping, den: Mapping) -> tuple:
    """``(prefactor, leftover)``: the gamma product ``num / den`` written as a
    rational function times a gamma product.

    ``num`` and ``den`` map arguments to exponents.  Arguments whose
    difference is an integer constant are merged onto the lowest of them, x,
    through Gamma(x + n) = (x)_n Gamma(x), with the rising factorial (x)_n
    as ``falling(x + n - 1, n)``.  ``leftover`` keeps the lowest argument of
    each class whose exponents do not sum to 0.  The normal form
    ``(RF_ONE, {})`` proves the product is 1; no other relation between
    gamma values (reflection, multiplication) is applied, so any other
    normal form is reported as a mismatch.
    """
    gamma = Counter(num)
    gamma.subtract(den)
    classes: list[list] = []  # per class: (argument, shift from the first, exponent)
    for arg, e in gamma.items():
        if not e:
            continue
        for members in classes:
            shift = arg - members[0][0]
            if shift.is_const() and shift.const_value().denominator == 1:
                members.append((arg, int(shift.const_value()), e))
                break
        else:
            classes.append([(arg, 0, e)])
    prefactor, leftover = RF_ONE, {}
    for members in classes:
        base, low, _ = min(members, key=lambda member: member[1])
        for _, shift, e in members:
            n = shift - low
            prefactor = prefactor * falling(base + rational(n - 1), n) ** e
        total = sum(e for _, _, e in members)
        if total:
            leftover[base] = total
    return prefactor, leftover


def gamma_text(prefactor, leftover: Mapping) -> str:
    """A normal form of `normal_form` as text."""
    return " * ".join(
        [str(prefactor), *(f"Gamma({arg})^{e}" for arg, e in leftover.items())]
    )
