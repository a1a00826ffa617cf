"""kzdyn: exact computer algebra for trigonometric KZ / dynamical difference
operators in type A, with hypergeometric-integral and Selberg verification
suites.

Modules
-------
symexpr       exact multivariate rational functions over Q
roots         type-A positive roots, normal orders, Weyl combinatorics
uea           PBW monomials, straightening, (anti)automorphisms
rep           Verma/tensor weight spaces, Shapovalov form, dual actions
dyn           dynamical difference operators, fusion matrix, KZ compatibility
hyper         hypergeometric weight functions and their identities
closed_forms  log-gamma closed forms: ordered beta integral, rank-one determinant
numeric       chamber quadrature (Gauss–Jacobi), the only layer that needs scipy
cli           the ``kzdyn`` command-line verification harness
"""

from __future__ import annotations

__version__ = "0.1.0"
