"""kzdyn: exact computer algebra for trigonometric KZ / dynamical difference
operators in type A, with hypergeometric-integral and Selberg verification
suites.

Modules
-------
symexpr  exact multivariate rational functions over Q
roots    type-A positive roots, normal orders, Weyl combinatorics
uea      PBW monomials, straightening, (anti)automorphisms
rep      Verma/tensor weight spaces, Shapovalov form, singular vectors
dyn      dynamical difference operators, fusion matrix, KZ compatibility
hyper    hypergeometric weight functions and their order invariance
lemmas   exact checks of the other lemmas of the proof chain, with the dual
         actions on basis functionals; only tests import it
gamma    exact gamma products: the Selberg closed form and a normal form that
         proves identities between products; imports only symexpr
numeric  chamber quadrature (Gauss–Jacobi) and the float Selberg closed forms,
         the only layer that needs numpy
cli      the ``kzdyn`` command-line verification harness
_record  ``record``, the class decorator of the record classes: a
         ``dataclass`` without generated code
"""

from __future__ import annotations

__version__ = "0.1.0"
