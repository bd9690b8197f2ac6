"""Exact cohomology of supercommutative superalgebras.

The package computes Hochschild cohomology and its graded Harrison
subcomplex for finite-dimensional supercommutative superalgebras over the
rationals, entirely in exact arithmetic, and cross-checks degree 2 against
first-order deformations and square-zero extensions computed from scratch.

Each public name is imported from the module that defines it and lists it
in its ``__all__``, as in ``from superharrison.cohomology import Complex,
cohomology``; the package itself binds none of them.
"""

__version__ = "0.1.0"
