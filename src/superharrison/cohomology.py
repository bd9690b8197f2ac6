"""Cohomology of the full Hochschild complex and of its graded Harrison subcomplex.

A ``Complex`` is one of the two, for one module and set of ceilings; the
module fixes the algebra.  Both are written over flat cochain offsets and
differ only in their space S_n in each degree (``Complex.space``): all of
C^n (``None``), with the elementary cochains in flat order as basis, or the
Harrison subspace with the canonical echelon basis from ``harrison_space``,
whose rows are cochains' ``data``.  A complex builds each S_n and each
coboundary matrix d_n at most once and frees them with itself.  A column
of d_n is the sparse coboundary (``coboundary_scatter``) of one basis row
of S_n, read in S_{n+1}: in C^{n+1} as it stands, and in the Harrison
subspace, whose basis is reduced echelon, at the pivots that
``harrison_pivots`` lists, so S_{n+1} is never built.  That relies on d
preserving the Harrison subspace, as it does over a supercommutative
algebra (the CLI validates one before it builds a complex); ``verify``'s
``closure`` suite and the tests check it.
``Complex.space`` admits each degree against the ceilings, degree first
and then a closed-form column count, before S_n is built; every degree-n
computation goes through it, and d_n admits degree n before degree n + 1,
so that a refused d_n builds nothing.

Cocycle representatives returned by ``cohomology`` are reduced against the
coboundary subspace, so they are canonical for the given bases and the same
on every run.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Optional

from .algebras import SuperAlgebra, SuperModule
from .cochains import (
    Cochain,
    coboundary_scatter,
    decode,
    encode,
    harrison_pivots,
    harrison_space,
    parity_count,
    parity_offsets,
)
from .linalg import (
    Rat,
    RationalMatrix,
    SubspaceBasis,
    image_basis,
    kernel_basis,
    quotient_representatives,
)
from .records import Record

__all__ = [
    "ComplexKind",
    "Complex",
    "ResourceLimits",
    "ResourceCeilingError",
    "CohomologyResult",
    "coboundary_matrix",
    "cohomology",
    "derivation_space",
]


class ComplexKind(Enum):
    HOCHSCHILD = "hochschild"
    SUPER_HARRISON = "harrison"


class ResourceLimits(Record):
    """Ceilings guarding the exact-arithmetic core against runaway inputs."""

    # The defaults stay readable on the class itself.
    max_degree: int = 4
    max_columns: int = 20000


class ResourceCeilingError(RuntimeError):
    """A requested computation exceeds the configured size ceilings."""


class Complex(Record):
    """The Hochschild or graded Harrison complex of ``module.algebra`` with coefficients in ``module``.

    ``space(n)`` and ``coboundary_matrix(cx, n)`` are built on first use and
    kept here, so they live exactly as long as the complex does.
    """

    module: SuperModule
    kind: ComplexKind
    limits: ResourceLimits = ResourceLimits()

    @property
    def algebra(self) -> SuperAlgebra:
        """The algebra that the module is over."""
        return self.module.algebra

    @cached_property
    def _spaces(self) -> dict[int, Optional[SubspaceBasis]]:
        return {}

    @cached_property
    def _matrices(self) -> dict[int, RationalMatrix]:
        return {}

    def space(self, degree: int) -> Optional[SubspaceBasis]:
        """S_n: ``None`` for all of C^n, else the canonical basis of the Harrison subspace.

        Degree n is admitted (``_admit``) before S_n is built or returned.
        """
        if degree not in self._spaces:
            self._admit(degree)
            self._spaces[degree] = None if self.kind is ComplexKind.HOCHSCHILD else harrison_space(self.module, degree)
        return self._spaces[degree]

    def _admit(self, degree: int) -> None:
        """Refuse degree n over the ceilings: the degree first, then a column count bounding dim S_n."""
        limits = self.limits
        if degree > limits.max_degree:
            raise ResourceCeilingError(f"degree {degree} exceeds the ceiling {limits.max_degree}")
        m = self.module
        columns = m.algebra.dim**degree * m.dim if self.kind is ComplexKind.HOCHSCHILD else parity_count(m, degree)
        if columns > limits.max_columns:
            raise ResourceCeilingError(f"cochain space of dimension {columns} exceeds the ceiling {limits.max_columns}")


def coboundary_matrix(cx: Complex, degree: int) -> RationalMatrix:
    """Matrix of the coboundary d_n: S_n -> S_{n+1} in the complex's bases, built once per complex."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree in cx._matrices:
        return cx._matrices[degree]
    # Degree n is refused first, and both degrees are admitted before the domain is built.
    cx._admit(degree)
    cx._admit(degree + 1)
    domain = cx.space(degree)
    algebra, module = cx.algebra, cx.module
    rows = ({i: 1} for i in range(algebra.dim**degree * module.dim)) if domain is None else domain.rows
    pivots = None if domain is None else {p: i for i, p in enumerate(harrison_pivots(module, degree + 1))}
    images = (coboundary_scatter(module, degree, row) for row in rows)
    columns = list(images) if pivots is None else [{pivots[p]: x for p, x in im.items() if p in pivots} for im in images]
    height = algebra.dim ** (degree + 1) * module.dim if pivots is None else len(pivots)
    cx._matrices[degree] = RationalMatrix.from_columns(columns, rows=height)
    return cx._matrices[degree]


class CohomologyResult(Record):
    """Dimensions and canonical representatives at one degree of one complex."""

    kind: ComplexKind
    degree: int
    dim_cochain: int
    dim_cocycles: int
    dim_coboundaries: int
    representatives: tuple[Cochain, ...]

    @property
    def dim_cohomology(self) -> int:
        return self.dim_cocycles - self.dim_coboundaries


def cohomology(cx: Complex, degree: int) -> CohomologyResult:
    """Cocycles modulo coboundaries at the given degree of the complex."""
    outgoing = coboundary_matrix(cx, degree)
    cocycles = kernel_basis(outgoing)
    if degree == 0:
        coboundaries = SubspaceBasis(outgoing.cols, ())
    else:
        coboundaries = image_basis(coboundary_matrix(cx, degree - 1))
    reps = quotient_representatives(cocycles, coboundaries)

    algebra, module, space = cx.algebra, cx.module, cx.space(degree)
    representatives = tuple(
        Cochain(degree, module, row if space is None else space.combination(row)) for row in reps.rows
    )
    for index, rep in enumerate(representatives):
        image = coboundary_scatter(module, degree, rep.data)
        if image:
            t, l = decode(min(image), degree + 1, algebra.dim, module.dim)
            args = ", ".join(algebra.basis_names[i] for i in t)
            raise AssertionError(
                f"{cx.kind.value} representative {index} in degree {degree} is not a cocycle: its coboundary "
                f"is nonzero at entry (t, l) = ({t}, {l}), that is ({args}) -> {module.basis_names[l]}"
            )
    return CohomologyResult(
        kind=cx.kind,
        degree=degree,
        dim_cochain=outgoing.cols,
        dim_cocycles=cocycles.dim,
        dim_coboundaries=coboundaries.dim,
        representatives=representatives,
    )


def derivation_space(module: SuperModule) -> SubspaceBasis:
    """Parity-preserving maps f: A -> M obeying the Leibniz rule f(ab) = a f(b) + f(a) b.

    The trailing term uses the Koszul right action.  The system is assembled
    directly from the structure constants, with no coboundary or shuffle
    machinery involved, so this is an independent check target for degree-1
    cocycles.  Each row is the ``data`` of a degree-1 cochain, over the same
    flat offsets as ``harrison_space(module, 1)``; the entries that are not
    parity-consistent are pinned to zero.
    """
    algebra = module.algebra
    dim_a, dim_m = algebra.dim, module.dim
    consistent = set(parity_offsets(module, 1))
    rows: list[dict[int, Rat]] = [{off: 1} for off in range(dim_a * dim_m) if off not in consistent]
    products = algebra.products
    action = module.action_sparse
    a_par = algebra.parity
    m_par = module.parity
    # offset[i][l]: the flat offset of the unknown f(e_i)_l, one shared int per unknown.
    offset = [[encode((i,), l, dim_a, dim_m) for l in range(dim_m)] for i in range(dim_a)]
    for i in range(dim_a):
        for j in range(dim_a):
            # (l2, offset of the unknown, coefficient) of f(e_i e_j) - e_i f(e_j)
            # - f(e_i) e_j on m_{l2}; the last term takes the Koszul right action.
            terms = [(l2, offset[k][l2], c) for k, c in products[i][j] for l2 in range(dim_m)]
            for l in range(dim_m):
                terms.extend((l2, offset[j][l], -c) for l2, c in action[i][l])
                sign = -1 if a_par[j] and m_par[l] else 1
                terms.extend((l2, offset[i][l], -sign * c) for l2, c in action[j][l])
            equations: list[dict[int, Rat]] = [{} for _ in range(dim_m)]
            for l2, off, c in terms:
                equations[l2][off] = equations[l2].get(off, 0) + c
            rows.extend(row for row in equations if any(row.values()))
    return kernel_basis(RationalMatrix.from_rows(rows, cols=dim_a * dim_m))
