"""Cohomology of the full Hochschild complex and of its graded Harrison subcomplex.

Matrices are taken with respect to deterministic bases: the full complex
uses the elementary cochains in flat enumeration order, and the Harrison
subcomplex uses the canonical echelon basis from ``harrison_space``.  Each
column is the sparse coboundary (``coboundary_scatter``) of one basis
element; no dense cochain is built.  Every Harrison coboundary column is
checked to land inside the degree-(n+1) Harrison space; a failure would
mean the shuffle conditions are not closed under the coboundary and is
raised as ``ShuffleClosureError`` instead of being silently projected away.

Cocycle representatives returned by ``cohomology`` are reduced against the
coboundary subspace, so they are canonical for the given bases and the same
on every run.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .algebras import SuperAlgebra, SuperModule
from .cochains import (
    Cochain,
    coboundary_scatter,
    cochain_from_coordinates,
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
from .records import Record, set_field

__all__ = [
    "ComplexKind",
    "ResourceLimits",
    "ResourceCeilingError",
    "ShuffleClosureError",
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

    def __init__(self, max_degree: int = max_degree, max_columns: int = max_columns) -> None:
        set_field(self, "max_degree", max_degree)
        set_field(self, "max_columns", max_columns)


DEFAULT_LIMITS = ResourceLimits()


class ResourceCeilingError(RuntimeError):
    """A requested computation exceeds the configured size ceilings."""


class ShuffleClosureError(RuntimeError):
    """A coboundary of a Harrison basis element left the Harrison space."""


def _guard(degree: int, columns: int, limits: ResourceLimits) -> None:
    if degree > limits.max_degree:
        raise ResourceCeilingError(
            f"degree {degree} exceeds the ceiling {limits.max_degree}"
        )
    if columns > limits.max_columns:
        raise ResourceCeilingError(
            f"cochain space of dimension {columns} exceeds the ceiling {limits.max_columns}"
        )


def _dimension(algebra: SuperAlgebra, module: SuperModule, degree: int, kind: ComplexKind) -> int:
    if kind is ComplexKind.HOCHSCHILD:
        return algebra.dim**degree * module.dim
    return parity_count(algebra, module, degree)


@lru_cache(maxsize=None)
def _coboundary_matrix_cached(
    algebra: SuperAlgebra, module: SuperModule, degree: int, kind: ComplexKind
) -> RationalMatrix:
    if kind is ComplexKind.HOCHSCHILD:
        columns = [
            coboundary_scatter(algebra, module, degree, {i: 1})
            for i in range(_dimension(algebra, module, degree, kind))
        ]
        return RationalMatrix.from_columns(columns, rows=_dimension(algebra, module, degree + 1, kind))

    domain = parity_offsets(algebra, module, degree)
    position = {off: pos for pos, off in enumerate(parity_offsets(algebra, module, degree + 1))}
    codomain = harrison_space(algebra, module, degree + 1)
    columns = []
    for row in harrison_space(algebra, module, degree).rows:
        coords = {}
        for off, x in coboundary_scatter(algebra, module, degree, {domain[pos]: x for pos, x in row.items()}).items():
            if off not in position:
                raise ShuffleClosureError("coboundary of a Harrison element has a parity-violating entry")
            coords[position[off]] = x
        expansion = codomain.sparse_coordinates(coords)
        if expansion is None:
            raise ShuffleClosureError("coboundary of a Harrison element fails a shuffle condition")
        columns.append(expansion)
    return RationalMatrix.from_columns(columns, rows=codomain.dim)


def coboundary_matrix(
    algebra: SuperAlgebra,
    module: SuperModule,
    degree: int,
    kind: ComplexKind,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> RationalMatrix:
    """Matrix of the coboundary from degree n to degree n+1 in the chosen bases."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    _guard(degree, _dimension(algebra, module, degree, kind), limits)
    _guard(degree + 1, _dimension(algebra, module, degree + 1, kind), limits)
    return _coboundary_matrix_cached(algebra, module, degree, kind)


class CohomologyResult(Record):
    """Dimensions and canonical representatives at one degree of one complex."""

    kind: ComplexKind
    degree: int
    dim_cochain: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    representatives: tuple[Cochain, ...]

    def __init__(
        self,
        kind: ComplexKind,
        degree: int,
        dim_cochain: int,
        dim_cocycles: int,
        dim_coboundaries: int,
        dim_cohomology: int,
        representatives: tuple[Cochain, ...],
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "degree", degree)
        set_field(self, "dim_cochain", dim_cochain)
        set_field(self, "dim_cocycles", dim_cocycles)
        set_field(self, "dim_coboundaries", dim_coboundaries)
        set_field(self, "dim_cohomology", dim_cohomology)
        set_field(self, "representatives", representatives)


def cohomology(
    algebra: SuperAlgebra,
    module: SuperModule,
    degree: int,
    kind: ComplexKind,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> CohomologyResult:
    """Cocycles modulo coboundaries at the given degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    outgoing = coboundary_matrix(algebra, module, degree, kind, limits)
    cocycles = kernel_basis(outgoing)
    if degree == 0:
        coboundaries = SubspaceBasis(outgoing.cols, ())
    else:
        incoming = coboundary_matrix(algebra, module, degree - 1, kind, limits)
        coboundaries = image_basis(incoming)
    reps = quotient_representatives(cocycles, coboundaries)

    if kind is ComplexKind.HOCHSCHILD:
        representatives = tuple(Cochain(degree, algebra, module, row) for row in reps.rows)
    else:
        space = harrison_space(algebra, module, degree)
        representatives = tuple(
            cochain_from_coordinates(algebra, module, degree, space.combination(row)) for row in reps.rows
        )
    for rep in representatives:
        if coboundary_scatter(algebra, module, degree, rep.data):
            raise AssertionError("representative is not a cocycle")
    return CohomologyResult(
        kind=kind,
        degree=degree,
        dim_cochain=outgoing.cols,
        dim_cocycles=cocycles.dim,
        dim_coboundaries=coboundaries.dim,
        dim_cohomology=cocycles.dim - coboundaries.dim,
        representatives=representatives,
    )


def derivation_space(algebra: SuperAlgebra, module: SuperModule) -> SubspaceBasis:
    """Parity-preserving maps f: A -> M obeying the Leibniz rule f(ab) = a f(b) + f(a) b.

    The trailing term uses the Koszul right action.  The system is assembled
    directly from the structure constants, with no cochain machinery
    involved, so this is an independent check target for degree-1 cocycles.
    Coordinates index the parity-consistent pairs (i, l), lexicographically.
    """
    unknowns = [
        (i, l)
        for i in range(algebra.dim)
        for l in range(module.dim)
        if algebra.parity[i] == module.parity[l]
    ]
    col = {pair: idx for idx, pair in enumerate(unknowns)}
    rows: list[list[Rat]] = []
    c = algebra.structure
    action = module.action
    a_par = algebra.parity
    m_par = module.parity
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            for l2 in range(module.dim):
                row: list[Rat] = [0] * len(unknowns)

                # f(e_i e_j) component on m_{l2}
                for k in range(algebra.dim):
                    if c[i][j][k] and (k, l2) in col:
                        row[col[(k, l2)]] += c[i][j][k]

                # minus e_i * f(e_j)
                for l in range(module.dim):
                    if (j, l) in col and action[i][l][l2]:
                        row[col[(j, l)]] -= action[i][l][l2]

                # minus f(e_i) * e_j  (Koszul right action)
                for l in range(module.dim):
                    if (i, l) in col and action[j][l][l2]:
                        sign = -1 if a_par[j] and m_par[l] else 1
                        row[col[(i, l)]] -= sign * action[j][l][l2]

                if any(row):
                    rows.append(row)
    return kernel_basis(RationalMatrix.from_rows(rows, cols=len(unknowns)))
