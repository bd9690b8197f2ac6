"""Cohomology of the full Hochschild complex and of its graded Harrison subcomplex.

Both complexes live in one cochain space, written over flat offsets.
Matrices are taken with respect to deterministic bases: the full complex
uses the elementary cochains in flat enumeration order, and the Harrison
subcomplex uses the canonical echelon basis from ``harrison_space``, whose
rows are cochains' ``data``.  Each column is the sparse coboundary
(``coboundary_scatter``) of one basis element; no dense cochain is built.
A Harrison column is expanded in the degree-(n+1) Harrison basis by
``SubspaceBasis.sparse_coordinates``, which also checks that it lies in
that space; a failure would mean the shuffle conditions are not closed
under the coboundary and is raised as ``ShuffleClosureError``, naming the
basis row, the first offending entry and, for a shuffle failure, the p of
the first su_{n+1,p} that does not vanish, instead of being silently
projected away.

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
    decode,
    encode,
    harrison_space,
    parity_count,
    parity_offsets,
    super_shuffle_sum,
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

    codomain = harrison_space(algebra, module, degree + 1)
    columns = []
    for index, row in enumerate(harrison_space(algebra, module, degree).rows):
        image = coboundary_scatter(algebra, module, degree, row)
        expansion = codomain.sparse_coordinates(image)
        if expansion is None:
            raise _closure_error(Cochain(degree + 1, algebra, module, image), index)
        columns.append(expansion)
    return RationalMatrix.from_columns(columns, rows=codomain.dim)


def _entry_name(f: Cochain, t: tuple[int, ...], l: int) -> str:
    """Entry (t, l) of a cochain over f's algebra and module, with the basis names of its arguments and value."""
    args = ", ".join(f.algebra.basis_names[i] for i in t)
    return f"entry (t, l) = ({t}, {l}), that is ({args}) -> {f.module.basis_names[l]}"


def _closure_error(df: Cochain, index: int) -> ShuffleClosureError:
    """Why df, the coboundary of Harrison basis row ``index``, left the Harrison space."""
    prefix = f"coboundary of Harrison basis row {index} in degree {df.degree - 1}"
    a_par, m_par = df.algebra.parity, df.module.parity
    for t, l, _ in df.iter_nonzero():
        if sum(a_par[i] for i in t) % 2 != m_par[l]:
            return ShuffleClosureError(f"{prefix} has a parity-violating {_entry_name(df, t, l)}")
    for p in range(1, df.degree):
        for t, l, _ in super_shuffle_sum(df, p).iter_nonzero():
            return ShuffleClosureError(
                f"{prefix} fails a shuffle condition: su_{{{df.degree},{p}}} is nonzero at {_entry_name(df, t, l)}"
            )
    return ShuffleClosureError(f"{prefix} fails a shuffle condition")


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
    representatives: tuple[Cochain, ...]

    @property
    def dim_cohomology(self) -> int:
        return self.dim_cocycles - self.dim_coboundaries


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

    space = None if kind is ComplexKind.HOCHSCHILD else harrison_space(algebra, module, degree)
    representatives = tuple(
        Cochain(degree, algebra, module, row if space is None else space.combination(row)) for row in reps.rows
    )
    for index, rep in enumerate(representatives):
        image = coboundary_scatter(algebra, module, degree, rep.data)
        if image:
            t, l = decode(min(image), degree + 1, algebra.dim, module.dim)
            raise AssertionError(
                f"{kind.value} representative {index} in degree {degree} is not a cocycle: "
                f"its coboundary is nonzero at {_entry_name(rep, t, l)}"
            )
    return CohomologyResult(
        kind=kind,
        degree=degree,
        dim_cochain=outgoing.cols,
        dim_cocycles=cocycles.dim,
        dim_coboundaries=coboundaries.dim,
        representatives=representatives,
    )


def derivation_space(algebra: SuperAlgebra, module: SuperModule) -> SubspaceBasis:
    """Parity-preserving maps f: A -> M obeying the Leibniz rule f(ab) = a f(b) + f(a) b.

    The trailing term uses the Koszul right action.  The system is assembled
    directly from the structure constants, with no coboundary or shuffle
    machinery involved, so this is an independent check target for degree-1
    cocycles.  Each row is the ``data`` of a degree-1 cochain, over the same
    flat offsets as ``harrison_space(algebra, module, 1)``; the entries that
    are not parity-consistent are pinned to zero.
    """
    dim_a, dim_m = algebra.dim, module.dim
    consistent = set(parity_offsets(algebra, module, 1))
    rows: list[dict[int, Rat]] = [{off: 1} for off in range(dim_a * dim_m) if off not in consistent]
    products = algebra.products
    action = module.action_sparse
    a_par = algebra.parity
    m_par = module.parity
    for i in range(dim_a):
        for j in range(dim_a):
            # (l2, offset of the unknown, coefficient) of f(e_i e_j) - e_i f(e_j)
            # - f(e_i) e_j on m_{l2}; the last term takes the Koszul right action.
            terms = [(l2, encode((k,), l2, dim_a, dim_m), c) for k, c in products[i][j] for l2 in range(dim_m)]
            for l in range(dim_m):
                terms.extend((l2, encode((j,), l, dim_a, dim_m), -c) for l2, c in action[i][l])
                sign = -1 if a_par[j] and m_par[l] else 1
                terms.extend((l2, encode((i,), l, dim_a, dim_m), -sign * c) for l2, c in action[j][l])
            equations: list[dict[int, Rat]] = [{} for _ in range(dim_m)]
            for l2, off, c in terms:
                equations[l2][off] = equations[l2].get(off, 0) + c
            rows.extend(row for row in equations if any(row.values()))
    return kernel_basis(RationalMatrix.from_rows(rows, cols=dim_a * dim_m))
