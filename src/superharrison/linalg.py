"""Exact dense linear algebra over the rationals.

Scalars are plain ``int`` or ``fractions.Fraction``; nothing in this module
ever touches floating point.  Elimination always picks the first nonzero
entry in column order as the pivot, so every basis produced here is the
canonical reduced-row-echelon basis of its subspace and all results are
reproducible run to run.  Matrices are small (a few hundred rows at most),
hence the unapologetically dense representation.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

Rat = Union[int, Fraction]

__all__ = [
    "Rat",
    "as_rational",
    "RationalMatrix",
    "SubspaceBasis",
    "NotASubspaceError",
    "kernel_basis",
    "image_basis",
    "rank",
    "solve",
    "quotient_representatives",
    "same_subspace",
    "contains_subspace",
]


class NotASubspaceError(ValueError):
    """A claimed subspace containment does not actually hold."""


def as_rational(value: object) -> Rat:
    """Coerce ``value`` to an exact scalar, rejecting floats outright."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"expected int or Fraction, got {value!r}")


def _rref_in_place(data: list[list[Rat]], ncols: int) -> list[int]:
    """Reduce ``data`` to reduced row echelon form; return pivot columns.

    Rows r..end are zero in every column left of the current column, so
    row updates only need to touch the tail slice.
    """
    nrows = len(data)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if data[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        prow = data[r]
        pv = prow[c]
        if pv != 1:
            inv = Fraction(1, 1) / pv
            prow[c] = 1
            for j in range(c + 1, ncols):
                if prow[j]:
                    prow[j] = prow[j] * inv
        for i in range(nrows):
            if i == r:
                continue
            row = data[i]
            factor = row[c]
            if factor:
                row[c] = 0
                for j in range(c + 1, ncols):
                    if prow[j]:
                        row[j] = row[j] - factor * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _norm_row(row: Sequence[Rat]) -> tuple[Rat, ...]:
    return tuple(as_rational(x) for x in row)


def _reduce(vector: Sequence[Rat], rows: Sequence[Sequence[Rat]], pivots: Sequence[int]) -> list[Rat]:
    """Remainder of ``vector`` against echelon ``rows`` with leading 1s at ``pivots``, in pivot order.

    The remainder is zero at every pivot, which makes it unique: it depends
    only on the span of the rows, not on whether they are fully reduced.
    """
    rem = [as_rational(x) for x in vector]
    for row, p in zip(rows, pivots):
        factor = rem[p]
        if factor:
            for j in range(p, len(rem)):
                if row[j]:
                    rem[j] = rem[j] - factor * row[j]
    return rem


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix with exact rational entries, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Rat, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rat]], cols: Optional[int] = None) -> "RationalMatrix":
        data = tuple(_norm_row(r) for r in rows)
        if cols is None:
            if not data:
                raise ValueError("column count required for an empty row list")
            cols = len(data[0])
        return RationalMatrix(len(data), cols, data)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Rat]], rows: Optional[int] = None) -> "RationalMatrix":
        if not columns:
            if rows is None:
                raise ValueError("row count required for an empty column list")
            return RationalMatrix(rows, 0, tuple(() for _ in range(rows)))
        nrows = len(columns[0])
        return RationalMatrix.from_rows(
            [[columns[j][i] for j in range(len(columns))] for i in range(nrows)],
            cols=len(columns),
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def mul_vector(self, v: Sequence[Rat]) -> tuple[Rat, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(as_rational(sum(row[j] * v[j] for j in range(self.cols) if v[j])) for row in self.entries)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append(
                [sum(row[k] * other.entries[k][j] for k in range(self.cols) if row[k]) for j in range(other.cols)]
            )
        return RationalMatrix.from_rows(out, cols=other.cols)


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (reduced row echelon) basis of a subspace of Q^ambient_dim.

    ``vectors`` are the nonzero RREF rows.  Because the RREF basis of a
    subspace is unique, two SubspaceBasis values are equal iff they span
    the same subspace.  The pivot column of each vector is found once, here.
    """

    ambient_dim: int
    vectors: tuple[tuple[Rat, ...], ...]
    _pivots: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector length does not match ambient dimension")
        object.__setattr__(self, "_pivots", tuple(next(j for j, x in enumerate(v) if x) for v in self.vectors))

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence[Rat]], ambient_dim: int) -> "SubspaceBasis":
        data = [[as_rational(x) for x in v] for v in vectors]
        for v in data:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        _rref_in_place(data, ambient_dim)
        rows = tuple(_norm_row(v) for v in data if any(v))
        return SubspaceBasis(ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def reduce(self, vector: Sequence[Rat]) -> tuple[Rat, ...]:
        """Remainder of ``vector`` after eliminating all basis pivots."""
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return _norm_row(_reduce(vector, self.vectors, self._pivots))

    def coordinates(self, vector: Sequence[Rat]) -> Optional[tuple[Rat, ...]]:
        """Coefficients of ``vector`` in this basis, or None if outside the span.

        Reading the entries at the pivot positions suffices: RREF vectors
        have a 1 there and zeros at every other pivot.
        """
        if any(self.reduce(vector)):
            return None
        return tuple(as_rational(vector[p]) for p in self._pivots)

    def combination(self, coeffs: Sequence[Rat]) -> tuple[Rat, ...]:
        """The vector with the given coefficients in this basis; inverse of ``coordinates``."""
        out: list[Rat] = [0] * self.ambient_dim
        for coeff, bvec in zip(coeffs, self.vectors):
            if coeff:
                for j, x in enumerate(bvec):
                    if x:
                        out[j] = out[j] + coeff * x
        return _norm_row(out)

    def contains(self, vector: Sequence[Rat]) -> bool:
        return not any(self.reduce(vector))


def kernel_basis(matrix: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the null space of ``matrix``."""
    data = [list(row) for row in matrix.entries]
    pivots = _rref_in_place(data, matrix.cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    vectors = []
    for fc in free_cols:
        v: list[Rat] = [0] * matrix.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            if data[r][fc]:
                v[pc] = -data[r][fc]
        vectors.append(v)
    return SubspaceBasis.from_vectors(vectors, matrix.cols)


def image_basis(matrix: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the column space of ``matrix``."""
    columns = [[matrix.entries[i][j] for i in range(matrix.rows)] for j in range(matrix.cols)]
    return SubspaceBasis.from_vectors(columns, matrix.rows)


def rank(matrix: RationalMatrix) -> int:
    data = [list(row) for row in matrix.entries]
    return len(_rref_in_place(data, matrix.cols))


def solve(matrix: RationalMatrix, rhs: Sequence[Rat]) -> Optional[tuple[Rat, ...]]:
    """One solution of ``matrix @ x = rhs`` (free variables set to 0), or None."""
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    data = [list(row) + [as_rational(b)] for row, b in zip(matrix.entries, rhs)]
    pivots = _rref_in_place(data, matrix.cols + 1)
    if matrix.cols in pivots:
        return None
    x: list[Rat] = [0] * matrix.cols
    for r, pc in enumerate(pivots):
        x[pc] = data[r][matrix.cols]
    return _norm_row(x)


def quotient_representatives(space: SubspaceBasis, subspace: SubspaceBasis) -> SubspaceBasis:
    """Vectors completing ``subspace`` to a basis of ``space``.

    Each returned vector is reduced against the subspace pivots, so distinct
    representatives stay independent modulo the subspace.  Raises
    NotASubspaceError when ``subspace`` is not contained in ``space``.
    """
    if space.ambient_dim != subspace.ambient_dim:
        raise NotASubspaceError("ambient dimensions differ")
    for v in subspace.vectors:
        if not space.contains(v):
            raise NotASubspaceError("claimed subspace has a vector outside the space")

    # Echelon accumulator sorted by pivot, rows normalized to a leading 1.
    # Distinct pivots are enough for a zero remainder to mean membership;
    # full RREF is only restored at the end.
    pivots = list(subspace.pivots())
    rows = list(subspace.vectors)
    reps = []
    for z in space.vectors:
        rem = _reduce(z, rows, pivots)
        lead = next((j for j, x in enumerate(rem) if x), None)
        if lead is None:
            continue
        if rem[lead] != 1:
            inv = Fraction(1, 1) / rem[lead]
            rem = [x * inv for x in rem]
        reps.append(rem)
        at = bisect(pivots, lead)
        pivots.insert(at, lead)
        rows.insert(at, _norm_row(rem))
    return SubspaceBasis.from_vectors(reps, space.ambient_dim)


def same_subspace(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    return a.ambient_dim == b.ambient_dim and a.vectors == b.vectors


def contains_subspace(big: SubspaceBasis, small: SubspaceBasis) -> bool:
    return big.ambient_dim == small.ambient_dim and all(big.contains(v) for v in small.vectors)
