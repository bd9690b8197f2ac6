"""Exact sparse linear algebra over the rationals.

Scalars are plain ``int`` or ``fractions.Fraction``; nothing in this module
ever touches floating point.  A vector is a dict ``{position: value}``
together with a length that the caller states: every public entry point
takes it that way, refuses any other form, and normalises it once, on the
way in (``_sparse``).  Results stay sparse: a basis is read as its
``rows``, a solution or a coordinate vector as a dict.  The two dense views
left, ``RationalMatrix.entries`` and ``SubspaceBasis.coordinates``, are
kept for the benchmark's tracer, which binds them by name.

All elimination runs through one Gauss-Jordan routine on sparse rows,
``_rref``.  Forward elimination keeps rows integral and primitive
(fraction-free, in the manner of Bareiss), takes the leftmost nonzero column
as the pivot and clears pivots in increasing column order; back-substitution
and one division by each leading entry then give the reduced row echelon
form.  That form is unique, so every basis produced here is the canonical
basis of its subspace whatever order its generators came in, and results
are reproducible run to run.  The cost follows the nonzeros, not rows times
columns: a coboundary matrix has a handful of nonzeros per column.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .records import Record, set_field

Rat = Union[int, Fraction]

__all__ = [
    "Rat",
    "as_rational",
    "RationalMatrix",
    "SubspaceBasis",
    "NotASubspaceError",
    "kernel_basis",
    "image_basis",
    "solve",
    "quotient_representatives",
]


class NotASubspaceError(ValueError):
    """A claimed subspace containment does not actually hold."""


def as_rational(value: object) -> Rat:
    """Coerce ``value`` to an exact scalar, rejecting floats and booleans outright."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"expected int or Fraction, got {value!r}")


def _sparse(vector: Mapping[int, Rat], length: int) -> dict[int, Rat]:
    """The nonzero entries of the vector ``{position: value}`` of ``length``, normalised.

    Each value is coerced before zeros are dropped, so a zero that is not an
    exact scalar, such as ``0.0`` or ``False``, is refused like any other.
    """
    if not isinstance(vector, Mapping):
        raise TypeError(f"expected a vector as {{position: value}}, got {type(vector).__name__}")
    out = {j: y for j, x in vector.items() if (y := as_rational(x))}
    if any(not 0 <= j < length for j in out):
        raise ValueError(f"vector position out of range for length {length}")
    return out


def _dense(row: Mapping[int, Rat], length: int) -> tuple[Rat, ...]:
    out: list[Rat] = [0] * length
    for j, x in row.items():
        out[j] = as_rational(x)
    return tuple(out)


def _transpose(vectors: Sequence[Mapping[int, Rat]], length: int) -> list[dict[int, Rat]]:
    """Sparse columns as sparse rows, or back: ``out[i][j] = vectors[j][i]``."""
    out: list[dict[int, Rat]] = [{} for _ in range(length)]
    for j, vector in enumerate(vectors):
        for i, x in vector.items():
            out[i][j] = x
    return out


def _clear(row: dict[int, Rat], echelon: Mapping[int, Mapping[int, Rat]], after: int = -1) -> dict[int, Rat]:
    """Clear from ``row``, in place, every pivot of ``echelon`` right of ``after``; return it.

    ``echelon`` maps each pivot to a row whose leftmost entry sits there,
    either 1 or, with ``row`` integral too, any integer a; then ``row`` is
    first scaled by a / gcd(a, row[pivot]) so that it stays integral.
    Pivots are cleared in increasing order, since clearing one can fill a
    later one.  The result vanishes at every cleared pivot, which fixes it
    up to a scalar: it depends only on the span of ``echelon``.
    """
    heap = [c for c in row if c > after and c in echelon]
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = row.pop(c, 0)
        if not f:
            continue
        prow = echelon[c]
        a = prow[c]
        if a != 1:
            g = gcd(a, f)
            a, f = a // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
        for j, x in prow.items():
            if j == c:
                continue
            if j in row:
                v = row[j] - f * x
                if v:
                    row[j] = v
                else:
                    del row[j]
            else:
                row[j] = -f * x
                if j in echelon:
                    heappush(heap, j)
    return row


def _denominator(values: Iterable[Rat]) -> int:
    """The least common multiple of the denominators of ``values``: 1 when every value is an int."""
    return lcm(*{x.denominator for x in values if isinstance(x, Fraction)})


def _ratio(x: int, d: int) -> Rat:
    """x / d, normalised: an int when d divides x."""
    return x // d if x % d == 0 else Fraction(x, d)


def _integral(row: Mapping[int, Rat]) -> dict[int, int]:
    """``row`` times the least common multiple of its denominators, as ints.

    A ``Fraction`` of denominator 1, which a difference of fractions leaves,
    becomes an int as well.
    """
    denominators = {x.denominator for x in row.values() if isinstance(x, Fraction)}
    if not denominators:
        return dict(row)
    scale = lcm(*denominators)
    return {j: int(x * scale) for j, x in row.items()}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries, signed to make the leading entry positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _rref(rows: Iterable[Mapping[int, Rat]]) -> list[dict[int, Rat]]:
    """The canonical reduced row echelon rows of the span of ``rows``, by increasing pivot.

    Each result row has a leading 1 at its pivot and zeros at every other
    pivot, and its entries are normalised rationals in column order.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _clear(_integral(row), echelon)
        if row:
            row = _primitive(row)
            echelon[min(row)] = row
    pivots = sorted(echelon)
    out = []
    # Rows right of p are fully reduced by the time p is reached, so
    # clearing them from row p brings no new pivot into it.
    for p in reversed(pivots):
        row = _primitive(_clear(echelon[p], echelon, after=p))
        echelon[p] = row
        lead = row[p]
        out.append({j: row[j] // lead if row[j] % lead == 0 else Fraction(row[j], lead) for j in sorted(row)})
    out.reverse()
    return out


class RationalMatrix(Record):
    """Matrix with exact rational entries, stored as sparse rows.

    ``data[i]`` maps each column j to the nonzero entry (i, j).  Build one
    with ``from_rows`` or ``from_columns``, which normalise the entries.
    """

    rows: int
    cols: int
    data: tuple[dict[int, Rat], ...]

    def __init__(self, rows: int, cols: int, data: tuple[dict[int, Rat], ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows:
            raise ValueError("row count does not match data")
        super().__init__(rows, cols, data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(sorted(row.items())) for row in self.data)))

    @staticmethod
    def from_rows(rows: Sequence[Mapping[int, Rat]], cols: int) -> "RationalMatrix":
        return RationalMatrix(len(rows), cols, tuple(_sparse(r, cols) for r in rows))

    @staticmethod
    def from_columns(columns: Sequence[Mapping[int, Rat]], rows: int) -> "RationalMatrix":
        data = _transpose([_sparse(c, rows) for c in columns], rows)
        return RationalMatrix(rows, len(columns), tuple(data))

    @property
    def entries(self) -> tuple[tuple[Rat, ...], ...]:
        """The matrix densely, row by row.

        Nothing in the package reads it; ``perfbench/traced_cli.py`` counts
        a matrix's nonzeros through it.
        """
        return tuple(_dense(row, self.cols) for row in self.data)

    def is_zero(self) -> bool:
        return not any(self.data)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for row in self.data:
            acc: dict[int, Rat] = {}
            for k, x in row.items():
                for j, y in other.data[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: as_rational(v) for j, v in acc.items() if v})
        return RationalMatrix(self.rows, other.cols, tuple(out))


class SubspaceBasis(Record):
    """Canonical (reduced row echelon) basis of a subspace of Q^ambient_dim.

    ``rows`` are the nonzero RREF rows, sparse, as ``from_vectors`` builds
    them.  Because the RREF basis of a subspace is unique, two
    SubspaceBasis values are equal iff they span the same subspace.  The
    pivot of each row is found once, here, and kept as ``_echelon``
    (pivot -> row) and ``_index`` (pivot -> row index).
    """

    ambient_dim: int
    rows: tuple[dict[int, Rat], ...]

    def __init__(self, ambient_dim: int, rows: tuple[dict[int, Rat], ...]) -> None:
        pivots = [min(row) for row in rows]
        set_field(self, "_echelon", dict(zip(pivots, rows)))
        set_field(self, "_index", {p: i for i, p in enumerate(pivots)})
        super().__init__(ambient_dim, rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(sorted(row.items())) for row in self.rows)))

    @staticmethod
    def from_vectors(vectors: Iterable[Mapping[int, Rat]], ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, tuple(_rref(_sparse(v, ambient_dim) for v in vectors)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def sparse_coordinates(self, vector: Mapping[int, Rat]) -> Optional[dict[int, Rat]]:
        """Coefficients of ``vector`` as {basis index: nonzero coefficient}, or None if outside the span.

        Reading the entries at the pivot positions suffices: RREF vectors
        have a 1 there and zeros at every other pivot.
        """
        entries = _sparse(vector, self.ambient_dim)
        coords = {self._index[p]: x for p, x in entries.items() if p in self._index}
        if _clear(entries, self._echelon):
            return None
        return coords

    def coordinates(self, vector: Mapping[int, Rat]) -> Optional[tuple[Rat, ...]]:
        """Coefficients of ``vector`` in this basis, densely, or None if outside the span.

        The package reads ``sparse_coordinates``; ``perfbench/traced_cli.py``
        times calls to this method by name.
        """
        coords = self.sparse_coordinates(vector)
        return None if coords is None else _dense(coords, self.dim)

    def combination(self, coeffs: Mapping[int, Rat]) -> dict[int, Rat]:
        """The vector with coefficients {basis index: value}, sparse; inverse of ``sparse_coordinates``."""
        out: dict[int, Rat] = {}
        for i, coeff in coeffs.items():
            for j, x in self.rows[i].items():
                out[j] = out.get(j, 0) + coeff * x
        return {j: as_rational(x) for j, x in out.items() if x}

    def contains(self, vector: Mapping[int, Rat]) -> bool:
        return not _clear(_sparse(vector, self.ambient_dim), self._echelon)


def kernel_basis(matrix: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the null space of ``matrix``.

    The rows are eliminated with the columns in reverse order, so every
    pivot lies right of the free columns it meets.  The kernel vector of a
    free column c, e_c minus each pivot column weighted by its row's entry
    at c, then has its leading 1 at c and zeros at every other free column:
    it already is a canonical RREF row, and no second elimination is needed.
    """
    last = matrix.cols - 1
    reduced = _rref({last - j: x for j, x in row.items()} for row in matrix.data)
    pivots = {last - min(row) for row in reduced}
    vectors: dict[int, dict[int, Rat]] = {c: {c: 1} for c in range(matrix.cols) if c not in pivots}
    # Pivots in increasing column order, so each vector is built in column order.
    for row in reversed(reduced):
        p = last - min(row)
        for j, x in row.items():
            if last - j != p:
                vectors[last - j][p] = -x
    return SubspaceBasis(matrix.cols, tuple(vectors[c] for c in sorted(vectors)))


def image_basis(matrix: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the column space of ``matrix``.

    The columns are eliminated last one first.  The basis does not depend
    on their order, and on a coboundary matrix this order costs two to four
    times less than first one first.
    """
    return SubspaceBasis(matrix.rows, tuple(_rref(reversed(_transpose(matrix.data, matrix.cols)))))


def solve(matrix: RationalMatrix, rhs: Mapping[int, Rat]) -> Optional[dict[int, Rat]]:
    """One solution of ``matrix @ x = rhs`` as {column: nonzero value} (free variables 0), or None."""
    b = _sparse(rhs, matrix.rows)
    n = matrix.cols
    augmented = ({**row, n: b[i]} if i in b else row for i, row in enumerate(matrix.data))
    x: dict[int, Rat] = {}
    for row in _rref(augmented):
        p = min(row)
        if p == n:
            return None
        if n in row:
            x[p] = row[n]
    return x


def quotient_representatives(space: SubspaceBasis, subspace: SubspaceBasis) -> SubspaceBasis:
    """Vectors completing ``subspace`` to a basis of ``space``.

    Each vector of ``space`` is reduced against the subspace, and the
    result is the canonical basis of the span of those remainders, which
    meets the subspace only in zero.
    Raises NotASubspaceError when ``subspace`` is not contained in ``space``.
    """
    if space.ambient_dim != subspace.ambient_dim:
        raise NotASubspaceError("ambient dimensions differ")
    for row in subspace.rows:
        if not space.contains(row):
            raise NotASubspaceError("claimed subspace has a vector outside the space")

    # Reducing against the representatives found so far as well would
    # change each one only by earlier ones, so not their span.
    reps = [_clear(dict(z), subspace._echelon) for z in space.rows]
    return SubspaceBasis(space.ambient_dim, tuple(_rref(reps)))
