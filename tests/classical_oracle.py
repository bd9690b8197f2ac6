"""Sign-free commutative pipeline, used as an oracle for all-even algebras.

Everything here is rebuilt from scratch with plain loops: shuffles come
from brute-force filtering of permutations, the shuffle-closed subspace
from a literal stacked kernel over flat coordinates, and the coboundary
from structure constants with ordinary left and right multiplication.
No parity or sign conventions enter anywhere, which is exactly what the
graded pipeline must collapse to when every basis element is even.

Only the generic rational matrix kernel is shared with the library.
``rank_mod_p`` shares not even that: it eliminates over Z/p with plain
dict rows, so a fault in the library's elimination that keeps ranks
plausible still shows against it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from conftest import dense_tensor, sparse
from superharrison.linalg import (
    RationalMatrix,
    SubspaceBasis,
    image_basis,
    kernel_basis,
)


def plain_shuffles(n: int, p: int) -> list[tuple[int, ...]]:
    found = []
    for images in permutations(range(1, n + 1)):
        first, second = images[:p], images[p:]
        if list(first) == sorted(first) and list(second) == sorted(second):
            found.append(images)
    return found


def plain_sign(images: tuple[int, ...]) -> int:
    inversions = 0
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] > images[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


def flat_offset(dim: int, t: tuple[int, ...], l: int) -> int:
    index = 0
    for i in t:
        index = index * dim + i
    return index * dim + l


def flat_dim(dim: int, degree: int) -> int:
    return dim**degree * dim


def shuffle_closed_space(dim: int, degree: int) -> SubspaceBasis:
    """Kernel of every stacked shuffle-sum matrix over flat coordinates."""
    total = flat_dim(dim, degree)
    if degree <= 1:
        return SubspaceBasis.from_vectors([{r: 1} for r in range(total)], total)
    rows = []
    for p in range(1, degree):
        shuffles = []
        for images in plain_shuffles(degree, p):
            inverse = tuple(images.index(m + 1) for m in range(degree))
            shuffles.append((plain_sign(images), inverse))
        for t in product(range(dim), repeat=degree):
            for l in range(dim):
                row = [0] * total
                for sign, inverse in shuffles:
                    u = tuple(t[inverse[m]] for m in range(degree))
                    row[flat_offset(dim, u, l)] += sign
                rows.append(row)
    return kernel_basis(RationalMatrix.from_rows(list(map(sparse, rows)), total))


def coboundary_columns(structure, degree: int) -> RationalMatrix:
    """Matrix of the coboundary from flat degree-n to flat degree-(n+1)
    coordinates, assembled per elementary cochain."""
    dim = len(structure)
    n = degree
    columns = []
    for u in product(range(dim), repeat=n):
        for l in range(dim):
            column = [0] * flat_dim(dim, n + 1)
            # a1 . f(a2 ... a_{n+1})
            for j in range(dim):
                for k in range(dim):
                    c = structure[j][l][k]
                    if c:
                        column[flat_offset(dim, (j,) + u, k)] += c
            # alternating merges of adjacent arguments
            for i in range(1, n + 1):
                sign = -1 if i % 2 else 1
                target = u[i - 1]
                for a in range(dim):
                    for b in range(dim):
                        c = structure[a][b][target]
                        if c:
                            merged = u[: i - 1] + (a, b) + u[i:]
                            column[flat_offset(dim, merged, l)] += sign * c
            # f(a1 ... an) . a_{n+1}
            last_sign = -1 if (n + 1) % 2 else 1
            for j in range(dim):
                for k in range(dim):
                    c = structure[l][j][k]
                    if c:
                        column[flat_offset(dim, u + (j,), k)] += last_sign * c
            columns.append(sparse(column))
    return RationalMatrix.from_columns(columns, flat_dim(dim, n + 1))


def restricted_boundary(structure, degree: int, domain: SubspaceBasis):
    """Coboundary columns for each basis vector of a flat-coordinate
    subspace."""
    full = coboundary_columns(structure, degree)
    return full.matmul(RationalMatrix.from_columns(domain.rows, full.cols))


def classical_dimensions(algebra, degree: int) -> tuple[int, int, int, int]:
    """(cochains, cocycles, coboundaries, cohomology) of the sign-free
    shuffle-closed complex at the given degree."""
    structure = dense_tensor(algebra.products, algebra.dim)
    dim = algebra.dim
    space = shuffle_closed_space(dim, degree)
    boundary = restricted_boundary(structure, degree, space)
    cocycles = kernel_basis(boundary).dim
    if degree == 0:
        coboundaries = 0
    else:
        below = shuffle_closed_space(dim, degree - 1)
        coboundaries = image_basis(
            restricted_boundary(structure, degree - 1, below)
        ).dim
    return (space.dim, cocycles, coboundaries, cocycles - coboundaries)


def rank_mod_p(rows, p: int = 2**31 - 1) -> int:
    """Rank over Z/p of the matrix whose rows are the sparse {col: value} maps ``rows``.

    Values are ints or Fractions, whose denominators must be units mod p.
    Each row is reduced against the stored pivot rows, leftmost column
    first, and becomes a pivot row itself when anything is left.  The rank
    mod p is at most the rank over Q, and equal to it for all but finitely
    many primes.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        left = {}
        for col, value in row.items():
            value = Fraction(value)
            residue = value.numerator * pow(value.denominator, -1, p) % p
            if residue:
                left[col] = residue
        while left:
            col = min(left)
            if col not in pivots:
                inverse = pow(left[col], -1, p)
                pivots[col] = {c: x * inverse % p for c, x in left.items()}
                break
            factor = left[col]
            for c, x in pivots[col].items():
                residue = (left.get(c, 0) - factor * x) % p
                if residue:
                    left[c] = residue
                else:
                    left.pop(c, None)
    return len(pivots)
