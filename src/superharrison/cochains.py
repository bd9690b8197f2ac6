"""Multilinear cochains, shuffle conditions, and the coboundary.

A degree-n cochain is a linear map A^{(x)n} -> M, stored densely as the
value tensor over basis tuples.  The flat index of entry (t, l) with
t = (t_1, ..., t_n) is the mixed-radix number (((t_1*d + t_2)*d + ...)*d
+ t_n)*dim_M + l, so enumeration order is lexicographic in (t, l).

The cochain index lives here and nowhere else: ``encode``/``decode``
convert between (t, l) and the flat offset, ``parity_offsets``,
``parity_count``, ``parity_coordinates`` and ``cochain_from_coordinates``
map between cochains and coordinates over the parity-consistent entries,
and ``shuffle_action`` gives the signed slot permutations of su_{n,p}.
``encode``, ``decode`` and ``shuffle_action`` run once per entry, so they
stay out of ``__all__``, the names that profilers such as
``perfbench/traced_cli.py`` wrap call by call.

Three layers live here:

* the full Hochschild cochain space (all linear maps), with the coboundary

      (df)(a_1, ..., a_{n+1}) = a_1 f(a_2, ..., a_{n+1})
          + sum_{i=1}^{n} (-1)^i f(a_1, ..., a_i a_{i+1}, ..., a_{n+1})
          + (-1)^{n+1} f(a_1, ..., a_n) a_{n+1}

  where the trailing term uses the Koszul right action, and (dm)(a) =
  a*m - m*a in degree zero;

* the parity-preserving subspace (values as even as their arguments);

* the graded Harrison subspace: parity-preserving cochains killed by every
  graded shuffle sum

      (su_{n,p} f)(a_1, ..., a_n) =
          sum_{shuffles s} sign(s) * oddsign(s^{-1}) * f(a_{s^{-1}(1)}, ...)

  for p = 1, ..., n-1, where oddsign is the odd-subpermutation signature of
  s^{-1} against the argument parities.  The coboundary preserves this
  subspace; ``coboundary_matrix`` in the cohomology module checks that fact
  on every basis element it processes rather than assuming it.

The coboundary is evaluated by scattering each nonzero entry of f into the
degree-(n+1) tensor, so sparse cochains cost what their support costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import Iterator, Mapping, Sequence

from .algebras import SuperAlgebra, SuperModule
from .linalg import Rat, SubspaceBasis, as_rational, kernel_basis, RationalMatrix
from .shuffles import enumerate_shuffles, sigma_o_sign

__all__ = [
    "Cochain",
    "zero_cochain",
    "cochain_from_entries",
    "elementary_cochain",
    "cochain_apply",
    "parity_offsets",
    "parity_count",
    "parity_coordinates",
    "parity_basis",
    "super_shuffle_sum",
    "harrison_space",
    "harrison_basis",
    "hochschild_coboundary",
    "is_graded_symmetric",
    "cochain_from_coordinates",
]


def encode(t: Sequence[int], l: int, dim_a: int, dim_m: int) -> int:
    """Flat offset of entry (t, l)."""
    idx = 0
    for i in t:
        idx = idx * dim_a + i
    return idx * dim_m + l


def decode(flat: int, degree: int, dim_a: int, dim_m: int) -> tuple[tuple[int, ...], int]:
    """The entry (t, l) at a flat offset; inverse of ``encode``."""
    idx, l = divmod(flat, dim_m)
    t = [0] * degree
    for slot in range(degree - 1, -1, -1):
        idx, t[slot] = divmod(idx, dim_a)
    return tuple(t), l


@dataclass(frozen=True)
class Cochain:
    """A degree-n multilinear map A^{(x)n} -> M with exact rational values."""

    degree: int
    algebra: SuperAlgebra
    module: SuperModule
    data: tuple[Rat, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        expected = self.algebra.dim**self.degree * self.module.dim
        if len(self.data) != expected:
            raise ValueError(f"data length {len(self.data)} does not match {expected}")
        if self.module.algebra != self.algebra:
            raise ValueError("module is not over the given algebra")

    @cached_property
    def parity_preserving(self) -> bool:
        """Every nonzero value is as even as its arguments; scanned on first use."""
        a_par = self.algebra.parity
        m_par = self.module.parity
        return all(sum(a_par[i] for i in t) % 2 == m_par[l] for t, l, _ in self.iter_nonzero())

    def offset(self, t: Sequence[int], l: int) -> int:
        return encode(t, l, self.algebra.dim, self.module.dim)

    def entry(self, t: Sequence[int], l: int) -> Rat:
        if len(t) != self.degree:
            raise ValueError("tuple length does not match degree")
        return self.data[self.offset(t, l)]

    def value_on_tuple(self, t: Sequence[int]) -> tuple[Rat, ...]:
        """The module vector f(e_{t_1}, ..., e_{t_n})."""
        base = self.offset(t, 0)
        return tuple(self.data[base : base + self.module.dim])

    def iter_nonzero(self) -> Iterator[tuple[tuple[int, ...], int, Rat]]:
        n, dim_a, dim_m = self.degree, self.algebra.dim, self.module.dim
        for flat, v in enumerate(self.data):
            if v:
                t, l = decode(flat, n, dim_a, dim_m)
                yield t, l, v

    def is_zero(self) -> bool:
        return not any(self.data)

    def apply(self, args: Sequence[Sequence[Rat]]) -> tuple[Rat, ...]:
        return cochain_apply(self, args)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(
            self.degree,
            self.algebra,
            self.module,
            tuple(as_rational(a + b) for a, b in zip(self.data, other.data)),
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(
            self.degree,
            self.algebra,
            self.module,
            tuple(as_rational(a - b) for a, b in zip(self.data, other.data)),
        )

    def __neg__(self) -> "Cochain":
        return Cochain(self.degree, self.algebra, self.module, tuple(-a for a in self.data))

    def scale(self, scalar: Rat) -> "Cochain":
        s = as_rational(scalar)
        return Cochain(self.degree, self.algebra, self.module, tuple(as_rational(s * a) for a in self.data))

    def __rmul__(self, scalar: Rat) -> "Cochain":
        return self.scale(scalar)

    def _check_compatible(self, other: "Cochain") -> None:
        if (self.degree, self.algebra, self.module) != (other.degree, other.algebra, other.module):
            raise ValueError("cochains live on different spaces")


def zero_cochain(algebra: SuperAlgebra, module: SuperModule, degree: int) -> Cochain:
    size = algebra.dim**degree * module.dim
    return Cochain(degree, algebra, module, tuple(0 for _ in range(size)))


def cochain_from_entries(
    algebra: SuperAlgebra,
    module: SuperModule,
    degree: int,
    entries: Mapping[tuple[tuple[int, ...], int], Rat],
) -> Cochain:
    """Build a cochain from a sparse {(basis_tuple, module_index): value} map."""
    size = algebra.dim**degree * module.dim
    data: list[Rat] = [0] * size
    for (t, l), v in entries.items():
        if len(t) != degree:
            raise ValueError(f"tuple {t} does not have length {degree}")
        if any(not 0 <= i < algebra.dim for i in t) or not 0 <= l < module.dim:
            raise ValueError(f"entry ({t}, {l}) out of range")
        data[encode(t, l, algebra.dim, module.dim)] = as_rational(v)
    return Cochain(degree, algebra, module, tuple(data))


def elementary_cochain(
    algebra: SuperAlgebra, module: SuperModule, degree: int, t: tuple[int, ...], l: int
) -> Cochain:
    return cochain_from_entries(algebra, module, degree, {(t, l): 1})


def cochain_apply(f: Cochain, args: Sequence[Sequence[Rat]]) -> tuple[Rat, ...]:
    """Evaluate f on coefficient vectors by multilinear expansion."""
    if len(args) != f.degree:
        raise ValueError(f"expected {f.degree} arguments, got {len(args)}")
    for a in args:
        if len(a) != f.algebra.dim:
            raise ValueError("argument length does not match algebra dimension")
    out: list[Rat] = [0] * f.module.dim
    supports = [[(i, v) for i, v in enumerate(a) if v] for a in args]
    for combo in iter_product(*supports):
        coeff: Rat = 1
        for _, v in combo:
            coeff = coeff * v
        t = tuple(i for i, _ in combo)
        base = f.offset(t, 0)
        for l in range(f.module.dim):
            if f.data[base + l]:
                out[l] = out[l] + coeff * f.data[base + l]
    return tuple(as_rational(v) for v in out)


@lru_cache(maxsize=None)
def parity_offsets(algebra: SuperAlgebra, module: SuperModule, degree: int) -> tuple[int, ...]:
    """Flat offsets of the parity-consistent entries (t, l), in enumeration order."""
    a_par = algebra.parity
    m_par = module.parity
    out = []
    flat = 0
    for t in iter_product(range(algebra.dim), repeat=degree):
        t_par = sum(a_par[i] for i in t) % 2
        for l in range(module.dim):
            if m_par[l] == t_par:
                out.append(flat)
            flat += 1
    return tuple(out)


def parity_count(algebra: SuperAlgebra, module: SuperModule, degree: int) -> int:
    """``len(parity_offsets(...))`` in closed form, without building the table.

    With E even and O odd basis elements of A, the tuples of even total
    parity number ((E+O)^n + (E-O)^n)/2 and the odd ones the rest; each
    pairs with the module indices of its own parity.
    """
    odd = sum(algebra.parity)
    tuples = algebra.dim**degree
    even_tuples = (tuples + (algebra.dim - 2 * odd) ** degree) // 2
    odd_values = sum(module.parity)
    return even_tuples * (module.dim - odd_values) + (tuples - even_tuples) * odd_values


def parity_coordinates(f: Cochain) -> tuple[Rat, ...]:
    """Coordinates of f over ``parity_offsets``; inverse of ``cochain_from_coordinates``."""
    if not f.parity_preserving:
        raise ValueError("cochain has a parity-violating entry")
    return tuple(f.data[off] for off in parity_offsets(f.algebra, f.module, f.degree))


def cochain_from_coordinates(
    algebra: SuperAlgebra, module: SuperModule, degree: int, coords: Sequence[Rat]
) -> Cochain:
    """Cochain with the given coordinates over the parity-offset enumeration."""
    offsets = parity_offsets(algebra, module, degree)
    if len(coords) != len(offsets):
        raise ValueError("coordinate length does not match parity basis size")
    size = algebra.dim**degree * module.dim
    data: list[Rat] = [0] * size
    for off, v in zip(offsets, coords):
        if v:
            data[off] = as_rational(v)
    return Cochain(degree, algebra, module, tuple(data))


def parity_basis(algebra: SuperAlgebra, module: SuperModule, degree: int) -> list[Cochain]:
    """Elementary parity-preserving cochains, one per parity-consistent entry."""
    size = algebra.dim**degree * module.dim
    out = []
    for off in parity_offsets(algebra, module, degree):
        data: list[Rat] = [0] * size
        data[off] = 1
        out.append(Cochain(degree, algebra, module, tuple(data)))
    return out


@lru_cache(maxsize=None)
def _signed_shuffles(n: int, p: int, parities: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per shuffle s: the 0-based slot map of s^{-1} and sign(s) * oddsign(s^{-1})."""
    out = []
    for s in enumerate_shuffles(n, p):
        inv = s.perm.inverse()
        slot_map = tuple(inv(m) - 1 for m in range(1, n + 1))
        out.append((slot_map, s.perm.sign() * sigma_o_sign(inv, parities)))
    return tuple(out)


def shuffle_action(
    algebra: SuperAlgebra, module: SuperModule, t: tuple[int, ...], l: int, p: int
) -> Iterator[tuple[int, int]]:
    """The summands of su_{n,p} at entry (t, l): (flat offset of (u, l), sign).

    (su_{n,p} f)(t, l) is the sum of sign * f.data[offset] over them.
    """
    parities = tuple(algebra.parity[i] for i in t)
    for slot_map, sign in _signed_shuffles(len(t), p, parities):
        yield encode([t[m] for m in slot_map], l, algebra.dim, module.dim), sign


def super_shuffle_sum(f: Cochain, p: int) -> Cochain:
    """The graded shuffle sum su_{n,p} applied to f (n = f.degree)."""
    n = f.degree
    if n < 2:
        raise ValueError("shuffle sums need degree at least 2")
    if not 1 <= p <= n - 1:
        raise ValueError(f"p must satisfy 1 <= p <= n-1, got {p}")
    algebra, module = f.algebra, f.module
    dim_m = module.dim
    out: list[Rat] = [0] * len(f.data)
    for t in iter_product(range(algebra.dim), repeat=n):
        base = encode(t, 0, algebra.dim, dim_m)
        for u_base, sign in shuffle_action(algebra, module, t, 0, p):
            for l, x in enumerate(f.data[u_base : u_base + dim_m]):
                if x:
                    out[base + l] += sign * x
    return Cochain(n, algebra, module, tuple(as_rational(v) for v in out))


@lru_cache(maxsize=None)
def harrison_space(algebra: SuperAlgebra, module: SuperModule, degree: int) -> SubspaceBasis:
    """Canonical basis of the graded Harrison subspace, in parity-offset coordinates.

    Coordinates index ``parity_offsets(algebra, module, degree)``.  For
    degree <= 1 there are no shuffle conditions and the space is everything
    parity-preserving.  Otherwise the stacked conditions su_{n,p} f = 0
    (p = 1..n-1) decompose into independent blocks, one per (argument
    multiset, module index) orbit, because a shuffle only permutes argument
    slots; the kernel is assembled block by block.  The result equals the
    kernel of the literally stacked system since the reduced echelon basis
    of a subspace is unique.
    """
    offsets = parity_offsets(algebra, module, degree)
    ncols = len(offsets)
    if degree <= 1:
        return SubspaceBasis.from_vectors(
            [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)], ncols
        )

    groups: dict[tuple[tuple[int, ...], int], list[tuple[int, tuple[int, ...]]]] = {}
    for pos, off in enumerate(offsets):
        t, l = decode(off, degree, algebra.dim, module.dim)
        groups.setdefault((tuple(sorted(t)), l), []).append((pos, t))

    vectors: list[list[Rat]] = []
    for (_, l), members in sorted(groups.items()):
        column = {offsets[pos]: c for c, (pos, _) in enumerate(members)}
        rows: list[list[Rat]] = []
        for _, t in members:
            for p in range(1, degree):
                row: list[Rat] = [0] * len(members)
                for off, sign in shuffle_action(algebra, module, t, l, p):
                    row[column[off]] += sign
                rows.append(row)
        block_kernel = kernel_basis(RationalMatrix.from_rows(rows, cols=len(members)))
        for v in block_kernel.vectors:
            full: list[Rat] = [0] * ncols
            for c, (pos, _) in enumerate(members):
                full[pos] = v[c]
            vectors.append(full)
    return SubspaceBasis.from_vectors(vectors, ncols)


def harrison_basis(algebra: SuperAlgebra, module: SuperModule, degree: int) -> list[Cochain]:
    """The graded Harrison subspace as explicit cochains."""
    space = harrison_space(algebra, module, degree)
    return [cochain_from_coordinates(algebra, module, degree, v) for v in space.vectors]


def hochschild_coboundary(f: Cochain) -> Cochain:
    """The coboundary df, one degree up, evaluated by scattering nonzero entries."""
    algebra, module, n = f.algebra, f.module, f.degree
    dim_a, dim_m = algebra.dim, module.dim
    out: list[Rat] = [0] * (dim_a ** (n + 1) * dim_m)
    action = module.action_sparse
    pairs = algebra.pairs_producing
    a_par = algebra.parity
    m_par = module.parity
    last_sign = -1 if n % 2 == 0 else 1

    for t, l, v in f.iter_nonzero():
        for j in range(dim_a):
            # a_1 * f(a_2, ..., a_{n+1}), and (-1)^{n+1} f(a_1, ..., a_n) * a_{n+1}
            # with the Koszul right action; in degree zero these two make
            # (dm)(a) = a*m - m*a.
            koszul = -1 if a_par[j] and m_par[l] else 1
            first = encode((j,) + t, 0, dim_a, dim_m)
            last = encode(t + (j,), 0, dim_a, dim_m)
            for l2, c in action[j][l]:
                out[first + l2] += c * v
                out[last + l2] += last_sign * koszul * c * v

        # (-1)^i f(..., a_i a_{i+1}, ...): entry (t, l) receives from every
        # pair (a, b) whose product has a component on t_{i-1}.
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            prefix = t[: i - 1]
            suffix = t[i:]
            for a, b, c in pairs[t[i - 1]]:
                out[encode(prefix + (a, b) + suffix, l, dim_a, dim_m)] += sign * c * v

    return Cochain(n + 1, algebra, module, tuple(as_rational(v) for v in out))


def is_graded_symmetric(f: Cochain) -> bool:
    """Degree-2 check: f(a, b) = (-1)^{|a||b|} f(b, a) on basis pairs."""
    if f.degree != 2:
        raise ValueError("graded symmetry is a degree-2 test")
    a_par = f.algebra.parity
    for i in range(f.algebra.dim):
        for j in range(i, f.algebra.dim):
            sign = -1 if a_par[i] and a_par[j] else 1
            left = f.value_on_tuple((i, j))
            right = f.value_on_tuple((j, i))
            if any(x != sign * y for x, y in zip(left, right)):
                return False
    return True
