"""Multilinear cochains, shuffle conditions, and the coboundary.

A degree-n cochain is a linear map A^{(x)n} -> M, stored sparsely as its
nonzero values {flat offset: value} over basis tuples.  The flat index of
entry (t, l) with t = (t_1, ..., t_n) is the mixed-radix number
(((t_1*d + t_2)*d + ...)*d + t_n)*dim_M + l, so increasing offset order is
lexicographic in (t, l).

The cochain index lives here and nowhere else: ``encode``/``decode``
convert between (t, l) and the flat offset, ``parity_offsets`` and
``parity_count`` list and count the parity-consistent entries, and
``_signed_shuffles`` gives the signed slot permutations of su_{n,p} for one
vector of argument parities.  Every cochain space, the Harrison subspace
included, is written over flat offsets: a ``harrison_space`` row, like a
row of ``cohomology.derivation_space``, is the ``data`` of a cochain.
``encode`` and ``decode`` run once per entry, so they stay out of
``__all__``, the names that profilers such as ``perfbench/traced_cli.py``
wrap call by call.  ``parity_offsets`` stays out too, although the package
exports it: it keeps no cache, and ``perfbench/traced_cli.py`` reads
``__wrapped__`` from whatever ``__all__`` lists under that name.

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
  subspace; ``cohomology.coboundary_matrix`` checks that fact on each
  Harrison basis row it expands, rather than assuming it.

The coboundary has one implementation, ``coboundary_scatter``, which maps
the nonzero entries {offset: value} of f to those of df, so a cochain costs
what its support costs; ``hochschild_coboundary`` wraps it in a ``Cochain``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import Iterator, Mapping, Sequence

from .algebras import SuperAlgebra, SuperModule
from .linalg import Rat, SubspaceBasis, _denominator, _ratio, as_rational, kernel_basis, RationalMatrix
from .records import Record
from .shuffles import enumerate_shuffles, sigma_o_sign

__all__ = [
    "Cochain",
    "cochain_from_entries",
    "parity_count",
    "super_shuffle_sum",
    "harrison_space",
    "hochschild_coboundary",
    "coboundary_scatter",
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


class Cochain(Record):
    """A degree-n multilinear map A^{(x)n} -> M with exact rational values.

    ``data`` holds the nonzero values as {flat offset: value}, normalised and
    in increasing offset order whatever the mapping passed in.
    """

    degree: int
    module: SuperModule
    data: dict[int, Rat]

    def __init__(self, degree: int, module: SuperModule, data: Mapping[int, Rat]) -> None:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        size = module.algebra.dim**degree * module.dim
        # Coerced before zeros are dropped: an inexact zero is refused, not dropped.
        data = {off: x for off, v in sorted(data.items()) if (x := as_rational(v))}
        if data and not (0 <= min(data) and max(data) < size):
            raise ValueError(f"entry offset out of range for {size} entries")
        super().__init__(degree, module, data)

    @property
    def algebra(self) -> SuperAlgebra:
        """The algebra that the module is over."""
        return self.module.algebra

    def __hash__(self) -> int:
        return hash((self.degree, self.module, tuple(self.data.items())))

    @cached_property
    def parity_preserving(self) -> bool:
        """Every nonzero value is as even as its arguments; scanned on first use."""
        a_par = self.algebra.parity
        m_par = self.module.parity
        return all(sum(a_par[i] for i in t) % 2 == m_par[l] for t, l, _ in self.iter_nonzero())

    def iter_nonzero(self) -> Iterator[tuple[tuple[int, ...], int, Rat]]:
        n, dim_a, dim_m = self.degree, self.algebra.dim, self.module.dim
        for flat, v in self.data.items():
            t, l = decode(flat, n, dim_a, dim_m)
            yield t, l, v

    def is_zero(self) -> bool:
        return not self.data

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        out = dict(self.data)
        for off, v in other.data.items():
            out[off] = out.get(off, 0) + v
        return Cochain(self.degree, self.module, out)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + -other

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, scalar: Rat) -> "Cochain":
        s = as_rational(scalar)
        return Cochain(self.degree, self.module, {off: s * v for off, v in self.data.items()})

    def _check_compatible(self, other: "Cochain") -> None:
        if (self.degree, self.module) != (other.degree, other.module):
            raise ValueError("cochains live on different spaces")


def cochain_from_entries(
    module: SuperModule, degree: int, entries: Mapping[tuple[tuple[int, ...], int], Rat]
) -> Cochain:
    """Build a cochain from a sparse {(basis_tuple, module_index): value} map."""
    algebra = module.algebra
    data: dict[int, Rat] = {}
    for (t, l), v in entries.items():
        if len(t) != degree:
            raise ValueError(f"tuple {t} does not have length {degree}")
        if any(not 0 <= i < algebra.dim for i in t) or not 0 <= l < module.dim:
            raise ValueError(f"entry ({t}, {l}) out of range")
        data[encode(t, l, algebra.dim, module.dim)] = v
    return Cochain(degree, module, data)


def parity_offsets(module: SuperModule, degree: int) -> tuple[int, ...]:
    """Flat offsets of the parity-consistent entries (t, l), in enumeration order; built per call."""
    a_par = module.algebra.parity
    m_par = module.parity
    out = []
    flat = 0
    for t in iter_product(range(module.algebra.dim), repeat=degree):
        t_par = sum(a_par[i] for i in t) % 2
        for l in range(module.dim):
            if m_par[l] == t_par:
                out.append(flat)
            flat += 1
    return tuple(out)


def parity_count(module: SuperModule, degree: int) -> int:
    """``len(parity_offsets(...))`` in closed form, without building the table.

    With E even and O odd basis elements of A, the tuples of even total
    parity number ((E+O)^n + (E-O)^n)/2 and the odd ones the rest; each
    pairs with the module indices of its own parity.
    """
    algebra = module.algebra
    odd = sum(algebra.parity)
    tuples = algebra.dim**degree
    even_tuples = (tuples + (algebra.dim - 2 * odd) ** degree) // 2
    odd_values = sum(module.parity)
    return even_tuples * (module.dim - odd_values) + (tuples - even_tuples) * odd_values


@lru_cache(maxsize=None)
def _signed_shuffles(n: int, p: int, parities: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per shuffle s: the 0-based slot map of s^{-1} and sign(s) * oddsign(s^{-1})."""
    out = []
    for s in enumerate_shuffles(n, p):
        inv = s.inverse()
        slot_map = tuple(inv(m) - 1 for m in range(1, n + 1))
        out.append((slot_map, s.sign() * sigma_o_sign(inv, parities)))
    return tuple(out)


def super_shuffle_sum(f: Cochain, p: int) -> Cochain:
    """The graded shuffle sum su_{n,p} applied to f (n = f.degree).

    (su_{n,p} f)(t, l) sums sign * f(t composed with the slot map, l) over
    the ``_signed_shuffles`` of the parities of t.  Each nonzero entry (u, l)
    of f is scattered to the entries (t, l) whose summands read it: per
    shuffle, the t with u = t composed with its slot map, signed as that
    shuffle is signed at t.
    """
    n = f.degree
    if n < 2:
        raise ValueError("shuffle sums need degree at least 2")
    if not 1 <= p <= n - 1:
        raise ValueError(f"p must satisfy 1 <= p <= n-1, got {p}")
    algebra, module = f.algebra, f.module
    a_par = algebra.parity
    out: dict[int, Rat] = {}
    for u, l, x in f.iter_nonzero():
        for k, (slot_map, _) in enumerate(_signed_shuffles(n, p, tuple(a_par[i] for i in u))):
            t = [0] * n
            for m, slot in enumerate(slot_map):
                t[slot] = u[m]
            # Shuffles come in one order for every parity vector, so entry k is this shuffle.
            sign = _signed_shuffles(n, p, tuple(a_par[i] for i in t))[k][1]
            off = encode(t, l, algebra.dim, module.dim)
            out[off] = out.get(off, 0) + sign * x
    return Cochain(n, module, out)


def harrison_space(module: SuperModule, degree: int) -> SubspaceBasis:
    """Canonical basis of the graded Harrison subspace, over flat cochain offsets.

    Each row is the ``data`` of a Harrison cochain.  The stacked conditions
    su_{n,p} f = 0 (p = 1..n-1) decompose into independent blocks, one per
    parity-consistent (argument multiset, module index) orbit, because a
    shuffle only permutes argument slots.  A block's system depends only on
    its orbit pattern: the rank tuple of the sorted arguments and the
    parity of each rank.  So one kernel is solved per pattern, on the
    members of the first block of that pattern, decoded from their offsets
    and relabelled by rank, and its rows are copied to every block of that
    pattern by member offset.  An order-preserving relabelling keeps the
    members in lexicographic order, so the copied rows are canonical too,
    and a pattern costs what its block costs, not n!.  The result equals the
    kernel of the literally stacked system since the reduced echelon basis
    of a subspace is unique.  For degree <= 1 a block has one member and no
    conditions, so the space is everything parity-preserving.  Nothing is
    cached here: a ``cohomology.Complex`` keeps the spaces it builds.
    """
    dim_a, dim_m = module.algebra.dim, module.dim
    a_par = module.algebra.parity
    values = tuple(tuple(l for l in range(dim_m) if module.parity[l] == q) for q in (0, 1))
    # Sorted arguments -> offset of each member's entry (t, 0), members in
    # lexicographic order.
    blocks: dict[tuple[int, ...], list[int]] = {}
    for idx, t in enumerate(iter_product(range(dim_a), repeat=degree)):
        blocks.setdefault(tuple(sorted(t)), []).append(idx * dim_m)

    kernels: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[dict[int, Rat], ...]] = {}
    # The blocks have disjoint supports, so their rows sorted by pivot are
    # the canonical rows of the whole.
    rows: list[dict[int, Rat]] = []
    for args, members in blocks.items():
        # One block per module index l of the arguments' parity.
        ls = values[sum(a_par[i] for i in args) % 2]
        if not ls:
            continue
        distinct = sorted(set(args))
        rank = {x: r for r, x in enumerate(distinct)}
        key = (tuple(rank[x] for x in args), tuple(a_par[x] for x in distinct))
        if key not in kernels:
            ranked = [tuple(rank[x] for x in decode(off, degree, dim_a, dim_m)[0]) for off in members]
            kernels[key] = _pattern_kernel(ranked, key[1])
        for l in ls:
            rows.extend({members[c] + l: x for c, x in row.items()} for row in kernels[key])
    rows.sort(key=min)
    return SubspaceBasis(dim_a**degree * dim_m, tuple(rows))


def _pattern_kernel(members: Sequence[tuple[int, ...]], parities: tuple[int, ...]) -> tuple[dict[int, Rat], ...]:
    """Kernel of the stacked su_{n,p} system on one block's rank tuples.

    ``members`` are all the rearrangements of one rank tuple, in
    lexicographic order, and coordinate c indexes ``members[c]``;
    ``parities[r]`` is the parity of rank r.
    """
    n = len(members[0])
    index = {u: c for c, u in enumerate(members)}
    conditions: list[dict[int, Rat]] = []
    for u in members:
        u_par = tuple(parities[r] for r in u)
        for p in range(1, n):
            condition: dict[int, Rat] = {}
            for slot_map, sign in _signed_shuffles(n, p, u_par):
                c = index[tuple([u[m] for m in slot_map])]
                condition[c] = condition.get(c, 0) + sign
            conditions.append(condition)
    return kernel_basis(RationalMatrix.from_rows(conditions, cols=len(members))).rows


def coboundary_scatter(module: SuperModule, degree: int, entries: Mapping[int, Rat]) -> dict[int, Rat]:
    """The coboundary on sparse cochains: {offset: value} of f to {offset: value} of df.

    Each entry (t, l) of the degree-n cochain f is scattered into the
    entries of df it feeds, so the cost follows the support of f.  Offsets
    of df are computed arithmetically from the flat index of t.  The sums
    run on integers, over the tables times D of ``SuperModule.integral_tables``
    and f's values times L, their common denominator; each value of df is
    divided once, by D * L, so values are normalised, and zeros are dropped.
    """
    dim_a, dim_m = module.algebra.dim, module.dim
    d, pairs, action = module.integral_tables
    scale = _denominator(entries.values())
    a_par = module.algebra.parity
    m_par = module.parity
    last_sign = -1 if degree % 2 == 0 else 1
    tuples = dim_a**degree
    # Weight of slot s in the flat index of t, for s = 0..n-1.
    weights = [dim_a ** (degree - 1 - s) for s in range(degree)]
    out: dict[int, int] = {}

    for flat, v in entries.items():
        v = int(v * scale)
        idx, l = divmod(flat, dim_m)
        for j in range(dim_a):
            # a_1 * f(a_2, ..., a_{n+1}), and (-1)^{n+1} f(a_1, ..., a_n) * a_{n+1}
            # with the Koszul right action; in degree zero these two make
            # (dm)(a) = a*m - m*a.
            last_coeff = -last_sign * v if a_par[j] and m_par[l] else last_sign * v
            first = (j * tuples + idx) * dim_m
            last = (idx * dim_a + j) * dim_m
            for l2, c in action[j][l]:
                out[first + l2] = out.get(first + l2, 0) + c * v
                out[last + l2] = out.get(last + l2, 0) + c * last_coeff

        # (-1)^i f(..., a_i a_{i+1}, ...): entry (t, l) receives from every
        # pair (a, b) whose product has a component on t_i.
        for s, w in enumerate(weights):
            coeff = v if s % 2 else -v
            high, rest = divmod(idx, w * dim_a)
            k, low = divmod(rest, w)
            base = high * dim_a * dim_a
            for a, b, c in pairs[k]:
                off = ((base + a * dim_a + b) * w + low) * dim_m + l
                out[off] = out.get(off, 0) + c * coeff

    total = d * scale
    return {off: _ratio(x, total) if total != 1 else x for off, x in out.items() if x}


def hochschild_coboundary(f: Cochain) -> Cochain:
    """The coboundary df, one degree up: ``coboundary_scatter`` of f's entries."""
    return Cochain(f.degree + 1, f.module, coboundary_scatter(f.module, f.degree, f.data))

