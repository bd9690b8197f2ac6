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
wrap call by call.  ``parity_offsets`` stays out too: it keeps no cache,
and ``perfbench/traced_cli.py`` reads ``__wrapped__`` from whatever
``__all__`` lists under that name.  Callers import all three from here
by name.

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
  s^{-1} against the argument parities.  Over a supercommutative algebra
  the coboundary preserves it, as ``verify``'s ``closure`` suite checks.

The Harrison subspace is built from the Lie side, with no elimination:
the functionals that vanish on shuffle products pair with Lie elements
(Ree, Ann. Math. 68, 1958; Barr, J. Algebra 8, 1968), and the free Lie
superalgebra has a basis of standard bracketings (Reutenauer, *Free Lie
Algebras*, 1993), one per Lyndon word and [v, v] per odd Lyndon word v.  A letter a has the suspended parity
1 + |a|, a bracket is [P, Q] = PQ - (-1)^{|P||Q|} QP in that parity, and
the coefficient of the word u = u_0 ... u_{n-1} is the value at (u, l)
times (-1)^{sum_i (n-1-i)|u_i|}, in A's own parity.  The least word of the
bracketing of w is w, so the pivots (``harrison_pivots``) are the Lyndon
words of length n (Duval, J. Algorithms 4, 1983) and the squares of the
odd ones of length n/2, each with every l of its parity; on exterior(1),
with basis 1 and t, (1, 1) -> 1 and (1, t) -> t in degree 2:

>>> from superharrison.algebras import exterior_algebra, self_module
>>> module = self_module(exterior_algebra(1))
>>> [decode(off, 2, 2, 2) for off in harrison_pivots(module, 2)]
[((0, 0), 0), ((0, 1), 1)]

The coboundary has one implementation, ``coboundary_scatter``, which maps
the nonzero entries {offset: value} of f to those of df, so a cochain costs
what its support costs; ``hochschild_coboundary`` wraps it in a ``Cochain``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import Iterator, Mapping, Sequence

from .algebras import SuperAlgebra, SuperModule
from .linalg import Rat, SubspaceBasis, _denominator, _ratio, _rref, as_rational
from .records import Record
from .shuffles import enumerate_shuffles, sigma_o_sign

__all__ = [
    "Cochain",
    "cochain_from_entries",
    "parity_count",
    "super_shuffle_sum",
    "harrison_space",
    "harrison_pivots",
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


def _lyndon_words(letters: int, length: int) -> Iterator[tuple[int, ...]]:
    """The Lyndon words of ``length`` over the letters 0, ..., letters - 1, in lexicographic order."""
    # Duval's generator: raise the last letter, repeat the word periodically
    # up to ``length``, drop the maximal letters at its end, and repeat.
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == length:
            yield tuple(w)
        period = len(w)
        while len(w) < length:
            w.append(w[-period])
        while w and w[-1] == letters - 1:
            w.pop()


def _harrison_words(module: SuperModule, degree: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The leading words w of the Harrison basis in lexicographic order, each with the l of its parity.

    They are the Lyndon words of length n (in degree 0, the empty word) and
    the squares vv of the Lyndon words v of length n/2 that are odd in the
    suspended parity; a word with no l of its parity is left out.
    """
    dim_a, a_par = module.algebra.dim, module.algebra.parity
    words = list(_lyndon_words(dim_a, degree)) if degree else [()]
    if degree % 2 == 0:
        half = degree // 2
        words = sorted(words + [v + v for v in _lyndon_words(dim_a, half) if (half + sum(a_par[i] for i in v)) % 2])
    values = tuple(tuple(l for l in range(module.dim) if module.parity[l] == q) for q in (0, 1))
    return [(w, ls) for w in words if (ls := values[sum(a_par[i] for i in w) % 2])]


def harrison_pivots(module: SuperModule, degree: int) -> tuple[int, ...]:
    """The pivots of ``harrison_space(module, degree)`` in increasing order, without building it: each (w, l)."""
    dim_a, dim_m = module.algebra.dim, module.dim
    return tuple(encode(w, l, dim_a, dim_m) for w, ls in _harrison_words(module, degree) for l in ls)


def harrison_space(module: SuperModule, degree: int) -> SubspaceBasis:
    """Canonical basis of the graded Harrison subspace, over flat cochain offsets.

    Each row is the ``data`` of a Harrison cochain: the twisted standard
    bracketing of a leading word, reduced with those of its argument
    multiset.  Nothing is cached: a ``cohomology.Complex`` keeps its spaces.
    """
    dim_a, dim_m = module.algebra.dim, module.dim
    a_par = module.algebra.parity

    @lru_cache(maxsize=None)
    def bracket(w: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        # [b(u), b(v)] for w = uv with v its longest proper Lyndon suffix; a
        # letter, or the empty word, is its own bracketing.
        split = next((i for i in range(1, len(w)) if all(w[i:] < w[j:] for j in range(i + 1, len(w)))), None)
        if split is None:
            return {w: 1}
        u, v = w[:split], w[split:]
        # [P, Q] = PQ - (-1)^{|P||Q|} QP, in the suspended parity.
        sign = -1 if (len(u) + sum(a_par[i] for i in u)) % 2 and (len(v) + sum(a_par[i] for i in v)) % 2 else 1
        out: dict[tuple[int, ...], int] = {}
        for x, a in bracket(u).items():
            for y, b in bracket(v).items():
                out[x + y] = out.get(x + y, 0) + a * b
                out[y + x] = out.get(y + x, 0) - sign * a * b
        return {x: c for x, c in out.items() if c}

    blocks: dict[tuple[int, ...], tuple[tuple[int, ...], list[tuple[int, ...]]]] = {}
    for w, ls in _harrison_words(module, degree):
        blocks.setdefault(tuple(sorted(w)), (ls, []))[1].append(w)
    # A bracket only rearranges letters, so the blocks of distinct multisets
    # and l have disjoint supports: their rows by pivot are the canonical rows.
    rows: list[dict[int, Rat]] = []
    for ls, words in blocks.values():
        # Word u is the entry (u, 0), times (-1)^{sum_i (n-1-i)|u_i|}: the
        # slots i with n - 1 - i odd are those of the parity of n.
        twist = {u: (-1) ** sum(a_par[i] for i in u[degree % 2 :: 2]) for w in words for u in bracket(w)}
        block = [{encode(u, 0, dim_a, dim_m): twist[u] * c for u, c in bracket(w).items()} for w in words]
        rows.extend({off + l: x for off, x in row.items()} for row in _rref(block) for l in ls)
    rows.sort(key=min)
    return SubspaceBasis(dim_a**degree * dim_m, tuple(rows))


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

