"""Finite-dimensional supercommutative superalgebras and their supermodules.

An algebra is its nonzero structure constants over a chosen basis, with a
Z_2 parity per basis element: ``products[i][j]`` lists the (k, c) with
c != 0 the coefficient of e_k in e_i e_j, k ascending.  A module stores its
left action the same way, as ``action_sparse``; a self-module shares the
algebra's table.  These tables are the only representation: each class has
one constructor, which checks the table it is given and stores it as it is,
so memory and construction time follow the number of nonzero products, not
dim^3.  ``_table_from_cells`` builds a table from {(i, j): {k: c}} sums.

Constructors only enforce shapes and exact coefficients; algebraic laws
(supercommutativity b*a = (-1)^{|a||b|} a*b, associativity, parity
compatibility, unit laws) are checked by the validators, which return a
full list of violated identities with witnesses instead of raising.  That
split is deliberate: the deformation layer needs to build broken algebras
on purpose and see exactly which law fails where.  One law scan,
``_law_differences``, sums (e_i e_j)x_k and e_i(e_j x_k) triple by triple
from nonzero products only; it serves associativity, the module law and
the deformed product m + t psi of ``deformations``, read as the structure
constants of A[t]/(t^2).  ``_supercommutativity_differences`` is the one
supercommutativity scan.  Every law compares sparse rows, and once two
rows are found unequal, ``_differences`` alone walks their nonzero
positions to name where.

The right action is never stored: it is induced from the left one on
homogeneous components by the Koszul rule m*a = (-1)^{|a||m|} a*m, which
is the convention used by the coboundary.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from .linalg import Rat, _denominator, _ratio, as_rational
from .records import Record

__all__ = [
    "SuperAlgebra",
    "SuperModule",
    "Violation",
    "ValidationReport",
    "validate_superalgebra",
    "validate_supermodule",
    "self_module",
    "exterior_algebra",
    "truncated_polynomial",
    "tensor_product",
]

# The largest algebra taken from outside: a builtin spec or a JSON document.
# A builder or the loader allocates all dim^2 product rows before any
# ceiling runs, and under the default 20000-column ceiling no computation
# of degree >= 1 fits above dim 141.
MAX_BUILTIN_DIM = 256

SparseRow = tuple[tuple[int, Rat], ...]
SparseTable = tuple[tuple[SparseRow, ...], ...]


def _table_from_cells(cells: Mapping[tuple[int, int], Mapping[int, Rat]], d0: int, d1: int) -> SparseTable:
    """The sparse table of d0 slices of d1 rows holding the sums cells[(i, j)][k]; zero sums are dropped."""
    return tuple(
        tuple(
            tuple((k, as_rational(c)) for k, c in sorted(cells[i, j].items()) if c) if (i, j) in cells else ()
            for j in range(d1)
        )
        for i in range(d0)
    )


def _integral_tables(*tables: SparseTable) -> tuple:
    """(D, each table times D), D the common denominator of all their constants; an all-integer table is itself."""
    d = _denominator(c for table in tables for plane in table for row in plane for _, c in row)
    if d == 1:
        return (d, *tables)
    scaled = (tuple(tuple(tuple((k, int(c * d)) for k, c in row) for row in plane) for plane in t) for t in tables)
    return (d, *scaled)


def _check_table(table: SparseTable, d0: int, d1: int, d2: int) -> None:
    """``table`` has d0 slices of d1 rows; a row lists (k, c) pairs, k ascending below d2, c nonzero and exact."""
    if len(table) != d0:
        raise ValueError(f"table has {len(table)} slices, expected {d0}")
    for plane in table:
        if len(plane) != d1:
            raise ValueError(f"table slice has {len(plane)} rows, expected {d1}")
        for row in plane:
            last = -1
            for term in row:
                try:
                    k, c = term
                except (TypeError, ValueError):
                    # A dense row of coefficients, passed by habit, lands here.
                    raise ValueError(
                        f"table row entry {term!r} is not a (k, c) pair: a row lists the nonzero "
                        f"coefficients c of e_k as (k, c), k ascending"
                    ) from None
                if not last < k < d2:
                    raise ValueError(f"table row index {k} after {last} is out of order or not below {d2}")
                # as_rational refuses floats and booleans and returns an exact scalar
                # unchanged unless it is an integral Fraction, which must be stored as an int.
                if not c or isinstance(c, bool) or as_rational(c) is not c:
                    raise ValueError(f"table coefficient {c!r} at index {k} is not a nonzero normalised exact scalar")
                last = k


def _check_parity(parity: Sequence[int], dim: int) -> tuple[int, ...]:
    if len(parity) != dim:
        raise ValueError(f"parity vector length {len(parity)} does not match dim {dim}")
    for p in parity:
        # A boolean equals 0 or 1 but is not a parity.
        if p not in (0, 1) or isinstance(p, bool):
            raise ValueError(f"parities must be 0 or 1, got {p!r}")
    return tuple(parity)


class SuperAlgebra(Record):
    """Structure constants of a superalgebra: e_i e_j = sum_k c e_k over products[i][j] = ((k, c), ...).

    ``products`` is checked and stored as it is: dim slices of dim rows,
    each row its nonzero (k, c) with k ascending and c an int or a
    non-integral ``Fraction``.
    """

    dim: int
    basis_names: tuple[str, ...]
    parity: tuple[int, ...]
    products: SparseTable
    unit_index: Optional[int]

    def __init__(
        self,
        dim: int,
        basis_names: tuple[str, ...],
        parity: Sequence[int],
        products: SparseTable,
        unit_index: Optional[int] = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if len(basis_names) != dim:
            raise ValueError("basis_names length does not match dim")
        parity = _check_parity(parity, dim)
        _check_table(products, dim, dim, dim)
        if unit_index is not None and not 0 <= unit_index < dim:
            raise ValueError(f"unit index {unit_index} out of range")
        super().__init__(dim, basis_names, parity, products, unit_index)


class SuperModule(Record):
    """A supermodule over ``algebra`` given by its left action.

    action_sparse[i][k] = ((l, c), ...) lists the nonzero coefficients c of
    m_l in e_i * m_k, in the row form of ``SuperAlgebra.products``.
    """

    algebra: SuperAlgebra
    dim: int
    parity: tuple[int, ...]
    action_sparse: SparseTable
    basis_names: tuple[str, ...]

    def __init__(
        self,
        algebra: SuperAlgebra,
        dim: int,
        parity: Sequence[int],
        action_sparse: SparseTable,
        basis_names: tuple[str, ...] = (),
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        parity = _check_parity(parity, dim)
        # The algebra's own table was checked when the algebra was built.
        if not (action_sparse is algebra.products and dim == algebra.dim):
            _check_table(action_sparse, algebra.dim, dim, dim)
        if not basis_names:
            basis_names = tuple(f"m{k}" for k in range(dim))
        if len(basis_names) != dim:
            raise ValueError("basis_names length does not match dim")
        super().__init__(algebra, dim, parity, action_sparse, basis_names)

    @cached_property
    def integral_tables(self) -> tuple[int, tuple[tuple[tuple[int, int, int], ...], ...], SparseTable]:
        """(D, pairs, action), from ``_integral_tables`` of the algebra's products and ``action_sparse``.

        pairs[k] lists every (i, j, C) with C / D the coefficient of e_k in
        e_i e_j, and action is ``action_sparse`` times D.
        """
        d, products, action = _integral_tables(self.algebra.products, self.action_sparse)
        pairs: list[list[tuple[int, int, int]]] = [[] for _ in range(self.algebra.dim)]
        for i, plane in enumerate(products):
            for j, row in enumerate(plane):
                for k, c in row:
                    pairs[k].append((i, j, c))
        return d, tuple(map(tuple, pairs)), action


def self_module(algebra: SuperAlgebra) -> SuperModule:
    """The algebra acting on itself by left multiplication; it shares the algebra's table."""
    return SuperModule(algebra, algebra.dim, algebra.parity, algebra.products, algebra.basis_names)


class Violation(Record):
    """One violated identity: which law, at which basis indices, with detail."""

    kind: str
    indices: tuple[int, ...]
    detail: str


class ValidationReport(Record):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def _parity_violations(a_par: Sequence[int], table: SparseTable, x_par: Sequence[int], x: str) -> list[Violation]:
    """e_i * x_k may only hit x_l of parity |e_i| + |x_k|; ``table`` is the sparse action on the x's."""
    out = []
    for i, plane in enumerate(table):
        for k, row in enumerate(plane):
            target = (a_par[i] + x_par[k]) % 2
            for l, _ in row:
                if x_par[l] != target:
                    text = f"e{i}*{x}{k} hits {x}{l} of parity {x_par[l]}, expected {target}"
                    out.append(Violation("parity", (i, k, l), text))
    return out


def _differences(got: Mapping[int, Rat], want: Mapping[int, Rat]) -> Iterator[tuple]:
    """(k, got_k, want_k) where two sparse rows as {k: c} differ; k ascending, a zero is absent."""
    for k in sorted(got.keys() | want.keys()):
        a, b = got.get(k, 0), want.get(k, 0)
        if a != b:
            yield k, a, b


def _law_differences(products: SparseTable, table: SparseTable) -> Iterator[tuple]:
    """(i, j, k, l, left, right) for each triple where (e_i e_j)x_k and e_i(e_j x_k) first differ, at x_l.

    With ``table`` the algebra's own products this is associativity; with a
    module's action it is the module law.  A sum of zero counts as absent.
    Triples come in lexicographic order: pair by pair (i, j), and
    within a pair only the k where a side has a nonzero term, each side
    summed from nonzero entries.  So the cost follows the nonzero products
    plus one visit per pair, and a caller that takes one item stops early.
    """
    # nonzero[j]: the k with e_j x_k != 0; reaching[j][mid]: the k with a term on x_mid in e_j x_k.
    nonzero = [{k for k, row in enumerate(plane) if row} for plane in table]
    reaching: list[dict[int, set[int]]] = [{} for _ in table]
    for j, plane in enumerate(table):
        for k, row in enumerate(plane):
            for mid, _ in row:
                reaching[j].setdefault(mid, set()).add(k)
    for i, plane in enumerate(products):
        acting, live = table[i], nonzero[i]
        for j, prod in enumerate(plane):
            ks: set[int] = set()
            for mid, _ in prod:
                ks |= nonzero[mid]
            for mid in live.intersection(reaching[j]):
                ks |= reaching[j][mid]
            for k in sorted(ks):
                left: dict[int, Rat] = {}
                for mid, coeff in prod:
                    for l, c in table[mid][k]:
                        term = coeff * c
                        left[l] = left[l] + term if l in left else term
                right: dict[int, Rat] = {}
                for mid, coeff in table[j][k]:
                    for l, c in acting[mid]:
                        term = coeff * c
                        right[l] = right[l] + term if l in right else term
                if left == right:
                    continue
                for l, a, b in _differences(left, right):
                    yield i, j, k, l, a, b
                    break


def _action_law_violations(d: int, products: SparseTable, table: SparseTable, x: str, kind: str) -> list[Violation]:
    """The ``_law_differences`` of tables times d, from ``_integral_tables``, as Violations; values over d^2."""
    return [
        Violation(
            kind,
            (i, j, k),
            f"(e{i}e{j}){x}{k} and e{i}(e{j}{x}{k}) differ at {x}{l}: {_ratio(left, d * d)} vs {_ratio(right, d * d)}",
        )
        for i, j, k, l, left, right in _law_differences(products, table)
    ]


def _supercommutativity_differences(parity: Sequence[int], table: SparseTable) -> Iterator[tuple]:
    """(i, j, k, got, want) for each coefficient of e_k where e_j e_i is not (-1)^{|e_i||e_j|} e_i e_j.

    Lexicographic order.
    """
    for i, plane in enumerate(table):
        for j, forward in enumerate(plane):
            if parity[i] and parity[j]:
                forward = tuple((k, -c) for k, c in forward)
            backward = table[j][i]
            if backward == forward:
                continue
            for k, got, want in _differences(dict(backward), dict(forward)):
                yield i, j, k, got, want


def validate_superalgebra(algebra: SuperAlgebra) -> ValidationReport:
    """Check parity compatibility, supercommutativity, associativity, unit laws.

    Every violated identity is reported, in lexicographic witness order per law.
    Parity and associativity are the module laws of A acting on itself.
    Each law compares sparse rows, and where two differ it walks only their
    nonzero positions, so the cost follows the nonzero products.
    """
    dim = algebra.dim
    par = algebra.parity
    products = algebra.products
    violations = _parity_violations(par, products, par, "e")
    violations += [
        Violation("supercommutativity", (i, j, k), f"coefficient of e{k}: e{j}*e{i} = {got}, expected {want}")
        for i, j, k, got, want in _supercommutativity_differences(par, products)
    ]

    d, scaled = _integral_tables(products)
    violations += _action_law_violations(d, scaled, scaled, "e", "associativity")

    if algebra.unit_index is not None:
        u = algebra.unit_index
        if par[u] != 0:
            violations.append(Violation("unit", (u,), "unit element must be even"))
        for i in range(dim):
            if products[u][i] == products[i][u] == ((i, 1),):
                continue
            left, right = dict(products[u][i]), dict(products[i][u])
            # Position by position, e_unit*e_i (side 0) before e_i*e_unit (side 1).
            found = [(k, 0, (u, i, k), f"e_unit*e{i} is not e{i}") for k, _, _ in _differences(left, {i: 1})]
            found += [(k, 1, (i, u, k), f"e{i}*e_unit is not e{i}") for k, _, _ in _differences(right, {i: 1})]
            violations += [Violation("unit", where, text) for _, _, where, text in sorted(found)]

    return ValidationReport(tuple(violations))


def validate_supermodule(module: SuperModule) -> ValidationReport:
    """Check parity compatibility, the module law (e_i e_j)m = e_i(e_j m), unit action."""
    algebra = module.algebra
    table = module.action_sparse
    violations = _parity_violations(algebra.parity, table, module.parity, "m")
    violations += _action_law_violations(*_integral_tables(algebra.products, table), "m", "module_law")
    if algebra.unit_index is not None:
        u = algebra.unit_index
        for k in range(module.dim):
            if table[u][k] != ((k, 1),):
                violations += [
                    Violation("unit", (u, k, l), f"e_unit*m{k} is not m{k}")
                    for l, _, _ in _differences(dict(table[u][k]), {k: 1})
                ]

    return ValidationReport(tuple(violations))


def exterior_algebra(k: int) -> SuperAlgebra:
    """Grassmann algebra on k odd generators t1, ..., tk; dimension 2^k.

    Basis monomials are indexed by subsets of {1, ..., k} as bitmasks, so
    basis element S*T is zero unless S and T are disjoint, with the sign
    counting the transpositions needed to merge the two sorted index lists.
    """
    if not 0 <= k <= 6:
        raise ValueError(f"exterior algebra supported for 0 <= k <= 6, got {k}")
    dim = 1 << k
    names = []
    parity = []
    for mask in range(dim):
        elems = [g + 1 for g in range(k) if mask >> g & 1]
        names.append("".join(f"t{g}" for g in elems) if elems else "1")
        parity.append(len(elems) % 2)
    products = []
    for s_mask in range(dim):
        s_elems = [g for g in range(k) if s_mask >> g & 1]
        plane: list[SparseRow] = []
        for t_mask in range(dim):
            if s_mask & t_mask:
                plane.append(())
                continue
            t_elems = [g for g in range(k) if t_mask >> g & 1]
            crossings = sum(1 for s in s_elems for t in t_elems if s > t)
            plane.append(((s_mask | t_mask, -1 if crossings % 2 else 1),))
        products.append(tuple(plane))
    return SuperAlgebra(dim, tuple(names), tuple(parity), tuple(products), unit_index=0)


def truncated_polynomial(n: int) -> SuperAlgebra:
    """Q[x]/(x^n), all even; basis 1, x, ..., x^(n-1)."""
    if not 1 <= n <= MAX_BUILTIN_DIM:
        raise ValueError(f"truncated polynomial supported for 1 <= n <= {MAX_BUILTIN_DIM}, got {n}")
    names = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(n))
    products = tuple(tuple(((i + j, 1),) if i + j < n else () for j in range(n)) for i in range(n))
    return SuperAlgebra(n, names, tuple(0 for _ in range(n)), products, unit_index=0)


def tensor_product(a: SuperAlgebra, b: SuperAlgebra) -> SuperAlgebra:
    """Graded tensor product: (x (x) y)(x' (x) y') = (-1)^{|y||x'|} xx' (x) yy'."""
    dim = a.dim * b.dim
    names = tuple(f"{na}*{nb}" for na in a.basis_names for nb in b.basis_names)
    parity = tuple((pa + pb) % 2 for pa in a.parity for pb in b.parity)
    # (e_i (x) e_j)(e_k (x) e_l) has one term per pair of terms e_m of e_i e_k and
    # e_q of e_j e_l; their targets m * b.dim + q are distinct and ascending.
    products = []
    for i in range(a.dim):
        for j in range(b.dim):
            plane: list[SparseRow] = []
            for k in range(a.dim):
                sign = -1 if b.parity[j] and a.parity[k] else 1
                for l in range(b.dim):
                    plane.append(
                        tuple(
                            (m * b.dim + q, as_rational(sign * ca * cb))
                            for m, ca in a.products[i][k]
                            for q, cb in b.products[j][l]
                        )
                    )
            products.append(tuple(plane))
    unit = None
    if a.unit_index is not None and b.unit_index is not None:
        unit = a.unit_index * b.dim + b.unit_index
    return SuperAlgebra(dim, names, parity, tuple(products), unit_index=unit)
