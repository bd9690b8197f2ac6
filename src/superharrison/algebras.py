"""Finite-dimensional supercommutative superalgebras and their supermodules.

An algebra is a dense structure tensor ``c[i][j][k]`` over a chosen basis,
with a Z_2 parity per basis element.  Constructors only enforce shapes;
algebraic laws (supercommutativity b*a = (-1)^{|a||b|} a*b, associativity,
parity compatibility, unit laws) are checked by the validators, which return
a full list of violated identities with witnesses instead of raising.  That
split is deliberate: the deformation layer needs to build broken algebras on
purpose and see exactly which law fails where.

A supermodule stores a left action tensor.  The right action is never stored:
it is induced from the left one on homogeneous components by the Koszul rule
m*a = (-1)^{|a||m|} a*m, which is the convention used by the coboundary.

``DualNumber`` implements rationals adjoined an infinitesimal t with t^2 = 0,
used to check first-order deformations by direct arithmetic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .linalg import Rat, as_rational
from .records import Record, set_field

__all__ = [
    "SuperAlgebra",
    "SuperModule",
    "DualNumber",
    "Violation",
    "ValidationReport",
    "validate_superalgebra",
    "validate_supermodule",
    "multiply",
    "act",
    "right_action",
    "self_module",
    "exterior_algebra",
    "truncated_polynomial",
    "ground_field",
    "tensor_product",
]

StructureTensor = tuple[tuple[tuple[Rat, ...], ...], ...]
SparseTable = tuple[tuple[tuple[tuple[int, Rat], ...], ...], ...]


def _freeze_tensor(tensor: Sequence[Sequence[Sequence[Rat]]], d0: int, d1: int, d2: int) -> StructureTensor:
    if len(tensor) != d0:
        raise ValueError(f"tensor has {len(tensor)} slices, expected {d0}")
    out = []
    for plane in tensor:
        if len(plane) != d1:
            raise ValueError(f"tensor slice has {len(plane)} rows, expected {d1}")
        rows = []
        for row in plane:
            if len(row) != d2:
                raise ValueError(f"tensor row has {len(row)} entries, expected {d2}")
            rows.append(tuple(as_rational(x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


def _check_parity(parity: Sequence[int], dim: int) -> tuple[int, ...]:
    if len(parity) != dim:
        raise ValueError(f"parity vector length {len(parity)} does not match dim {dim}")
    if any(p not in (0, 1) for p in parity):
        raise ValueError("parities must be 0 or 1")
    return tuple(parity)


class SuperAlgebra(Record):
    """Structure constants of a superalgebra: e_i e_j = sum_k c[i][j][k] e_k."""

    dim: int
    basis_names: tuple[str, ...]
    parity: tuple[int, ...]
    structure: StructureTensor
    unit_index: Optional[int]

    def __init__(
        self,
        dim: int,
        basis_names: tuple[str, ...],
        parity: Sequence[int],
        structure: Sequence[Sequence[Sequence[Rat]]],
        unit_index: Optional[int] = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if len(basis_names) != dim:
            raise ValueError("basis_names length does not match dim")
        parity = _check_parity(parity, dim)
        structure = _freeze_tensor(structure, dim, dim, dim)
        if unit_index is not None and not 0 <= unit_index < dim:
            raise ValueError(f"unit index {unit_index} out of range")
        set_field(self, "dim", dim)
        set_field(self, "basis_names", basis_names)
        set_field(self, "parity", parity)
        set_field(self, "structure", structure)
        set_field(self, "unit_index", unit_index)

    @cached_property
    def products(self) -> SparseTable:
        """Sparse view of the structure tensor: products[i][j] = ((k, c), ...)."""
        return tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
            for plane in self.structure
        )

    @cached_property
    def pairs_producing(self) -> tuple[tuple[tuple[int, int, Rat], ...], ...]:
        """pairs_producing[k] = all (i, j, c) with e_i e_j having coefficient c on e_k."""
        out: list[list[tuple[int, int, Rat]]] = [[] for _ in range(self.dim)]
        for i, plane in enumerate(self.structure):
            for j, row in enumerate(plane):
                for k, c in enumerate(row):
                    if c:
                        out[k].append((i, j, c))
        return tuple(tuple(entries) for entries in out)


class SuperModule(Record):
    """A supermodule over ``algebra`` given by a left action tensor.

    action[i][k][l] is the coefficient of m_l in e_i * m_k.
    """

    algebra: SuperAlgebra
    dim: int
    parity: tuple[int, ...]
    action: StructureTensor
    basis_names: tuple[str, ...]

    def __init__(
        self,
        algebra: SuperAlgebra,
        dim: int,
        parity: Sequence[int],
        action: Sequence[Sequence[Sequence[Rat]]],
        basis_names: tuple[str, ...] = (),
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        parity = _check_parity(parity, dim)
        # The algebra's own frozen tensor needs no second pass.
        if not (action is algebra.structure and dim == algebra.dim):
            action = _freeze_tensor(action, algebra.dim, dim, dim)
        if not basis_names:
            basis_names = tuple(f"m{k}" for k in range(dim))
        if len(basis_names) != dim:
            raise ValueError("basis_names length does not match dim")
        set_field(self, "algebra", algebra)
        set_field(self, "dim", dim)
        set_field(self, "parity", parity)
        set_field(self, "action", action)
        set_field(self, "basis_names", basis_names)

    @cached_property
    def action_sparse(self) -> SparseTable:
        """action_sparse[i][k] = ((l, c), ...) for e_i * m_k."""
        return tuple(
            tuple(tuple((l, c) for l, c in enumerate(row) if c) for row in plane)
            for plane in self.action
        )


def self_module(algebra: SuperAlgebra) -> SuperModule:
    """The algebra acting on itself by left multiplication."""
    return SuperModule(
        algebra=algebra,
        dim=algebra.dim,
        parity=algebra.parity,
        action=algebra.structure,
        basis_names=algebra.basis_names,
    )


def multiply(algebra: SuperAlgebra, x: Sequence[Rat], y: Sequence[Rat]) -> tuple[Rat, ...]:
    """Product of two coefficient vectors."""
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise ValueError("vector length does not match algebra dimension")
    out: list[Rat] = [0] * algebra.dim
    products = algebra.products
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = products[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, c in row[j]:
                out[k] = out[k] + xi * yj * c
    return tuple(as_rational(v) for v in out)


def act(module: SuperModule, a: Sequence[Rat], m: Sequence[Rat]) -> tuple[Rat, ...]:
    """Left action of an algebra vector on a module vector."""
    if len(a) != module.algebra.dim or len(m) != module.dim:
        raise ValueError("vector length mismatch")
    out: list[Rat] = [0] * module.dim
    sparse = module.action_sparse
    for i, ai in enumerate(a):
        if not ai:
            continue
        plane = sparse[i]
        for k, mk in enumerate(m):
            if not mk:
                continue
            for l, c in plane[k]:
                out[l] = out[l] + ai * mk * c
    return tuple(as_rational(v) for v in out)


def right_action(module: SuperModule, m: Sequence[Rat], a: Sequence[Rat]) -> tuple[Rat, ...]:
    """Koszul-induced right action, m*a = (-1)^{|a||m|} a*m per homogeneous component."""
    if len(a) != module.algebra.dim or len(m) != module.dim:
        raise ValueError("vector length mismatch")
    out: list[Rat] = [0] * module.dim
    sparse = module.action_sparse
    a_par = module.algebra.parity
    m_par = module.parity
    for i, ai in enumerate(a):
        if not ai:
            continue
        plane = sparse[i]
        for k, mk in enumerate(m):
            if not mk:
                continue
            coeff = -ai * mk if a_par[i] and m_par[k] else ai * mk
            for l, c in plane[k]:
                out[l] = out[l] + coeff * c
    return tuple(as_rational(v) for v in out)


class Violation(Record):
    """One violated identity: which law, at which basis indices, with detail."""

    kind: str
    indices: tuple[int, ...]
    detail: str

    def __init__(self, kind: str, indices: tuple[int, ...], detail: str) -> None:
        set_field(self, "kind", kind)
        set_field(self, "indices", indices)
        set_field(self, "detail", detail)


class ValidationReport(Record):
    violations: tuple[Violation, ...]

    def __init__(self, violations: tuple[Violation, ...]) -> None:
        set_field(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def first(self, kind: str) -> Optional[Violation]:
        for v in self.violations:
            if v.kind == kind:
                return v
        return None


def _parity_violations(a_par: Sequence[int], table: SparseTable, x_par: Sequence[int], x: str) -> list[Violation]:
    """e_i * x_k may only hit x_l of parity |e_i| + |x_k|; ``table`` is the sparse action on the x's."""
    out = []
    for i, plane in enumerate(table):
        for k, row in enumerate(plane):
            target = (a_par[i] + x_par[k]) % 2
            for l, _ in row:
                if x_par[l] != target:
                    out.append(
                        Violation(
                            "parity",
                            (i, k, l),
                            f"e{i}*{x}{k} hits {x}{l} of parity {x_par[l]}, expected {target}",
                        )
                    )
    return out


def _action_law_violations(products: SparseTable, table: SparseTable, x: str, kind: str) -> list[Violation]:
    """(e_i e_j)x_k = e_i(e_j x_k), first differing x_l reported per triple.

    With ``table`` the algebra's own products this is associativity; with a
    module's action it is the module law.
    """
    out = []
    for i, plane in enumerate(products):
        for j, prod in enumerate(plane):
            for k in range(len(table[0])):
                lhs: dict[int, Rat] = {}
                for mid, coeff in prod:
                    for l, c2 in table[mid][k]:
                        lhs[l] = lhs.get(l, 0) + coeff * c2
                rhs: dict[int, Rat] = {}
                for mid, coeff in table[j][k]:
                    for l, c2 in table[i][mid]:
                        rhs[l] = rhs.get(l, 0) + coeff * c2
                for l in sorted(set(lhs) | set(rhs)):
                    if lhs.get(l, 0) != rhs.get(l, 0):
                        out.append(
                            Violation(
                                kind,
                                (i, j, k),
                                f"(e{i}e{j}){x}{k} and e{i}(e{j}{x}{k}) differ at {x}{l}: "
                                f"{lhs.get(l, 0)} vs {rhs.get(l, 0)}",
                            )
                        )
                        break
    return out


def validate_superalgebra(algebra: SuperAlgebra) -> ValidationReport:
    """Check parity compatibility, supercommutativity, associativity, unit laws.

    Every violated identity is reported, in lexicographic witness order per law.
    Parity and associativity are the module laws of A acting on itself.
    """
    dim = algebra.dim
    par = algebra.parity
    c = algebra.structure
    violations = _parity_violations(par, algebra.products, par, "e")

    for i in range(dim):
        for j in range(dim):
            sign = -1 if par[i] and par[j] else 1
            for k in range(dim):
                if c[j][i][k] != sign * c[i][j][k]:
                    violations.append(
                        Violation(
                            "supercommutativity",
                            (i, j, k),
                            f"coefficient of e{k}: e{j}*e{i} = {c[j][i][k]}, "
                            f"expected {sign * c[i][j][k]}",
                        )
                    )

    violations += _action_law_violations(algebra.products, algebra.products, "e", "associativity")

    if algebra.unit_index is not None:
        u = algebra.unit_index
        if par[u] != 0:
            violations.append(Violation("unit", (u,), "unit element must be even"))
        for i in range(dim):
            for k in range(dim):
                want = 1 if k == i else 0
                if c[u][i][k] != want:
                    violations.append(
                        Violation("unit", (u, i, k), f"e_unit*e{i} is not e{i}")
                    )
                if c[i][u][k] != want:
                    violations.append(
                        Violation("unit", (i, u, k), f"e{i}*e_unit is not e{i}")
                    )

    return ValidationReport(tuple(violations))


def validate_supermodule(module: SuperModule) -> ValidationReport:
    """Check parity compatibility, the module law (e_i e_j)m = e_i(e_j m), unit action."""
    algebra = module.algebra
    a = module.action
    violations = _parity_violations(algebra.parity, module.action_sparse, module.parity, "m")
    violations += _action_law_violations(algebra.products, module.action_sparse, "m", "module_law")

    if algebra.unit_index is not None:
        u = algebra.unit_index
        for k in range(module.dim):
            for l in range(module.dim):
                want = 1 if l == k else 0
                if a[u][k][l] != want:
                    violations.append(
                        Violation("unit", (u, k, l), f"e_unit*m{k} is not m{k}")
                    )

    return ValidationReport(tuple(violations))


class DualNumber(Record):
    """c0 + c1*t with t^2 = 0, over exact rationals."""

    c0: Rat
    c1: Rat

    def __init__(self, c0: Rat, c1: Rat = 0) -> None:
        set_field(self, "c0", as_rational(c0))
        set_field(self, "c1", as_rational(c1))

    # Spelled out, not ``Record``'s generic pair: the deformation checks
    # compare DualNumbers by the thousand.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DualNumber:
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    @staticmethod
    def _exact(c0: Rat, c1: Rat) -> "DualNumber":
        """c0 + c1*t from values that are already exact, such as sums and products of exact values.

        Arithmetic builds its results here, skipping the normalisation that
        ``__init__`` applies to values from outside, so a component may
        be an integral ``Fraction``; it still compares and hashes as the int.
        """
        out = object.__new__(DualNumber)
        set_field(out, "c0", c0)
        set_field(out, "c1", c1)
        return out

    @staticmethod
    def coerce(value: "DualNumber | Rat") -> "DualNumber":
        if isinstance(value, DualNumber):
            return value
        return DualNumber(value)

    def __add__(self, other: "DualNumber | Rat") -> "DualNumber":
        o = DualNumber.coerce(other)
        return DualNumber._exact(self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __neg__(self) -> "DualNumber":
        return DualNumber._exact(-self.c0, -self.c1)

    def __sub__(self, other: "DualNumber | Rat") -> "DualNumber":
        o = DualNumber.coerce(other)
        return DualNumber._exact(self.c0 - o.c0, self.c1 - o.c1)

    def __rsub__(self, other: "DualNumber | Rat") -> "DualNumber":
        o = DualNumber.coerce(other)
        return DualNumber._exact(o.c0 - self.c0, o.c1 - self.c1)

    def __mul__(self, other: "DualNumber | Rat") -> "DualNumber":
        o = DualNumber.coerce(other)
        return DualNumber._exact(self.c0 * o.c0, self.c0 * o.c1 + self.c1 * o.c0)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.c0 and not self.c1


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
    structure = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for s_mask in range(dim):
        s_elems = [g for g in range(k) if s_mask >> g & 1]
        for t_mask in range(dim):
            if s_mask & t_mask:
                continue
            t_elems = [g for g in range(k) if t_mask >> g & 1]
            crossings = sum(1 for s in s_elems for t in t_elems if s > t)
            structure[s_mask][t_mask][s_mask | t_mask] = -1 if crossings % 2 else 1
    return SuperAlgebra(dim, tuple(names), tuple(parity), structure, unit_index=0)


def truncated_polynomial(n: int) -> SuperAlgebra:
    """Q[x]/(x^n), all even; basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise ValueError(f"truncation order must be at least 1, got {n}")
    names = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(n))
    structure = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                structure[i][j][i + j] = 1
    return SuperAlgebra(n, names, tuple(0 for _ in range(n)), structure, unit_index=0)


def ground_field() -> SuperAlgebra:
    """The rationals as a one-dimensional algebra."""
    return truncated_polynomial(1)


def tensor_product(a: SuperAlgebra, b: SuperAlgebra) -> SuperAlgebra:
    """Graded tensor product: (x (x) y)(x' (x) y') = (-1)^{|y||x'|} xx' (x) yy'."""
    dim = a.dim * b.dim
    names = tuple(f"{na}*{nb}" for na in a.basis_names for nb in b.basis_names)
    parity = tuple((pa + pb) % 2 for pa in a.parity for pb in b.parity)
    structure = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(a.dim):
        for j in range(b.dim):
            row_idx = i * b.dim + j
            for k in range(a.dim):
                sign = -1 if b.parity[j] and a.parity[k] else 1
                for l in range(b.dim):
                    col_idx = k * b.dim + l
                    cell = structure[row_idx][col_idx]
                    for m, ca in a.products[i][k]:
                        for q, cb in b.products[j][l]:
                            cell[m * b.dim + q] += sign * ca * cb
    unit = None
    if a.unit_index is not None and b.unit_index is not None:
        unit = a.unit_index * b.dim + b.unit_index
    return SuperAlgebra(dim, names, parity, structure, unit_index=unit)
