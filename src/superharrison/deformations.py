"""First-order deformations and square-zero extensions.

These are the semantic cross-checks for degree-2 cohomology.  Given a
degree-2 cochain psi on a supercommutative superalgebra A (values in A
itself), the deformed product

    m_t(a, b) = ab + t psi(a, b)        over rationals with t^2 = 0

is checked for supercommutativity and associativity by direct DualNumber
arithmetic on all basis pairs and triples; no cochain identities are
consulted.  The table m_t(e_i, e_j) = c_ij + t psi(e_i, e_j) is built once
per check, and m_t(x, y) extends it bilinearly to DualNumber vectors.
Independently, psi being a parity-preserving, graded-symmetric cocycle is
decided by the cochain machinery.  ``deformation_iff_cocycle`` sweeps both
sides and reports any mismatch, which would expose a sign error in either
pipeline; ``extension_valid_iff_cocycle`` sweeps the same cases.

The same game is played with the square-zero extension A (+) M: the product

    (a, m) (b, n) = (ab, a n + m b + psi(a, b))

is materialized as the sparse structure constants of an algebra on the
direct sum and handed to the generic algebra validator.  Finally, two
cocycles differing by a coboundary give isomorphic extensions via
(a, m) |-> (a, m + g(a)); ``extension_equivalence`` looks for such a g by
exact linear solving and returns it when it exists.

``deformation_classes``, ``extension_equivalence`` and both sweeps take the
caller's Harrison ``Complex``, read its spaces and matrices, and run under
its ceilings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional

from .algebras import DualNumber, SuperAlgebra, SuperModule, _table_from_cells, validate_superalgebra
from .cochains import (
    Cochain,
    hochschild_coboundary,
    is_graded_symmetric,
    parity_count,
    parity_offsets,
)
from .cohomology import CohomologyResult, Complex, ComplexKind, coboundary_matrix, cohomology
from .linalg import Rat, solve
from .records import Record

__all__ = [
    "DeformationReport",
    "SweepReport",
    "first_order_deformation_check",
    "deformation_iff_cocycle",
    "square_zero_extension",
    "extension_valid_iff_cocycle",
    "extension_equivalence",
    "deformation_classes",
    "is_cocycle",
    "random_parity_cochain",
    "NotACocycleError",
]


class NotACocycleError(ValueError):
    """A cochain that must be a cocycle has a nonzero coboundary."""


class DeformationReport(Record):
    """Outcome of checking m_t(a, b) = ab + t psi(a, b) over t^2 = 0."""

    parity_ok: bool
    supercommutativity_witness: Optional[tuple[int, int]]
    associativity_witness: Optional[tuple[int, int, int]]

    @property
    def supercommutative_mod_t2(self) -> bool:
        return self.supercommutativity_witness is None

    @property
    def associative_mod_t2(self) -> bool:
        return self.associativity_witness is None

    @property
    def valid(self) -> bool:
        return self.parity_ok and self.supercommutative_mod_t2 and self.associative_mod_t2


def _is_self_module(algebra: SuperAlgebra, m: SuperModule) -> bool:
    """Whether m is ``self_module(algebra)``, compared field by field without building it."""
    fields = (m.algebra, m.parity, m.action_sparse, m.basis_names)
    return fields == (algebra, algebra.parity, algebra.products, algebra.basis_names)


def _check_complex(cx: Complex, self_acting: bool = False) -> None:
    """Refuse a Hochschild complex and, when ``self_acting``, a module other than the self-module."""
    if cx.kind is not ComplexKind.SUPER_HARRISON:
        raise ValueError("degree-2 deformation theory needs the graded Harrison complex")
    if self_acting and not _is_self_module(cx.algebra, cx.module):
        raise ValueError("the complex must take values in the algebra acting on itself")


# A DualNumber vector, sparse: (basis index, nonzero coefficient) in index order.
DualVector = tuple[tuple[int, DualNumber], ...]


def _mt_table(algebra: SuperAlgebra, psi: Cochain) -> list[list[DualVector]]:
    """m_t on basis pairs: table[i][j] = c_ij + t psi(e_i, e_j), from the nonzero products and psi entries."""
    # twists[(i, j)] = {l: psi(e_i, e_j)_l}; psi takes values in the algebra itself.
    twists: dict[tuple[int, ...], dict[int, Rat]] = {}
    for pair, l, v in psi.iter_nonzero():
        twists.setdefault(pair, {})[l] = v
    table = []
    for i, plane in enumerate(algebra.products):
        out = []
        for j, prod in enumerate(plane):
            twist = twists.get((i, j))
            if twist is None:
                out.append(tuple((k, DualNumber._exact(c, 0)) for k, c in prod))
                continue
            product = dict(prod)
            out.append(
                tuple(
                    (l, DualNumber._exact(product.get(l, 0), twist.get(l, 0)))
                    for l in sorted(product.keys() | twist.keys())
                )
            )
        table.append(out)
    return table


def _m_t(table: list[list[DualVector]], x: DualVector, y: DualVector) -> DualVector:
    """The deformed product m_t(x, y), bilinearly over the table."""
    out: dict[int, DualNumber] = {}
    for a, xa in x:
        for b, yb in y:
            coeff = xa * yb
            for l, m in table[a][b]:
                out[l] = out[l] + coeff * m if l in out else coeff * m
    return tuple((l, v) for l, v in sorted(out.items()) if not v.is_zero())


def first_order_deformation_check(algebra: SuperAlgebra, psi: Cochain) -> DeformationReport:
    """Check the deformed product on every basis pair and triple, first witness wins."""
    if psi.degree != 2:
        raise ValueError("a deformation direction must be a degree-2 cochain")
    if psi.algebra != algebra or not _is_self_module(algebra, psi.module):
        raise ValueError("psi must take values in the algebra acting on itself")
    dim = algebra.dim
    par = algebra.parity
    table = _mt_table(algebra, psi)
    basis = [((i, DualNumber(1)),) for i in range(dim)]

    supercomm_witness = next(
        (
            (i, j)
            for i in range(dim)
            for j in range(dim)
            if table[j][i] != (tuple((l, -m) for l, m in table[i][j]) if par[i] and par[j] else table[i][j])
        ),
        None,
    )
    assoc_witness = next(
        (
            (i, j, k)
            for i in range(dim)
            for j in range(dim)
            for k in range(dim)
            if _m_t(table, table[i][j], basis[k]) != _m_t(table, basis[i], table[j][k])
        ),
        None,
    )
    return DeformationReport(
        parity_ok=psi.parity_preserving,
        supercommutativity_witness=supercomm_witness,
        associativity_witness=assoc_witness,
    )


def is_cocycle(psi: Cochain) -> bool:
    """Membership in the degree-2 Harrison cocycles, decided cochain-side."""
    return (
        psi.parity_preserving
        and is_graded_symmetric(psi)
        and hochschild_coboundary(psi).is_zero()
    )


class SweepReport(Record):
    """Result of sweeping an equivalence claim over many cochains."""

    cases: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# The chance that a random cochain sets a given parity-consistent entry.
RANDOM_DENSITY = 0.6
# The sweeps' random cases are drawn from this seed, so every report is reproducible.
SWEEP_SEED = 0


def random_parity_cochain(algebra: SuperAlgebra, module: SuperModule, degree: int, rng: random.Random) -> Cochain:
    """A random rational combination of the parity basis."""
    data: dict[int, Rat] = {}
    for off in parity_offsets(algebra, module, degree):
        if rng.random() < RANDOM_DENSITY:
            data[off] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Cochain(degree, algebra, module, data)


def _sweep(cx: Complex, budget: int, failures_of: Callable[[Cochain], list[str]]) -> SweepReport:
    """Admit degree 2, then run ``failures_of`` on the degree-2 parity basis and ``budget`` random cochains.

    Each case is drawn as it is judged, so the sweep holds one case at a time.
    """
    cx.space(2)
    algebra, module = cx.algebra, cx.module
    rng = random.Random(SWEEP_SEED)
    cases = chain(
        (Cochain(2, algebra, module, {off: 1}) for off in parity_offsets(algebra, module, 2)),
        (random_parity_cochain(algebra, module, 2, rng) for _ in range(budget)),
    )
    failures = tuple(f"case {idx}: {failure}" for idx, psi in enumerate(cases) for failure in failures_of(psi))
    return SweepReport(cases=parity_count(algebra, module, 2) + budget, failures=failures)


def deformation_iff_cocycle(cx: Complex, budget: int = 50) -> SweepReport:
    """Sweep: deformed product valid <=> psi is a Harrison 2-cocycle.

    ``cx`` is the Harrison complex of an algebra on itself.  Runs every
    element of the degree-2 parity basis plus ``budget`` random rational
    combinations, comparing the DualNumber verdict against the cochain-side
    verdict on each.
    """
    _check_complex(cx, self_acting=True)

    def failures_of(psi: Cochain) -> list[str]:
        deformation_side = first_order_deformation_check(cx.algebra, psi).valid
        cochain_side = is_cocycle(psi)
        if deformation_side == cochain_side:
            return []
        return [f"deformation check says {deformation_side}, cocycle test says {cochain_side}"]

    return _sweep(cx, budget, failures_of)


def square_zero_extension(algebra: SuperAlgebra, module: SuperModule, psi: Cochain) -> SuperAlgebra:
    """The algebra A (+) M with product (a,m)(b,n) = (ab, a n + m b + psi(a,b)).

    Its basis is A's basis followed by M's: e_i is basis element i for
    i < dim A, and m_l is basis element dim A + l.  M sits as an ideal
    squaring to zero.  The m b term uses the Koszul right action.  No
    validity of psi is assumed: the point is to hand whatever comes out to
    the validator.
    """
    if psi.degree != 2 or psi.algebra != algebra or psi.module != module:
        raise ValueError("psi must be a degree-2 cochain on the given algebra and module")
    da, dm = algebra.dim, module.dim
    dim = da + dm
    names = tuple(algebra.basis_names) + tuple(f"m.{n}" for n in module.basis_names)
    parity = tuple(algebra.parity) + tuple(module.parity)
    a_par = algebra.parity
    m_par = module.parity
    # cells[(row, col)][k]: the coefficient of basis element k in the product.
    cells: dict[tuple[int, int], dict[int, Rat]] = {}

    def add(row: int, col: int, k: int, c: Rat) -> None:
        cell = cells.setdefault((row, col), {})
        cell[k] = cell.get(k, 0) + c

    for i, plane in enumerate(algebra.products):
        for j, prod in enumerate(plane):
            for k, c in prod:
                add(i, j, k, c)
    for (i, j), l, v in psi.iter_nonzero():
        add(i, j, da + l, v)

    for i in range(da):
        for k in range(dm):
            for l, c in module.action_sparse[i][k]:
                add(i, da + k, da + l, c)
                # m * a on homogeneous components
                add(da + k, i, da + l, -c if a_par[i] and m_par[k] else c)

    return SuperAlgebra(dim, names, parity, _table_from_cells(cells, dim, dim), unit_index=None)


def extension_valid_iff_cocycle(cx: Complex, budget: int = 50) -> SweepReport:
    """Sweep: the extension by the complex's module validates <=> psi is a Harrison 2-cocycle.

    The comparison is law-by-law: associativity of the extension against
    the cocycle condition, supercommutativity against graded symmetry, and
    parity compatibility against parity preservation.
    """
    _check_complex(cx)

    def failures_of(psi: Cochain) -> list[str]:
        kinds = validate_superalgebra(square_zero_extension(cx.algebra, cx.module, psi)).kinds()
        checks = (
            ("associativity", hochschild_coboundary(psi).is_zero()),
            ("supercommutativity", is_graded_symmetric(psi)),
            ("parity", psi.parity_preserving),
        )
        return [
            f"extension {kind} is {'clean' if kind not in kinds else 'violated'} but cochain side says {cochain_ok}"
            for kind, cochain_ok in checks
            if (kind not in kinds) != cochain_ok
        ]

    return _sweep(cx, budget, failures_of)


def extension_equivalence(cx: Complex, psi1: Cochain, psi2: Cochain) -> Optional[Cochain]:
    """A degree-1 cochain g with dg = psi1 - psi2, or None when no such g exists.

    When g exists, (a, m) |-> (a, m + g(a)) is an isomorphism between the two
    square-zero extensions, so the answer decides extension equivalence.
    Both inputs must be Harrison 2-cocycles on the complex's algebra and
    module; g is solved for in its degree-1 space against its d_1.
    """
    _check_complex(cx)
    algebra, module = cx.algebra, cx.module
    for psi in (psi1, psi2):
        if psi.degree != 2 or psi.algebra != algebra or psi.module != module:
            raise ValueError("inputs must be degree-2 cochains on the complex's algebra and module")
        if not is_cocycle(psi):
            raise NotACocycleError("extension equivalence is defined for cocycles only")

    matrix = coboundary_matrix(cx, 1)
    diff = psi1 - psi2
    rhs = cx.space(2).sparse_coordinates(diff.data)
    if rhs is None:
        raise AssertionError("difference of cocycles escaped the Harrison space")
    solution = solve(matrix, rhs)
    if solution is None:
        return None
    g = Cochain(1, algebra, module, cx.space(1).combination(solution))
    if hochschild_coboundary(g) != diff:
        raise AssertionError("solver returned g with dg != psi1 - psi2")
    return g


def deformation_classes(cx: Complex) -> CohomologyResult:
    """Degree-2 cohomology of ``cx``, the Harrison complex of A on itself; representatives re-checked.

    Every representative is run back through the DualNumber deformation
    check, which must come out valid.
    """
    _check_complex(cx, self_acting=True)
    result = cohomology(cx, 2)
    for rep in result.representatives:
        if not first_order_deformation_check(cx.algebra, rep).valid:
            raise AssertionError("cohomology representative rejected by the deformation check")
    return result
