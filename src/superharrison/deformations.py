"""First-order deformations and square-zero extensions.

These are the semantic cross-checks for degree-2 cohomology.  Given a
degree-2 cochain psi on a supercommutative superalgebra A (values in A
itself), the deformed product

    m_t(a, b) = ab + t psi(a, b)        over rationals with t^2 = 0

is checked for supercommutativity and associativity with no cochain
identity consulted.  A[t]/(t^2) under m_t is an algebra of dimension
2 dim A over the rationals, on the basis e_0 ... e_{d-1}, t e_0 ... t e_{d-1}
(``_mt_table``), so the validators' own law scans from ``algebras`` read its
structure constants: both laws on the A x A block, where m_t(e_i, e_j) =
c_ij + t psi(e_i, e_j), going pair by pair in lexicographic witness order
and stopping at the first difference.
Independently, psi being a parity-preserving, graded-symmetric cocycle is
decided by the cochain machinery, law by law (``_cochain_laws``).  Graded
symmetry there is su_{2,1} psi = 0, (su_{2,1} f)(a, b) = f(a, b) -
(-1)^{|a||b|} f(b, a), read from the signed shuffle table of the shuffle
sums.  ``deformation_iff_cocycle`` sweeps both sides and reports any
mismatch, which would expose a sign error in either pipeline;
``extension_valid_iff_cocycle`` sweeps the same cases.

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
from typing import Callable, Iterator, Optional

from .algebras import (
    SparseTable,
    SuperAlgebra,
    SuperModule,
    _law_differences,
    _supercommutativity_differences,
    _table_from_cells,
    validate_superalgebra,
)
from .cochains import (
    Cochain,
    hochschild_coboundary,
    parity_count,
    parity_offsets,
    super_shuffle_sum,
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


def _is_self_module(m: SuperModule) -> bool:
    """Whether m is ``self_module(m.algebra)``, compared field by field without building it."""
    algebra = m.algebra
    return (m.parity, m.action_sparse, m.basis_names) == (algebra.parity, algebra.products, algebra.basis_names)


def _check_complex(cx: Complex, self_acting: bool = False) -> None:
    """Refuse a Hochschild complex and, when ``self_acting``, a module other than the self-module."""
    if cx.kind is not ComplexKind.SUPER_HARRISON:
        raise ValueError("degree-2 deformation theory needs the graded Harrison complex")
    if self_acting and not _is_self_module(cx.module):
        raise ValueError("the complex must take values in the algebra acting on itself")


def _mt_table(psi: Cochain) -> SparseTable:
    """The products of A[t]/(t^2) under m + t psi, on the basis e_0 ... e_{d-1}, t e_0 ... t e_{d-1}.

    Row (i, j) is c_ij followed by psi(e_i, e_j) at d + l; rows (i, d + k)
    and (d + i, k) are A's row (i, k) shifted by d, and rows (d + i, d + k)
    are empty, since t^2 = 0.  A's own products stand on both sides of the
    t-block, so on an algebra that is not supercommutative the table is
    still m + t psi, not ``square_zero_extension``'s Koszul right action.
    """
    products = psi.algebra.products
    d = len(products)
    # twists[(i, j)] lists (d + l, psi(e_i, e_j)_l), l ascending; psi takes values in the algebra itself.
    twists: dict[tuple[int, ...], list[tuple[int, Rat]]] = {}
    for pair, l, v in psi.iter_nonzero():
        twists.setdefault(pair, []).append((d + l, v))
    shifted = [tuple(tuple((d + k, c) for k, c in row) for row in plane) for plane in products]
    top = tuple(
        tuple(row + tuple(twists.get((i, j), ())) for j, row in enumerate(plane)) + shifted[i]
        for i, plane in enumerate(products)
    )
    return top + tuple(shifted[i] + ((),) * d for i in range(d))


def first_order_deformation_check(psi: Cochain) -> DeformationReport:
    """Check m + t psi by the law scans on the A x A block of ``_mt_table``; the first witness of each wins."""
    if psi.degree != 2:
        raise ValueError("a deformation direction must be a degree-2 cochain")
    if not _is_self_module(psi.module):
        raise ValueError("psi must take values in the algebra acting on itself")
    d = psi.algebra.dim
    table = _mt_table(psi)
    block = tuple(plane[:d] for plane in table[:d])
    supercomm = next(_supercommutativity_differences(psi.algebra.parity, block), None)
    # x_k runs over all of A[t]/(t^2); the associativity of m_t is the k < d part.
    assoc = next((w for w in _law_differences(block, table) if w[2] < d), None)
    return DeformationReport(
        parity_ok=psi.parity_preserving,
        supercommutativity_witness=None if supercomm is None else supercomm[:2],
        associativity_witness=None if assoc is None else assoc[:3],
    )


def _cochain_laws(psi: Cochain) -> Iterator[tuple[str, bool]]:
    """Lazily, (law, holds) for parity, su_{2,1} psi = 0 and d psi = 0, named and ordered as the validators report."""
    yield "parity", psi.parity_preserving
    yield "supercommutativity", super_shuffle_sum(psi, 1).is_zero()
    yield "associativity", hochschild_coboundary(psi).is_zero()


def is_cocycle(psi: Cochain) -> bool:
    """Membership in the degree-2 Harrison cocycles, decided cochain-side."""
    if psi.degree != 2:
        raise ValueError("a Harrison 2-cocycle has degree 2")
    return all(holds for _, holds in _cochain_laws(psi))


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


def random_parity_cochain(module: SuperModule, degree: int, rng: random.Random) -> Cochain:
    """A random rational combination of the parity basis."""
    data: dict[int, Rat] = {}
    for off in parity_offsets(module, degree):
        if rng.random() < RANDOM_DENSITY:
            data[off] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Cochain(degree, module, data)


def _sweep(cx: Complex, budget: int, failures_of: Callable[[Cochain], list[str]]) -> SweepReport:
    """Admit degree 2, then run ``failures_of`` on the degree-2 parity basis and ``budget`` random cochains.

    Each case is drawn as it is judged, so the sweep holds one case at a time.
    """
    cx.space(2)
    module = cx.module
    rng = random.Random(SWEEP_SEED)
    cases = chain(
        (Cochain(2, module, {off: 1}) for off in parity_offsets(module, 2)),
        (random_parity_cochain(module, 2, rng) for _ in range(budget)),
    )
    failures = tuple(f"case {idx}: {failure}" for idx, psi in enumerate(cases) for failure in failures_of(psi))
    return SweepReport(cases=parity_count(module, 2) + budget, failures=failures)


def deformation_iff_cocycle(cx: Complex, budget: int) -> SweepReport:
    """Sweep: deformed product valid <=> psi is a Harrison 2-cocycle.

    ``cx`` is the Harrison complex of an algebra on itself.  Runs every
    element of the degree-2 parity basis plus ``budget`` random rational
    combinations, comparing the deformed-product verdict against the
    cochain-side verdict on each.
    """
    _check_complex(cx, self_acting=True)

    def failures_of(psi: Cochain) -> list[str]:
        deformation_side = first_order_deformation_check(psi).valid
        cochain_side = is_cocycle(psi)
        if deformation_side == cochain_side:
            return []
        return [f"deformation check says {deformation_side}, cocycle test says {cochain_side}"]

    return _sweep(cx, budget, failures_of)


def square_zero_extension(psi: Cochain) -> SuperAlgebra:
    """The algebra A (+) M with product (a,m)(b,n) = (ab, a n + m b + psi(a,b)), for M = ``psi.module``.

    Its basis is A's basis followed by M's: e_i is basis element i for
    i < dim A, and m_l is basis element dim A + l.  M sits as an ideal
    squaring to zero.  The m b term uses the Koszul right action.  No
    validity of psi is assumed: the point is to hand whatever comes out to
    the validator.
    """
    if psi.degree != 2:
        raise ValueError("psi must be a degree-2 cochain")
    algebra, module = psi.algebra, psi.module
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


def extension_valid_iff_cocycle(cx: Complex, budget: int) -> SweepReport:
    """Sweep: the extension by the complex's module validates <=> psi is a Harrison 2-cocycle.

    The comparison is law by law over ``_cochain_laws``: parity compatibility
    against parity preservation, supercommutativity against graded symmetry
    (su_{2,1} psi = 0), and associativity against the cocycle condition.
    """
    _check_complex(cx)

    def failures_of(psi: Cochain) -> list[str]:
        kinds = validate_superalgebra(square_zero_extension(psi)).kinds()
        return [
            f"extension {kind} is {'clean' if kind not in kinds else 'violated'} but cochain side says {cochain_ok}"
            for kind, cochain_ok in _cochain_laws(psi)
            if (kind not in kinds) != cochain_ok
        ]

    return _sweep(cx, budget, failures_of)


def extension_equivalence(cx: Complex, psi1: Cochain, psi2: Cochain) -> Optional[Cochain]:
    """A degree-1 cochain g with dg = psi1 - psi2, or None when no such g exists.

    When g exists, (a, m) |-> (a, m + g(a)) is an isomorphism between the two
    square-zero extensions, so the answer decides extension equivalence.
    Both inputs must be Harrison 2-cocycles on the complex's module; g is
    solved for in its degree-1 space against its d_1.
    """
    _check_complex(cx)
    for psi in (psi1, psi2):
        if psi.degree != 2 or psi.module != cx.module:
            raise ValueError("inputs must be degree-2 cochains on the complex's module")
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
    g = Cochain(1, cx.module, cx.space(1).combination(solution))
    if hochschild_coboundary(g) != diff:
        raise AssertionError("solver returned g with dg != psi1 - psi2")
    return g


def deformation_classes(cx: Complex) -> CohomologyResult:
    """Degree-2 cohomology of ``cx``, the Harrison complex of A on itself; representatives re-checked.

    Every representative is run back through the deformed-product check,
    which must come out valid.
    """
    _check_complex(cx, self_acting=True)
    result = cohomology(cx, 2)
    for rep in result.representatives:
        if not first_order_deformation_check(rep).valid:
            raise AssertionError("cohomology representative rejected by the deformation check")
    return result
