"""First-order deformations and square-zero extensions.

These are the semantic cross-checks for degree-2 cohomology.  Given a
degree-2 cochain psi on a supercommutative superalgebra A (values in A
itself), the deformed product

    m_t(a, b) = ab + t psi(a, b)        over rationals with t^2 = 0

is checked for supercommutativity and associativity by direct DualNumber
arithmetic on all basis pairs and triples; no cochain identities are
consulted.  Independently, psi being a parity-preserving, graded-symmetric
cocycle is decided by the cochain machinery.  ``deformation_iff_cocycle``
sweeps both sides and reports any mismatch, which would expose a sign error
in either pipeline.

The same game is played with the square-zero extension A (+) M: the product

    (a, m) (b, n) = (ab, a n + m b + psi(a, b))

is materialized as an honest structure tensor and handed to the generic
algebra validator.  Finally, two cocycles differing by a coboundary give
isomorphic extensions via (a, m) |-> (a, m + g(a)); ``extension_equivalence``
looks for such a g by exact linear solving and returns it when it exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebras import (
    DualNumber,
    SuperAlgebra,
    SuperModule,
    self_module,
    validate_superalgebra,
)
from .cochains import (
    Cochain,
    cochain_from_coordinates,
    harrison_space,
    hochschild_coboundary,
    is_graded_symmetric,
    parity_basis,
    parity_coordinates,
    parity_offsets,
)
from .cohomology import CohomologyResult, ComplexKind, coboundary_matrix, cohomology
from .linalg import Rat, as_rational, solve

__all__ = [
    "DeformationReport",
    "ExtensionResult",
    "SweepReport",
    "first_order_deformation_check",
    "deformation_iff_cocycle",
    "square_zero_extension",
    "extension_valid_iff_cocycle",
    "extension_equivalence",
    "deformation_classes",
    "is_cocycle",
    "random_parity_cochain",
]


@dataclass(frozen=True)
class DeformationReport:
    """Outcome of checking m_t(a, b) = ab + t psi(a, b) over t^2 = 0."""

    parity_ok: bool
    supercommutative_mod_t2: bool
    associative_mod_t2: bool
    supercommutativity_witness: Optional[tuple[int, int]]
    associativity_witness: Optional[tuple[int, int, int]]

    @property
    def valid(self) -> bool:
        return self.parity_ok and self.supercommutative_mod_t2 and self.associative_mod_t2


def _check_psi(algebra: SuperAlgebra, psi: Cochain) -> None:
    if psi.degree != 2:
        raise ValueError("a deformation direction must be a degree-2 cochain")
    if psi.algebra != algebra or psi.module != self_module(algebra):
        raise ValueError("psi must take values in the algebra acting on itself")


def _mt_on_basis(algebra: SuperAlgebra, psi: Cochain, i: int, j: int) -> tuple[DualNumber, ...]:
    base = psi.offset((i, j), 0)
    c = algebra.structure[i][j]
    return tuple(DualNumber(c[l], psi.data[base + l]) for l in range(algebra.dim))


def _mt_of_vector_and_basis(
    algebra: SuperAlgebra, psi: Cochain, x: tuple[DualNumber, ...], k: int
) -> tuple[DualNumber, ...]:
    """m_t(x, e_k) for a DualNumber coefficient vector x, bilinearly."""
    out = [DualNumber(0) for _ in range(algebra.dim)]
    for a, xa in enumerate(x):
        if xa.is_zero():
            continue
        base = psi.offset((a, k), 0)
        c = algebra.structure[a][k]
        for l in range(algebra.dim):
            coeff = DualNumber(c[l], psi.data[base + l])
            if not coeff.is_zero():
                out[l] = out[l] + xa * coeff
    return tuple(out)


def _mt_of_basis_and_vector(
    algebra: SuperAlgebra, psi: Cochain, i: int, y: tuple[DualNumber, ...]
) -> tuple[DualNumber, ...]:
    out = [DualNumber(0) for _ in range(algebra.dim)]
    for b, yb in enumerate(y):
        if yb.is_zero():
            continue
        base = psi.offset((i, b), 0)
        c = algebra.structure[i][b]
        for l in range(algebra.dim):
            coeff = DualNumber(c[l], psi.data[base + l])
            if not coeff.is_zero():
                out[l] = out[l] + yb * coeff
    return tuple(out)


def first_order_deformation_check(algebra: SuperAlgebra, psi: Cochain) -> DeformationReport:
    """Check the deformed product on every basis pair and triple, first witness wins."""
    _check_psi(algebra, psi)
    dim = algebra.dim
    par = algebra.parity

    parity_ok = psi.parity_preserving

    supercomm = True
    supercomm_witness: Optional[tuple[int, int]] = None
    for i in range(dim):
        if not supercomm:
            break
        for j in range(dim):
            sign = -1 if par[i] and par[j] else 1
            lhs = _mt_on_basis(algebra, psi, j, i)
            rhs = _mt_on_basis(algebra, psi, i, j)
            if any(not (a - sign * b).is_zero() for a, b in zip(lhs, rhs)):
                supercomm = False
                supercomm_witness = (i, j)
                break

    assoc = True
    assoc_witness: Optional[tuple[int, int, int]] = None
    for i in range(dim):
        if not assoc:
            break
        for j in range(dim):
            if not assoc:
                break
            ij = _mt_on_basis(algebra, psi, i, j)
            for k in range(dim):
                left = _mt_of_vector_and_basis(algebra, psi, ij, k)
                jk = _mt_on_basis(algebra, psi, j, k)
                right = _mt_of_basis_and_vector(algebra, psi, i, jk)
                if any(not (a - b).is_zero() for a, b in zip(left, right)):
                    assoc = False
                    assoc_witness = (i, j, k)
                    break

    return DeformationReport(
        parity_ok=parity_ok,
        supercommutative_mod_t2=supercomm,
        associative_mod_t2=assoc,
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


@dataclass(frozen=True)
class SweepReport:
    """Result of sweeping an equivalence claim over many cochains."""

    passed: bool
    cases: int
    failures: tuple[str, ...]


def random_parity_cochain(
    algebra: SuperAlgebra,
    module: SuperModule,
    degree: int,
    rng: random.Random,
    density: float = 0.6,
) -> Cochain:
    """A random rational combination of the parity basis."""
    offsets = parity_offsets(algebra, module, degree)
    coords: list[Rat] = []
    for _ in offsets:
        if rng.random() < density:
            coords.append(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        else:
            coords.append(0)
    return cochain_from_coordinates(algebra, module, degree, [as_rational(c) for c in coords])


def deformation_iff_cocycle(
    algebra: SuperAlgebra, budget: int = 50, seed: int = 0
) -> SweepReport:
    """Sweep: deformed product valid <=> psi is a Harrison 2-cocycle.

    Runs every element of the degree-2 parity basis plus ``budget`` random
    rational combinations, comparing the DualNumber verdict against the
    cochain-side verdict on each.
    """
    module = self_module(algebra)
    sweep = list(parity_basis(algebra, module, 2))
    rng = random.Random(seed)
    for _ in range(budget):
        sweep.append(random_parity_cochain(algebra, module, 2, rng))

    failures = []
    for idx, psi in enumerate(sweep):
        deformation_side = first_order_deformation_check(algebra, psi).valid
        cochain_side = is_cocycle(psi)
        if deformation_side != cochain_side:
            failures.append(
                f"case {idx}: deformation check says {deformation_side}, "
                f"cocycle test says {cochain_side}"
            )
    return SweepReport(passed=not failures, cases=len(sweep), failures=tuple(failures))


@dataclass(frozen=True)
class ExtensionResult:
    """The square-zero extension algebra plus index bookkeeping.

    ``algebra_block`` maps A-basis indices into the extension;
    ``module_block`` maps M-basis indices into the extension.
    """

    algebra: SuperAlgebra
    algebra_block: tuple[int, ...]
    module_block: tuple[int, ...]


def square_zero_extension(
    algebra: SuperAlgebra, module: SuperModule, psi: Cochain
) -> ExtensionResult:
    """The algebra A (+) M with product (a,m)(b,n) = (ab, a n + m b + psi(a,b)).

    M sits as an ideal squaring to zero.  The m b term uses the Koszul right
    action.  No validity of psi is assumed: the point is to hand whatever
    comes out to the validator.
    """
    if psi.degree != 2 or psi.algebra != algebra or psi.module != module:
        raise ValueError("psi must be a degree-2 cochain on the given algebra and module")
    da, dm = algebra.dim, module.dim
    dim = da + dm
    names = tuple(algebra.basis_names) + tuple(f"m.{n}" for n in module.basis_names)
    parity = tuple(algebra.parity) + tuple(module.parity)
    structure = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    a_par = algebra.parity
    m_par = module.parity

    for i in range(da):
        for j in range(da):
            cell = structure[i][j]
            for k, c in algebra.products[i][j]:
                cell[k] += c
            base = psi.offset((i, j), 0)
            for l in range(dm):
                if psi.data[base + l]:
                    cell[da + l] += psi.data[base + l]

    for i in range(da):
        for k in range(dm):
            for l, c in module.action_sparse[i][k]:
                structure[i][da + k][da + l] += c
                # m * a on homogeneous components
                sign = -1 if a_par[i] and m_par[k] else 1
                structure[da + k][i][da + l] += sign * c

    ext = SuperAlgebra(dim, names, parity, structure, unit_index=None)
    return ExtensionResult(
        algebra=ext,
        algebra_block=tuple(range(da)),
        module_block=tuple(range(da, dim)),
    )


def extension_valid_iff_cocycle(
    algebra: SuperAlgebra, module: SuperModule, budget: int = 50, seed: int = 0
) -> SweepReport:
    """Sweep: the extension validates <=> psi is a Harrison 2-cocycle.

    The comparison is law-by-law: associativity of the extension against
    the cocycle condition, supercommutativity against graded symmetry, and
    parity compatibility against parity preservation.
    """
    sweep = list(parity_basis(algebra, module, 2))
    rng = random.Random(seed)
    for _ in range(budget):
        sweep.append(random_parity_cochain(algebra, module, 2, rng))

    failures = []
    for idx, psi in enumerate(sweep):
        report = validate_superalgebra(square_zero_extension(algebra, module, psi).algebra)
        kinds = report.kinds()
        checks = (
            ("associativity", hochschild_coboundary(psi).is_zero()),
            ("supercommutativity", is_graded_symmetric(psi)),
            ("parity", psi.parity_preserving),
        )
        for kind, cochain_ok in checks:
            if (kind not in kinds) != cochain_ok:
                failures.append(
                    f"case {idx}: extension {kind} is "
                    f"{'clean' if kind not in kinds else 'violated'} but cochain side says {cochain_ok}"
                )
    return SweepReport(passed=not failures, cases=len(sweep), failures=tuple(failures))


def extension_equivalence(
    algebra: SuperAlgebra, module: SuperModule, psi1: Cochain, psi2: Cochain
) -> Optional[Cochain]:
    """A degree-1 cochain g with dg = psi1 - psi2, or None when no such g exists.

    When g exists, (a, m) |-> (a, m + g(a)) is an isomorphism between the two
    square-zero extensions, so the answer decides extension equivalence.
    Both inputs must be Harrison 2-cocycles.
    """
    for psi in (psi1, psi2):
        if psi.degree != 2 or psi.algebra != algebra or psi.module != module:
            raise ValueError("inputs must be degree-2 cochains on the given algebra and module")
        if not is_cocycle(psi):
            raise ValueError("extension equivalence is defined for cocycles only")

    matrix = coboundary_matrix(algebra, module, 1, ComplexKind.SUPER_HARRISON)
    diff = psi1 - psi2
    rhs = harrison_space(algebra, module, 2).coordinates(parity_coordinates(diff))
    if rhs is None:
        raise AssertionError("difference of cocycles escaped the Harrison space")
    solution = solve(matrix, rhs)
    if solution is None:
        return None
    g = cochain_from_coordinates(algebra, module, 1, solution)
    if hochschild_coboundary(g) != diff:
        raise AssertionError("solver returned g with dg != psi1 - psi2")
    return g


def deformation_classes(algebra: SuperAlgebra) -> CohomologyResult:
    """Degree-2 Harrison cohomology of A on itself; representatives re-checked.

    Every representative is run back through the DualNumber deformation
    check, which must come out valid.
    """
    result = cohomology(algebra, self_module(algebra), 2, ComplexKind.SUPER_HARRISON)
    for rep in result.representatives:
        if not first_order_deformation_check(algebra, rep).valid:
            raise AssertionError("cohomology representative rejected by the deformation check")
    return result
