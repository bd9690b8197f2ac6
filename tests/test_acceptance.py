"""End-to-end acceptance checks.

Each test covers one headline property of the engine, asserts it at
exact rational precision, and prints a single PASS line with its
runtime (visible with pytest -s).
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb

from classical_oracle import classical_dimensions
from conftest import CORPUS, EVEN_CORPUS, dense_vectors, harrison_basis, is_shuffle, parity_basis
from superharrison.algebras import self_module
from superharrison.cochains import (
    Cochain,
    cochain_from_entries,
    harrison_space,
    hochschild_coboundary,
    super_shuffle_sum,
)
from superharrison.cohomology import (
    Complex,
    ComplexKind,
    coboundary_matrix,
    cohomology,
    derivation_space,
)
from superharrison.deformations import (
    deformation_iff_cocycle,
    extension_equivalence,
    extension_valid_iff_cocycle,
    first_order_deformation_check,
    is_cocycle,
    random_parity_cochain,
)
from superharrison.linalg import SubspaceBasis, image_basis, kernel_basis
from superharrison.shuffles import (
    Permutation,
    enumerate_shuffles,
    sigma_o_sign,
)

HOCH = ComplexKind.HOCHSCHILD
HARR = ComplexKind.SUPER_HARRISON


def report(label: str, started: float) -> None:
    print(f"PASS {label} ({time.time() - started:.2f}s)")


def random_symmetric_cocycle(algebra, module, rng):
    """Random element of the degree-2 cocycle space."""
    cocycles = kernel_basis(coboundary_matrix(Complex(module, HARR), 2))
    basis = harrison_basis(module, 2)
    total = Cochain(2, module, {})
    for vector in dense_vectors(cocycles):
        weight = rng.randint(-3, 3)
        if not weight:
            continue
        for coeff, f in zip(vector, basis):
            if coeff:
                total = total + f.scale(weight * coeff)
    return total


def test_shuffle_census():
    started = time.time()
    for n in range(2, 8):
        for p in range(1, n):
            shuffles = enumerate_shuffles(n, p)
            assert len(shuffles) == comb(n, p)
            seen = set()
            for s in shuffles:
                assert is_shuffle(s, p)
                seen.add(s.images)
            assert len(seen) == comb(n, p)
    member = Permutation((2, 4, 5, 1, 3))
    assert is_shuffle(member, 3)
    assert not any(is_shuffle(member.inverse(), p) for p in range(1, 5))
    report("shuffle census matches binomial counts", started)


def test_odd_sign_closed_forms():
    started = time.time()
    for n in range(2, 6):
        pull = Permutation((n + 1,) + tuple(range(1, n + 1)))
        push = Permutation(tuple(range(2, n + 2)) + (1,))
        for parities in itertools.product((0, 1), repeat=n + 1):
            head = sum(parities[:n]) % 2
            tail = sum(parities[1:]) % 2
            assert sigma_o_sign(pull, parities) == (
                -1 if head and parities[n] else 1
            )
            assert sigma_o_sign(push, parities) == (
                -1 if tail and parities[0] else 1
            )
    # Frozen counterexample to multiplicativity of the odd-slot sign.
    sigma = Permutation((3, 1, 2))
    tau = Permutation((2, 3, 1))
    parities = (0, 1, 1)
    assert sigma_o_sign(Permutation(tuple(sigma(tau(i)) for i in (1, 2, 3))), parities) == 1
    assert sigma_o_sign(sigma, parities) * sigma_o_sign(tau, parities) == -1
    report("rotation signs obey the closed forms on all parity vectors", started)


def test_coboundary_squares_to_zero():
    started = time.time()
    rng = random.Random(2718)
    for algebra in CORPUS.values():
        module = self_module(algebra)
        for degree in range(4):
            for f in parity_basis(module, degree):
                assert hochschild_coboundary(hochschild_coboundary(f)).is_zero()
            for _ in range(100):
                f = random_parity_cochain(module, degree, rng)
                assert hochschild_coboundary(hochschild_coboundary(f)).is_zero()
    report("coboundary applied twice vanishes on basis and random cochains", started)


def test_shuffle_closure_of_coboundary():
    started = time.time()
    for algebra in CORPUS.values():
        module = self_module(algebra)
        for degree in (2, 3):
            for f in harrison_basis(module, degree):
                boundary = hochschild_coboundary(f)
                for p in range(1, degree + 1):
                    assert super_shuffle_sum(boundary, p).is_zero()
        # The restricted matrices assemble without leaving the subspace.
        for degree in (1, 2, 3):
            coboundary_matrix(Complex(module, HARR), degree)
    report("coboundaries of shuffle-closed cochains stay shuffle closed", started)


def test_first_cohomology_matches_derivations():
    started = time.time()
    expected_dims = {
        "exterior1": 1,
        "exterior2": 4,
        "truncpoly2": 1,
        "truncpoly3": 2,
        "mixed": 3,
    }
    for name, algebra in CORPUS.items():
        module = self_module(algebra)
        z1 = kernel_basis(coboundary_matrix(Complex(module, HARR), 1))
        harrison1 = harrison_space(module, 1)
        cocycles = SubspaceBasis.from_vectors((harrison1.combination(row) for row in z1.rows), harrison1.ambient_dim)
        derivations = derivation_space(module)
        assert cocycles == derivations, name
        res = cohomology(Complex(module, HARR), 1)
        assert res.dim_cocycles == derivations.dim, name
        assert res.dim_cohomology == expected_dims[name], name
    euler = cohomology(Complex(self_module(CORPUS["exterior1"]), HARR), 1)
    assert sorted(euler.representatives[0].iter_nonzero()) == [((1,), 1, 1)]
    report("degree-1 cocycles are exactly the derivations", started)


def test_second_cohomology_matches_deformation_oracles():
    started = time.time()
    for name, algebra in CORPUS.items():
        module = self_module(algebra)
        harrison = Complex(module, HARR)
        sweep = deformation_iff_cocycle(harrison, budget=200)
        assert sweep.passed, (name, sweep.failures)
        sweep = extension_valid_iff_cocycle(harrison, budget=240)
        assert sweep.passed, (name, sweep.failures)
        classes = cohomology(harrison, 2)
        for rep in classes.representatives:
            assert is_cocycle(rep)
            assert first_order_deformation_check(rep).valid

    # The odd line is rigid in the symmetric theory even though the full
    # complex still sees the square-zero class.
    line = CORPUS["exterior1"]
    module = self_module(line)
    assert cohomology(Complex(module, HARR), 2).dim_cohomology == 0
    full = cohomology(Complex(module, HOCH), 2)
    assert full.dim_cohomology == 1
    clifford = cochain_from_entries(module, 2, {((1, 1), 0): 1})
    assert hochschild_coboundary(clifford).is_zero()
    assert not image_basis(coboundary_matrix(Complex(module, HOCH), 1)).contains(
        clifford.data
    )

    # The nilpotent even line deforms: its square class is honest.
    nil = CORPUS["truncpoly2"]
    nil_module = self_module(nil)
    assert cohomology(Complex(nil_module, HARR), 2).dim_cohomology == 1
    square = cochain_from_entries(nil_module, 2, {((1, 1), 0): 1})
    assert is_cocycle(square)
    assert first_order_deformation_check(square).valid
    # The image of the restricted matrix lives in canonical-basis
    # coordinates of the degree-2 shuffle-closed space.
    space = harrison_space(nil_module, 2)
    square_coords = space.coordinates(square.data)
    assert square_coords is not None
    boundaries = image_basis(coboundary_matrix(Complex(nil_module, HARR), 1))
    assert not boundaries.contains(square_coords)
    report("deformation and extension verdicts track degree-2 classes", started)


def test_extension_equivalence_roundtrip():
    started = time.time()
    rng = random.Random(97)
    for name, algebra in CORPUS.items():
        module = self_module(algebra)
        harrison = Complex(module, HARR)
        for _ in range(30):
            psi1 = random_symmetric_cocycle(algebra, module, rng)
            g0 = random_parity_cochain(module, 1, rng)
            psi2 = psi1 - hochschild_coboundary(g0)
            g = extension_equivalence(harrison, psi1, psi2)
            assert g is not None, name
            assert hochschild_coboundary(g) == psi1 - psi2, name
        classes = cohomology(harrison, 2)
        zero = Cochain(2, module, {})
        if classes.dim_cohomology:
            # A representative of a nonzero class never collapses to the
            # split extension.
            for rep in classes.representatives:
                assert extension_equivalence(harrison, rep, zero) is None
        else:
            psi1 = random_symmetric_cocycle(algebra, module, rng)
            psi2 = random_symmetric_cocycle(algebra, module, rng)
            assert extension_equivalence(harrison, psi1, psi2) is not None
    report("coboundary shifts of extensions are detected and inverted", started)


def test_even_reduction_matches_classical_pipeline():
    started = time.time()
    for name in EVEN_CORPUS:
        algebra = CORPUS[name]
        module = self_module(algebra)
        for degree in range(4):
            res = cohomology(Complex(module, HARR), degree)
            engine = (
                res.dim_cochain,
                res.dim_cocycles,
                res.dim_coboundaries,
                res.dim_cohomology,
            )
            assert classical_dimensions(algebra, degree) == engine, (
                name,
                degree,
            )
    report("graded pipeline collapses to the sign-free one on even algebras", started)
