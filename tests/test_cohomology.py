"""Tests for coboundary matrices, cohomology dimensions, and derivations."""

from __future__ import annotations

import pytest
from conftest import BAD_FILES

from superharrison.algebras import (
    exterior_algebra,
    ground_field,
    self_module,
)
from superharrison.cochains import (
    cochain_from_coordinates,
    cochain_from_entries,
    elementary_cochain,
    harrison_basis,
    harrison_space,
    hochschild_coboundary,
    is_graded_symmetric,
    parity_coordinates,
    parity_count,
    parity_offsets,
)
from superharrison.cohomology import (
    ComplexKind,
    ResourceCeilingError,
    ResourceLimits,
    ShuffleClosureError,
    coboundary_matrix,
    cohomology,
    derivation_space,
)
from superharrison.serialize import algebra_from_dict
from superharrison.linalg import (
    SubspaceBasis,
    image_basis,
    kernel_basis,
)

HOCH = ComplexKind.HOCHSCHILD
HARR = ComplexKind.SUPER_HARRISON

# (cochains, cocycles, coboundaries, cohomology) per degree, pinned.
# Degree 0 and 1 rows are hand checks: the even block is central, and
# the derivation spaces are small enough to solve by hand.
SYMMETRIC_TABLE = {
    "exterior1": {
        0: (1, 1, 0, 1),
        1: (2, 1, 0, 1),
        2: (2, 1, 1, 0),
        3: (2, 1, 1, 0),
    },
    "exterior2": {
        0: (2, 2, 0, 2),
        1: (8, 4, 0, 4),
        2: (16, 4, 4, 0),
        3: (40, 12, 12, 0),
    },
    "truncpoly2": {
        0: (2, 2, 0, 2),
        1: (4, 1, 0, 1),
        2: (6, 4, 3, 1),
        3: (4, 2, 2, 0),
    },
    "truncpoly3": {
        0: (3, 3, 0, 3),
        1: (9, 2, 0, 2),
        2: (18, 9, 7, 2),
        3: (24, 9, 9, 0),
    },
    "mixed": {
        0: (2, 2, 0, 2),
        1: (8, 3, 0, 3),
        2: (16, 6, 5, 1),
        3: (40, 10, 10, 0),
    },
}


class TestCoboundaryMatrices:
    def test_ground_field_degree_one_is_the_identity_scalar(self):
        k = ground_field()
        m = coboundary_matrix(k, self_module(k), 1, HOCH)
        assert m.entries == ((1,),)

    def test_degree_zero_of_an_exterior_line_is_zero(self):
        alg = exterior_algebra(1)
        m = coboundary_matrix(alg, self_module(alg), 0, HARR)
        assert (m.rows, m.cols) == (2, 1)
        assert m.is_zero()

    def test_consecutive_matrices_compose_to_zero(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for kind in (HOCH, HARR):
            for degree in (0, 1, 2):
                outer = coboundary_matrix(
                    corpus_algebra, mod, degree + 1, kind
                )
                inner = coboundary_matrix(corpus_algebra, mod, degree, kind)
                assert outer.matmul(inner).is_zero(), (kind, degree)

    def test_matrix_columns_are_boundaries_of_basis_cochains(self):
        alg = exterior_algebra(1)
        mod = self_module(alg)
        matrix = coboundary_matrix(alg, mod, 1, HOCH)
        basis = [elementary_cochain(alg, mod, 1, (i,), l) for i in range(alg.dim) for l in range(mod.dim)]
        for col, f in enumerate(basis):
            df = hochschild_coboundary(f)
            column = tuple(matrix.entries[r][col] for r in range(matrix.rows))
            assert column == tuple(df.data.get(o, 0) for o in range(matrix.rows))

    def test_symmetric_basis_boundaries_expand_consistently(self):
        # Each symmetric-complex column holds coordinates in the canonical
        # degree-3 basis; expanding them must recover the full operator.
        alg = exterior_algebra(2)
        mod = self_module(alg)
        matrix = coboundary_matrix(alg, mod, 2, HARR)
        domain = harrison_space(alg, mod, 2)
        codomain = harrison_space(alg, mod, 3)
        assert matrix.rows == codomain.dim
        for col, row in enumerate(domain.rows):
            f = cochain_from_coordinates(alg, mod, 2, row)
            expanded = hochschild_coboundary(f)
            column = tuple(matrix.entries[r][col] for r in range(matrix.rows))
            assert codomain.coordinates(parity_coordinates(expanded)) == column

    @pytest.mark.parametrize(
        "name, failure",
        [("parity.json", "parity-violating entry"), ("clifford.json", "fails a shuffle condition")],
    )
    def test_harrison_columns_are_checked_for_closure(self, name, failure):
        # Over a broken algebra d leaves the Harrison space; the column
        # assembly says how instead of projecting the column back.
        alg = algebra_from_dict(BAD_FILES[name])
        with pytest.raises(ShuffleClosureError, match=failure):
            coboundary_matrix(alg, self_module(alg), 1, HARR)

    def test_cochain_basis_counts(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        assert coboundary_matrix(alg, mod, 2, HOCH).cols == 64
        assert parity_count(alg, mod, 2) == 32
        assert len(harrison_basis(alg, mod, 2)) == 16


class TestDimensions:
    def test_pinned_symmetric_complex_table(self, corpus_named):
        name, alg = corpus_named
        mod = self_module(alg)
        for degree, expected in SYMMETRIC_TABLE[name].items():
            res = cohomology(alg, mod, degree, HARR)
            got = (
                res.dim_cochain,
                res.dim_cocycles,
                res.dim_coboundaries,
                res.dim_cohomology,
            )
            assert got == expected, (name, degree)

    def test_rank_nullity_consistency(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for kind in (HOCH, HARR):
            for degree in (0, 1, 2):
                res = cohomology(corpus_algebra, mod, degree, kind)
                out = coboundary_matrix(corpus_algebra, mod, degree, kind)
                assert res.dim_cocycles + image_basis(out).dim == res.dim_cochain
                assert (
                    res.dim_cohomology
                    == res.dim_cocycles - res.dim_coboundaries
                )

    @pytest.mark.parametrize(
        "kind, expected",
        [(HOCH, (4096, 479, 439, 40)), (HARR, (672, 108, 108, 0))],
    )
    def test_exterior_three_at_degree_three(self, kind, expected):
        # exterior(3) is free supercommutative, so Harr^3 = 0 (ROADMAP item 4b);
        # both rows agree with the dense elimination this layer replaced.
        alg = exterior_algebra(3)
        res = cohomology(alg, self_module(alg), 3, kind, ResourceLimits(max_degree=5, max_columns=40000))
        got = (res.dim_cochain, res.dim_cocycles, res.dim_coboundaries, res.dim_cohomology)
        assert got == expected
        assert len(res.representatives) == expected[3]

    def test_degree_zero_cocycles_are_the_even_block(self, corpus_algebra):
        # Even elements commute with everything in a supercommutative
        # algebra, so the degree-0 symmetric cohomology is the even part.
        mod = self_module(corpus_algebra)
        res = cohomology(corpus_algebra, mod, 0, HARR)
        even = sum(1 for p in corpus_algebra.parity if p == 0)
        assert res.dim_cohomology == even

    def test_hochschild_and_symmetric_agree_at_low_degree(
        self, corpus_algebra
    ):
        # Degree 1 imposes no shuffle condition beyond parity, so the two
        # complexes share cocycles there once parity is accounted for.
        mod = self_module(corpus_algebra)
        sym = cohomology(corpus_algebra, mod, 1, HARR)
        full = kernel_basis(coboundary_matrix(corpus_algebra, mod, 1, HOCH))
        sym_cocycles = kernel_basis(
            coboundary_matrix(corpus_algebra, mod, 1, HARR)
        )
        # At degree 1 the symmetric space is the whole parity space, so
        # kernel coordinates are already parity-offset coordinates.
        for row in sym_cocycles.rows:
            f = cochain_from_coordinates(corpus_algebra, mod, 1, row)
            assert full.contains(f.data)
        assert sym.dim_cocycles <= full.dim


class TestDerivations:
    def test_degree_one_cocycles_are_exactly_the_derivations(
        self, corpus_algebra
    ):
        mod = self_module(corpus_algebra)
        cocycles = kernel_basis(coboundary_matrix(corpus_algebra, mod, 1, HARR))
        assert cocycles == derivation_space(corpus_algebra, mod)

    def test_exterior_line_derivations_are_scalings(self):
        alg = exterior_algebra(1)
        der = derivation_space(alg, self_module(alg))
        assert der.vectors == ((0, 1),)

    def test_square_truncation_kills_constant_shifts(self):
        # For x with x^2 = 0 the only derivations scale x; sending x to 1
        # violates the product rule.
        alg = exterior_algebra(1)
        mod = self_module(alg)
        skew = cochain_from_entries(alg, mod, 1, {((1,), 0): 1})
        assert not hochschild_coboundary(skew).is_zero()


class TestRepresentatives:
    def test_representatives_are_cocycles_spanning_the_quotient(
        self, corpus_algebra
    ):
        mod = self_module(corpus_algebra)
        for kind in (HOCH, HARR):
            for degree in (1, 2):
                if kind is HOCH and corpus_algebra.dim > 2 and degree == 2:
                    continue  # keep the full-complex cases small
                res = cohomology(corpus_algebra, mod, degree, kind)
                assert len(res.representatives) == res.dim_cohomology
                boundaries = image_basis(
                    coboundary_matrix(corpus_algebra, mod, degree - 1, kind)
                )
                for rep in res.representatives:
                    assert hochschild_coboundary(rep).is_zero()
                    if kind is HARR:
                        assert rep.parity_preserving
                        if degree == 2:
                            assert is_graded_symmetric(rep)
                # Joint independence: boundaries plus representatives
                # stack without collapsing.  The matrix image lives in
                # canonical-basis coordinates for the symmetric complex
                # and flat coordinates for the full one.
                rep_coords = []
                for rep in res.representatives:
                    if kind is HARR:
                        space = harrison_space(corpus_algebra, mod, degree)
                        coords = space.coordinates(parity_coordinates(rep))
                        assert coords is not None
                        rep_coords.append(coords)
                    else:
                        rep_coords.append(rep.data)
                joined = SubspaceBasis.from_vectors(
                    list(boundaries.vectors) + rep_coords,
                    boundaries.ambient_dim,
                )
                assert joined.dim == boundaries.dim + len(rep_coords)

    def test_euler_class_generates_first_cohomology_of_the_line(self):
        alg = exterior_algebra(1)
        res = cohomology(alg, self_module(alg), 1, HARR)
        assert res.dim_cohomology == 1
        assert sorted(res.representatives[0].iter_nonzero()) == [((1,), 1, 1)]

    def test_square_zero_class_on_the_odd_line_is_purely_hochschild(self):
        # The full complex sees a degree-2 class on the odd line that the
        # symmetric complex kills: the square-zero relation deforms to a
        # nonzero square only through a graded-antisymmetric cochain.
        alg = exterior_algebra(1)
        mod = self_module(alg)
        sym = cohomology(alg, mod, 2, HARR)
        full = cohomology(alg, mod, 2, HOCH)
        assert sym.dim_cohomology == 0
        assert full.dim_cohomology == 1
        clifford = cochain_from_entries(alg, mod, 2, {((1, 1), 0): 1})
        assert hochschild_coboundary(clifford).is_zero()
        boundaries = image_basis(coboundary_matrix(alg, mod, 1, HOCH))
        assert not boundaries.contains(clifford.data)

    def test_results_are_deterministic(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        first = cohomology(alg, mod, 2, HARR)
        second = cohomology(alg, mod, 2, HARR)
        assert first == second
        assert [list(r.iter_nonzero()) for r in first.representatives] == [
            list(r.iter_nonzero()) for r in second.representatives
        ]


class TestResourceLimits:
    def test_degree_ceiling(self):
        alg = exterior_algebra(1)
        with pytest.raises(ResourceCeilingError):
            cohomology(alg, self_module(alg), 9, HARR)

    def test_column_ceiling(self):
        alg = exterior_algebra(2)
        limits = ResourceLimits(max_degree=4, max_columns=5)
        with pytest.raises(ResourceCeilingError):
            cohomology(alg, self_module(alg), 2, HOCH, limits)

    def test_relaxed_limits_allow_the_same_computation(self):
        alg = exterior_algebra(1)
        limits = ResourceLimits(max_degree=4, max_columns=100)
        res = cohomology(alg, self_module(alg), 2, HARR, limits)
        assert res.dim_cohomology == 0

    def test_error_message_names_the_ceiling(self):
        alg = exterior_algebra(1)
        with pytest.raises(ResourceCeilingError, match="ceiling"):
            cohomology(alg, self_module(alg), 8, HARR)

    def test_oversized_harrison_request_builds_no_parity_table(self):
        alg = exterior_algebra(6)
        mod = self_module(alg)
        before = parity_offsets.cache_info().misses
        with pytest.raises(ResourceCeilingError, match="dimension 8388608 exceeds the ceiling 20000"):
            cohomology(alg, mod, 3, HARR)
        assert parity_offsets.cache_info().misses == before


class TestSignConvention:
    """Parity-reversing Hochschild cochains take the ungraded first-term sign.

    So the odd line exterior(1) reproduces the ungraded k[t]/(t^2), and
    HH^0 of exterior(3) counts all 5 of 1, t1t2, t1t3, t2t3 and t1t2t3,
    which is more than the 4 even basis elements.
    """

    def test_odd_line_matches_the_ungraded_dual_numbers(self):
        alg = exterior_algebra(1)
        dims = [cohomology(alg, self_module(alg), n, HOCH).dim_cohomology for n in range(4)]
        assert dims == [2, 1, 1, 1]

    def test_exterior_three_degree_zero_exceeds_the_even_part(self):
        alg = exterior_algebra(3)
        assert cohomology(alg, self_module(alg), 0, HOCH).dim_cohomology == 5
