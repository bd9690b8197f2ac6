"""Tests for the exact rational linear algebra layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superharrison.linalg import (
    NotASubspaceError,
    RationalMatrix,
    SubspaceBasis,
    as_rational,
    contains_subspace,
    image_basis,
    kernel_basis,
    quotient_representatives,
    rank,
    same_subspace,
    solve,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).map(lambda q: int(q) if q.denominator == 1 else q)


def random_matrix(rng, rows, cols, density=0.5):
    return RationalMatrix.from_rows(
        [
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if rng.random() < density
                else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


class TestAsRational:
    def test_ints_pass_through(self):
        assert as_rational(7) == 7
        assert isinstance(as_rational(7), int)

    def test_whole_fractions_normalize_to_int(self):
        value = as_rational(Fraction(6, 2))
        assert value == 3
        assert isinstance(value, int)

    def test_proper_fractions_stay_fractions(self):
        assert as_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)


class TestRationalMatrix:
    def test_from_rows_and_entry_access(self):
        m = RationalMatrix.from_rows([[1, 2], [3, Fraction(1, 2)]])
        assert m.rows == 2 and m.cols == 2
        assert m.entries[1][1] == Fraction(1, 2)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([[1, 2], [3]])

    def test_mul_vector_and_zero(self):
        assert RationalMatrix.from_rows([[0, 1, 0], [2, 0, 1]]).mul_vector((1, 2, 3)) == (2, 5)
        assert RationalMatrix.zero(2, 3).is_zero()

    def test_from_columns_transposes(self):
        m = RationalMatrix.from_columns([[1, 2], [3, 4]])
        assert m.entries == ((1, 3), (2, 4))

    def test_matmul_agrees_with_hand_product(self):
        a = RationalMatrix.from_rows([[1, 2], [0, 1]])
        b = RationalMatrix.from_rows([[1, 0], [3, 1]])
        assert a.matmul(b).entries == ((7, 2), (3, 1))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_matmul_associative(self, p, q, r, data):
        rows = lambda nr, nc: data.draw(
            st.lists(
                st.lists(rationals, min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            )
        )
        a = RationalMatrix.from_rows(rows(p, q))
        b = RationalMatrix.from_rows(rows(q, r))
        c = RationalMatrix.from_rows(rows(r, 2))
        assert a.matmul(b).matmul(c).entries == a.matmul(b.matmul(c)).entries


class TestKernelAndImage:
    def test_rank_one_example(self):
        m = RationalMatrix.from_rows([[1, 2], [2, 4]])
        assert rank(m) == 1
        ker = kernel_basis(m)
        assert ker.dim == 1
        assert ker.contains((-2, 1))
        img = image_basis(m)
        assert img.dim == 1
        assert img.contains((1, 2))

    def test_invertible_matrix_has_trivial_kernel(self):
        m = RationalMatrix.from_rows([[2, 1], [1, 1]])
        assert kernel_basis(m).dim == 0
        assert image_basis(m).dim == 2

    def test_zero_matrix(self):
        m = RationalMatrix.zero(3, 4)
        assert kernel_basis(m).dim == 4
        assert image_basis(m).dim == 0

    def test_kernel_vectors_are_annihilated(self):
        rng = random.Random(11)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            ker = kernel_basis(m)
            assert rank(m) + ker.dim == m.cols
            for v in ker.vectors:
                assert all(x == 0 for x in m.mul_vector(v))

    def test_image_vectors_are_attained(self):
        rng = random.Random(12)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            img = image_basis(m)
            assert img.dim == rank(m)
            for v in img.vectors:
                assert solve(m, v) is not None

    def test_seeded_forty_by_forty(self):
        # One deliberately larger deterministic case.
        rng = random.Random(2024)
        m = random_matrix(rng, 40, 40, density=0.3)
        ker = kernel_basis(m)
        assert rank(m) + ker.dim == 40
        for v in ker.vectors:
            assert all(x == 0 for x in m.mul_vector(v))


class TestSolve:
    def test_unique_solution(self):
        m = RationalMatrix.from_rows([[1, 1], [0, 2]])
        x = solve(m, (3, 4))
        assert x == (1, 2)

    def test_inconsistent_system_returns_none(self):
        m = RationalMatrix.from_rows([[1, 2], [2, 4]])
        assert solve(m, (1, 3)) is None

    def test_underdetermined_system_verifies(self):
        m = RationalMatrix.from_rows([[1, 2, 3]])
        x = solve(m, (6,))
        assert x is not None
        assert m.mul_vector(x) == (6,)

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60)
    def test_solution_iff_in_image(self, nrows, ncols, data):
        entries = data.draw(
            st.lists(
                st.lists(rationals, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
        rhs = tuple(data.draw(st.lists(rationals, min_size=nrows, max_size=nrows)))
        m = RationalMatrix.from_rows(entries)
        x = solve(m, rhs)
        if x is None:
            assert not image_basis(m).contains(rhs)
        else:
            assert m.mul_vector(x) == tuple(as_rational(v) for v in rhs)


class TestSubspaceBasis:
    def test_canonical_form_is_spanning_set_independent(self):
        a = SubspaceBasis.from_vectors([(1, 1, 0), (0, 0, 1)], 3)
        b = SubspaceBasis.from_vectors([(2, 2, 2), (1, 1, 3), (3, 3, 1)], 3)
        assert a.vectors == b.vectors
        assert same_subspace(a, b)

    def test_dependent_generators_collapse(self):
        s = SubspaceBasis.from_vectors([(1, 2), (2, 4), (3, 6)], 2)
        assert s.dim == 1
        assert s.vectors == ((1, 2),)

    def test_coordinates_reconstruct(self):
        s = SubspaceBasis.from_vectors([(1, 0, 1), (0, 1, 1)], 3)
        coords = s.coordinates((2, 3, 5))
        assert coords == (2, 3)
        assert s.coordinates((1, 0, 0)) is None

    def test_contains(self):
        s = SubspaceBasis.from_vectors([(1, 0, 1)], 3)
        assert s.contains((Fraction(1, 2), 0, Fraction(1, 2)))
        assert not s.contains((1, 0, 0))

    def test_reduce_kills_span_components(self):
        s = SubspaceBasis.from_vectors([(1, 0, 0), (0, 1, 0)], 3)
        assert s.reduce((4, 5, 6)) == (0, 0, 6)

    def test_zero_space(self):
        s = SubspaceBasis.from_vectors([], 4)
        assert s.dim == 0
        assert s.contains((0, 0, 0, 0))
        assert not s.contains((1, 0, 0, 0))

    @given(st.data())
    @settings(max_examples=40)
    def test_row_scrambling_preserves_canonical_basis(self, data):
        dim = data.draw(st.integers(2, 5))
        count = data.draw(st.integers(1, 4))
        vecs = [
            tuple(data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
            for _ in range(count)
        ]
        s = SubspaceBasis.from_vectors(vecs, dim)
        # Shuffled generators plus a random in-span combination.
        weights = [data.draw(rationals) for _ in vecs]
        extra = tuple(
            sum(w * v[i] for w, v in zip(weights, vecs)) for i in range(dim)
        )
        t = SubspaceBasis.from_vectors(list(reversed(vecs)) + [extra], dim)
        assert s.vectors == t.vectors


class TestQuotient:
    def test_representatives_extend_the_subspace(self):
        space = SubspaceBasis.from_vectors([(1, 0, 0), (0, 1, 0)], 3)
        sub = SubspaceBasis.from_vectors([(1, 0, 0)], 3)
        reps = quotient_representatives(space, sub)
        assert reps.vectors == ((0, 1, 0),)

    def test_not_a_subspace_raises(self):
        space = SubspaceBasis.from_vectors([(1, 0, 0)], 3)
        sub = SubspaceBasis.from_vectors([(0, 1, 0)], 3)
        with pytest.raises(NotASubspaceError):
            quotient_representatives(space, sub)

    def test_quotient_by_zero_recovers_a_basis(self):
        space = SubspaceBasis.from_vectors([(1, 1, 0), (0, 0, 1)], 3)
        zero = SubspaceBasis.from_vectors([], 3)
        reps = quotient_representatives(space, zero)
        assert SubspaceBasis.from_vectors(reps.vectors, 3).vectors == space.vectors

    def test_quotient_by_itself_is_empty(self):
        space = SubspaceBasis.from_vectors([(1, 2, 0), (0, 1, 1)], 3)
        assert quotient_representatives(space, space).vectors == ()

    @given(st.data())
    @settings(max_examples=40)
    def test_representatives_are_independent_mod_subspace(self, data):
        dim = data.draw(st.integers(2, 6))
        space_vecs = [
            tuple(data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        space = SubspaceBasis.from_vectors(space_vecs, dim)
        sub_count = data.draw(st.integers(0, len(space.vectors)))
        sub = SubspaceBasis.from_vectors(space.vectors[:sub_count], dim)
        reps = quotient_representatives(space, sub)
        assert reps.dim == space.dim - sub.dim
        for v in reps.vectors:
            assert space.contains(v)
            assert not sub.contains(v)
        # Joint independence: subspace basis plus representatives spans
        # the whole space with no collapse.
        joined = SubspaceBasis.from_vectors(
            list(sub.vectors) + list(reps.vectors), dim
        )
        assert joined.dim == sub.dim + reps.dim
        assert same_subspace(joined, space)


class TestContainment:
    def test_contains_subspace(self):
        big = SubspaceBasis.from_vectors([(1, 0, 0), (0, 1, 0)], 3)
        small = SubspaceBasis.from_vectors([(1, 1, 0)], 3)
        assert contains_subspace(big, small)
        assert not contains_subspace(small, big)

    def test_same_subspace_is_exact_equality_of_canonical_bases(self):
        a = SubspaceBasis.from_vectors([(1, 2)], 2)
        b = SubspaceBasis.from_vectors([(Fraction(1, 2), 1)], 2)
        assert same_subspace(a, b)
        assert a.vectors == b.vectors
