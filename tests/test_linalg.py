"""Tests for the exact rational linear algebra layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import dense, dense_vectors, sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superharrison.linalg import (
    NotASubspaceError,
    RationalMatrix,
    SubspaceBasis,
    as_rational,
    image_basis,
    kernel_basis,
    quotient_representatives,
    solve,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).map(lambda q: int(q) if q.denominator == 1 else q)


def apply(matrix, vector):
    """``matrix`` times a dense ``vector``, by the definition."""
    return tuple(sum(x * vector[j] for j, x in row.items()) for row in matrix.data)


def random_matrix(rng, rows, cols, density=0.5):
    return RationalMatrix.from_rows(
        [
            {
                j: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for j in range(cols)
                if rng.random() < density
            }
            for _ in range(rows)
        ],
        cols,
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
        m = RationalMatrix.from_rows([{0: 1, 1: 2}, {0: 3, 1: Fraction(1, 2)}], 2)
        assert m.rows == 2 and m.cols == 2
        assert m.entries[1][1] == Fraction(1, 2)

    def test_positions_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range for length 2"):
            RationalMatrix.from_rows([{0: 1, 1: 2}, {2: 3}], 2)

    def test_is_zero(self):
        assert not RationalMatrix.from_rows([{1: 1}, {0: 2, 2: 1}], 3).is_zero()
        assert RationalMatrix.from_rows([{}, {0: 0, 2: Fraction(0)}], 3).is_zero()

    def test_from_columns_transposes(self):
        m = RationalMatrix.from_columns([{0: 1, 1: 2}, {0: 3, 1: 4}], 2)
        assert m.entries == ((1, 3), (2, 4))

    def test_matmul_agrees_with_hand_product(self):
        a = RationalMatrix.from_rows([{0: 1, 1: 2}, {1: 1}], 2)
        b = RationalMatrix.from_rows([{0: 1}, {0: 3, 1: 1}], 2)
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
        a = RationalMatrix.from_rows(list(map(sparse, rows(p, q))), q)
        b = RationalMatrix.from_rows(list(map(sparse, rows(q, r))), r)
        c = RationalMatrix.from_rows(list(map(sparse, rows(r, 2))), 2)
        assert a.matmul(b).matmul(c).entries == a.matmul(b.matmul(c)).entries


BASIS = SubspaceBasis.from_vectors([{0: 1}], 2)
SQUARE = RationalMatrix.from_rows([{0: 1}, {1: 1}], 2)
ENTRY_POINTS = {
    "from_rows": lambda v: RationalMatrix.from_rows([v], 2),
    "from_columns": lambda v: RationalMatrix.from_columns([v], 2),
    "from_vectors": lambda v: SubspaceBasis.from_vectors([v], 2),
    "sparse_coordinates": BASIS.sparse_coordinates,
    "coordinates": BASIS.coordinates,
    "contains": BASIS.contains,
    "solve": lambda v: solve(SQUARE, v),
}


class TestOneVectorForm:
    """Every entry point takes a vector as {position: value} with its length given, and nothing else."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("vector", [[1, 0], (1, 0)], ids=["list", "tuple"])
    def test_a_sequence_is_refused(self, name, vector):
        with pytest.raises(TypeError, match=r"\{position: value\}"):
            ENTRY_POINTS[name](vector)

    @pytest.mark.parametrize("build", [RationalMatrix.from_rows, RationalMatrix.from_columns])
    @pytest.mark.parametrize("vectors", [[[1, 2]], [{0: 1, 1: 2}], []], ids=["list", "dict", "empty"])
    def test_a_matrix_needs_its_size(self, build, vectors):
        with pytest.raises(TypeError):
            build(vectors)


class TestKernelAndImage:
    def test_rank_one_example(self):
        m = RationalMatrix.from_rows([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
        assert image_basis(m).dim == 1
        ker = kernel_basis(m)
        assert ker.dim == 1
        assert ker.contains({0: -2, 1: 1})
        img = image_basis(m)
        assert img.dim == 1
        assert img.contains({0: 1, 1: 2})

    def test_invertible_matrix_has_trivial_kernel(self):
        m = RationalMatrix.from_rows([{0: 2, 1: 1}, {0: 1, 1: 1}], 2)
        assert kernel_basis(m).dim == 0
        assert image_basis(m).dim == 2

    def test_zero_matrix(self):
        m = RationalMatrix.from_rows([{}] * 3, 4)
        assert kernel_basis(m).dim == 4
        assert image_basis(m).dim == 0

    def test_kernel_vectors_are_annihilated(self):
        rng = random.Random(11)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            ker = kernel_basis(m)
            assert image_basis(m).dim + ker.dim == m.cols
            for v in dense_vectors(ker):
                assert all(x == 0 for x in apply(m, v))

    def test_image_vectors_are_attained(self):
        rng = random.Random(12)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            img = image_basis(m)
            assert img.dim == m.cols - kernel_basis(m).dim
            for v in img.rows:
                assert solve(m, v) is not None

    def test_seeded_forty_by_forty(self):
        # One deliberately larger deterministic case.
        rng = random.Random(2024)
        m = random_matrix(rng, 40, 40, density=0.3)
        ker = kernel_basis(m)
        assert image_basis(m).dim + ker.dim == 40
        for v in dense_vectors(ker):
            assert all(x == 0 for x in apply(m, v))


class TestSolve:
    def test_unique_solution(self):
        m = RationalMatrix.from_rows([{0: 1, 1: 1}, {1: 2}], 2)
        x = solve(m, {0: 3, 1: 4})
        assert x == {0: 1, 1: 2}

    def test_inconsistent_system_returns_none(self):
        m = RationalMatrix.from_rows([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
        assert solve(m, {0: 1, 1: 3}) is None

    def test_underdetermined_system_verifies(self):
        m = RationalMatrix.from_rows([{0: 1, 1: 2, 2: 3}], 3)
        x = solve(m, {0: 6})
        assert x is not None
        assert apply(m, dense(x, 3)) == (6,)

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
        m = RationalMatrix.from_rows(list(map(sparse, entries)), ncols)
        x = solve(m, sparse(rhs))
        if x is None:
            assert not image_basis(m).contains(sparse(rhs))
        else:
            assert apply(m, dense(x, ncols)) == tuple(as_rational(v) for v in rhs)


class TestSubspaceBasis:
    def test_canonical_form_is_spanning_set_independent(self):
        a = SubspaceBasis.from_vectors([{0: 1, 1: 1}, {2: 1}], 3)
        b = SubspaceBasis.from_vectors([{0: 2, 1: 2, 2: 2}, {0: 1, 1: 1, 2: 3}, {0: 3, 1: 3, 2: 1}], 3)
        assert dense_vectors(a) == dense_vectors(b)
        assert a == b

    def test_dependent_generators_collapse(self):
        s = SubspaceBasis.from_vectors([{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 3, 1: 6}], 2)
        assert s.dim == 1
        assert dense_vectors(s) == ((1, 2),)

    def test_coordinates_reconstruct(self):
        s = SubspaceBasis.from_vectors([{0: 1, 2: 1}, {1: 1, 2: 1}], 3)
        coords = s.coordinates({0: 2, 1: 3, 2: 5})
        assert coords == (2, 3)
        assert s.sparse_coordinates({0: 2, 2: 2}) == {0: 2}
        assert s.coordinates({0: 1}) is None

    def test_contains(self):
        s = SubspaceBasis.from_vectors([{0: 1, 2: 1}], 3)
        assert s.contains({0: Fraction(1, 2), 2: Fraction(1, 2)})
        assert not s.contains({0: 1})

    def test_zero_space(self):
        s = SubspaceBasis.from_vectors([], 4)
        assert s.dim == 0
        assert s.contains({})
        assert s.contains({3: 0})
        assert not s.contains({0: 1})

    @given(st.data())
    @settings(max_examples=40)
    def test_row_scrambling_preserves_canonical_basis(self, data):
        dim = data.draw(st.integers(2, 5))
        count = data.draw(st.integers(1, 4))
        vecs = [
            tuple(data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
            for _ in range(count)
        ]
        s = SubspaceBasis.from_vectors(map(sparse, vecs), dim)
        # Shuffled generators plus a random in-span combination.
        weights = [data.draw(rationals) for _ in vecs]
        extra = tuple(
            sum(w * v[i] for w, v in zip(weights, vecs)) for i in range(dim)
        )
        t = SubspaceBasis.from_vectors(map(sparse, list(reversed(vecs)) + [extra]), dim)
        assert dense_vectors(s) == dense_vectors(t)


class TestQuotient:
    def test_representatives_extend_the_subspace(self):
        space = SubspaceBasis.from_vectors([{0: 1}, {1: 1}], 3)
        sub = SubspaceBasis.from_vectors([{0: 1}], 3)
        reps = quotient_representatives(space, sub)
        assert dense_vectors(reps) == ((0, 1, 0),)

    def test_not_a_subspace_raises(self):
        space = SubspaceBasis.from_vectors([{0: 1}], 3)
        sub = SubspaceBasis.from_vectors([{1: 1}], 3)
        with pytest.raises(NotASubspaceError):
            quotient_representatives(space, sub)

    def test_quotient_by_zero_recovers_a_basis(self):
        space = SubspaceBasis.from_vectors([{0: 1, 1: 1}, {2: 1}], 3)
        zero = SubspaceBasis.from_vectors([], 3)
        reps = quotient_representatives(space, zero)
        assert dense_vectors(SubspaceBasis.from_vectors(reps.rows, 3)) == dense_vectors(space)

    def test_quotient_by_itself_is_empty(self):
        space = SubspaceBasis.from_vectors([{0: 1, 1: 2}, {1: 1, 2: 1}], 3)
        assert dense_vectors(quotient_representatives(space, space)) == ()

    def test_a_remainder_with_integral_fractions_is_reduced(self):
        # Clearing (1, 0, -1/2) against (1, 1, 1/2) leaves (0, -1, Fraction(-1, 1)):
        # integral, but not an int.
        space = SubspaceBasis.from_vectors([{0: 1, 2: Fraction(-1, 2)}, {1: 1, 2: 1}], 3)
        sub = SubspaceBasis.from_vectors([{0: 1, 1: 1, 2: Fraction(1, 2)}], 3)
        reps = quotient_representatives(space, sub)
        assert dense_vectors(reps) == ((0, 1, 1),)
        assert is_normalised(dense_vectors(reps))

    @given(st.data())
    @settings(max_examples=40)
    def test_representatives_are_independent_mod_subspace(self, data):
        dim = data.draw(st.integers(2, 6))
        space_vecs = [
            tuple(data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        space = SubspaceBasis.from_vectors(map(sparse, space_vecs), dim)
        sub_count = data.draw(st.integers(0, space.dim))
        sub = SubspaceBasis.from_vectors(space.rows[:sub_count], dim)
        reps = quotient_representatives(space, sub)
        assert reps.dim == space.dim - sub.dim
        for v in reps.rows:
            assert space.contains(v)
            assert not sub.contains(v)
        # Joint independence: subspace basis plus representatives spans
        # the whole space with no collapse.
        joined = SubspaceBasis.from_vectors(sub.rows + reps.rows, dim)
        assert joined.dim == sub.dim + reps.dim
        assert joined == space


class TestContainment:
    def test_contains_subspace(self):
        big = SubspaceBasis.from_vectors([{0: 1}, {1: 1}], 3)
        small = SubspaceBasis.from_vectors([{0: 1, 1: 1}], 3)
        assert all(big.contains(v) for v in small.rows)
        assert not all(small.contains(v) for v in big.rows)

    def test_same_subspace_is_exact_equality_of_canonical_bases(self):
        a = SubspaceBasis.from_vectors([{0: 1, 1: 2}], 2)
        b = SubspaceBasis.from_vectors([{0: Fraction(1, 2), 1: 1}], 2)
        assert a == b
        assert dense_vectors(a) == dense_vectors(b)


def reference_rref(vectors, ncols):
    """Canonical RREF rows by dense Gauss-Jordan over Fractions, written independently of linalg."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return tuple(tuple(row) for row in rows[:rank])


def leading(v):
    return next(j for j, x in enumerate(v) if x)


def reference_pivots(rows):
    return [leading(row) for row in rows]


def reference_kernel(entries, ncols):
    reduced = reference_rref(entries, ncols)
    pivots = reference_pivots(reduced)
    vectors = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        vectors.append(v)
    return reference_rref(vectors, ncols)


def reference_solve(entries, rhs, ncols):
    reduced = reference_rref([list(row) + [b] for row, b in zip(entries, rhs)], ncols + 1)
    pivots = reference_pivots(reduced)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols]
    return tuple(x)


def reference_quotient(space_rows, sub_rows, ncols):
    """Reduce each space row against the subspace and earlier representatives, in pivot order."""
    basis = [list(row) for row in sub_rows]
    reps = []
    for z in space_rows:
        rem = [Fraction(x) for x in z]
        for row in sorted(basis, key=leading):
            f = rem[leading(row)]
            if f:
                rem = [x - f * y for x, y in zip(rem, row)]
        if any(rem):
            lead = rem[leading(rem)]
            rem = [x / lead for x in rem]
            basis.append(rem)
            reps.append(rem)
    return reference_rref(reps, ncols)


sparse_entries = st.one_of(st.just(0), st.just(0), rationals)


@st.composite
def matrices(draw):
    """Row lists of random rational matrices, 0x0 to 7x7, often sparse, sometimes all zero."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = st.just(0) if draw(st.integers(0, 5)) == 0 else sparse_entries
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)], ncols


def is_normalised(vectors):
    return all(not (isinstance(x, Fraction) and x.denominator == 1) for v in vectors for x in v)


class TestAgainstDenseReference:
    """The sparse core gives the same canonical bases as a plain dense Gauss-Jordan."""

    @given(matrices(), st.data())
    @settings(max_examples=150)
    def test_kernel_and_image(self, case, data):
        entries, ncols = case
        m = RationalMatrix.from_rows(list(map(sparse, entries)), cols=ncols)
        kernel, image = kernel_basis(m), image_basis(m)
        assert dense_vectors(kernel) == reference_kernel(entries, ncols)
        assert dense_vectors(image) == reference_rref([[row[j] for row in entries] for j in range(ncols)], len(entries))
        assert is_normalised(dense_vectors(kernel)) and is_normalised(dense_vectors(image))
        # The image does not depend on the order of the columns, which
        # elimination takes last-first.
        order = data.draw(st.permutations(range(ncols)))
        permuted = RationalMatrix.from_rows([{j: row[c] for j, c in enumerate(order)} for row in entries], cols=ncols)
        assert image_basis(permuted) == image

    @given(matrices())
    @example(([[1, 0, 0, -1], [0, 1, 0, -2], [0, 0, 1, -3]], 4))
    @settings(max_examples=150)
    def test_rows_list_their_entries_in_column_order(self, case):
        # Reports print a row's entries in the order the row lists them.
        entries, ncols = case
        m = RationalMatrix.from_rows(list(map(sparse, entries)), cols=ncols)
        space = SubspaceBasis.from_vectors(map(sparse, entries), ncols)
        sub = SubspaceBasis.from_vectors(space.rows[::2], ncols)
        for basis in (kernel_basis(m), image_basis(m), space, quotient_representatives(space, sub)):
            assert all(list(row) == sorted(row) for row in basis.rows)

    @given(matrices(), st.data())
    @settings(max_examples=150)
    def test_solve(self, case, data):
        entries, ncols = case
        rhs = data.draw(st.lists(sparse_entries, min_size=len(entries), max_size=len(entries)))
        x = solve(RationalMatrix.from_rows(list(map(sparse, entries)), cols=ncols), sparse(rhs))
        expected = reference_solve(entries, rhs, ncols)
        assert (None if x is None else dense(x, ncols)) == expected
        if x is not None:
            assert 0 not in x.values() and is_normalised([x.values()])

    @given(matrices(), st.data())
    @settings(max_examples=150)
    def test_quotient_representatives(self, case, data):
        generators, dim = case
        space = SubspaceBasis.from_vectors(map(sparse, generators), dim)
        weights = data.draw(st.lists(st.lists(sparse_entries, min_size=len(generators), max_size=len(generators)), max_size=4))
        sub_generators = [[sum(w * g[j] for w, g in zip(ws, generators)) for j in range(dim)] for ws in weights]
        sub = SubspaceBasis.from_vectors(map(sparse, sub_generators), dim)
        assert dense_vectors(space) == reference_rref(generators, dim)
        assert dense_vectors(sub) == reference_rref(sub_generators, dim)
        reps = quotient_representatives(space, sub)
        assert dense_vectors(reps) == reference_quotient(dense_vectors(space), dense_vectors(sub), dim)
        assert is_normalised(dense_vectors(reps))
