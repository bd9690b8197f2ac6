"""Tests for cochains, shuffle sums, the symmetric subspace, and the
coboundary operator."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from superharrison.algebras import (
    act,
    exterior_algebra,
    multiply,
    right_action,
    self_module,
    truncated_polynomial,
)
from superharrison.cochains import (
    Cochain,
    cochain_apply,
    cochain_from_coordinates,
    cochain_from_entries,
    decode,
    elementary_cochain,
    encode,
    harrison_basis,
    harrison_space,
    hochschild_coboundary,
    is_graded_symmetric,
    parity_basis,
    parity_coordinates,
    parity_count,
    parity_offsets,
    shuffle_action,
    super_shuffle_sum,
    zero_cochain,
)
from superharrison.linalg import SubspaceBasis, kernel_basis, RationalMatrix


def basis_vector(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def random_parity_combo(algebra, degree, rng, spread=4):
    """Random element of the parity-preserving cochain space."""
    module = self_module(algebra)
    total = zero_cochain(algebra, module, degree)
    for f in parity_basis(algebra, module, degree):
        c = rng.randint(-spread, spread)
        if c:
            total = total + f.scale(c)
    return total


def naive_coboundary(f: Cochain) -> Cochain:
    """Coboundary evaluated term by term through the public vector ops.

    This takes a completely different path from the library's sparse
    scatter: every output value is assembled with apply, multiply, act,
    and right_action on basis vectors.
    """
    algebra = f.algebra
    module = f.module
    n = f.degree
    dim = algebra.dim
    entries = {}
    for t in itertools.product(range(dim), repeat=n + 1):
        args = [basis_vector(dim, i) for i in t]
        total = [0] * module.dim
        first = act(module, args[0], f.apply(args[1:]))
        total = [x + y for x, y in zip(total, first)]
        for i in range(1, n + 1):
            merged = (
                args[: i - 1]
                + [multiply(algebra, args[i - 1], args[i])]
                + args[i + 1 :]
            )
            sign = -1 if i % 2 else 1
            middle = f.apply(merged)
            total = [x + sign * y for x, y in zip(total, middle)]
        last_sign = -1 if (n + 1) % 2 else 1
        last = right_action(module, f.apply(args[:-1]), args[-1])
        total = [x + last_sign * y for x, y in zip(total, last)]
        for l, value in enumerate(total):
            if value:
                entries[(t, l)] = value
    return cochain_from_entries(algebra, module, n + 1, entries)


def graded_symmetry_dimension(algebra) -> int:
    """Independent count of the degree-2 symmetric subspace dimension.

    Off-diagonal pairs contribute one free output component per module
    slot of matching parity; even diagonal entries contribute the even
    slots; odd diagonal entries are forced to zero by the sign rule.
    """
    parities = algebra.parity
    even_out = sum(1 for p in parities if p == 0)
    odd_out = len(parities) - even_out
    total = 0
    for i in range(len(parities)):
        for j in range(i, len(parities)):
            if i == j and parities[i] == 1:
                continue
            input_parity = (parities[i] + parities[j]) % 2
            total += odd_out if input_parity else even_out
    return total


class TestCochainBasics:
    def setup_method(self):
        self.alg = exterior_algebra(1)
        self.mod = self_module(self.alg)

    def test_entries_round_trip(self):
        f = cochain_from_entries(
            self.alg, self.mod, 2, {((0, 1), 1): 3, ((1, 0), 1): Fraction(1, 2)}
        )
        assert f.entry((0, 1), 1) == 3
        assert f.entry((1, 1), 0) == 0
        assert sorted(f.iter_nonzero()) == [
            ((0, 1), 1, 3),
            ((1, 0), 1, Fraction(1, 2)),
        ]

    def test_out_of_range_entries_rejected(self):
        with pytest.raises(ValueError):
            cochain_from_entries(self.alg, self.mod, 1, {((5,), 0): 1})
        with pytest.raises(ValueError):
            cochain_from_entries(self.alg, self.mod, 1, {((0,), 9): 1})

    def test_arithmetic(self):
        f = elementary_cochain(self.alg, self.mod, 1, (0,), 0)
        g = elementary_cochain(self.alg, self.mod, 1, (1,), 1)
        h = f + g.scale(2)
        assert h.entry((0,), 0) == 1
        assert h.entry((1,), 1) == 2
        assert (h - h).is_zero()
        assert (-f).entry((0,), 0) == -1
        assert (3 * f).entry((0,), 0) == 3

    def test_degree_zero_has_a_single_empty_tuple(self):
        m = cochain_from_entries(self.alg, self.mod, 0, {((), 1): 5})
        assert m.value_on_tuple(()) == (0, 5)

    def test_apply_is_multilinear(self):
        rng = random.Random(3)
        f = random_parity_combo(self.alg, 2, rng)
        for _ in range(10):
            x = tuple(rng.randint(-3, 3) for _ in range(2))
            y = tuple(rng.randint(-3, 3) for _ in range(2))
            z = tuple(rng.randint(-3, 3) for _ in range(2))
            c = rng.randint(-3, 3)
            lhs = f.apply([tuple(c * a + b for a, b in zip(x, y)), z])
            rhs = tuple(
                c * a + b
                for a, b in zip(f.apply([x, z]), f.apply([y, z]))
            )
            assert lhs == rhs
            assert cochain_apply(f, [x, z]) == f.apply([x, z])

    def test_parity_flag(self):
        euler = elementary_cochain(self.alg, self.mod, 1, (1,), 1)
        assert euler.parity_preserving
        skew = elementary_cochain(self.alg, self.mod, 1, (1,), 0)
        assert not skew.parity_preserving


class TestParityBasis:
    def test_dimension_matches_direct_count(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in range(4):
            expected = 0
            for t in itertools.product(
                range(corpus_algebra.dim), repeat=degree
            ):
                in_parity = sum(corpus_algebra.parity[i] for i in t) % 2
                expected += sum(
                    1 for p in mod.parity if p == in_parity
                )
            basis = parity_basis(corpus_algebra, mod, degree)
            assert len(basis) == expected
            assert len(parity_offsets(corpus_algebra, mod, degree)) == expected
            for f in basis:
                assert f.parity_preserving

    def test_offsets_are_strictly_increasing(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        offs = parity_offsets(corpus_algebra, mod, 2)
        assert list(offs) == sorted(set(offs))

    def test_closed_form_count_matches_the_table(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in range(5):
            assert parity_count(corpus_algebra, mod, degree) == len(
                parity_offsets(corpus_algebra, mod, degree)
            )


class TestCochainIndex:
    def test_encode_enumerates_entries_in_flat_order(self, corpus_algebra):
        dim_a = dim_m = corpus_algebra.dim
        for degree in range(4):
            entries = [
                (t, l)
                for t in itertools.product(range(dim_a), repeat=degree)
                for l in range(dim_m)
            ]
            assert [encode(t, l, dim_a, dim_m) for t, l in entries] == list(
                range(len(entries))
            )
            assert [decode(flat, degree, dim_a, dim_m) for flat in range(len(entries))] == entries

    def test_parity_coordinates_invert_cochain_from_coordinates(
        self, corpus_algebra
    ):
        rng = random.Random(3)
        mod = self_module(corpus_algebra)
        for degree in range(4):
            f = random_parity_combo(corpus_algebra, degree, rng)
            coords = parity_coordinates(f)
            assert cochain_from_coordinates(corpus_algebra, mod, degree, coords) == f
            assert coords == tuple(f.data[o] for o in parity_offsets(corpus_algebra, mod, degree))

    def test_parity_coordinates_reject_parity_violating_entries(self):
        alg = exterior_algebra(1)
        skew = elementary_cochain(alg, self_module(alg), 1, (1,), 0)
        with pytest.raises(ValueError, match="parity"):
            parity_coordinates(skew)

    def test_shuffle_action_sums_to_the_shuffle_sum(self, corpus_algebra):
        rng = random.Random(5)
        mod = self_module(corpus_algebra)
        f = random_parity_combo(corpus_algebra, 3, rng)
        for p in (1, 2):
            summed = super_shuffle_sum(f, p)
            for t in itertools.product(range(corpus_algebra.dim), repeat=3):
                for l in range(mod.dim):
                    value = sum(
                        sign * f.data[off]
                        for off, sign in shuffle_action(corpus_algebra, mod, t, l, p)
                    )
                    assert summed.entry(t, l) == value


class TestSuperShuffleSum:
    def test_degree_two_sum_is_the_graded_antisymmetrization(self):
        rng = random.Random(7)
        for alg in [exterior_algebra(2), truncated_polynomial(3)]:
            mod = self_module(alg)
            f = random_parity_combo(alg, 2, rng)
            s = super_shuffle_sum(f, 1)
            for i in range(alg.dim):
                for j in range(alg.dim):
                    sign = -1 if alg.parity[i] and alg.parity[j] else 1
                    expected = tuple(
                        a - sign * b
                        for a, b in zip(
                            f.value_on_tuple((i, j)),
                            f.value_on_tuple((j, i)),
                        )
                    )
                    assert s.value_on_tuple((i, j)) == expected

    def test_split_point_bounds(self):
        alg = exterior_algebra(1)
        f = zero_cochain(alg, self_module(alg), 2)
        with pytest.raises(ValueError):
            super_shuffle_sum(f, 0)
        with pytest.raises(ValueError):
            super_shuffle_sum(f, 2)

    def test_sum_vanishes_exactly_on_graded_symmetric_cochains(self):
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        symmetric = cochain_from_entries(
            alg, mod, 2, {((0, 1), 1): 1, ((1, 0), 1): 1}
        )
        assert is_graded_symmetric(symmetric)
        assert super_shuffle_sum(symmetric, 1).is_zero()
        lopsided = cochain_from_entries(
            alg, mod, 2, {((0, 1), 1): 1, ((1, 0), 1): -1}
        )
        assert not is_graded_symmetric(lopsided)
        assert not super_shuffle_sum(lopsided, 1).is_zero()

    def test_graded_symmetry_is_a_degree_two_notion(self):
        alg = exterior_algebra(1)
        f = zero_cochain(alg, self_module(alg), 1)
        with pytest.raises(ValueError):
            is_graded_symmetric(f)


class TestHarrisonSpace:
    def test_low_degrees_are_unconstrained(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in (0, 1):
            space = harrison_space(corpus_algebra, mod, degree)
            assert space.dim == len(
                parity_basis(corpus_algebra, mod, degree)
            )

    def test_degree_two_dimension_matches_symmetry_count(
        self, corpus_algebra
    ):
        mod = self_module(corpus_algebra)
        space = harrison_space(corpus_algebra, mod, 2)
        assert space.dim == graded_symmetry_dimension(corpus_algebra)

    def test_frozen_degree_two_dimensions(self, corpus_named):
        expectations = {
            "exterior1": 2,
            "exterior2": 16,
            "truncpoly2": 6,
            "truncpoly3": 18,
            "mixed": 16,
        }
        name, alg = corpus_named
        expected = expectations[name]
        assert harrison_space(alg, self_module(alg), 2).dim == expected

    def test_degree_two_members_are_graded_symmetric(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for f in harrison_basis(corpus_algebra, mod, 2):
            assert is_graded_symmetric(f)
            assert f.parity_preserving

    def test_members_kill_every_shuffle_sum(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in (2, 3):
            for f in harrison_basis(corpus_algebra, mod, degree):
                for p in range(1, degree):
                    assert super_shuffle_sum(f, p).is_zero()

    def test_space_agrees_with_literal_stacked_kernel(self, corpus_named):
        name, alg = corpus_named
        if name in ("exterior2", "mixed"):
            degrees = (2,)  # keep the literal construction small
        else:
            degrees = (2, 3)
        mod = self_module(alg)
        for degree in degrees:
            offsets = parity_offsets(alg, mod, degree)
            basis = parity_basis(alg, mod, degree)
            columns = []
            for f in basis:
                col = []
                for p in range(1, degree):
                    s = super_shuffle_sum(f, p)
                    col.extend(s.data[o] for o in offsets)
                columns.append(col)
            stacked = RationalMatrix.from_columns(
                columns, len(offsets) * (degree - 1)
            )
            assert (
                kernel_basis(stacked).vectors
                == harrison_space(alg, mod, degree).vectors
            )

    def test_coordinates_round_trip(self):
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        space = harrison_space(alg, mod, 2)
        basis = harrison_basis(alg, mod, 2)
        offsets = parity_offsets(alg, mod, 2)
        for vec, f in zip(space.vectors, basis):
            rebuilt = cochain_from_coordinates(alg, mod, 2, vec)
            assert rebuilt.data == f.data
            assert tuple(f.data[o] for o in offsets) == vec


class TestCoboundary:
    def test_degree_zero_measures_the_graded_commutator(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        m = cochain_from_entries(alg, mod, 0, {((), 1): 1})
        boundary = hochschild_coboundary(m)
        # t2.t1 - t1.t2 with the sign twist collapses to -2 t1t2 on the
        # t2 input and nothing anywhere else.
        assert sorted(boundary.iter_nonzero()) == [((2,), 3, -2)]

    def test_unit_component_has_zero_boundary(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        unit = cochain_from_entries(
            corpus_algebra, mod, 0, {((), corpus_algebra.unit_index): 1}
        )
        assert hochschild_coboundary(unit).is_zero()

    def test_scaling_derivations_are_cocycles(self):
        alg = truncated_polynomial(3)
        mod = self_module(alg)
        euler = cochain_from_entries(
            alg, mod, 1, {((1,), 1): 1, ((2,), 2): 2}
        )
        assert hochschild_coboundary(euler).is_zero()

    def test_matches_term_by_term_evaluation(self, corpus_algebra):
        rng = random.Random(17)
        mod = self_module(corpus_algebra)
        for degree in (1, 2):
            for _ in range(3):
                f = random_parity_combo(corpus_algebra, degree, rng)
                fast = hochschild_coboundary(f)
                slow = naive_coboundary(f)
                assert fast.data == slow.data, (corpus_algebra.basis_names, degree)

    def test_matches_term_by_term_evaluation_degree_three(self):
        rng = random.Random(23)
        alg = exterior_algebra(2)
        f = random_parity_combo(alg, 3, rng)
        assert hochschild_coboundary(f).data == naive_coboundary(f).data

    def test_preserves_parity(self, corpus_algebra):
        rng = random.Random(29)
        for degree in (0, 1, 2):
            f = random_parity_combo(corpus_algebra, degree, rng)
            assert hochschild_coboundary(f).parity_preserving

    def test_applied_twice_gives_zero(self, corpus_algebra):
        rng = random.Random(31)
        for degree in (0, 1, 2):
            f = random_parity_combo(corpus_algebra, degree, rng)
            assert hochschild_coboundary(hochschild_coboundary(f)).is_zero()

    def test_boundaries_of_symmetric_cochains_stay_shuffle_closed(
        self, corpus_algebra
    ):
        mod = self_module(corpus_algebra)
        for f in harrison_basis(corpus_algebra, mod, 2):
            boundary = hochschild_coboundary(f)
            for p in (1, 2):
                assert super_shuffle_sum(boundary, p).is_zero()
