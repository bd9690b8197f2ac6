"""Tests for cochains, shuffle sums, the symmetric subspace, and the
coboundary operator."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from conftest import (
    CORPUS,
    act,
    cochain_apply,
    entry,
    harrison_basis,
    multiply,
    parity_basis,
    parity_shift,
    reference_coboundary_scatter,
    right_action,
    vector_at,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superharrison.algebras import (
    SuperAlgebra,
    SuperModule,
    _table_from_cells,
    exterior_algebra,
    self_module,
    truncated_polynomial,
)
from superharrison.cochains import (
    Cochain,
    _signed_shuffles,
    coboundary_scatter,
    cochain_from_entries,
    decode,
    encode,
    harrison_pivots,
    harrison_space,
    hochschild_coboundary,
    parity_count,
    parity_offsets,
    super_shuffle_sum,
)
from superharrison.linalg import SubspaceBasis, kernel_basis, RationalMatrix
from superharrison.serialize import cochain_to_dict
from superharrison.shuffles import enumerate_shuffles, sigma_o_sign
from test_algebras import perturbed_modules, rebased_algebras


def shuffle_action(algebra, module, t, l, p):
    """The summands of su_{n,p} at entry (t, l): (flat offset of (u, l), sign).

    (su_{n,p} f)(t, l) is the sum of sign * f.data.get(offset, 0) over them.
    """
    parities = tuple(algebra.parity[i] for i in t)
    for slot_map, sign in _signed_shuffles(len(t), p, parities):
        yield encode([t[m] for m in slot_map], l, algebra.dim, module.dim), sign


def basis_vector(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def random_parity_combo(algebra, degree, rng, spread=4):
    """Random element of the parity-preserving cochain space."""
    module = self_module(algebra)
    total = Cochain(degree, module, {})
    for f in parity_basis(module, degree):
        c = rng.randint(-spread, spread)
        if c:
            total = total + f.scale(c)
    return total


def naive_coboundary(f: Cochain) -> Cochain:
    """Coboundary evaluated term by term through the tests' own vector ops.

    This takes a completely different path from the library's sparse
    scatter: every output value is assembled with ``conftest``'s
    cochain_apply, multiply, act and right_action on basis vectors, which
    no library code calls, so a library change cannot move them in step.
    """
    algebra = f.algebra
    module = f.module
    n = f.degree
    dim = algebra.dim
    entries = {}
    for t in itertools.product(range(dim), repeat=n + 1):
        args = [basis_vector(dim, i) for i in t]
        total = [0] * module.dim
        first = act(module, args[0], cochain_apply(f, args[1:]))
        total = [x + y for x, y in zip(total, first)]
        for i in range(1, n + 1):
            merged = (
                args[: i - 1]
                + [multiply(algebra, args[i - 1], args[i])]
                + args[i + 1 :]
            )
            sign = -1 if i % 2 else 1
            middle = cochain_apply(f, merged)
            total = [x + sign * y for x, y in zip(total, middle)]
        last_sign = -1 if (n + 1) % 2 else 1
        last = right_action(module, cochain_apply(f, args[:-1]), args[-1])
        total = [x + last_sign * y for x, y in zip(total, last)]
        for l, value in enumerate(total):
            if value:
                entries[(t, l)] = value
    return cochain_from_entries(module, n + 1, entries)


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
            self.mod, 2, {((0, 1), 1): 3, ((1, 0), 1): Fraction(1, 2)}
        )
        assert entry(f, (0, 1), 1) == 3
        assert entry(f, (1, 1), 0) == 0
        assert sorted(f.iter_nonzero()) == [
            ((0, 1), 1, 3),
            ((1, 0), 1, Fraction(1, 2)),
        ]

    def test_out_of_range_entries_rejected(self):
        with pytest.raises(ValueError):
            cochain_from_entries(self.mod, 1, {((5,), 0): 1})
        with pytest.raises(ValueError):
            cochain_from_entries(self.mod, 1, {((0,), 9): 1})

    def test_arithmetic(self):
        f = cochain_from_entries(self.mod, 1, {((0,), 0): 1})
        g = cochain_from_entries(self.mod, 1, {((1,), 1): 1})
        h = f + g.scale(2)
        assert entry(h, (0,), 0) == 1
        assert entry(h, (1,), 1) == 2
        assert (h - h).is_zero()
        assert entry(-f, (0,), 0) == -1
        assert entry(f.scale(3), (0,), 0) == 3

    def test_degree_zero_has_a_single_empty_tuple(self):
        m = cochain_from_entries(self.mod, 0, {((), 1): 5})
        assert vector_at(m, ()) == (0, 5)

    def test_apply_is_multilinear(self):
        rng = random.Random(3)
        f = random_parity_combo(self.alg, 2, rng)
        for _ in range(10):
            x = tuple(rng.randint(-3, 3) for _ in range(2))
            y = tuple(rng.randint(-3, 3) for _ in range(2))
            z = tuple(rng.randint(-3, 3) for _ in range(2))
            c = rng.randint(-3, 3)
            lhs = cochain_apply(f, [tuple(c * a + b for a, b in zip(x, y)), z])
            rhs = tuple(
                c * a + b
                for a, b in zip(cochain_apply(f, [x, z]), cochain_apply(f, [y, z]))
            )
            assert lhs == rhs

    def test_parity_flag(self):
        euler = cochain_from_entries(self.mod, 1, {((1,), 1): 1})
        assert euler.parity_preserving
        skew = cochain_from_entries(self.mod, 1, {((1,), 0): 1})
        assert not skew.parity_preserving

    def test_parity_is_scanned_on_first_use_only(self, monkeypatch):
        scans = []
        original = Cochain.iter_nonzero

        def counting(f):
            scans.append(f.degree)
            return original(f)

        monkeypatch.setattr(Cochain, "iter_nonzero", counting)
        f = cochain_from_entries(self.mod, 2, {((1, 1), 0): 1})
        assert scans == []
        assert f.parity_preserving and f.parity_preserving
        assert scans == [2]
        assert f == cochain_from_entries(self.mod, 2, {((1, 1), 0): 1})


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
            basis = parity_basis(mod, degree)
            assert len(basis) == expected
            assert len(parity_offsets(mod, degree)) == expected
            for f in basis:
                assert f.parity_preserving

    def test_offsets_are_strictly_increasing(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        offs = parity_offsets(mod, 2)
        assert list(offs) == sorted(set(offs))

    def test_closed_form_count_matches_the_table(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in range(5):
            assert parity_count(mod, degree) == len(
                parity_offsets(mod, degree)
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

    def test_shuffle_action_sums_to_the_shuffle_sum(self, corpus_algebra):
        rng = random.Random(5)
        mod = self_module(corpus_algebra)
        f = random_parity_combo(corpus_algebra, 3, rng)
        for p in (1, 2):
            summed = super_shuffle_sum(f, p)
            for t in itertools.product(range(corpus_algebra.dim), repeat=3):
                for l in range(mod.dim):
                    value = sum(
                        sign * f.data.get(off, 0)
                        for off, sign in shuffle_action(corpus_algebra, mod, t, l, p)
                    )
                    assert entry(summed, t, l) == value


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
                            vector_at(f, (i, j)),
                            vector_at(f, (j, i)),
                        )
                    )
                    assert vector_at(s, (i, j)) == expected

    def test_split_point_bounds(self):
        alg = exterior_algebra(1)
        f = Cochain(2, self_module(alg), {})
        with pytest.raises(ValueError):
            super_shuffle_sum(f, 0)
        with pytest.raises(ValueError):
            super_shuffle_sum(f, 2)
        with pytest.raises(ValueError, match="degree at least 2"):
            super_shuffle_sum(Cochain(1, self_module(alg), {}), 1)

    def test_sum_vanishes_exactly_on_graded_symmetric_cochains(self):
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        symmetric = cochain_from_entries(
            mod, 2, {((0, 1), 1): 1, ((1, 0), 1): 1}
        )
        assert super_shuffle_sum(symmetric, 1).is_zero()
        lopsided = cochain_from_entries(
            mod, 2, {((0, 1), 1): 1, ((1, 0), 1): -1}
        )
        assert not super_shuffle_sum(lopsided, 1).is_zero()

    def test_degree_two_sum_is_the_graded_antisymmetrisation(self):
        # (su_{2,1} f)(a, b) = f(a, b) - (-1)^{|a||b|} f(b, a) on every
        # elementary cochain of C^2, parity-violating ones included.
        for alg in (exterior_algebra(2), truncated_polynomial(2)):
            mod = self_module(alg)
            for off in range(alg.dim**2 * mod.dim):
                f = Cochain(2, mod, {off: 1})
                (a, b), l = decode(off, 2, alg.dim, mod.dim)
                sign = -1 if alg.parity[a] and alg.parity[b] else 1
                swapped = Cochain(2, mod, {encode((b, a), l, alg.dim, mod.dim): 1})
                expected = f - swapped.scale(sign)
                assert super_shuffle_sum(f, 1) == expected


class TestHarrisonSpace:
    def test_low_degrees_are_unconstrained(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in (0, 1):
            space = harrison_space(mod, degree)
            assert space.dim == len(
                parity_basis(mod, degree)
            )

    def test_rows_are_cochains_over_flat_offsets(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in range(4):
            space = harrison_space(mod, degree)
            assert space.ambient_dim == corpus_algebra.dim**degree * mod.dim
            for row in space.rows:
                assert Cochain(degree, mod, row).parity_preserving

    def test_degree_two_dimension_matches_symmetry_count(
        self, corpus_algebra
    ):
        mod = self_module(corpus_algebra)
        space = harrison_space(mod, 2)
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
        assert harrison_space(self_module(alg), 2).dim == expected

    def test_degree_two_members_are_graded_symmetric(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for f in harrison_basis(mod, 2):
            assert super_shuffle_sum(f, 1).is_zero()
            assert f.parity_preserving

    def test_members_kill_every_shuffle_sum(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for degree in (2, 3):
            for f in harrison_basis(mod, degree):
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
            offsets = parity_offsets(mod, degree)
            basis = parity_basis(mod, degree)
            columns = []
            for f in basis:
                col = []
                for p in range(1, degree):
                    s = super_shuffle_sum(f, p)
                    col.extend(s.data.get(o, 0) for o in offsets)
                columns.append(col)
            stacked = RationalMatrix.from_columns(
                columns, len(offsets) * (degree - 1)
            )
            # The kernel is over parity positions; map each to its offset.
            kernel = SubspaceBasis(
                alg.dim**degree * mod.dim,
                tuple({offsets[pos]: x for pos, x in row.items()} for row in kernel_basis(stacked).rows),
            )
            assert (
                kernel.rows
                == harrison_space(mod, degree).rows
            )

    @settings(max_examples=25, deadline=None)
    @given(
        a_par=st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple),
        m_par=st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
        degree=st.integers(2, 4),
    )
    # One rank pattern under several parity vectors: (0, 0, 1) arises from
    # the multisets {0, 0, 1}, {0, 0, 2}, {1, 1, 2}, {1, 1, 3}, ...
    @example(a_par=(0, 1, 0, 1), m_par=(0, 1), degree=3)
    @example(a_par=(1, 0, 1, 1, 0), m_par=(1, 0, 0), degree=4)
    def test_pattern_kernels_match_the_literal_stacked_system(self, a_par, m_par, degree):
        # The shuffle conditions read only the parities, so a zero product will do.
        dim = len(a_par)
        alg = SuperAlgebra(dim, tuple(f"e{i}" for i in range(dim)), a_par, _table_from_cells({}, dim, dim))
        mod = SuperModule(alg, len(m_par), m_par, _table_from_cells({}, dim, len(m_par)))
        offsets = parity_offsets(mod, degree)
        position = {off: pos for pos, off in enumerate(offsets)}
        columns = []
        for f in parity_basis(mod, degree):
            column = {}
            for p in range(1, degree):
                for off, x in super_shuffle_sum(f, p).data.items():
                    column[(p - 1) * len(offsets) + position[off]] = x
            columns.append(column)
        stacked = RationalMatrix.from_columns(columns, rows=len(offsets) * (degree - 1))
        # The kernel is over parity positions; map each to its offset.
        kernel = SubspaceBasis(
            dim**degree * len(m_par),
            tuple({offsets[pos]: x for pos, x in row.items()} for row in kernel_basis(stacked).rows),
        )
        assert harrison_space(mod, degree) == kernel
        assert harrison_pivots(mod, degree) == tuple(min(row) for row in kernel.rows)

    @pytest.mark.parametrize("shifted", [False, True], ids=["A", "PiA"])
    def test_pivots_are_the_leading_words(self, corpus_algebra, shifted):
        # The pivots of S_n, found without building it: each Lyndon word, and
        # each square vv of an odd Lyndon word v, with every l of its parity.
        mod = parity_shift(corpus_algebra) if shifted else self_module(corpus_algebra)
        for degree in range(4 if corpus_algebra.dim >= 8 else 5):
            assert harrison_pivots(mod, degree) == tuple(min(row) for row in harrison_space(mod, degree).rows)

    def test_coordinates_round_trip(self):
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        space = harrison_space(mod, 2)
        basis = harrison_basis(mod, 2)
        for row, f in zip(space.rows, basis):
            rebuilt = Cochain(2, mod, row)
            assert rebuilt == f
            assert f.data == row


class TestCoboundary:
    def test_degree_zero_measures_the_graded_commutator(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        m = cochain_from_entries(mod, 0, {((), 1): 1})
        boundary = hochschild_coboundary(m)
        # t2.t1 - t1.t2 with the sign twist collapses to -2 t1t2 on the
        # t2 input and nothing anywhere else.
        assert sorted(boundary.iter_nonzero()) == [((2,), 3, -2)]

    def test_unit_component_has_zero_boundary(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        unit = cochain_from_entries(
            mod, 0, {((), corpus_algebra.unit_index): 1}
        )
        assert hochschild_coboundary(unit).is_zero()

    def test_scaling_derivations_are_cocycles(self):
        alg = truncated_polynomial(3)
        mod = self_module(alg)
        euler = cochain_from_entries(
            mod, 1, {((1,), 1): 1, ((2,), 2): 2}
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
                assert fast == slow, (corpus_algebra.basis_names, degree)

    def test_matches_term_by_term_evaluation_degree_three(self):
        rng = random.Random(23)
        alg = exterior_algebra(2)
        f = random_parity_combo(alg, 3, rng)
        assert hochschild_coboundary(f) == naive_coboundary(f)

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
        for f in harrison_basis(mod, 2):
            boundary = hochschild_coboundary(f)
            for p in (1, 2):
                assert super_shuffle_sum(boundary, p).is_zero()


# Values with explicit zeros and integral Fractions, which a cochain must drop and normalise.
values = st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def scatter_inputs(draw, module):
    """A degree from 0 to 3 and sparse rational entries of a cochain of that degree into ``module``."""
    degree = draw(st.integers(0, 3))
    offsets = st.integers(0, module.algebra.dim**degree * module.dim - 1)
    return degree, draw(st.dictionaries(offsets, values, max_size=8))


class TestIntegerScatter:
    """``coboundary_scatter`` sums integers; the Fraction loops it replaced are the reference."""

    @staticmethod
    def check(module, data):
        degree, entries = data.draw(scatter_inputs(module))
        got = coboundary_scatter(module, degree, entries)
        # Same keys and equal values, and an int wherever the value is integral.
        assert got == reference_coboundary_scatter(module.algebra, module, degree, entries)
        assert all(type(x) is int or x.denominator > 1 for x in got.values())

    @given(st.sampled_from(sorted(CORPUS)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_corpus_algebras(self, name, data):
        self.check(self_module(CORPUS[name]), data)

    @given(rebased_algebras(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rebased_algebras(self, algebra, data):
        self.check(self_module(algebra), data)

    @given(perturbed_modules(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_perturbed_modules(self, module, data):
        self.check(module, data)


@st.composite
def dense_cases(draw, min_degree=0):
    """A small corpus algebra on itself, a degree up to 3, its entries (t, l)
    in lexicographic order, and two dense value lists over them, mostly zero."""
    algebra = CORPUS[draw(st.sampled_from(["exterior1", "truncpoly2", "truncpoly3", "mixed"]))]
    module = self_module(algebra)
    degree = draw(st.integers(min_degree, 3))
    keys = [(t, l) for t in itertools.product(range(algebra.dim), repeat=degree) for l in range(module.dim)]
    parity_only = draw(st.booleans())

    def dense():
        filled = draw(st.dictionaries(st.integers(0, len(keys) - 1), values, max_size=12))
        out = [filled.get(i, 0) for i in range(len(keys))]
        if parity_only:
            out = [x if parity_consistent(algebra, module, t, l) else 0 for x, (t, l) in zip(out, keys)]
        return out

    return algebra, module, degree, keys, dense(), dense()


def parity_consistent(algebra, module, t, l):
    return sum(algebra.parity[i] for i in t) % 2 == module.parity[l]


def dense_shuffle_sum(algebra, keys, dense, p):
    """su_{n,p} on a dense model, straight from the definition: summand s at
    (t, l) reads f(t_{s^{-1}(1)}, ..., t_{s^{-1}(n)}; l), signed sign(s) * oddsign(s^{-1})."""
    value = dict(zip(keys, dense))
    out = []
    for t, l in keys:
        total = 0
        for s in enumerate_shuffles(len(t), p):
            inv = s.inverse()
            u = tuple(t[inv(m) - 1] for m in range(1, len(t) + 1))
            total += s.sign() * sigma_o_sign(inv, tuple(algebra.parity[i] for i in t)) * value[(u, l)]
        out.append(total)
    return out


class TestAgainstDenseReference:
    """The sparse cochain behaves as the plain dense value list it stands for."""

    @staticmethod
    def build(algebra, module, degree, keys, dense):
        # Every entry, zeros included, so explicit zeros reach the constructor.
        return cochain_from_entries(module, degree, dict(zip(keys, dense)))

    @staticmethod
    def check(f, keys, expected):
        assert [entry(f, t, l) for t, l in keys] == expected
        assert list(f.data) == sorted(f.data)
        assert all(x and not (isinstance(x, Fraction) and x.denominator == 1) for x in f.data.values())

    @given(dense_cases(), values)
    @settings(max_examples=120, deadline=None)
    def test_arithmetic_and_equality(self, case, scalar):
        algebra, module, degree, keys, a, b = case
        f, g = (self.build(algebra, module, degree, keys, x) for x in (a, b))
        zero = Cochain(degree, module, {})
        self.check(f + g, keys, [x + y for x, y in zip(a, b)])
        self.check(f - g, keys, [x - y for x, y in zip(a, b)])
        self.check(-f, keys, [-x for x in a])
        self.check(f.scale(scalar), keys, [scalar * x for x in a])
        assert (f == g) == (a == b)
        assert f - f == zero and (f - f).is_zero() and hash(f - f) == hash(zero)
        assert f.scale(0) == zero
        assert self.build(algebra, module, degree, keys, [0] * len(keys)) == zero
        assert f == cochain_from_entries(module, degree, {k: x for k, x in zip(keys, a) if x})

    @given(dense_cases(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_evaluation(self, case, data):
        algebra, module, degree, keys, a, _ = case
        f = self.build(algebra, module, degree, keys, a)
        value = dict(zip(keys, a))
        for t in {t for t, _ in keys}:
            assert vector_at(f, t) == tuple(value[(t, l)] for l in range(module.dim))
        args = [data.draw(st.lists(values, min_size=algebra.dim, max_size=algebra.dim)) for _ in range(degree)]
        expected = [0] * module.dim
        for (t, l), x in value.items():
            for arg, i in zip(args, t):
                x *= arg[i]
            expected[l] += x
        assert cochain_apply(f, args) == tuple(expected)

    @given(dense_cases(min_degree=2), st.data())
    @settings(max_examples=120, deadline=None)
    def test_shuffle_sums(self, case, data):
        algebra, module, degree, keys, a, _ = case
        p = data.draw(st.integers(1, degree - 1))
        f = self.build(algebra, module, degree, keys, a)
        self.check(super_shuffle_sum(f, p), keys, dense_shuffle_sum(algebra, keys, a, p))

    @given(dense_cases())
    @settings(max_examples=60, deadline=None)
    def test_entries_in_any_order_serialize_lexicographically(self, case):
        algebra, module, degree, keys, a, _ = case
        entries = {k: x for k, x in zip(keys, a) if x}
        forward = cochain_to_dict(cochain_from_entries(module, degree, entries))
        backward = cochain_to_dict(cochain_from_entries(module, degree, dict(reversed(entries.items()))))
        assert forward == backward
        assert [(tuple(e["i"]), e["l"]) for e in forward["entries"]] == [k for k in keys if k in entries]

    def test_out_of_range_offset_is_refused(self):
        algebra = CORPUS["truncpoly2"]
        module = self_module(algebra)
        for degree in range(4):
            size = algebra.dim**degree * module.dim
            assert entry(Cochain(degree, module, {size - 1: 1}), (1,) * degree, 1) == 1
            for off in (size, -1):
                with pytest.raises(ValueError, match="out of range"):
                    Cochain(degree, module, {off: 1})
