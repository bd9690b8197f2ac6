"""Tests for first-order deformations, square-zero extensions, and
equivalence of extensions."""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction

import pytest
from conftest import (
    cochain_apply,
    dense,
    dense_vectors,
    ground_field,
    harrison_basis,
    multiply,
    parity_basis,
    vector_at,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebras import _constants, perturbed_algebras, rebased_algebras

from superharrison.algebras import (
    DualNumber,
    SuperModule,
    _law_differences,
    exterior_algebra,
    self_module,
    truncated_polynomial,
    validate_superalgebra,
)
from superharrison.cochains import (
    Cochain,
    _signed_shuffles,
    cochain_from_entries,
    hochschild_coboundary,
    super_shuffle_sum,
)
from superharrison.cohomology import (
    Complex,
    ComplexKind,
    ResourceCeilingError,
    ResourceLimits,
    coboundary_matrix,
    cohomology,
    derivation_space,
)
from superharrison.deformations import (
    SWEEP_SEED,
    DeformationReport,
    deformation_classes,
    deformation_iff_cocycle,
    extension_equivalence,
    extension_valid_iff_cocycle,
    first_order_deformation_check,
    is_cocycle,
    random_parity_cochain,
    square_zero_extension,
)
from superharrison.linalg import kernel_basis

ints = st.integers(min_value=-8, max_value=8)
HARR = ComplexKind.SUPER_HARRISON


def harrison_on_itself(algebra, limits=ResourceLimits()):
    """The Harrison complex of ``algebra`` on its self-module."""
    return Complex(self_module(algebra), HARR, limits)


def first_bad_triple(psi):
    """Lex-first (i, j, k) where the coboundary of psi is nonzero."""
    boundary = hochschild_coboundary(psi)
    hits = sorted(t for t, _, _ in boundary.iter_nonzero())
    return hits[0] if hits else None


def first_asymmetric_pair(psi):
    """Lex-first (i, j) violating graded symmetry."""
    alg = psi.algebra
    for i in range(alg.dim):
        for j in range(alg.dim):
            sign = -1 if alg.parity[i] and alg.parity[j] else 1
            forward = vector_at(psi, (i, j))
            backward = vector_at(psi, (j, i))
            if forward != tuple(sign * c for c in backward):
                return (i, j)
    return None


def reference_deformation_witnesses(psi):
    """The (supercommutativity, associativity) witnesses of m_t(a, b) = ab + t psi(a, b), by brute force.

    The table is read densely from the structure constants and psi, and the
    deformed product m_t(x, y) is expanded bilinearly over it.  Both laws
    are tested at every basis pair and triple, in lexicographic order, and
    the first failure wins.
    """
    alg = psi.algebra
    dim, par = alg.dim, alg.parity
    zero = DualNumber(0)
    table = [
        [
            tuple(
                (l, DualNumber(c, t))
                for l, (c, t) in enumerate(zip(dense(alg.products[i][j], dim), vector_at(psi, (i, j))))
                if c or t
            )
            for j in range(dim)
        ]
        for i in range(dim)
    ]

    def m_t(x, y):
        out = {}
        for a, xa in x:
            for b, yb in y:
                for l, m in table[a][b]:
                    out[l] = out.get(l, zero) + xa * yb * m
        return tuple((l, v) for l, v in sorted(out.items()) if v != zero)

    basis = [((i, DualNumber(1)),) for i in range(dim)]
    supercomm = next(
        (
            (i, j)
            for i in range(dim)
            for j in range(dim)
            if table[j][i] != (tuple((l, -m) for l, m in table[i][j]) if par[i] and par[j] else table[i][j])
        ),
        None,
    )
    assoc = next(
        (
            (i, j, k)
            for i in range(dim)
            for j in range(dim)
            for k in range(dim)
            if m_t(table[i][j], basis[k]) != m_t(basis[i], table[j][k])
        ),
        None,
    )
    return supercomm, assoc


class TestDualNumber:
    @given(ints, ints, ints, ints)
    def test_multiplication_truncates_the_square_term(self, a, b, c, d):
        prod = DualNumber(a, b) * DualNumber(c, d)
        assert prod == DualNumber(a * c, a * d + b * c)

    def test_infinitesimal_squares_to_zero(self):
        t = DualNumber(0, 1)
        assert not t * t

    @given(ints, ints, ints, ints, ints, ints)
    def test_ring_laws(self, a, b, c, d, e, f):
        x, y, z = DualNumber(a, b), DualNumber(c, d), DualNumber(e, f)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert not x - x

    def test_mixes_with_plain_scalars(self):
        x = DualNumber(2, 3)
        assert 1 + x == DualNumber(3, 3)
        assert 2 * x == DualNumber(4, 6)
        assert 5 - x == DualNumber(3, -3)
        assert x * Fraction(1, 2) == DualNumber(1, Fraction(3, 2))

    @given(ints, ints)
    def test_a_scalar_equals_its_dual_number(self, a, b):
        # x compares as x + 0t, as arithmetic coerces it.
        assert DualNumber(a) == a and a == DualNumber(a)
        assert DualNumber(Fraction(a, 3)) == Fraction(a, 3)
        assert (DualNumber(a, b) == a) == (b == 0)
        assert (DualNumber(a, b) != a) == (b != 0)

    def test_a_scalar_hashes_as_its_dual_number(self):
        assert hash(DualNumber(Fraction(5, 2))) == hash(Fraction(5, 2))
        assert hash(DualNumber._exact(Fraction(4, 2), 0)) == hash(2)
        assert {DualNumber(1): "one"}.get(1) == "one"
        assert {1: "one"}.get(DualNumber(1)) == "one"
        assert DualNumber(0) == 0 and not DualNumber(0) != 0

    def test_a_boolean_is_not_a_scalar(self):
        assert DualNumber(1) != True and DualNumber(0) != False  # noqa: E712
        assert DualNumber(1) != 1.0

    def test_values_from_outside_are_normalised(self):
        x = DualNumber(Fraction(4, 2), Fraction(3, 1))
        assert x.c0 == 2 and type(x.c0) is int
        assert x.c1 == 3 and type(x.c1) is int

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            DualNumber(0.5)
        with pytest.raises(TypeError):
            DualNumber(1, 0.5)
        with pytest.raises(TypeError):
            DualNumber(1) + 0.5

    def test_arithmetic_results_match_normalised_values(self):
        half = DualNumber(Fraction(1, 2), Fraction(1, 2))
        whole = half + half
        assert whole == DualNumber(1, 1)
        assert hash(whole) == hash(DualNumber(1, 1))
        assert not whole - DualNumber(1, 1)

    def test_truth_is_a_nonzero_component(self):
        assert not DualNumber(0, 0)
        assert DualNumber(0, 1)
        assert DualNumber(Fraction(1, 2))


class TestFirstOrderCheck:
    def test_zero_cochain_deforms_trivially(self, corpus_algebra):
        psi = Cochain(2, self_module(corpus_algebra), {})
        report = first_order_deformation_check(psi)
        assert report.valid
        assert report.supercommutativity_witness is None
        assert report.associativity_witness is None

    def test_square_deformation_of_the_nilpotent_line(self):
        # Sending x*x from 0 to the unit keeps all laws intact mod t^2.
        alg = truncated_polynomial(2)
        psi = cochain_from_entries(
            self_module(alg), 2, {((1, 1), 0): 1}
        )
        assert is_cocycle(psi)
        assert first_order_deformation_check(psi).valid

    def test_odd_square_deformation_is_rejected(self):
        # The same move on an odd line contradicts the sign rule: the
        # deformed product is no longer supercommutative.
        alg = exterior_algebra(1)
        psi = cochain_from_entries(
            self_module(alg), 2, {((1, 1), 0): 1}
        )
        report = first_order_deformation_check(psi)
        assert not report.valid
        assert report.parity_ok
        assert report.supercommutativity_witness == (1, 1)
        assert not is_cocycle(psi)
        assert not super_shuffle_sum(psi, 1).is_zero()

    def test_cubic_truncation_blocks_the_square_deformation(self):
        # With x^3 = 0 but x^2 alive, psi(x, x) = 1 breaks associativity
        # first at (x, x, x^2).
        alg = truncated_polynomial(3)
        psi = cochain_from_entries(
            self_module(alg), 2, {((1, 1), 0): 1}
        )
        report = first_order_deformation_check(psi)
        assert not report.valid
        assert report.supercommutative_mod_t2
        assert report.associativity_witness == (1, 1, 2)
        assert first_bad_triple(psi) == (1, 1, 2)

    def test_wrong_degree_rejected(self):
        alg = exterior_algebra(1)
        f = Cochain(1, self_module(alg), {})
        with pytest.raises(ValueError):
            first_order_deformation_check(f)

    def test_check_builds_no_module(self, monkeypatch):
        alg = truncated_polynomial(3)
        psi = cochain_from_entries(self_module(alg), 2, {((1, 1), 0): 1})

        def refuse(module, *args, **kwargs):
            raise AssertionError("first_order_deformation_check built a SuperModule")

        monkeypatch.setattr(SuperModule, "__init__", refuse)
        assert first_order_deformation_check(psi).associativity_witness == (1, 1, 2)

    def test_psi_over_another_module_is_refused(self):
        alg = truncated_polynomial(2)
        zero_action = (((), ()), ((), ()))
        others = [
            SuperModule(alg, 2, alg.parity, alg.products, basis_names=("u", "v")),
            SuperModule(alg, 2, alg.parity, zero_action, basis_names=alg.basis_names),
            SuperModule(alg, 2, (0, 1), alg.products, basis_names=alg.basis_names),
            SuperModule(alg, 1, (0,), ((((0, 1),),), ((),)), basis_names=("1",)),
        ]
        for module in others:
            psi = Cochain(2, module, {})
            with pytest.raises(ValueError, match="algebra acting on itself"):
                first_order_deformation_check(psi)

    def test_verdicts_match_the_cochain_side_predicates(self, corpus_algebra):
        rng = random.Random(41)
        mod = self_module(corpus_algebra)
        for _ in range(8):
            psi = random_parity_cochain(mod, 2, rng)
            report = first_order_deformation_check(psi)
            assert report.parity_ok
            assert report.supercommutative_mod_t2 == super_shuffle_sum(psi, 1).is_zero()
            assert report.associative_mod_t2 == hochschild_coboundary(
                psi
            ).is_zero()
            if not report.associative_mod_t2:
                assert report.associativity_witness == first_bad_triple(psi)
            if not report.supercommutative_mod_t2:
                assert (
                    report.supercommutativity_witness
                    == first_asymmetric_pair(psi)
                )


    @given(st.one_of(perturbed_algebras(), rebased_algebras()), st.data())
    @settings(max_examples=300, deadline=None)
    def test_witnesses_match_the_brute_force_reference(self, algebra, data):
        # Broken algebras too: the first witness of each law is pinned
        # whatever the algebra, for random psi and coboundaries alike.
        module = self_module(algebra)

        def cochain(degree):
            offsets = st.integers(0, algebra.dim**degree * module.dim - 1)
            return Cochain(degree, module, data.draw(st.dictionaries(offsets, _constants, max_size=6)))

        psi = hochschild_coboundary(cochain(1)) if data.draw(st.booleans()) else cochain(2)
        expected = DeformationReport(psi.parity_preserving, *reference_deformation_witnesses(psi))
        assert first_order_deformation_check(psi) == expected

    def test_a_sum_that_cancels_to_zero_is_no_difference(self):
        # e0 e0 = t e1 - t e2 and e1 e0 = e2 e0 = e3, every other product
        # zero: (e0 e0) e0 = t e3 - t e3 sums to 0 + 0t, and e0 (e0 e0) = 0.
        one, t = DualNumber(1), DualNumber(0, 1)
        table = [[() for _ in range(4)] for _ in range(4)]
        table[0][0] = ((1, t), (2, -t))
        table[1][0] = ((3, one),)
        table[2][0] = ((3, one),)
        assert list(_law_differences(table, table)) == []
        table[2][0] = ((3, one + one),)
        assert list(_law_differences(table, table)) == [(0, 0, 0, 3, -t, 0)]


class TestIffSweeps:
    def test_deformation_verdict_tracks_cocycles(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        report = deformation_iff_cocycle(Complex(mod, HARR), budget=40)
        assert report.passed, report.failures
        basis_size = len(parity_basis(mod, 2))
        assert report.cases == basis_size + 40
        assert report.failures == ()

    def test_a_failing_random_case_is_named_by_its_draw(self, monkeypatch):
        # The third random draw follows the 32 elementary cases of exterior(2), so it is case 34.
        alg = exterior_algebra(2)
        cx = harrison_on_itself(alg)
        rng = random.Random(SWEEP_SEED)
        bad = [random_parity_cochain(cx.module, 2, rng) for _ in range(3)][-1]
        k = len(parity_basis(cx.module, 2)) + 2

        def flipped_at_bad(verdict):
            return lambda psi: verdict(psi) != (psi == bad)

        cocycle = is_cocycle(bad)
        monkeypatch.setattr("superharrison.deformations.is_cocycle", flipped_at_bad(is_cocycle))
        report = deformation_iff_cocycle(cx, budget=5)
        assert report.cases == k + 3
        assert report.failures == (f"case {k}: deformation check says {cocycle}, cocycle test says {not cocycle}",)

        symmetric = super_shuffle_sum(bad, 1).is_zero()

        def flipped_sum(psi, p):
            # At the bad case, a zero sum for a nonzero one and the other way round.
            out = super_shuffle_sum(psi, p)
            return out if psi != bad else Cochain(2, cx.module, {} if not out.is_zero() else {0: 1})

        monkeypatch.setattr("superharrison.deformations.super_shuffle_sum", flipped_sum)
        report = extension_valid_iff_cocycle(cx, budget=5)
        verdict = "clean" if symmetric else "violated"
        failure = f"extension supercommutativity is {verdict} but cochain side says {not symmetric}"
        assert report.failures == (f"case {k}: {failure}",)

    def test_sweeps_catch_a_flipped_degree_two_swap_sign(self, monkeypatch):
        # The cochain-side verdicts read the signed shuffle table, so a sign
        # error there disagrees with the DualNumber and validator sides.
        def flipped(n, p, parities):
            rows = _signed_shuffles(n, p, parities)
            return tuple((slots, -sign if slots == (1, 0) else sign) for slots, sign in rows)

        monkeypatch.setattr("superharrison.cochains._signed_shuffles", flipped)
        cx = harrison_on_itself(exterior_algebra(1))
        assert not deformation_iff_cocycle(cx, budget=0).passed
        assert not extension_valid_iff_cocycle(cx, budget=0).passed

    def test_extension_verdict_tracks_cocycles(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        report = extension_valid_iff_cocycle(Complex(mod, HARR), budget=60)
        assert report.passed, report.failures


class TestSquareZeroExtension:
    def test_block_layout(self):
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        psi = cochain_from_entries(mod, 2, {((1, 1), 0): 1})
        ext = square_zero_extension(psi)
        # A's basis comes first and M's follows.
        assert ext.dim == alg.dim + mod.dim
        assert ext.basis_names == ("1", "x", "m.1", "m.x")
        assert ext.parity == alg.parity + mod.parity == (0, 0, 0, 0)
        assert ext.unit_index is None

    def test_zero_twist_gives_the_split_extension(self):
        alg = exterior_algebra(1)
        mod = self_module(alg)
        ext = square_zero_extension(Cochain(2, mod, {}))
        a, m = range(alg.dim), range(alg.dim, ext.dim)

        def vec(idx):
            return tuple(1 if i == idx else 0 for i in range(4))

        # Algebra block multiplies as the original algebra.
        assert multiply(ext, vec(a[0]), vec(a[1]))[a[1]] == 1
        # Module block squares to zero.
        for i in m:
            for j in m:
                assert all(
                    c == 0 for c in multiply(ext, vec(i), vec(j))
                )
        # Algebra acts on the module block through the action tensor.
        assert multiply(ext, vec(a[1]), vec(m[0])) == vec(m[1])
        assert validate_superalgebra(ext).ok

    def test_twist_lands_in_the_module_block(self):
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        psi = cochain_from_entries(mod, 2, {((1, 1), 0): 3})
        ext = square_zero_extension(psi)
        x = tuple(1 if i == 1 else 0 for i in range(4))
        product = multiply(ext, x, x)
        # x * x = 0 in the base plus psi(x, x) = 3 in the module copy.
        assert product == (0, 0, 3, 0)

    def test_validity_is_law_by_law(self):
        # An asymmetric twist breaks exactly supercommutativity; a
        # non-closed one breaks exactly associativity.
        alg = exterior_algebra(1)
        mod = self_module(alg)
        clifford = cochain_from_entries(mod, 2, {((1, 1), 0): 1})
        report = validate_superalgebra(square_zero_extension(clifford))
        assert "supercommutativity" in report.kinds()
        assert "associativity" not in report.kinds()

        cubic = truncated_polynomial(3)
        cubic_mod = self_module(cubic)
        bad = cochain_from_entries(cubic_mod, 2, {((1, 1), 0): 1})
        report = validate_superalgebra(square_zero_extension(bad))
        assert "associativity" in report.kinds()
        assert "supercommutativity" not in report.kinds()


class TestEquivalence:
    def test_shifting_by_a_coboundary_is_detected(self, corpus_algebra):
        rng = random.Random(13)
        mod = self_module(corpus_algebra)
        harrison = Complex(mod, HARR)
        cocycles = kernel_basis(coboundary_matrix(harrison, 2))
        basis = harrison_basis(mod, 2)
        psi1 = Cochain(2, mod, {})
        # A random symmetric cocycle, assembled from kernel coordinates.
        if cocycles.dim:
            weights = [rng.randint(-3, 3) for _ in range(cocycles.dim)]
            combo = [0] * cocycles.ambient_dim
            for w, v in zip(weights, dense_vectors(cocycles)):
                combo = [c + w * x for c, x in zip(combo, v)]
            for coeff, f in zip(combo, basis):
                if coeff:
                    psi1 = psi1 + f.scale(coeff)
        assert is_cocycle(psi1)
        g0 = random_parity_cochain(mod, 1, rng)
        psi2 = psi1 - hochschild_coboundary(g0)
        g = extension_equivalence(harrison, psi1, psi2)
        assert g is not None
        assert hochschild_coboundary(g) == psi1 - psi2

    def test_distinct_classes_are_inequivalent(self):
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        psi = cochain_from_entries(mod, 2, {((1, 1), 0): 1})
        zero = Cochain(2, mod, {})
        harrison = Complex(mod, HARR)
        assert extension_equivalence(harrison, psi, zero) is None
        assert extension_equivalence(harrison, zero, psi) is None

    def test_trivial_second_cohomology_makes_everything_equivalent(self):
        alg = exterior_algebra(1)
        mod = self_module(alg)
        harrison = Complex(mod, HARR)
        assert cohomology(harrison, 2).dim_cohomology == 0
        rng = random.Random(17)
        basis = harrison_basis(mod, 2)
        cocycles = kernel_basis(coboundary_matrix(harrison, 2))
        for _ in range(5):
            combos = []
            for _ in range(2):
                total = Cochain(2, mod, {})
                for v in dense_vectors(cocycles):
                    w = rng.randint(-3, 3)
                    for coeff, f in zip(v, basis):
                        if w and coeff:
                            total = total + f.scale(w * coeff)
                combos.append(total)
            g = extension_equivalence(harrison, combos[0], combos[1])
            assert g is not None

    def test_non_cocycles_are_rejected(self):
        alg = truncated_polynomial(3)
        mod = self_module(alg)
        bad = cochain_from_entries(mod, 2, {((1, 1), 0): 1})
        good = Cochain(2, mod, {})
        harrison = Complex(mod, HARR)
        with pytest.raises(ValueError):
            extension_equivalence(harrison, bad, good)
        with pytest.raises(ValueError):
            extension_equivalence(harrison, good, bad)

    def test_recovered_shift_gives_an_algebra_isomorphism(self):
        # h(a, m) = (a, m + g(a)) must turn one extension's product into
        # the other's, verified entry by entry on basis vectors.
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        psi1 = cochain_from_entries(mod, 2, {((1, 1), 0): 1})
        g0 = cochain_from_entries(mod, 1, {((1,), 0): 2})
        psi2 = psi1 - hochschild_coboundary(g0)
        g = extension_equivalence(Complex(mod, HARR), psi1, psi2)
        assert g is not None
        ext1 = square_zero_extension(psi1)
        ext2 = square_zero_extension(psi2)
        dim = alg.dim

        def h(vector):
            # Shift the module block by g applied to the algebra block.
            base = list(vector)
            shift = cochain_apply(g, [vector[:dim]])
            for k, value in enumerate(shift):
                base[dim + k] += value
            return tuple(base)

        for i in range(ext1.dim):
            for j in range(ext1.dim):
                x = tuple(1 if k == i else 0 for k in range(2 * dim))
                y = tuple(1 if k == j else 0 for k in range(2 * dim))
                lhs = h(multiply(ext1, x, y))
                rhs = multiply(ext2, h(x), h(y))
                assert lhs == rhs, (i, j)


class TestDeformationClasses:
    def test_rigid_algebras_have_no_classes(self):
        assert deformation_classes(harrison_on_itself(ground_field())).dim_cohomology == 0
        assert deformation_classes(harrison_on_itself(exterior_algebra(1))).dim_cohomology == 0

    def test_nilpotent_line_has_one_class(self):
        res = deformation_classes(harrison_on_itself(truncated_polynomial(2)))
        assert res.dim_cohomology == 1
        rep = res.representatives[0]
        assert first_order_deformation_check(
            rep
        ).valid

    def test_limits_are_honoured(self):
        with pytest.raises(ResourceCeilingError):
            deformation_classes(harrison_on_itself(exterior_algebra(2), ResourceLimits(max_columns=10)))
        with pytest.raises(ResourceCeilingError):
            deformation_classes(harrison_on_itself(exterior_algebra(2), ResourceLimits(max_degree=2)))

    def test_class_representatives_deform(self, corpus_algebra):
        res = deformation_classes(harrison_on_itself(corpus_algebra))
        for rep in res.representatives:
            assert is_cocycle(rep)
            assert first_order_deformation_check(rep).valid


class TestCallersComplex:
    """The degree-2 functions run on the caller's complex and under its ceilings."""

    # Degree 2 of exterior(2) on itself has 32 parity-consistent entries.
    LOW = (ResourceLimits(max_columns=10), ResourceLimits(max_degree=1))

    @pytest.mark.parametrize("limits", LOW, ids=["columns", "degree"])
    def test_lowered_limits_refuse_every_degree_two_function(self, limits):
        alg = exterior_algebra(2)
        zero = Cochain(2, self_module(alg), {})
        calls = (
            lambda cx: deformation_classes(cx),
            lambda cx: deformation_iff_cocycle(cx, budget=0),
            lambda cx: extension_valid_iff_cocycle(cx, budget=0),
            lambda cx: extension_equivalence(cx, zero, zero),
        )
        for call in calls:
            cx = harrison_on_itself(alg, limits)
            with pytest.raises(ResourceCeilingError):
                call(cx)
            # Refused before degree 2 was built.
            assert 2 not in cx._spaces

    def test_the_sweeps_admit_degree_two_before_any_case(self):
        cx = harrison_on_itself(exterior_algebra(2), ResourceLimits(max_columns=10))
        with pytest.raises(ResourceCeilingError, match="dimension 32 exceeds the ceiling 10"):
            deformation_iff_cocycle(cx, budget=0)

    def test_equivalence_reuses_the_complex(self):
        alg = truncated_polynomial(2)
        cx = harrison_on_itself(alg)
        psi = cochain_from_entries(cx.module, 2, {((1, 1), 0): 1})
        d1, s1, s2 = coboundary_matrix(cx, 1), cx.space(1), cx.space(2)
        assert extension_equivalence(cx, psi, psi) == Cochain(1, cx.module, {})
        assert coboundary_matrix(cx, 1) is d1 and cx.space(1) is s1 and cx.space(2) is s2

    def test_a_hochschild_complex_is_refused(self):
        alg = truncated_polynomial(2)
        hochschild = Complex(self_module(alg), ComplexKind.HOCHSCHILD)
        zero = Cochain(2, hochschild.module, {})
        with pytest.raises(ValueError, match="Harrison"):
            deformation_classes(hochschild)
        with pytest.raises(ValueError, match="Harrison"):
            deformation_iff_cocycle(hochschild, budget=0)
        with pytest.raises(ValueError, match="Harrison"):
            extension_valid_iff_cocycle(hochschild, budget=0)
        with pytest.raises(ValueError, match="Harrison"):
            extension_equivalence(hochschild, zero, zero)

    def test_a_module_other_than_the_self_module_is_refused_where_needed(self):
        alg = truncated_polynomial(2)
        mod = SuperModule(alg, 1, (0,), ((((0, 1),),), ((),)), basis_names=("v",))
        cx = Complex(mod, HARR)
        with pytest.raises(ValueError, match="acting on itself"):
            deformation_classes(cx)
        with pytest.raises(ValueError, match="acting on itself"):
            deformation_iff_cocycle(cx, budget=0)
        # The extension sweep takes any module.
        assert extension_valid_iff_cocycle(cx, budget=3).passed

    def test_equivalence_takes_cochains_of_the_complex(self):
        alg = truncated_polynomial(2)
        other = Cochain(2, self_module(exterior_algebra(1)), {})
        zero = Cochain(2, self_module(alg), {})
        with pytest.raises(ValueError, match="complex's module"):
            extension_equivalence(harrison_on_itself(alg), zero, other)


def test_nothing_keeps_an_algebra_or_its_module_alive():
    alg = exterior_algebra(2)
    cx = harrison_on_itself(alg)
    psi = cochain_from_entries(cx.module, 2, {((1, 2), 3): 1, ((2, 1), 3): -1})
    derivation_space(cx.module)
    assert deformation_iff_cocycle(cx, budget=3).passed
    assert extension_valid_iff_cocycle(cx, budget=3).passed
    deformation_classes(cx)
    extension_equivalence(cx, psi, psi)
    refs = [weakref.ref(alg), weakref.ref(cx.module)]
    del alg, cx, psi
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


class TestRandomCochains:
    def test_reproducible_and_parity_preserving(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        a = random_parity_cochain(mod, 2, random.Random(99))
        b = random_parity_cochain(mod, 2, random.Random(99))
        assert a == b
        assert a.parity_preserving
        assert a.degree == 2
