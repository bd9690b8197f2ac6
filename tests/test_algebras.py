"""Tests for algebra construction, validation, and module actions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superharrison.algebras import (
    SuperAlgebra,
    SuperModule,
    act,
    exterior_algebra,
    ground_field,
    multiply,
    right_action,
    self_module,
    tensor_product,
    truncated_polynomial,
    validate_superalgebra,
    validate_supermodule,
)
from superharrison.shuffles import Permutation, sigma_o_sign

small_coeffs = st.integers(min_value=-4, max_value=4)


def basis_vector(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


class TestGenerators:
    def test_corpus_algebras_satisfy_all_laws(self, corpus_algebra):
        report = validate_superalgebra(corpus_algebra)
        assert report.ok, report.violations
        assert validate_supermodule(self_module(corpus_algebra)).ok

    def test_exterior_dimensions_and_parities(self):
        for k in range(4):
            alg = exterior_algebra(k)
            assert alg.dim == 2**k
            # Parity of a monomial is the parity of its generator count.
            assert alg.parity == tuple(
                bin(mask).count("1") % 2 for mask in range(2**k)
            )
            assert alg.unit_index == 0
            assert validate_superalgebra(alg).ok

    def test_exterior_generators_square_to_zero(self):
        alg = exterior_algebra(3)
        for i in range(3):
            gen = basis_vector(alg.dim, 1 << i)
            assert all(c == 0 for c in multiply(alg, gen, gen))

    def test_exterior_generators_anticommute(self):
        alg = exterior_algebra(2)
        t1 = basis_vector(4, 1)
        t2 = basis_vector(4, 2)
        forward = multiply(alg, t1, t2)
        backward = multiply(alg, t2, t1)
        assert forward == (0, 0, 0, 1)
        assert backward == (0, 0, 0, -1)

    def test_exterior_names(self):
        assert exterior_algebra(2).basis_names == ("1", "t1", "t2", "t1t2")

    def test_exterior_range_guard(self):
        with pytest.raises(ValueError):
            exterior_algebra(7)
        with pytest.raises(ValueError):
            exterior_algebra(-1)

    def test_truncated_polynomial_multiplication(self):
        alg = truncated_polynomial(3)
        assert alg.basis_names == ("1", "x", "x^2")
        assert alg.parity == (0, 0, 0)
        x = basis_vector(3, 1)
        x2 = multiply(alg, x, x)
        assert x2 == (0, 0, 1)
        assert multiply(alg, x, x2) == (0, 0, 0)

    def test_truncated_polynomial_guard(self):
        with pytest.raises(ValueError):
            truncated_polynomial(0)

    def test_ground_field_is_one_dimensional(self):
        k = ground_field()
        assert k.dim == 1
        assert k.parity == (0,)
        assert multiply(k, (3,), (Fraction(1, 2),)) == (Fraction(3, 2),)


class TestTensorProduct:
    def test_unit_propagates(self):
        t = tensor_product(truncated_polynomial(2), exterior_algebra(1))
        assert t.unit_index == 0
        assert t.basis_names == ("1*1", "1*t1", "x*1", "x*t1")
        assert t.parity == (0, 1, 0, 1)
        assert validate_superalgebra(t).ok

    def test_sign_convention_on_odd_crossings(self):
        # In A x B the middle factors swap: (a x b)(a' x b') picks up
        # the parity product of b and a'.
        t = tensor_product(exterior_algebra(1), exterior_algebra(1))
        one_theta = basis_vector(4, 1)  # 1 x t1
        theta_one = basis_vector(4, 2)  # t1 x 1
        assert multiply(t, theta_one, one_theta) == (0, 0, 0, 1)
        assert multiply(t, one_theta, theta_one) == (0, 0, 0, -1)

    def test_square_of_two_exterior_lines_matches_rank_two(self):
        # Lambda(u) x Lambda(v) and Lambda(t1, t2) are isomorphic via
        # u x 1 -> t1, 1 x v -> t2; indices map as 1 <-> 2, rest fixed.
        t = tensor_product(exterior_algebra(1), exterior_algebra(1))
        e2 = exterior_algebra(2)
        relabel = {0: 0, 1: 2, 2: 1, 3: 3}
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert (
                        t.structure[i][j][k]
                        == e2.structure[relabel[i]][relabel[j]][relabel[k]]
                    )

    def test_even_times_even_has_no_signs(self):
        t = tensor_product(truncated_polynomial(2), truncated_polynomial(2))
        assert validate_superalgebra(t).ok
        assert all(p == 0 for p in t.parity)


class TestMultiplication:
    @given(st.data())
    @settings(max_examples=50)
    def test_bilinearity(self, data):
        alg = exterior_algebra(2)
        vec = lambda: tuple(
            data.draw(small_coeffs) for _ in range(alg.dim)
        )
        x, y, z = vec(), vec(), vec()
        c = data.draw(small_coeffs)
        left = multiply(alg, tuple(c * a + b for a, b in zip(x, y)), z)
        expected = tuple(
            c * a + b
            for a, b in zip(multiply(alg, x, z), multiply(alg, y, z))
        )
        assert left == expected

    def test_basis_products_supercommute(self, corpus_algebra):
        alg = corpus_algebra
        for i in range(alg.dim):
            for j in range(alg.dim):
                sign = -1 if alg.parity[i] and alg.parity[j] else 1
                forward = multiply(
                    alg, basis_vector(alg.dim, i), basis_vector(alg.dim, j)
                )
                backward = multiply(
                    alg, basis_vector(alg.dim, j), basis_vector(alg.dim, i)
                )
                assert forward == tuple(sign * c for c in backward)

    def test_unit_acts_as_identity(self, corpus_algebra):
        alg = corpus_algebra
        unit = basis_vector(alg.dim, alg.unit_index)
        probe = tuple(Fraction(i + 1, 3) for i in range(alg.dim))
        assert multiply(alg, unit, probe) == probe
        assert multiply(alg, probe, unit) == probe

    def test_reordered_monomial_products_realize_the_odd_sign(self):
        # Products of disjoint-support monomials in a rank four exterior
        # algebra: permuting the factors multiplies the product by the
        # odd-slot sign of the permutation.
        alg = exterior_algebra(4)
        factors = [
            basis_vector(16, 0b0001),  # t1, odd
            basis_vector(16, 0b0110),  # t2t3, even
            basis_vector(16, 0b1000),  # t4, odd
        ]
        parities = (1, 0, 1)

        def product(order):
            result = basis_vector(16, 0)
            for idx in order:
                result = multiply(alg, result, factors[idx])
            return result

        base = product((0, 1, 2))
        assert any(c != 0 for c in base)
        for images in itertools.permutations((1, 2, 3)):
            perm = Permutation(images)
            reordered = product(tuple(i - 1 for i in images))
            sign = sigma_o_sign(perm, parities)
            assert reordered == tuple(sign * c for c in base), images


class TestModuleActions:
    def test_right_action_carries_the_koszul_sign(self, corpus_algebra):
        alg = corpus_algebra
        mod = self_module(alg)
        for i in range(alg.dim):
            for k in range(alg.dim):
                a = basis_vector(alg.dim, i)
                m = basis_vector(mod.dim, k)
                sign = -1 if alg.parity[i] and mod.parity[k] else 1
                assert right_action(mod, m, a) == tuple(
                    sign * c for c in act(mod, a, m)
                )

    def test_right_action_splits_mixed_vectors_by_component(self):
        alg = exterior_algebra(1)
        mod = self_module(alg)
        theta = (0, 1)
        mixed = (1, 1)  # 1 + t1
        # (1 + t1) . t1 = t1 + (t1 . t1) = t1 - t1*t1 = t1.
        assert right_action(mod, mixed, theta) == (0, 1)
        assert act(mod, theta, mixed) == (0, 1)

    def test_action_is_linear_in_both_slots(self):
        rng = random.Random(5)
        alg = exterior_algebra(2)
        mod = self_module(alg)
        for _ in range(20):
            a = tuple(rng.randint(-3, 3) for _ in range(4))
            b = tuple(rng.randint(-3, 3) for _ in range(4))
            m = tuple(rng.randint(-3, 3) for _ in range(4))
            summed = act(mod, tuple(x + y for x, y in zip(a, b)), m)
            split = tuple(
                x + y for x, y in zip(act(mod, a, m), act(mod, b, m))
            )
            assert summed == split

    def test_self_module_reuses_algebra_names(self):
        mod = self_module(exterior_algebra(2))
        assert mod.basis_names == ("1", "t1", "t2", "t1t2")
        assert mod.parity == (0, 1, 1, 0)

    def test_self_module_shares_the_frozen_structure(self):
        alg = tensor_product(truncated_polynomial(2), exterior_algebra(1))
        assert self_module(alg).action is alg.structure
        assert self_module(alg) == SuperModule(alg, alg.dim, alg.parity, [list(map(list, p)) for p in alg.structure],
                                               basis_names=alg.basis_names)

    def test_wrongly_shaped_action_is_refused_even_when_it_is_the_structure(self):
        alg = exterior_algebra(1)
        with pytest.raises(ValueError):
            SuperModule(alg, 1, (0,), alg.structure)
        with pytest.raises(ValueError):
            SuperModule(alg, 2, (0, 1), alg.structure[:1])


class TestValidators:
    def test_odd_generator_with_nonzero_square_is_flagged(self):
        # t^2 = 1 with t odd violates the sign rule t*t = -t*t.
        clifford = SuperAlgebra(
            dim=2,
            basis_names=("1", "t"),
            parity=(0, 1),
            structure=(((1, 0), (0, 1)), ((0, 1), (1, 0))),
            unit_index=0,
        )
        report = validate_superalgebra(clifford)
        assert not report.ok
        violation = report.first("supercommutativity")
        assert violation is not None
        assert violation.indices == (1, 1, 0)

    def test_parity_mismatch_is_flagged(self):
        # t^2 = t maps even input parity to an odd output component.
        alg = SuperAlgebra(
            dim=2,
            basis_names=("1", "t"),
            parity=(0, 1),
            structure=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
            unit_index=0,
        )
        kinds = validate_superalgebra(alg).kinds()
        assert "parity" in kinds

    def test_associativity_failure_is_located(self):
        alg = SuperAlgebra(
            dim=2,
            basis_names=("a", "b"),
            parity=(0, 0),
            structure=(((1, 0), (0, 2)), ((0, 2), (0, 0))),
            unit_index=None,
        )
        report = validate_superalgebra(alg)
        assert report.kinds() == {"associativity"}
        assert report.first("associativity").indices == (0, 0, 1)

    def test_broken_unit_is_flagged(self):
        alg = SuperAlgebra(
            dim=2,
            basis_names=("1", "x"),
            parity=(0, 0),
            structure=(((1, 0), (0, 0)), ((0, 0), (0, 0))),
            unit_index=0,
        )
        report = validate_superalgebra(alg)
        assert "unit" in report.kinds()

    def test_zero_action_module_without_unit_is_valid(self):
        line = exterior_algebra(1)
        base = SuperAlgebra(line.dim, line.basis_names, line.parity, line.structure, unit_index=None)
        mod = SuperModule(
            algebra=base,
            dim=2,
            parity=(0, 1),
            action=(((0, 0), (0, 0)), ((0, 0), (0, 0))),
        )
        assert validate_supermodule(mod).ok

    def test_zero_action_module_with_unit_fails_unit_law(self):
        mod = SuperModule(
            algebra=exterior_algebra(1),
            dim=2,
            parity=(0, 1),
            action=(((0, 0), (0, 0)), ((0, 0), (0, 0))),
        )
        report = validate_supermodule(mod)
        assert not report.ok
        assert "unit" in report.kinds()

    def test_perturbed_self_action_breaks_the_module_law(self):
        mod = self_module(exterior_algebra(1))
        # Make t1 act as the identity instead of multiplication by t1.
        bad = SuperModule(
            mod.algebra, mod.dim, mod.parity, action=(((1, 0), (0, 1)), ((0, 1), (1, 0))), basis_names=mod.basis_names
        )
        report = validate_supermodule(bad)
        assert not report.ok
        assert "module_law" in report.kinds()

    def test_violations_are_reported_in_index_order(self):
        alg = SuperAlgebra(
            dim=2,
            basis_names=("a", "b"),
            parity=(0, 0),
            structure=(((1, 0), (0, 2)), ((0, 2), (0, 0))),
            unit_index=None,
        )
        report = validate_superalgebra(alg)
        indices = [v.indices for v in report.violations]
        assert indices == sorted(indices)

    @pytest.mark.parametrize(
        "structure, parity",
        [
            ((((1, 0), (0, 1)), ((0, 1), (0, 1))), (0, 1)),  # t^2 = t: parity
            ((((1, 0), (0, 2)), ((0, 2), (0, 0))), (0, 0)),  # associativity
            ((((0, 1), (1, 0)), ((1, 0), (0, 1))), (0, 0)),  # neither
        ],
    )
    def test_parity_and_associativity_are_the_self_module_laws(self, structure, parity):
        alg = SuperAlgebra(dim=2, basis_names=("a", "b"), parity=parity, structure=structure, unit_index=None)
        law = {"parity": "parity", "associativity": "module_law"}
        as_algebra = [(law[v.kind], v.indices) for v in validate_superalgebra(alg).violations if v.kind in law]
        as_module = [(v.kind, v.indices) for v in validate_supermodule(self_module(alg)).violations]
        assert as_algebra == as_module

    def test_algebra_validator_builds_no_module(self, monkeypatch):
        def refuse(module, *args, **kwargs):
            raise AssertionError("validate_superalgebra built a SuperModule")

        monkeypatch.setattr(SuperModule, "__init__", refuse)
        assert validate_superalgebra(exterior_algebra(2)).ok

    def test_structure_shape_is_checked_at_construction(self):
        with pytest.raises(ValueError):
            SuperAlgebra(
                dim=2,
                basis_names=("a", "b"),
                parity=(0, 0),
                structure=(((1, 0),),),
                unit_index=None,
            )
