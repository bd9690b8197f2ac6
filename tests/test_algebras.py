"""Tests for algebra construction, validation, and module actions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_tensor
from superharrison.algebras import (
    SuperAlgebra,
    SuperModule,
    Violation,
    _table_from_cells,
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

# Two-dimensional tables as {(i, j): {k: c}}: e_0 is the unit and e_1 e_1 is given.
_CLIFFORD = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}  # t*t = 1
_IDEMPOTENT = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}  # t*t = t
# a*a = a and a*b = b*a = 2b: (aa)b = 2b but a(ab) = 4b.
_NONASSOCIATIVE = {(0, 0): {0: 1}, (0, 1): {1: 2}, (1, 0): {1: 2}}


def table(cells, d0=2, d1=2):
    return _table_from_cells(cells, d0, d1)


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
        with pytest.raises(ValueError, match="1 <= n <= 256, got 257"):
            truncated_polynomial(257)
        assert truncated_polynomial(256).dim == 256

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
        t = dense_tensor(tensor_product(exterior_algebra(1), exterior_algebra(1)).products, 4)
        e2 = dense_tensor(exterior_algebra(2).products, 4)
        relabel = {0: 0, 1: 2, 2: 1, 3: 3}
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert (
                        t[i][j][k]
                        == e2[relabel[i]][relabel[j]][relabel[k]]
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

    def test_self_module_shares_the_algebra_products(self):
        alg = tensor_product(truncated_polynomial(2), exterior_algebra(1))
        assert self_module(alg).action_sparse is alg.products
        assert self_module(alg) == SuperModule(alg, alg.dim, alg.parity, tuple(map(tuple, alg.products)),
                                               basis_names=alg.basis_names)

    def test_wrongly_shaped_action_is_refused_even_when_it_is_the_products(self):
        alg = exterior_algebra(1)
        with pytest.raises(ValueError):
            SuperModule(alg, 1, (0,), alg.products)
        with pytest.raises(ValueError):
            SuperModule(alg, 2, (0, 1), alg.products[:1])


class TestValidators:
    def test_odd_generator_with_nonzero_square_is_flagged(self):
        # t^2 = 1 with t odd violates the sign rule t*t = -t*t.
        clifford = SuperAlgebra(
            dim=2,
            basis_names=("1", "t"),
            parity=(0, 1),
            products=table(_CLIFFORD),
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
            products=table(_IDEMPOTENT),
            unit_index=0,
        )
        kinds = validate_superalgebra(alg).kinds()
        assert "parity" in kinds

    def test_associativity_failure_is_located(self):
        alg = SuperAlgebra(
            dim=2,
            basis_names=("a", "b"),
            parity=(0, 0),
            products=table(_NONASSOCIATIVE),
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
            products=table({(0, 0): {0: 1}}),
            unit_index=0,
        )
        report = validate_superalgebra(alg)
        assert "unit" in report.kinds()

    def test_zero_action_module_without_unit_is_valid(self):
        line = exterior_algebra(1)
        base = SuperAlgebra(line.dim, line.basis_names, line.parity, line.products, unit_index=None)
        mod = SuperModule(
            algebra=base,
            dim=2,
            parity=(0, 1),
            action_sparse=table({}),
        )
        assert validate_supermodule(mod).ok

    def test_zero_action_module_with_unit_fails_unit_law(self):
        mod = SuperModule(
            algebra=exterior_algebra(1),
            dim=2,
            parity=(0, 1),
            action_sparse=table({}),
        )
        report = validate_supermodule(mod)
        assert not report.ok
        assert "unit" in report.kinds()

    def test_perturbed_self_action_breaks_the_module_law(self):
        mod = self_module(exterior_algebra(1))
        # Make t1 act as the identity instead of multiplication by t1.
        bad = SuperModule(
            mod.algebra, mod.dim, mod.parity, action_sparse=table(_CLIFFORD), basis_names=mod.basis_names
        )
        report = validate_supermodule(bad)
        assert not report.ok
        assert "module_law" in report.kinds()

    def test_violations_are_reported_in_index_order(self):
        alg = SuperAlgebra(
            dim=2,
            basis_names=("a", "b"),
            parity=(0, 0),
            products=table(_NONASSOCIATIVE),
            unit_index=None,
        )
        report = validate_superalgebra(alg)
        indices = [v.indices for v in report.violations]
        assert indices == sorted(indices)

    @pytest.mark.parametrize(
        "cells, parity",
        [
            (_IDEMPOTENT, (0, 1)),  # t^2 = t: parity
            (_NONASSOCIATIVE, (0, 0)),  # associativity
            ({(0, 0): {1: 1}, (0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {1: 1}}, (0, 0)),  # neither
        ],
    )
    def test_parity_and_associativity_are_the_self_module_laws(self, cells, parity):
        alg = SuperAlgebra(dim=2, basis_names=("a", "b"), parity=parity, products=table(cells), unit_index=None)
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
                products=((((0, 1),),),),
                unit_index=None,
            )


# The dense reference: the validators as they were before they went sparse,
# looping over every (i, j, k) triple and reading the dense tensors.  Their
# violation lists, message text included, are the contract the sparse
# checker keeps.


def _sparse_rows(tensor):
    return [[[(l, c) for l, c in enumerate(row) if c] for row in plane] for plane in tensor]


def _dense_parity_violations(a_par, tensor, x_par, x):
    out = []
    for i, plane in enumerate(tensor):
        for k, row in enumerate(plane):
            target = (a_par[i] + x_par[k]) % 2
            for l, c in enumerate(row):
                if c and x_par[l] != target:
                    out.append(
                        Violation("parity", (i, k, l), f"e{i}*{x}{k} hits {x}{l} of parity {x_par[l]}, expected {target}")
                    )
    return out


def _dense_action_law_violations(products, table, x, kind):
    out = []
    for i, plane in enumerate(products):
        for j, prod in enumerate(plane):
            for k in range(len(table[0])):
                lhs = {}
                for mid, coeff in prod:
                    for l, c2 in table[mid][k]:
                        lhs[l] = lhs.get(l, 0) + coeff * c2
                rhs = {}
                for mid, coeff in table[j][k]:
                    for l, c2 in table[i][mid]:
                        rhs[l] = rhs.get(l, 0) + coeff * c2
                for l in sorted(set(lhs) | set(rhs)):
                    if lhs.get(l, 0) != rhs.get(l, 0):
                        out.append(
                            Violation(
                                kind,
                                (i, j, k),
                                f"(e{i}e{j}){x}{k} and e{i}(e{j}{x}{k}) differ at {x}{l}: "
                                f"{lhs.get(l, 0)} vs {rhs.get(l, 0)}",
                            )
                        )
                        break
    return out


def dense_algebra_violations(algebra):
    dim, par, c = algebra.dim, algebra.parity, dense_tensor(algebra.products, algebra.dim)
    products = _sparse_rows(c)
    violations = _dense_parity_violations(par, c, par, "e")
    for i in range(dim):
        for j in range(dim):
            sign = -1 if par[i] and par[j] else 1
            for k in range(dim):
                if c[j][i][k] != sign * c[i][j][k]:
                    violations.append(
                        Violation(
                            "supercommutativity",
                            (i, j, k),
                            f"coefficient of e{k}: e{j}*e{i} = {c[j][i][k]}, expected {sign * c[i][j][k]}",
                        )
                    )
    violations += _dense_action_law_violations(products, products, "e", "associativity")
    if algebra.unit_index is not None:
        u = algebra.unit_index
        if par[u] != 0:
            violations.append(Violation("unit", (u,), "unit element must be even"))
        for i in range(dim):
            for k in range(dim):
                want = 1 if k == i else 0
                if c[u][i][k] != want:
                    violations.append(Violation("unit", (u, i, k), f"e_unit*e{i} is not e{i}"))
                if c[i][u][k] != want:
                    violations.append(Violation("unit", (i, u, k), f"e{i}*e_unit is not e{i}"))
    return tuple(violations)


def dense_module_violations(module):
    algebra, a = module.algebra, dense_tensor(module.action_sparse, module.dim)
    violations = _dense_parity_violations(algebra.parity, a, module.parity, "m")
    violations += _dense_action_law_violations(
        _sparse_rows(dense_tensor(algebra.products, algebra.dim)), _sparse_rows(a), "m", "module_law"
    )
    if algebra.unit_index is not None:
        u = algebra.unit_index
        for k in range(module.dim):
            for l in range(module.dim):
                if a[u][k][l] != (1 if l == k else 0):
                    violations.append(Violation("unit", (u, k, l), f"e_unit*m{k} is not m{k}"))
    return tuple(violations)


_VALID_BASES = (
    exterior_algebra(1),
    exterior_algebra(2),
    truncated_polynomial(2),
    truncated_polynomial(3),
    tensor_product(truncated_polynomial(2), exterior_algebra(1)),
)
_constants = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)),
)


def _perturbed(draw, products, shape):
    """The table ``products`` with up to three cells set to drawn constants."""
    cells = {(i, j): dict(row) for i, plane in enumerate(products) for j, row in enumerate(plane)}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j, k = (draw(st.integers(min_value=0, max_value=n - 1)) for n in shape)
        cells.setdefault((i, j), {})[k] = draw(_constants)
    return _table_from_cells(cells, shape[0], shape[1])


@st.composite
def perturbed_algebras(draw):
    """A valid corpus algebra or a zero product, with a few cells changed; unital or not."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(_VALID_BASES))
        dim, parity, products = base.dim, base.parity, base.products
        unit = draw(st.sampled_from((base.unit_index, None)))
    else:
        dim = draw(st.integers(min_value=1, max_value=4))
        parity = tuple(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
        products = ()
        unit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=dim - 1)))
    products = _perturbed(draw, products, (dim,) * 3)
    return SuperAlgebra(dim, tuple(f"b{i}" for i in range(dim)), parity, products, unit_index=unit)


@st.composite
def perturbed_modules(draw):
    """The self-action or a zero action of any module dimension, with a few cells changed."""
    algebra = draw(perturbed_algebras())
    if draw(st.booleans()):
        dim, parity, action = algebra.dim, algebra.parity, algebra.products
    else:
        dim = draw(st.integers(min_value=1, max_value=4))
        parity = tuple(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
        action = ()
    action = _perturbed(draw, action, (algebra.dim, dim, dim))
    return SuperModule(algebra, dim, parity, action)


class TestSparseValidators:
    @given(perturbed_algebras())
    @settings(max_examples=300, deadline=None)
    def test_algebra_violations_match_the_dense_reference(self, algebra):
        assert validate_superalgebra(algebra).violations == dense_algebra_violations(algebra)

    @given(perturbed_modules())
    @settings(max_examples=300, deadline=None)
    def test_module_violations_match_the_dense_reference(self, module):
        assert validate_supermodule(module).violations == dense_module_violations(module)

    def test_self_module_of_a_perturbed_algebra_matches_the_dense_reference(self):
        # The self-module shares the algebra's sparse table: a broken
        # algebra must be reported as the dense loops report it.
        half = Fraction(1, 2)
        # b*b = b breaks parity; (aa)b = b/2 but a(ab) = b/4.
        alg = SuperAlgebra(
            2, ("a", "b"), (0, 1), table({(0, 0): {0: 1}, (0, 1): {1: half}, (1, 0): {1: half}, (1, 1): {1: 1}})
        )
        mod = self_module(alg)
        assert mod.action_sparse is alg.products
        assert validate_supermodule(mod).violations == dense_module_violations(mod)
        assert {v.kind for v in dense_module_violations(mod)} == {"parity", "module_law"}

    def test_exterior_six_and_its_self_module_validate_clean(self):
        alg = exterior_algebra(6)
        mod = self_module(alg)
        assert mod.action_sparse is alg.products
        assert validate_superalgebra(alg).ok
        assert validate_supermodule(mod).ok
