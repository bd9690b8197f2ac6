"""Tests for coboundary matrices, cohomology dimensions, and derivations."""

from __future__ import annotations

import gc
import sys
import weakref

import pytest
from classical_oracle import rank_mod_p
from conftest import dense_tensor, ground_field, harrison_basis, parity_shift, reference_coboundary_matrix
from hypothesis import given, settings
from test_algebras import perturbed_modules

from superharrison.algebras import (
    SuperModule,
    exterior_algebra,
    self_module,
    tensor_product,
    truncated_polynomial,
    validate_supermodule,
)
from superharrison.cochains import (
    Cochain,
    coboundary_scatter,
    cochain_from_entries,
    encode,
    harrison_space,
    hochschild_coboundary,
    parity_count,
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
from superharrison.linalg import (
    RationalMatrix,
    SubspaceBasis,
    image_basis,
    kernel_basis,
)

HOCH = ComplexKind.HOCHSCHILD
HARR = ComplexKind.SUPER_HARRISON


def forbid_parity_tables(monkeypatch):
    """Make every ``parity_offsets`` the Harrison path can reach raise."""

    def built(*args):
        raise AssertionError("a parity table was built")

    for name in ("cochains", "cohomology"):
        monkeypatch.setattr(sys.modules[f"superharrison.{name}"], "parity_offsets", built)


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
        m = coboundary_matrix(Complex(self_module(k), HOCH), 1)
        assert m.entries == ((1,),)

    def test_degree_zero_of_an_exterior_line_is_zero(self):
        alg = exterior_algebra(1)
        m = coboundary_matrix(Complex(self_module(alg), HARR), 0)
        assert (m.rows, m.cols) == (2, 1)
        assert m.is_zero()

    def test_consecutive_matrices_compose_to_zero(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for kind in (HOCH, HARR):
            for degree in (0, 1, 2):
                outer = coboundary_matrix(Complex(mod, kind), degree + 1)
                inner = coboundary_matrix(Complex(mod, kind), degree)
                assert outer.matmul(inner).is_zero(), (kind, degree)

    def test_matrix_columns_are_boundaries_of_basis_cochains(self):
        alg = exterior_algebra(1)
        mod = self_module(alg)
        matrix = coboundary_matrix(Complex(mod, HOCH), 1)
        basis = [cochain_from_entries(mod, 1, {((i,), l): 1}) for i in range(alg.dim) for l in range(mod.dim)]
        for col, f in enumerate(basis):
            df = hochschild_coboundary(f)
            column = tuple(matrix.entries[r][col] for r in range(matrix.rows))
            assert column == tuple(df.data.get(o, 0) for o in range(matrix.rows))

    def test_symmetric_basis_boundaries_expand_consistently(self):
        # Each symmetric-complex column holds coordinates in the canonical
        # degree-3 basis; expanding them must recover the full operator.
        alg = exterior_algebra(2)
        mod = self_module(alg)
        matrix = coboundary_matrix(Complex(mod, HARR), 2)
        domain = harrison_space(mod, 2)
        codomain = harrison_space(mod, 3)
        assert matrix.rows == codomain.dim
        for col, row in enumerate(domain.rows):
            f = Cochain(2, mod, row)
            expanded = hochschild_coboundary(f)
            column = tuple(matrix.entries[r][col] for r in range(matrix.rows))
            assert codomain.coordinates(expanded.data) == column

    @pytest.mark.parametrize("kind", [HOCH, HARR])
    def test_matrix_equals_the_expansion_in_the_built_codomain(self, corpus_algebra, kind):
        # d_n reads each image at the pivots of S_{n+1} without building it;
        # the reference builds S_{n+1} and expands every column in it.
        mod = self_module(corpus_algebra)
        for degree in range(4):
            assert coboundary_matrix(Complex(mod, kind), degree) == reference_coboundary_matrix(Complex(mod, kind), degree)

    def test_cochain_basis_counts(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        assert coboundary_matrix(Complex(mod, HOCH), 2).cols == 64
        assert parity_count(mod, 2) == 32
        assert len(harrison_basis(mod, 2)) == 16


class TestDimensions:
    def test_pinned_symmetric_complex_table(self, corpus_named):
        name, alg = corpus_named
        mod = self_module(alg)
        for degree, expected in SYMMETRIC_TABLE[name].items():
            res = cohomology(Complex(mod, HARR), degree)
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
                res = cohomology(Complex(mod, kind), degree)
                out = coboundary_matrix(Complex(mod, kind), degree)
                assert res.dim_cocycles + image_basis(out).dim == res.dim_cochain
                assert (
                    res.dim_cohomology
                    == res.dim_cocycles - res.dim_coboundaries
                )

    @pytest.mark.parametrize("kind", [HOCH, HARR])
    def test_kernels_match_a_rank_computed_apart_from_linalg(self, corpus_algebra, kind):
        # rank(d_n) is bounded above by an exact kernel whose every row z
        # gives d_n z = 0, and below by the rank mod a prime.
        cx = Complex(self_module(corpus_algebra), kind)
        for degree in range(4):
            d = coboundary_matrix(cx, degree)
            kernel = kernel_basis(d)
            assert rank_mod_p(d.data) == d.cols - kernel.dim, degree
            for z in kernel.rows:
                assert not any(sum(x * z[c] for c, x in row.items() if c in z) for row in d.data), degree

    @pytest.mark.parametrize(
        "kind, expected",
        [(HOCH, (4096, 479, 439, 40)), (HARR, (672, 108, 108, 0))],
    )
    def test_exterior_three_at_degree_three(self, kind, expected):
        # exterior(3) is free supercommutative, so Harr^3 = 0 (ROADMAP item 4b);
        # both rows agree with the dense elimination this layer replaced.
        alg = exterior_algebra(3)
        res = cohomology(Complex(self_module(alg), kind, ResourceLimits(max_degree=5, max_columns=40000)), 3)
        got = (res.dim_cochain, res.dim_cocycles, res.dim_coboundaries, res.dim_cohomology)
        assert got == expected
        assert len(res.representatives) == expected[3]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_truncated_polynomial_closed_forms(self, m):
        # k[x]/(x^m): Harr^n = (m, m-1, m-1, 0), HH^0 = m and HH^n = m-1 for n >= 1.
        mod = self_module(truncated_polynomial(m))
        harrison, hochschild = Complex(mod, HARR), Complex(mod, HOCH)
        assert [cohomology(harrison, n).dim_cohomology for n in range(4)] == [m, m - 1, m - 1, 0]
        assert [cohomology(hochschild, n).dim_cohomology for n in range(4)] == [m, m - 1, m - 1, m - 1]

    @pytest.mark.parametrize("k", range(1, 4))
    def test_exterior_closed_forms(self, k):
        # exterior(k): Harr^0 = 2^(k-1), Harr^1 = k 2^(k-1), and Harr^n = 0 for n >= 2.
        harrison = Complex(self_module(exterior_algebra(k)), HARR)
        assert [cohomology(harrison, n).dim_cohomology for n in range(4)] == [2 ** (k - 1), k * 2 ** (k - 1), 0, 0]

    @pytest.mark.parametrize("a, b, top", [(2, 2, 3), (2, 3, 3), (3, 3, 2), (2, 4, 2)])
    def test_even_tensor_product_closed_forms(self, a, b, top):
        # For even A and B: HH obeys Kunneth, HH^n(A(x)B) = sum_{i+j=n} HH^i(A) HH^j(B),
        # and Harr^n(A(x)B) = Harr^n(A) dim B + dim A Harr^n(B) for n >= 1.
        factors = truncated_polynomial(a), truncated_polynomial(b)
        algebras = (*factors, tensor_product(*factors))

        def dims(alg, kind):
            cx = Complex(self_module(alg), kind)
            return [cohomology(cx, n).dim_cohomology for n in range(top + 1)]

        (hh_a, hh_b, hh), (harr_a, harr_b, harr) = ([dims(alg, kind) for alg in algebras] for kind in (HOCH, HARR))
        assert hh == [sum(hh_a[i] * hh_b[n - i] for i in range(n + 1)) for n in range(top + 1)]
        assert harr[1:] == [harr_a[n] * b + a * harr_b[n] for n in range(1, top + 1)]

    @pytest.mark.parametrize(
        "left, right, expected",
        [
            (exterior_algebra(1), exterior_algebra(1), (4, 0, 0)),
            (truncated_polynomial(2), exterior_algebra(1), (3, 1, 0)),
            (truncated_polynomial(3), exterior_algebra(1), (5, 2, 0)),
            (exterior_algebra(1), exterior_algebra(2), (12, 0)),
            (truncated_polynomial(2), exterior_algebra(2), (10, 2)),
            (exterior_algebra(2), exterior_algebra(1), (12, 0)),
        ],
        ids=["ext1-ext1", "tp2-ext1", "tp3-ext1", "ext1-ext2", "tp2-ext2", "ext2-ext1"],
    )
    def test_odd_tensor_product_closed_forms(self, left, right, expected):
        # Cochains preserve parity, so the odd part of Harr^n(A) is Harr^n(A, PiA).  For n >= 1,
        # Harr^n(A(x)B) = E_A B_0 + O_A B_1 + A_0 E_B + A_1 O_B, with E = Harr^n(., .), O = Harr^n(., Pi.),
        # and X_0, X_1 the even and odd dimensions of X.
        degrees = range(1, len(expected) + 1)

        def harr(module):
            cx = Complex(module, HARR)
            return [cohomology(cx, n).dim_cohomology for n in degrees]

        assert harr(self_module(tensor_product(left, right))) == list(expected)
        (e_a, o_a), (e_b, o_b) = ((harr(self_module(x)), harr(parity_shift(x))) for x in (left, right))
        (a0, a1), (b0, b1) = ((x.parity.count(0), x.parity.count(1)) for x in (left, right))
        assert list(expected) == [e_a[i] * b0 + o_a[i] * b1 + a0 * e_b[i] + a1 * o_b[i] for i in range(len(expected))]

    def test_parity_shift_is_a_supermodule(self, corpus_algebra):
        assert validate_supermodule(parity_shift(corpus_algebra)).ok

    def test_degree_zero_cocycles_are_the_even_block(self, corpus_algebra):
        # Even elements commute with everything in a supercommutative
        # algebra, so the degree-0 symmetric cohomology is the even part.
        mod = self_module(corpus_algebra)
        res = cohomology(Complex(mod, HARR), 0)
        even = sum(1 for p in corpus_algebra.parity if p == 0)
        assert res.dim_cohomology == even

    def test_hochschild_and_symmetric_agree_at_low_degree(
        self, corpus_algebra
    ):
        # Degree 1 imposes no shuffle condition beyond parity, so the two
        # complexes share cocycles there once parity is accounted for.
        mod = self_module(corpus_algebra)
        sym = cohomology(Complex(mod, HARR), 1)
        full = kernel_basis(coboundary_matrix(Complex(mod, HOCH), 1))
        sym_cocycles = kernel_basis(
            coboundary_matrix(Complex(mod, HARR), 1)
        )
        # Kernel coordinates index the degree-1 Harrison basis.
        space = harrison_space(mod, 1)
        for row in sym_cocycles.rows:
            f = Cochain(1, mod, space.combination(row))
            assert full.contains(f.data)
        assert sym.dim_cocycles <= full.dim


def dense_derivation_space(algebra, module):
    """The Leibniz system with one dense row per (i, j, l2), over flat degree-1 offsets.

    Unknown (i, l) is the value of f(e_i) on m_l, at offset ``encode((i,), l)``;
    the unknowns that are not parity-consistent get a row pinning them to zero.
    """
    width = algebra.dim * module.dim

    def col(i, l):
        return encode((i,), l, algebra.dim, module.dim)

    rows = [
        [1 if c == col(i, l) else 0 for c in range(width)]
        for i in range(algebra.dim)
        for l in range(module.dim)
        if algebra.parity[i] != module.parity[l]
    ]
    c = dense_tensor(algebra.products, algebra.dim)
    action = dense_tensor(module.action_sparse, module.dim)
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            for l2 in range(module.dim):
                row = [0] * width
                for k in range(algebra.dim):
                    row[col(k, l2)] += c[i][j][k]
                for l in range(module.dim):
                    row[col(j, l)] -= action[i][l][l2]
                    sign = -1 if algebra.parity[j] and module.parity[l] else 1
                    row[col(i, l)] -= sign * action[j][l][l2]
                if any(row):
                    rows.append(row)
    return kernel_basis(RationalMatrix.from_rows(rows, cols=width))


def harrison_cocycles_over_offsets(algebra, module):
    """Harrison Z^1 over flat offsets: the degree-1 Harrison rows killed by the coboundary.

    The kernel is taken in Harrison coordinates and expanded by
    ``harrison_space(algebra, module, 1).combination``.  The coboundary is
    read in the full degree-2 space, so it does not rely on closure, which
    a perturbed module that breaks a law need not have.
    """
    space = harrison_space(module, 1)
    images = [coboundary_scatter(module, 1, row) for row in space.rows]
    z1 = kernel_basis(RationalMatrix.from_columns(images, rows=algebra.dim**2 * module.dim))
    return SubspaceBasis.from_vectors((space.combination(row) for row in z1.rows), space.ambient_dim)


class TestDerivations:
    def test_sparse_system_matches_the_dense_reference(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        assert derivation_space(mod) == dense_derivation_space(corpus_algebra, mod)

    @given(perturbed_modules())
    @settings(max_examples=150, deadline=None)
    def test_perturbed_algebras_and_modules_match_the_dense_reference(self, module):
        # Broken laws and module dimensions other than dim A included.
        assert derivation_space(module) == dense_derivation_space(module.algebra, module)

    def test_degree_one_cocycles_are_exactly_the_derivations(
        self, corpus_algebra
    ):
        mod = self_module(corpus_algebra)
        z1 = kernel_basis(coboundary_matrix(Complex(mod, HARR), 1))
        space = harrison_space(mod, 1)
        cocycles = SubspaceBasis.from_vectors((space.combination(row) for row in z1.rows), space.ambient_dim)
        derivations = derivation_space(mod)
        assert derivations.ambient_dim == space.ambient_dim
        assert cocycles == derivations
        assert cocycles == harrison_cocycles_over_offsets(corpus_algebra, mod)

    @given(perturbed_modules())
    @settings(max_examples=100, deadline=None)
    def test_perturbed_modules_derivations_are_the_harrison_cocycles(self, module):
        derivations = derivation_space(module)
        assert derivations.ambient_dim == harrison_space(module, 1).ambient_dim
        assert derivations == harrison_cocycles_over_offsets(module.algebra, module)

    def test_exterior_line_derivations_are_scalings(self):
        # Offset 3 is the entry (t, l) = ((1,), 1): x -> x.
        alg = exterior_algebra(1)
        der = derivation_space(self_module(alg))
        assert der.rows == ({3: 1},)

    def test_square_truncation_kills_constant_shifts(self):
        # For x with x^2 = 0 the only derivations scale x; sending x to 1
        # violates the product rule.
        alg = exterior_algebra(1)
        mod = self_module(alg)
        skew = cochain_from_entries(mod, 1, {((1,), 0): 1})
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
                res = cohomology(Complex(mod, kind), degree)
                assert len(res.representatives) == res.dim_cohomology
                boundaries = image_basis(
                    coboundary_matrix(Complex(mod, kind), degree - 1)
                )
                for rep in res.representatives:
                    assert hochschild_coboundary(rep).is_zero()
                    if kind is HARR:
                        assert rep.parity_preserving
                        if degree == 2:
                            assert super_shuffle_sum(rep, 1).is_zero()
                # Joint independence: boundaries plus representatives
                # stack without collapsing.  The matrix image lives in
                # canonical-basis coordinates for the symmetric complex
                # and flat coordinates for the full one.
                rep_coords = []
                for rep in res.representatives:
                    if kind is HARR:
                        space = harrison_space(mod, degree)
                        coords = space.coordinates(rep.data)
                        assert coords is not None
                        rep_coords.append(coords)
                    else:
                        rep_coords.append(rep.data)
                joined = SubspaceBasis.from_vectors(
                    list(boundaries.rows) + rep_coords,
                    boundaries.ambient_dim,
                )
                assert joined.dim == boundaries.dim + len(rep_coords)

    @pytest.mark.parametrize("kind", [HOCH, HARR])
    def test_a_representative_that_is_no_cocycle_is_named(self, kind, monkeypatch):
        # Hand back every basis cochain as a representative; the first,
        # f(1) = 1, has df(1, 1) = 1 - 1 + 1 = 1.
        def every_basis_cochain(space, subspace):
            return SubspaceBasis(space.ambient_dim, tuple({i: 1} for i in range(space.ambient_dim)))

        monkeypatch.setattr(sys.modules["superharrison.cohomology"], "quotient_representatives", every_basis_cochain)
        alg = exterior_algebra(1)
        with pytest.raises(AssertionError) as info:
            cohomology(Complex(self_module(alg), kind), 1)
        assert str(info.value) == (
            f"{kind.value} representative 0 in degree 1 is not a cocycle: "
            "its coboundary is nonzero at entry (t, l) = ((0, 0), 0), that is (1, 1) -> 1"
        )

    def test_euler_class_generates_first_cohomology_of_the_line(self):
        alg = exterior_algebra(1)
        res = cohomology(Complex(self_module(alg), HARR), 1)
        assert res.dim_cohomology == 1
        assert sorted(res.representatives[0].iter_nonzero()) == [((1,), 1, 1)]

    def test_square_zero_class_on_the_odd_line_is_purely_hochschild(self):
        # The full complex sees a degree-2 class on the odd line that the
        # symmetric complex kills: the square-zero relation deforms to a
        # nonzero square only through a graded-antisymmetric cochain.
        alg = exterior_algebra(1)
        mod = self_module(alg)
        sym = cohomology(Complex(mod, HARR), 2)
        full = cohomology(Complex(mod, HOCH), 2)
        assert sym.dim_cohomology == 0
        assert full.dim_cohomology == 1
        clifford = cochain_from_entries(mod, 2, {((1, 1), 0): 1})
        assert hochschild_coboundary(clifford).is_zero()
        boundaries = image_basis(coboundary_matrix(Complex(mod, HOCH), 1))
        assert not boundaries.contains(clifford.data)

    def test_results_are_deterministic(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        first = cohomology(Complex(mod, HARR), 2)
        second = cohomology(Complex(mod, HARR), 2)
        assert first == second
        assert [list(r.iter_nonzero()) for r in first.representatives] == [
            list(r.iter_nonzero()) for r in second.representatives
        ]


class TestResourceLimits:
    def test_degree_ceiling(self):
        alg = exterior_algebra(1)
        with pytest.raises(ResourceCeilingError):
            cohomology(Complex(self_module(alg), HARR), 9)

    def test_column_ceiling(self):
        alg = exterior_algebra(2)
        limits = ResourceLimits(max_degree=4, max_columns=5)
        with pytest.raises(ResourceCeilingError):
            cohomology(Complex(self_module(alg), HOCH, limits), 2)

    def test_relaxed_limits_allow_the_same_computation(self):
        alg = exterior_algebra(1)
        limits = ResourceLimits(max_degree=4, max_columns=100)
        res = cohomology(Complex(self_module(alg), HARR, limits), 2)
        assert res.dim_cohomology == 0

    def test_error_message_names_the_ceiling(self):
        alg = exterior_algebra(1)
        with pytest.raises(ResourceCeilingError, match="ceiling"):
            cohomology(Complex(self_module(alg), HARR), 8)

    def test_harrison_cohomology_builds_no_parity_table(self, monkeypatch):
        forbid_parity_tables(monkeypatch)
        alg = exterior_algebra(2)
        mod = self_module(alg)
        for degree in (1, 2, 3):
            cohomology(Complex(mod, HARR), degree)

    def test_oversized_harrison_request_builds_no_parity_table(self, monkeypatch):
        forbid_parity_tables(monkeypatch)
        alg = exterior_algebra(6)
        mod = self_module(alg)
        with pytest.raises(ResourceCeilingError, match="dimension 8388608 exceeds the ceiling 20000"):
            cohomology(Complex(mod, HARR), 3)

    def test_oversized_harrison_request_enumerates_no_word(self, monkeypatch):
        # The refusal counts parity entries in closed form; no Lyndon word is generated first.
        def enumerated(*args):
            raise AssertionError("a Lyndon word was enumerated before the ceilings were checked")

        monkeypatch.setattr(sys.modules["superharrison.cochains"], "_lyndon_words", enumerated)
        with pytest.raises(ResourceCeilingError, match="dimension 8388608 exceeds the ceiling 20000"):
            cohomology(Complex(self_module(exterior_algebra(6)), HARR), 3)

    @pytest.mark.parametrize("kind", [HOCH, HARR])
    @pytest.mark.parametrize("degree, limits", [(3, ResourceLimits(max_degree=3)), (2, ResourceLimits(max_columns=5))])
    def test_a_refused_degree_builds_nothing(self, monkeypatch, kind, degree, limits):
        def built(*args):
            raise AssertionError("built before the ceilings were checked")

        for name in ("harrison_space", "harrison_pivots", "coboundary_scatter"):
            monkeypatch.setattr(sys.modules["superharrison.cohomology"], name, built)
        alg = exterior_algebra(2)
        with pytest.raises(ResourceCeilingError):
            cohomology(Complex(self_module(alg), kind, limits), degree)


class TestComplex:
    """A complex builds each space and matrix once and frees them with itself."""

    @pytest.mark.parametrize("kind", [HOCH, HARR])
    def test_each_matrix_and_space_is_built_once(self, kind):
        alg = exterior_algebra(2)
        cx = Complex(self_module(alg), kind)
        for n in (0, 1, 2):
            assert coboundary_matrix(cx, n) is coboundary_matrix(cx, n)
            assert cx.space(n) is cx.space(n)
        assert (cx.space(2) is None) == (kind is HOCH)

    def test_the_module_alone_names_a_complex_over_another_module(self):
        # k = k[x]/(x^2) / (x), one even element on which x acts by zero: Harr(A, k) = (1, 1, 1).
        mod = SuperModule(truncated_polynomial(2), 1, (0,), ((((0, 1),),), ((),)), basis_names=("v",))
        cx = Complex(mod, HARR)
        assert (Complex._fields, Cochain._fields) == (("module", "kind", "limits"), ("degree", "module", "data"))
        assert cx.algebra is mod.algebra
        results = [cohomology(cx, n) for n in range(3)]
        assert [res.dim_cohomology for res in results] == [1, 1, 1]
        assert all(rep.module is mod for res in results for rep in res.representatives)

    def test_spaces_and_matrices_die_with_the_complex(self):
        alg = exterior_algebra(2)
        cx = Complex(self_module(alg), HARR)
        cohomology(cx, 2)
        refs = [weakref.ref(coboundary_matrix(cx, 1)), weakref.ref(cx.space(2))]
        del cx
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestSignConvention:
    """Parity-reversing Hochschild cochains take the ungraded first-term sign.

    So the odd line exterior(1) reproduces the ungraded k[t]/(t^2), and
    HH^0 of exterior(3) counts all 5 of 1, t1t2, t1t3, t2t3 and t1t2t3,
    which is more than the 4 even basis elements.
    """

    def test_odd_line_matches_the_ungraded_dual_numbers(self):
        alg = exterior_algebra(1)
        dims = [cohomology(Complex(self_module(alg), HOCH), n).dim_cohomology for n in range(4)]
        assert dims == [2, 1, 1, 1]

    def test_exterior_three_degree_zero_exceeds_the_even_part(self):
        alg = exterior_algebra(3)
        assert cohomology(Complex(self_module(alg), HOCH), 0).dim_cohomology == 5
