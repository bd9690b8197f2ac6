"""Tests for coboundary matrices, cohomology dimensions, and derivations."""

from __future__ import annotations

import gc
import sys
import weakref

import pytest
from conftest import BAD_FILES, dense_tensor
from hypothesis import given, settings
from test_algebras import perturbed_modules

from superharrison.algebras import (
    exterior_algebra,
    ground_field,
    self_module,
)
from superharrison.cochains import (
    Cochain,
    coboundary_scatter,
    cochain_from_entries,
    encode,
    harrison_basis,
    harrison_space,
    hochschild_coboundary,
    is_graded_symmetric,
    parity_count,
)
from superharrison.cohomology import (
    Complex,
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
        m = coboundary_matrix(Complex(k, self_module(k), HOCH), 1)
        assert m.entries == ((1,),)

    def test_degree_zero_of_an_exterior_line_is_zero(self):
        alg = exterior_algebra(1)
        m = coboundary_matrix(Complex(alg, self_module(alg), HARR), 0)
        assert (m.rows, m.cols) == (2, 1)
        assert m.is_zero()

    def test_consecutive_matrices_compose_to_zero(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        for kind in (HOCH, HARR):
            for degree in (0, 1, 2):
                outer = coboundary_matrix(Complex(corpus_algebra, mod, kind), degree + 1)
                inner = coboundary_matrix(Complex(corpus_algebra, mod, kind), degree)
                assert outer.matmul(inner).is_zero(), (kind, degree)

    def test_matrix_columns_are_boundaries_of_basis_cochains(self):
        alg = exterior_algebra(1)
        mod = self_module(alg)
        matrix = coboundary_matrix(Complex(alg, mod, HOCH), 1)
        basis = [cochain_from_entries(alg, mod, 1, {((i,), l): 1}) for i in range(alg.dim) for l in range(mod.dim)]
        for col, f in enumerate(basis):
            df = hochschild_coboundary(f)
            column = tuple(matrix.entries[r][col] for r in range(matrix.rows))
            assert column == tuple(df.data.get(o, 0) for o in range(matrix.rows))

    def test_symmetric_basis_boundaries_expand_consistently(self):
        # Each symmetric-complex column holds coordinates in the canonical
        # degree-3 basis; expanding them must recover the full operator.
        alg = exterior_algebra(2)
        mod = self_module(alg)
        matrix = coboundary_matrix(Complex(alg, mod, HARR), 2)
        domain = harrison_space(alg, mod, 2)
        codomain = harrison_space(alg, mod, 3)
        assert matrix.rows == codomain.dim
        for col, row in enumerate(domain.rows):
            f = Cochain(2, alg, mod, row)
            expanded = hochschild_coboundary(f)
            column = tuple(matrix.entries[r][col] for r in range(matrix.rows))
            assert codomain.coordinates(expanded.data) == column

    @pytest.mark.parametrize(
        "name, failure",
        [("parity.json", "parity-violating entry"), ("clifford.json", "fails a shuffle condition")],
    )
    def test_harrison_columns_are_checked_for_closure(self, name, failure):
        # Over a broken algebra d leaves the Harrison space; the column
        # assembly says how instead of projecting the column back, naming
        # the basis row, the first offending entry and the failing p.
        cause = {
            # f(1) = x gives df(1, x) = f(1) x = x x = y, odd on even arguments.
            "parity.json": "row 1 in degree 1 has a parity-violating entry (t, l) = ((0, 1), 2), that is (1, x) -> y",
            # f(1) = 1 gives df(t, t) = -f(t t) = -1, and su_{2,1} doubles it.
            "clifford.json": "row 0 in degree 1 fails a shuffle condition: "
            "su_{2,1} is nonzero at entry (t, l) = ((1, 1), 0), that is (t, t) -> 1",
        }[name]
        alg = algebra_from_dict(BAD_FILES[name])
        with pytest.raises(ShuffleClosureError, match=failure) as info:
            coboundary_matrix(Complex(alg, self_module(alg), HARR), 1)
        assert cause in str(info.value)

    def test_cochain_basis_counts(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        assert coboundary_matrix(Complex(alg, mod, HOCH), 2).cols == 64
        assert parity_count(alg, mod, 2) == 32
        assert len(harrison_basis(alg, mod, 2)) == 16


class TestDimensions:
    def test_pinned_symmetric_complex_table(self, corpus_named):
        name, alg = corpus_named
        mod = self_module(alg)
        for degree, expected in SYMMETRIC_TABLE[name].items():
            res = cohomology(Complex(alg, mod, HARR), degree)
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
                res = cohomology(Complex(corpus_algebra, mod, kind), degree)
                out = coboundary_matrix(Complex(corpus_algebra, mod, kind), degree)
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
        res = cohomology(Complex(alg, self_module(alg), kind, ResourceLimits(max_degree=5, max_columns=40000)), 3)
        got = (res.dim_cochain, res.dim_cocycles, res.dim_coboundaries, res.dim_cohomology)
        assert got == expected
        assert len(res.representatives) == expected[3]

    def test_degree_zero_cocycles_are_the_even_block(self, corpus_algebra):
        # Even elements commute with everything in a supercommutative
        # algebra, so the degree-0 symmetric cohomology is the even part.
        mod = self_module(corpus_algebra)
        res = cohomology(Complex(corpus_algebra, mod, HARR), 0)
        even = sum(1 for p in corpus_algebra.parity if p == 0)
        assert res.dim_cohomology == even

    def test_hochschild_and_symmetric_agree_at_low_degree(
        self, corpus_algebra
    ):
        # Degree 1 imposes no shuffle condition beyond parity, so the two
        # complexes share cocycles there once parity is accounted for.
        mod = self_module(corpus_algebra)
        sym = cohomology(Complex(corpus_algebra, mod, HARR), 1)
        full = kernel_basis(coboundary_matrix(Complex(corpus_algebra, mod, HOCH), 1))
        sym_cocycles = kernel_basis(
            coboundary_matrix(Complex(corpus_algebra, mod, HARR), 1)
        )
        # Kernel coordinates index the degree-1 Harrison basis.
        space = harrison_space(corpus_algebra, mod, 1)
        for row in sym_cocycles.rows:
            f = Cochain(1, corpus_algebra, mod, space.combination(row))
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
    read in the full degree-2 space, so no closure check gets in the way
    when a perturbed module breaks a law.
    """
    space = harrison_space(algebra, module, 1)
    images = [coboundary_scatter(algebra, module, 1, row) for row in space.rows]
    z1 = kernel_basis(RationalMatrix.from_columns(images, rows=algebra.dim**2 * module.dim))
    return SubspaceBasis.from_vectors((space.combination(row) for row in z1.rows), space.ambient_dim)


class TestDerivations:
    def test_sparse_system_matches_the_dense_reference(self, corpus_algebra):
        mod = self_module(corpus_algebra)
        assert derivation_space(corpus_algebra, mod) == dense_derivation_space(corpus_algebra, mod)

    @given(perturbed_modules())
    @settings(max_examples=150, deadline=None)
    def test_perturbed_algebras_and_modules_match_the_dense_reference(self, module):
        # Broken laws and module dimensions other than dim A included.
        assert derivation_space(module.algebra, module) == dense_derivation_space(module.algebra, module)

    def test_degree_one_cocycles_are_exactly_the_derivations(
        self, corpus_algebra
    ):
        mod = self_module(corpus_algebra)
        z1 = kernel_basis(coboundary_matrix(Complex(corpus_algebra, mod, HARR), 1))
        space = harrison_space(corpus_algebra, mod, 1)
        cocycles = SubspaceBasis.from_vectors((space.combination(row) for row in z1.rows), space.ambient_dim)
        derivations = derivation_space(corpus_algebra, mod)
        assert derivations.ambient_dim == space.ambient_dim
        assert cocycles == derivations
        assert cocycles == harrison_cocycles_over_offsets(corpus_algebra, mod)

    @given(perturbed_modules())
    @settings(max_examples=100, deadline=None)
    def test_perturbed_modules_derivations_are_the_harrison_cocycles(self, module):
        derivations = derivation_space(module.algebra, module)
        assert derivations.ambient_dim == harrison_space(module.algebra, module, 1).ambient_dim
        assert derivations == harrison_cocycles_over_offsets(module.algebra, module)

    def test_exterior_line_derivations_are_scalings(self):
        # Offset 3 is the entry (t, l) = ((1,), 1): x -> x.
        alg = exterior_algebra(1)
        der = derivation_space(alg, self_module(alg))
        assert der.rows == ({3: 1},)

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
                res = cohomology(Complex(corpus_algebra, mod, kind), degree)
                assert len(res.representatives) == res.dim_cohomology
                boundaries = image_basis(
                    coboundary_matrix(Complex(corpus_algebra, mod, kind), degree - 1)
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
            cohomology(Complex(alg, self_module(alg), kind), 1)
        assert str(info.value) == (
            f"{kind.value} representative 0 in degree 1 is not a cocycle: "
            "its coboundary is nonzero at entry (t, l) = ((0, 0), 0), that is (1, 1) -> 1"
        )

    def test_euler_class_generates_first_cohomology_of_the_line(self):
        alg = exterior_algebra(1)
        res = cohomology(Complex(alg, self_module(alg), HARR), 1)
        assert res.dim_cohomology == 1
        assert sorted(res.representatives[0].iter_nonzero()) == [((1,), 1, 1)]

    def test_square_zero_class_on_the_odd_line_is_purely_hochschild(self):
        # The full complex sees a degree-2 class on the odd line that the
        # symmetric complex kills: the square-zero relation deforms to a
        # nonzero square only through a graded-antisymmetric cochain.
        alg = exterior_algebra(1)
        mod = self_module(alg)
        sym = cohomology(Complex(alg, mod, HARR), 2)
        full = cohomology(Complex(alg, mod, HOCH), 2)
        assert sym.dim_cohomology == 0
        assert full.dim_cohomology == 1
        clifford = cochain_from_entries(alg, mod, 2, {((1, 1), 0): 1})
        assert hochschild_coboundary(clifford).is_zero()
        boundaries = image_basis(coboundary_matrix(Complex(alg, mod, HOCH), 1))
        assert not boundaries.contains(clifford.data)

    def test_results_are_deterministic(self):
        alg = exterior_algebra(2)
        mod = self_module(alg)
        first = cohomology(Complex(alg, mod, HARR), 2)
        second = cohomology(Complex(alg, mod, HARR), 2)
        assert first == second
        assert [list(r.iter_nonzero()) for r in first.representatives] == [
            list(r.iter_nonzero()) for r in second.representatives
        ]


class TestResourceLimits:
    def test_degree_ceiling(self):
        alg = exterior_algebra(1)
        with pytest.raises(ResourceCeilingError):
            cohomology(Complex(alg, self_module(alg), HARR), 9)

    def test_column_ceiling(self):
        alg = exterior_algebra(2)
        limits = ResourceLimits(max_degree=4, max_columns=5)
        with pytest.raises(ResourceCeilingError):
            cohomology(Complex(alg, self_module(alg), HOCH, limits), 2)

    def test_relaxed_limits_allow_the_same_computation(self):
        alg = exterior_algebra(1)
        limits = ResourceLimits(max_degree=4, max_columns=100)
        res = cohomology(Complex(alg, self_module(alg), HARR, limits), 2)
        assert res.dim_cohomology == 0

    def test_error_message_names_the_ceiling(self):
        alg = exterior_algebra(1)
        with pytest.raises(ResourceCeilingError, match="ceiling"):
            cohomology(Complex(alg, self_module(alg), HARR), 8)

    def test_harrison_cohomology_builds_no_parity_table(self, monkeypatch):
        forbid_parity_tables(monkeypatch)
        alg = exterior_algebra(2)
        mod = self_module(alg)
        for degree in (1, 2, 3):
            cohomology(Complex(alg, mod, HARR), degree)

    def test_oversized_harrison_request_builds_no_parity_table(self, monkeypatch):
        forbid_parity_tables(monkeypatch)
        alg = exterior_algebra(6)
        mod = self_module(alg)
        with pytest.raises(ResourceCeilingError, match="dimension 8388608 exceeds the ceiling 20000"):
            cohomology(Complex(alg, mod, HARR), 3)

    @pytest.mark.parametrize("kind", [HOCH, HARR])
    @pytest.mark.parametrize("degree, limits", [(3, ResourceLimits(max_degree=3)), (2, ResourceLimits(max_columns=5))])
    def test_a_refused_degree_builds_nothing(self, monkeypatch, kind, degree, limits):
        def built(*args):
            raise AssertionError("built before the ceilings were checked")

        for name in ("harrison_space", "coboundary_scatter"):
            monkeypatch.setattr(sys.modules["superharrison.cohomology"], name, built)
        alg = exterior_algebra(2)
        with pytest.raises(ResourceCeilingError):
            cohomology(Complex(alg, self_module(alg), kind, limits), degree)


class TestComplex:
    """A complex builds each space and matrix once and frees them with itself."""

    @pytest.mark.parametrize("kind", [HOCH, HARR])
    def test_each_matrix_and_space_is_built_once(self, kind):
        alg = exterior_algebra(2)
        cx = Complex(alg, self_module(alg), kind)
        for n in (0, 1, 2):
            assert coboundary_matrix(cx, n) is coboundary_matrix(cx, n)
            assert cx.space(n) is cx.space(n)
        assert (cx.space(2) is None) == (kind is HOCH)

    def test_spaces_and_matrices_die_with_the_complex(self):
        alg = exterior_algebra(2)
        cx = Complex(alg, self_module(alg), HARR)
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
        dims = [cohomology(Complex(alg, self_module(alg), HOCH), n).dim_cohomology for n in range(4)]
        assert dims == [2, 1, 1, 1]

    def test_exterior_three_degree_zero_exceeds_the_even_part(self):
        alg = exterior_algebra(3)
        assert cohomology(Complex(alg, self_module(alg), HOCH), 0).dim_cohomology == 5
