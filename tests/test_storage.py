"""The sparse tables are the only representation of the structure constants.

Every builder's table, and a JSON document's, must be the table that the
dense reference reader of ``conftest`` reads back: its nonzero entries
only, k ascending, normalised.  An algebra or module rebuilt from that
table must equal and hash like the one built.  Building an algebra, and
refusing an oversized request on it, must allocate by nonzero products,
not by dim^3.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_tensor
from superharrison.algebras import (
    SuperAlgebra,
    SuperModule,
    _table_from_cells,
    exterior_algebra,
    self_module,
    tensor_product,
    truncated_polynomial,
)
from superharrison.cohomology import ComplexKind, ResourceCeilingError, cohomology
from superharrison.deformations import random_parity_cochain, square_zero_extension
from superharrison.serialize import algebra_from_dict, algebra_to_dict

_BUILTINS = st.one_of(
    st.builds(exterior_algebra, st.integers(min_value=0, max_value=3)),
    st.builds(truncated_polynomial, st.integers(min_value=1, max_value=4)),
)
_constants = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)),
)


@st.composite
def _product_documents(draw):
    """A JSON algebra of dim 1-3 with drawn terms: ints, fractions, zeros, repeated k; unital or not."""
    dim = draw(st.integers(min_value=1, max_value=3))
    products = []
    for i in range(dim):
        for j in range(dim):
            terms = draw(st.lists(st.tuples(st.integers(0, dim - 1), _constants), max_size=3))
            if terms or draw(st.booleans()):
                products.append({"i": i, "j": j, "terms": [{"k": k, "coeff": str(c)} for k, c in terms]})
    doc = {
        "dim": dim,
        "basis": [f"b{i}" for i in range(dim)],
        "parity": draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)),
        "products": products,
    }
    unit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=dim - 1)))
    if unit is not None:
        doc["unit"] = unit
    return doc


@st.composite
def _extensions(draw):
    base = draw(_BUILTINS)
    psi = random_parity_cochain(base, self_module(base), 2, random.Random(draw(st.integers(0, 99))))
    return square_zero_extension(base, self_module(base), psi).algebra


SPARSE_BUILT = st.one_of(
    _BUILTINS,
    st.builds(tensor_product, _BUILTINS, _BUILTINS),
    st.builds(lambda a: algebra_from_dict(algebra_to_dict(a)), _BUILTINS),
    st.builds(algebra_from_dict, _product_documents()),
    _extensions(),
)


def _dense_twin(table, rows: int, width: int):
    """``table`` read densely by the reference reader, then rebuilt sparse from every cell, zeros included."""
    tensor = dense_tensor(table, width)
    cells = {(i, j): dict(enumerate(row)) for i, plane in enumerate(tensor) for j, row in enumerate(plane)}
    return _table_from_cells(cells, len(tensor), rows)


class TestOneRepresentation:
    @given(SPARSE_BUILT)
    @settings(max_examples=200, deadline=None)
    def test_sparse_built_algebras_equal_their_dense_twins(self, algebra):
        table = _dense_twin(algebra.products, algebra.dim, algebra.dim)
        twin = SuperAlgebra(algebra.dim, algebra.basis_names, algebra.parity, table, algebra.unit_index)
        assert twin == algebra
        assert hash(twin) == hash(algebra)
        assert twin.products == algebra.products

    @given(SPARSE_BUILT, st.data())
    @settings(max_examples=100, deadline=None)
    def test_sparse_built_modules_equal_their_dense_twins(self, algebra, data):
        rows = data.draw(st.integers(min_value=1, max_value=3))
        index = st.integers(0, rows - 1)
        drawn = data.draw(st.lists(st.tuples(st.integers(0, algebra.dim - 1), index, index, _constants), max_size=4))
        cells: dict = {}
        for i, k, l, c in drawn:
            cell = cells.setdefault((i, k), {})
            cell[l] = cell.get(l, 0) + c
        parity = tuple(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
        action = _table_from_cells(cells, algebra.dim, rows)
        for module in (self_module(algebra), SuperModule(algebra, rows, parity, action)):
            table = _dense_twin(module.action_sparse, module.dim, module.dim)
            twin = SuperModule(module.algebra, module.dim, module.parity, table, module.basis_names)
            assert twin == module
            assert hash(twin) == hash(module)
            assert twin.action_sparse == module.action_sparse

    def test_there_are_no_dense_views(self):
        alg = tensor_product(truncated_polynomial(2), exterior_algebra(1))
        mod = self_module(alg)
        assert not hasattr(alg, "structure") and not hasattr(mod, "action")
        assert dense_tensor(alg.products, alg.dim)[1][2][3] == 1
        assert dense_tensor(mod.action_sparse, mod.dim) == dense_tensor(alg.products, alg.dim)

    def test_a_dense_tensor_is_refused_by_name(self):
        dense = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
        with pytest.raises(ValueError, match=r"not a \(k, c\) pair"):
            SuperAlgebra(2, ("1", "x"), (0, 0), dense, unit_index=0)
        with pytest.raises(ValueError, match=r"not a \(k, c\) pair"):
            SuperModule(truncated_polynomial(2), 2, (0, 0), dense)

    @pytest.mark.parametrize(
        "products",
        [
            ((((0, 1),), ()),),  # one slice for dim 2
            ((((2, 1),), ()), ((), ())),  # index out of range
            ((((1, 1), (0, 1)), ()), ((), ())),  # indices not ascending
            ((((0, 1), (0, 1)), ()), ((), ())),  # repeated index
            ((((0, 0),), ()), ((), ())),  # stored zero
            ((((0, Fraction(2, 1)),), ()), ((), ())),  # integral Fraction not normalised
            ((((0, 0.5),), ()), ((), ())),  # inexact
        ],
    )
    def test_the_sparse_constructor_checks_its_table(self, products):
        with pytest.raises((ValueError, TypeError)):
            SuperAlgebra(2, ("a", "b"), (0, 0), products)
        alg = truncated_polynomial(2)
        with pytest.raises((ValueError, TypeError)):
            SuperModule(alg, 2, (0, 0), products)


def _peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryFollowsNonzeros:
    @pytest.mark.parametrize("kind", list(ComplexKind))
    def test_refusing_degree_three_on_exterior_six_stays_small(self, kind):
        built = []

        def build():
            alg = exterior_algebra(6)
            built.append(alg)
            with pytest.raises(ResourceCeilingError):
                cohomology(alg, self_module(alg), 3, kind)

        assert _peak_bytes(build) < 2_000_000
        assert not hasattr(built[0], "structure")

    def test_a_dim_160_document_with_one_product_loads_small(self):
        doc = {
            "dim": 160,
            "basis": [f"b{i}" for i in range(160)],
            "parity": [0] * 160,
            "products": [{"i": 0, "j": 0, "terms": [{"k": 0, "coeff": "1"}]}],
        }
        loaded = []
        assert _peak_bytes(lambda: loaded.append(algebra_from_dict(doc))) < 2_000_000
        assert loaded[0].products[0][0] == ((0, 1),)
        assert sum(map(len, loaded[0].products[5])) == 0
