"""Shared fixtures: the standard small-algebra corpus and the bad inputs.

The corpus is defined here once, by CLI spec, and every test module that
needs it imports it from here.  The algebras are built once at module
load so the library's internal caches are shared across the whole run.
``BAD_FILES`` holds broken algebras and deformation directions as JSON
documents; the ``bad_inputs`` fixture writes them into a temporary
directory and runs the test from inside it.

``dense`` is the reference reader of the sparse forms, with
``dense_vectors`` and ``dense_tensor`` built on it: the library keeps
structure constants and bases sparse only, and tests that compare against
plain dense loops read them through here.  ``entry`` and ``vector_at``
read one value, or one module vector, of a cochain through
``cochains.encode``, the one flat-index codec.
"""

from __future__ import annotations

import json

import pytest

import superharrison as sh
from superharrison.cli import resolve_algebra
from superharrison.cochains import encode

CORPUS_SPECS: dict[str, str] = {
    "exterior1": "builtin:exterior:1",
    "exterior2": "builtin:exterior:2",
    "truncpoly2": "builtin:truncpoly:2",
    "truncpoly3": "builtin:truncpoly:3",
    "mixed": "builtin:tensor:truncpoly:2:exterior:1",
}

CORPUS: dict[str, sh.SuperAlgebra] = {name: resolve_algebra(spec) for name, spec in CORPUS_SPECS.items()}

EVEN_CORPUS = ("truncpoly2", "truncpoly3")


def dense(row, width: int) -> tuple:
    """A sparse row, as (k, c) pairs or a {k: c} dict, as a tuple of ``width`` entries."""
    return tuple(dict(row).get(k, 0) for k in range(width))


def dense_vectors(basis) -> tuple:
    """The canonical rows of a ``SubspaceBasis`` as dense tuples."""
    return tuple(dense(row, basis.ambient_dim) for row in basis.rows)


def dense_tensor(table, width: int) -> tuple:
    """A sparse table, such as ``products`` or ``action_sparse``, as the dense tensor t[i][j][k]."""
    return tuple(tuple(dense(row, width) for row in plane) for plane in table)


def entry(f: sh.Cochain, t: tuple, l: int):
    """The value of cochain f at entry (t, l)."""
    return f.data.get(encode(t, l, f.algebra.dim, f.module.dim), 0)


def vector_at(f: sh.Cochain, t: tuple) -> tuple:
    """The module vector f(e_{t_1}, ..., e_{t_n})."""
    return tuple(entry(f, t, l) for l in range(f.module.dim))


@pytest.fixture(params=sorted(CORPUS))
def corpus_algebra(request) -> sh.SuperAlgebra:
    return CORPUS[request.param]


@pytest.fixture(params=sorted(CORPUS))
def corpus_named(request) -> tuple[str, sh.SuperAlgebra]:
    return request.param, CORPUS[request.param]


def _products(table: dict[tuple[int, int], list[tuple[int, int]]]) -> list[dict]:
    return [
        {"i": i, "j": j, "terms": [{"k": k, "coeff": str(c)} for k, c in terms]}
        for (i, j), terms in sorted(table.items())
    ]


_UNIT_PRODUCTS = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)]}

BAD_FILES: dict[str, dict] = {
    # x*x = y lands on an odd element: parity only.
    "parity.json": {
        "dim": 3, "basis": ["1", "x", "y"], "parity": [0, 0, 1], "unit": 0,
        "products": _products({**_UNIT_PRODUCTS, (0, 2): [(2, 1)], (2, 0): [(2, 1)], (1, 1): [(2, 1)]}),
    },
    # The Clifford algebra t*t = 1: supercommutativity only.
    "clifford.json": {
        "dim": 2, "basis": ["1", "t"], "parity": [0, 1], "unit": 0,
        "products": _products({**_UNIT_PRODUCTS, (1, 1): [(0, 1)]}),
    },
    # truncpoly(3) with x*x = 1 + x^2: associativity and the module law.
    "nonassoc.json": {
        "dim": 3, "basis": ["1", "x", "x^2"], "parity": [0, 0, 0], "unit": 0,
        "products": _products({**_UNIT_PRODUCTS, (0, 2): [(2, 1)], (2, 0): [(2, 1)], (1, 1): [(0, 1), (2, 1)]}),
    },
    # exterior(1) with the odd generator declared the unit: unit only.
    "badunit.json": {
        "dim": 2, "basis": ["1", "t"], "parity": [0, 1], "unit": 1,
        "products": _products(_UNIT_PRODUCTS),
    },
    # Graded symmetric and parity-preserving, not a cocycle on truncpoly(3).
    "psi_assoc.json": {"degree": 2, "entries": [{"i": [1, 1], "l": 0, "coeff": "1"}]},
    # psi(e0, e1) = e1 with psi(e1, e0) = 0.
    "psi_symmetry.json": {"degree": 2, "entries": [{"i": [0, 1], "l": 1, "coeff": "1"}]},
    # psi(e0, e0) = e1: odd on the mixed algebra, whose e1 is odd.
    "psi_parity.json": {"degree": 2, "entries": [{"i": [0, 0], "l": 1, "coeff": "1"}]},
    # On truncpoly(2) its dense data would be 2^22 * 2 entries.
    "psi_degree22.json": {"degree": 22, "entries": []},
}


@pytest.fixture
def bad_inputs(tmp_path, monkeypatch):
    for name, doc in BAD_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
