"""Shared fixtures: the standard small-algebra corpus and the bad inputs.

The corpus is defined here once, by CLI spec, and every test module that
needs it imports it from here.  The algebras are built once at module
load so the library's internal caches are shared across the whole run.
``BAD_FILES`` holds broken algebras and deformation directions as JSON
documents; the ``bad_inputs`` fixture writes them into a temporary
directory and runs the test from inside it.
"""

from __future__ import annotations

import json

import pytest

import superharrison as sh
from superharrison.cli import resolve_algebra

CORPUS_SPECS: dict[str, str] = {
    "exterior1": "builtin:exterior:1",
    "exterior2": "builtin:exterior:2",
    "truncpoly2": "builtin:truncpoly:2",
    "truncpoly3": "builtin:truncpoly:3",
    "mixed": "builtin:tensor:truncpoly:2:exterior:1",
}

CORPUS: dict[str, sh.SuperAlgebra] = {name: resolve_algebra(spec) for name, spec in CORPUS_SPECS.items()}

EVEN_CORPUS = ("truncpoly2", "truncpoly3")


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
