"""Shared fixtures: the standard small-algebra corpus.

The corpus is defined here once, by CLI spec, and every test module that
needs it imports it from here.  The algebras are built once at module
load so the library's internal caches are shared across the whole run.
"""

from __future__ import annotations

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
