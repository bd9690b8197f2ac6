"""Every docstring example in the package runs and passes."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import sys

import pytest

import superharrison

MODULES = ["superharrison"] + sorted(
    f"superharrison.{info.name}" for info in pkgutil.iter_modules(superharrison.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    importlib.import_module(name)
    # Through sys.modules: the package rebinds some module names, so
    # ``superharrison.cohomology`` as an attribute is the function.
    result = doctest.testmod(sys.modules[name])
    assert result.failed == 0


def test_the_shuffle_examples_are_collected():
    assert doctest.testmod(sys.modules["superharrison.shuffles"]).attempted == 2
