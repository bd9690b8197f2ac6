"""Every docstring example in the package runs and passes."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import superharrison
import superharrison.cochains as cochains
import superharrison.shuffles as shuffles

MODULES = ["superharrison"] + sorted(
    f"superharrison.{info.name}" for info in pkgutil.iter_modules(superharrison.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_the_shuffle_examples_are_collected():
    assert doctest.testmod(shuffles).attempted == 2


def test_the_pivot_example_is_collected():
    assert doctest.testmod(cochains).attempted == 3
