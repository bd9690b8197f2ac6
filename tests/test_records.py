"""The value classes: immutable, compared and hashed by their fields, and
importable without ``dataclasses``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import superharrison
from superharrison.algebras import (
    DualNumber,
    SuperModule,
    ValidationReport,
    Violation,
    exterior_algebra,
    self_module,
    truncated_polynomial,
)
from superharrison.cochains import Cochain
from superharrison.cohomology import CohomologyResult, ComplexKind, ResourceLimits
from superharrison.deformations import DeformationReport, ExtensionResult, SweepReport
from superharrison.linalg import RationalMatrix, SubspaceBasis
from superharrison.shuffles import Permutation, Shuffle


def _examples():
    """One zero-argument constructor call per value class; each call gives a fresh, equal value."""
    alg = truncated_polynomial(2)
    mod = self_module(alg)
    return {
        "SuperAlgebra": lambda: truncated_polynomial(2),
        "SuperModule": lambda: SuperModule(alg, 2, (0, 0), alg.structure, basis_names=("u", "v")),
        "Violation": lambda: Violation("parity", (0, 1, 1), "detail"),
        "ValidationReport": lambda: ValidationReport((Violation("unit", (0,), "detail"),)),
        "DualNumber": lambda: DualNumber(1, 2),
        "Cochain": lambda: Cochain(2, alg, mod, {3: 1, 1: 2}),
        "ResourceLimits": lambda: ResourceLimits(max_columns=7),
        "CohomologyResult": lambda: CohomologyResult(ComplexKind.HOCHSCHILD, 1, 2, 1, 0, 1, ()),
        "DeformationReport": lambda: DeformationReport(True, True, False, None, (0, 1, 1)),
        "SweepReport": lambda: SweepReport(False, 3, ("case 0: failure",)),
        "ExtensionResult": lambda: ExtensionResult(alg, (0, 1), (2, 3)),
        "RationalMatrix": lambda: RationalMatrix.from_rows([[1, 0], [0, 2]]),
        "SubspaceBasis": lambda: SubspaceBasis.from_vectors([[1, 2, 0]], 3),
        "Permutation": lambda: Permutation((2, 1, 3)),
        "Shuffle": lambda: Shuffle(Permutation((2, 1, 3)), 1),
    }


EXAMPLES = _examples()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_values_are_immutable_and_compare_by_fields(name):
    value, twin = EXAMPLES[name](), EXAMPLES[name]()
    assert type(value).__name__ == name
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin)
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin
    assert repr(value).startswith(f"{name}({field}=")


def test_values_of_different_fields_or_classes_differ():
    assert DualNumber(1, 2) != DualNumber(1, 3)
    assert Permutation((1, 2)) != Permutation((2, 1))
    assert ResourceLimits() != ResourceLimits(max_degree=5)
    assert Violation("unit", (0,), "x") != ValidationReport(())


def test_algebras_and_modules_keep_their_hash():
    alg = exterior_algebra(2)
    mod = self_module(alg)
    for value in (alg, mod):
        assert hash(value) == hash(value._values(value)) == value.__dict__["_hash"]
    assert hash(mod) == hash(SuperModule(exterior_algebra(2), 4, alg.parity, alg.structure, alg.basis_names))


def test_defaults_match_the_signatures():
    assert ResourceLimits() == ResourceLimits(4, 20000)
    assert (ResourceLimits.max_degree, ResourceLimits.max_columns) == (4, 20000)
    assert DualNumber(3) == DualNumber(3, 0)
    alg = truncated_polynomial(2)
    assert SuperModule(alg, 2, (0, 0), alg.structure).basis_names == ("m0", "m1")


def test_cached_properties_still_fill_in():
    alg = exterior_algebra(1)
    f = Cochain(1, alg, self_module(alg), {1: 1})
    assert alg.products[1][1] == () and f.parity_preserving is False
    assert alg.products is alg.products


def test_import_loads_no_dataclass_machinery():
    # -S: leave out site, whose imports vary between installations.
    src = str(Path(superharrison.__file__).resolve().parent.parent)
    code = "import superharrison.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
