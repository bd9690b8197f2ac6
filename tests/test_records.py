"""The value classes: built by one ``Record`` constructor, immutable,
compared and hashed by their fields, and importable without ``dataclasses``."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import superharrison
from superharrison.algebras import (
    DualNumber,
    SuperAlgebra,
    SuperModule,
    ValidationReport,
    Violation,
    exterior_algebra,
    self_module,
    truncated_polynomial,
)
from superharrison.cochains import Cochain
from superharrison.cohomology import CohomologyResult, Complex, ComplexKind, ResourceLimits, cohomology
from superharrison.deformations import DeformationReport, SweepReport
from superharrison.linalg import RationalMatrix, SubspaceBasis, as_rational
from superharrison.records import Record
from superharrison.shuffles import Permutation


def _examples():
    """One zero-argument constructor call per value class; each call gives a fresh, equal value."""
    alg = truncated_polynomial(2)
    mod = self_module(alg)
    return {
        "SuperAlgebra": lambda: truncated_polynomial(2),
        "SuperModule": lambda: SuperModule(alg, 2, (0, 0), alg.products, basis_names=("u", "v")),
        "Violation": lambda: Violation("parity", (0, 1, 1), "detail"),
        "ValidationReport": lambda: ValidationReport((Violation("unit", (0,), "detail"),)),
        "DualNumber": lambda: DualNumber(1, 2),
        "Cochain": lambda: Cochain(2, mod, {3: 1, 1: 2}),
        "ResourceLimits": lambda: ResourceLimits(max_columns=7),
        "Complex": lambda: Complex(mod, ComplexKind.SUPER_HARRISON),
        "CohomologyResult": lambda: CohomologyResult(ComplexKind.HOCHSCHILD, 1, 2, 1, 0, ()),
        "DeformationReport": lambda: DeformationReport(True, None, (0, 1, 1)),
        "SweepReport": lambda: SweepReport(3, ("case 0: failure",)),
        "RationalMatrix": lambda: RationalMatrix.from_rows([{0: 1}, {1: 2}], 2),
        "SubspaceBasis": lambda: SubspaceBasis.from_vectors([{0: 1, 1: 2}], 3),
        "Permutation": lambda: Permutation((2, 1, 3)),
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


def _records(cls=Record):
    """Every class of the package below ``cls`` that declares fields, recursively."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("superharrison.") and "_fields" in vars(sub):
            yield sub
        yield from _records(sub)


def test_every_record_has_an_example():
    assert {cls.__name__ for cls in _records()} == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_keyword_and_positional_construction_agree(name):
    value = EXAMPLES[name]()
    cls, fields = type(value), [getattr(value, field) for field in value._fields]
    assert cls(*fields) == cls(**dict(zip(value._fields, fields))) == value


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("parity",), {"indices": (0,)}, "is missing field 'detail'"),
        (("parity", (0,), "detail"), {"witness": (0,)}, "has no field 'witness'"),
        (("parity", (0,), "detail"), {"kind": "unit"}, "was given field 'kind' twice"),
        (("parity", (0,), "detail", "extra"), {}, "takes 3 fields, got 4 positional values"),
    ],
)
def test_constructor_misuse_names_the_class(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^Violation {re.escape(message)}$"):
        Violation(*args, **kwargs)


def test_derived_values_are_properties_not_fields():
    result = CohomologyResult(ComplexKind.HOCHSCHILD, 1, 5, 3, 1, ())
    assert result.dim_cohomology == 2 and "dim_cohomology" not in result._fields
    report = DeformationReport(True, None, (0, 1, 1))
    assert report.supercommutative_mod_t2 and not report.associative_mod_t2 and not report.valid
    assert SweepReport(3, ()).passed and not SweepReport(3, ("case 0: failure",)).passed


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("kind", list(ComplexKind))
def test_dim_cohomology_counts_the_representatives(corpus_algebra, kind, degree):
    result = cohomology(Complex(self_module(corpus_algebra), kind), degree)
    assert result.dim_cohomology == len(result.representatives)


class TestBooleansAreNotScalars:
    """``True == 1`` in Python, but a boolean is neither a coefficient nor a parity."""

    def test_table_coefficient(self):
        with pytest.raises(ValueError, match="coefficient True"):
            SuperAlgebra(1, ("1",), (0,), ((((0, True),),),), unit_index=0)
        with pytest.raises(ValueError, match="coefficient True"):
            SuperModule(truncated_polynomial(1), 1, (0,), ((((0, True),),),))

    def test_parity(self):
        with pytest.raises(ValueError, match="got True"):
            SuperAlgebra(1, ("1",), (True,), ((((0, 1),),),), unit_index=0)
        with pytest.raises(ValueError, match="got False"):
            SuperModule(truncated_polynomial(1), 1, (False,), ((((0, 1),),),))

    def test_cochain_value(self):
        alg = truncated_polynomial(1)
        with pytest.raises(TypeError, match="got True"):
            Cochain(0, self_module(alg), {0: True})

    def test_matrix_entry(self):
        with pytest.raises(TypeError, match="got True"):
            RationalMatrix.from_rows([{0: True}], cols=1)
        with pytest.raises(TypeError, match="got True"):
            as_rational(True)

    def test_dual_number(self):
        with pytest.raises(TypeError, match="got True"):
            DualNumber(True)
        with pytest.raises(TypeError, match="got True"):
            DualNumber(1, True)
        with pytest.raises(TypeError, match="got True"):
            DualNumber(1) + True


class TestInexactZerosAreRefused:
    """A zero is dropped only when it is an exact scalar; ``0.0`` and ``False`` are refused like ``0.5``."""

    @pytest.mark.parametrize("zero", [0.0, False])
    def test_cochain_value(self, zero):
        alg = truncated_polynomial(1)
        with pytest.raises(TypeError, match=f"got {zero}"):
            Cochain(0, self_module(alg), {0: zero})

    @pytest.mark.parametrize("zero", [0.0, False])
    def test_vectors(self, zero):
        with pytest.raises(TypeError, match=f"got {zero}"):
            RationalMatrix.from_rows([{0: zero, 1: 1}], cols=2)
        with pytest.raises(TypeError, match=f"got {zero}"):
            SubspaceBasis.from_vectors([{0: zero, 1: 1}], 2)


def test_defaults_match_the_signatures():
    assert ResourceLimits() == ResourceLimits(4, 20000)
    assert (ResourceLimits.max_degree, ResourceLimits.max_columns) == (4, 20000)
    assert DualNumber(3) == DualNumber(3, 0)
    alg = truncated_polynomial(2)
    assert SuperModule(alg, 2, (0, 0), alg.products).basis_names == ("m0", "m1")


def test_cached_properties_still_fill_in():
    alg = exterior_algebra(1)
    f = Cochain(1, self_module(alg), {1: 1})
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
