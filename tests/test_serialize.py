"""Tests for the JSON loading and dumping layer."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from conftest import dense_tensor, dump_algebra, entry
from superharrison.algebras import (
    exterior_algebra,
    self_module,
    tensor_product,
    truncated_polynomial,
    validate_superalgebra,
)
from superharrison.cli import run
from superharrison.cochains import cochain_from_entries
from superharrison.serialize import (
    InputFormatError,
    algebra_from_dict,
    algebra_to_dict,
    cochain_from_dict,
    cochain_to_dict,
    format_rational,
    load_algebra,
    load_cochain,
    parse_rational,
)


def minimal_doc():
    return {
        "dim": 2,
        "basis": ["1", "x"],
        "parity": [0, 0],
        "products": [
            {"i": 0, "j": 0, "terms": [{"k": 0, "coeff": "1"}]},
            {"i": 0, "j": 1, "terms": [{"k": 1, "coeff": "1"}]},
            {"i": 1, "j": 0, "terms": [{"k": 1, "coeff": "1"}]},
        ],
        "unit": 0,
    }


class TestRationalStrings:
    def test_integers(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3") == -3
        assert parse_rational(5) == 5

    def test_fractions(self):
        assert parse_rational("-2/5") == Fraction(-2, 5)
        assert parse_rational("4/2") == 2

    def test_floats_rejected(self):
        with pytest.raises(InputFormatError):
            parse_rational(0.5)
        with pytest.raises(InputFormatError):
            parse_rational("0.5")

    def test_bools_rejected(self):
        with pytest.raises(InputFormatError):
            parse_rational(True)

    def test_malformed_strings_rejected(self):
        for bad in ["", "1/0", "2/-3", "a", "1 / 2", "--1"]:
            with pytest.raises(InputFormatError):
                parse_rational(bad)

    def test_format_round_trip(self):
        for value in [0, 7, -2, Fraction(1, 3), Fraction(-5, 4)]:
            assert parse_rational(format_rational(value)) == value


class TestAlgebraDocuments:
    def test_minimal_document_loads(self):
        alg = algebra_from_dict(minimal_doc())
        assert alg.dim == 2
        assert alg.basis_names == ("1", "x")
        assert alg.unit_index == 0
        assert validate_superalgebra(alg).ok

    def test_unlisted_products_are_zero(self):
        alg = algebra_from_dict(minimal_doc())
        # x * x never appears in the document.
        assert all(c == 0 for c in dense_tensor(alg.products, alg.dim)[1][1])

    def test_round_trip_through_dict(self, corpus_algebra):
        doc = algebra_to_dict(corpus_algebra)
        again = algebra_from_dict(doc)
        assert again == corpus_algebra

    def test_round_trip_through_file(self, tmp_path):
        alg = tensor_product(truncated_polynomial(2), exterior_algebra(1))
        path = tmp_path / "alg.json"
        dump_algebra(alg, str(path))
        assert load_algebra(str(path)) == alg
        # Files are canonical: dumping twice gives identical bytes.
        second = tmp_path / "alg2.json"
        dump_algebra(alg, str(second))
        assert path.read_bytes() == second.read_bytes()

    def test_duplicate_product_entries_rejected(self):
        doc = minimal_doc()
        doc["products"].append(
            {"i": 0, "j": 0, "terms": [{"k": 0, "coeff": "2"}]}
        )
        with pytest.raises(InputFormatError):
            algebra_from_dict(doc)

    def test_missing_keys_rejected(self):
        doc = minimal_doc()
        del doc["parity"]
        with pytest.raises(InputFormatError):
            algebra_from_dict(doc)

    def test_bad_parity_values_rejected(self):
        doc = minimal_doc()
        doc["parity"] = [0, 2]
        with pytest.raises(InputFormatError):
            algebra_from_dict(doc)

    def test_index_out_of_range_rejected(self):
        doc = minimal_doc()
        doc["products"][0]["terms"][0]["k"] = 9
        with pytest.raises(InputFormatError):
            algebra_from_dict(doc)

    def test_float_coefficients_rejected(self):
        doc = minimal_doc()
        doc["products"][0]["terms"][0]["coeff"] = 1.5
        with pytest.raises(InputFormatError):
            algebra_from_dict(doc)

    def test_integer_coefficients_accepted(self):
        doc = minimal_doc()
        doc["products"][0]["terms"][0]["coeff"] = 1
        alg = algebra_from_dict(doc)
        assert dense_tensor(alg.products, alg.dim)[0][0][0] == 1

    def test_unit_is_optional(self):
        doc = minimal_doc()
        del doc["unit"]
        assert algebra_from_dict(doc).unit_index is None

    def test_missing_file_raises_input_error(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_algebra(str(tmp_path / "nope.json"))

    def test_invalid_json_raises_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_algebra(str(path))

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(
                ('{"dim": 1, "basis": ["1"], "parity": [0], "products": '
                 '[{"i": 0, "j": 0, "terms": [{"k": 0, "coeff": 1' + "0" * 5000 + '}]}]}').encode(),
                id="integer-literal-over-the-digit-limit",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter has no digit limit"
                ),
            ),
            pytest.param(b'{"dim": \xff}', id="not-utf-8"),
            pytest.param(b"{not json", id="malformed"),
        ],
    )
    def test_an_unreadable_document_is_an_input_error_naming_the_file(self, content, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert run(["check", "--algebra", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {path} is not valid JSON: ")

    def test_emitted_coefficients_are_strings(self, corpus_algebra):
        doc = algebra_to_dict(corpus_algebra)
        for product in doc["products"]:
            for term in product["terms"]:
                assert isinstance(term["coeff"], str)


def _set_algebra_field(doc, field, value):
    if field in ("dim", "unit"):
        doc[field] = value
    elif field == "parity":
        doc["parity"][1] = value
    elif field == "k":
        doc["products"][1]["terms"][0]["k"] = value
    else:
        doc["products"][1][field] = value


class TestBooleansAreNotIntegers:
    """``isinstance(True, int)`` holds, so a JSON boolean must be refused by name wherever an integer is read."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dim", True, "'dim' must be a positive integer"),
            ("unit", True, "'unit' must be a valid 0-based index"),
            ("unit", False, "'unit' must be a valid 0-based index"),
            ("i", False, r"product indices \(False, 1\) out of range"),
            ("j", True, r"product indices \(0, True\) out of range"),
            ("k", True, "term index True out of range"),
            ("parity", True, "'parity' must list one 0/1 per basis element"),
        ],
    )
    def test_algebra_fields(self, field, value, message, tmp_path, capsys):
        doc = minimal_doc()
        # (0, 1) -> 1 is entry 1; with "dim": true the one-name basis fits.
        if field == "dim":
            doc["basis"], doc["parity"] = ["1"], [0]
        _set_algebra_field(doc, field, value)
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            algebra_from_dict(doc)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--algebra", str(path), "--json"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"degree": True, "entries": [{"i": [1], "l": 1, "coeff": "1"}]}, "'degree' must be a nonnegative integer"),
            ({"degree": 2, "entries": [{"i": [True, 1], "l": 0, "coeff": "1"}]}, "'i' must be a list of 2 integers"),
            ({"degree": 2, "entries": [{"i": [1, 1], "l": True, "coeff": "1"}]}, "value index True out of range"),
        ],
    )
    def test_cochain_fields(self, doc, message, tmp_path, capsys):
        alg = exterior_algebra(1)
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            cochain_from_dict(doc, self_module(alg))
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(doc))
        assert run(["deform-check", "--algebra", "builtin:exterior:1", "--psi", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


class TestCochainDocuments:
    def setup_method(self):
        self.alg = exterior_algebra(1)
        self.mod = self_module(self.alg)

    def test_round_trip(self):
        f = cochain_from_entries(
            self.mod,
            2,
            {((0, 1), 1): Fraction(2, 3), ((1, 0), 1): Fraction(2, 3)},
        )
        doc = cochain_to_dict(f)
        again = cochain_from_dict(doc, self.mod)
        assert again == f

    def test_json_serializable(self):
        f = cochain_from_entries(self.mod, 1, {((1,), 1): 1})
        text = json.dumps(cochain_to_dict(f))
        assert cochain_from_dict(
            json.loads(text), self.mod
        ) == f

    def test_duplicate_entries_rejected(self):
        doc = {
            "degree": 1,
            "entries": [
                {"i": [1], "l": 1, "coeff": "1"},
                {"i": [1], "l": 1, "coeff": "2"},
            ],
        }
        with pytest.raises(InputFormatError):
            cochain_from_dict(doc, self.mod)

    def test_wrong_tuple_length_rejected(self):
        doc = {"degree": 2, "entries": [{"i": [1], "l": 1, "coeff": "1"}]}
        with pytest.raises(InputFormatError):
            cochain_from_dict(doc, self.mod)

    def test_out_of_range_indices_rejected(self):
        doc = {"degree": 1, "entries": [{"i": [4], "l": 0, "coeff": "1"}]}
        with pytest.raises(InputFormatError):
            cochain_from_dict(doc, self.mod)

    def test_load_cochain_from_file(self, tmp_path):
        path = tmp_path / "cochain.json"
        path.write_text(
            json.dumps(
                {
                    "degree": 2,
                    "entries": [{"i": [1, 1], "l": 0, "coeff": "-1/2"}],
                }
            )
        )
        f = load_cochain(str(path), self.mod)
        assert entry(f, (1, 1), 0) == Fraction(-1, 2)
        assert load_cochain(str(path), self.mod, degree=2) == f

    def test_load_cochain_refuses_another_degree_by_name(self, tmp_path):
        path = tmp_path / "cochain.json"
        path.write_text(json.dumps({"degree": 3, "entries": []}))
        with pytest.raises(InputFormatError, match="^psi must have degree 2, got 3$"):
            load_cochain(str(path), self.mod, degree=2, name="psi")
