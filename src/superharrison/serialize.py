"""JSON formats for algebras and cochains.

All coefficients travel as exact strings ("3", "-2/5"); integers are also
accepted on input, floats never are.  Indices, dimensions and degrees are
integers, and a JSON boolean is never read as one.  Output is canonical: keys sorted,
product entries in index order, so identical inputs serialize to identical
bytes.

Algebra format::

    {
      "dim": 2,
      "basis": ["1", "t1"],
      "parity": [0, 1],
      "unit": 0,                      // optional, 0-based
      "products": [
        {"i": 0, "j": 0, "terms": [{"k": 0, "coeff": "1"}]},
        ...
      ]
    }

Pairs (i, j) not listed multiply to zero.  Cochain format::

    {"degree": 2, "entries": [{"i": [1, 1], "l": 0, "coeff": "1"}, ...]}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Optional

from .algebras import SuperAlgebra, SuperModule, _table_from_cells
from .cochains import Cochain, cochain_from_entries
from .linalg import Rat, as_rational

__all__ = [
    "InputFormatError",
    "parse_rational",
    "format_rational",
    "algebra_to_dict",
    "algebra_from_dict",
    "load_algebra",
    "dump_algebra",
    "cochain_to_dict",
    "cochain_from_dict",
    "load_cochain",
]

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class InputFormatError(ValueError):
    """Malformed input file or document."""


def parse_rational(value: Any) -> Rat:
    """Exact scalar from a JSON value; floats are refused, not rounded."""
    if isinstance(value, bool):
        raise InputFormatError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise InputFormatError(
            f"floating point coefficient {value!r} rejected; use an exact \"p/q\" string"
        )
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise InputFormatError(f"not an exact rational string: {value!r}")
        return as_rational(Fraction(value.strip()))
    raise InputFormatError(f"cannot read a rational from {value!r}")


def format_rational(value: Rat) -> str:
    value = as_rational(value)
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise InputFormatError(message)


def _is_int(value: Any) -> bool:
    """An integer that is not a JSON boolean: ``isinstance(True, int)`` holds in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def algebra_from_dict(doc: dict) -> SuperAlgebra:
    _expect(isinstance(doc, dict), "algebra document must be a JSON object")
    for key in ("dim", "basis", "parity", "products"):
        _expect(key in doc, f"algebra document missing '{key}'")
    dim = doc["dim"]
    _expect(_is_int(dim) and dim >= 1, "'dim' must be a positive integer")
    basis = doc["basis"]
    _expect(
        isinstance(basis, list) and len(basis) == dim and all(isinstance(x, str) for x in basis),
        "'basis' must list one name per basis element",
    )
    parity = doc["parity"]
    _expect(
        isinstance(parity, list) and len(parity) == dim and all(_is_int(p) and p in (0, 1) for p in parity),
        "'parity' must list one 0/1 per basis element",
    )
    unit = doc.get("unit")
    if unit is not None:
        _expect(_is_int(unit) and 0 <= unit < dim, "'unit' must be a valid 0-based index")
    _expect(isinstance(doc["products"], list), "'products' must be a list")
    # cells[(i, j)][k]: the coefficient of e_k in e_i e_j; terms on the same k add up.
    cells: dict[tuple[int, int], dict[int, Rat]] = {}
    for entry in doc["products"]:
        _expect(isinstance(entry, dict), "each product entry must be an object")
        for key in ("i", "j", "terms"):
            _expect(key in entry, f"product entry missing '{key}'")
        i, j = entry["i"], entry["j"]
        _expect(
            _is_int(i) and _is_int(j) and 0 <= i < dim and 0 <= j < dim,
            f"product indices ({i}, {j}) out of range",
        )
        _expect((i, j) not in cells, f"duplicate product entry for ({i}, {j})")
        cell = cells[i, j] = {}
        _expect(isinstance(entry["terms"], list), "'terms' must be a list")
        for term in entry["terms"]:
            _expect(isinstance(term, dict) and "k" in term and "coeff" in term,
                    "each term needs 'k' and 'coeff'")
            k = term["k"]
            _expect(_is_int(k) and 0 <= k < dim, f"term index {k} out of range")
            cell[k] = cell.get(k, 0) + parse_rational(term["coeff"])
    try:
        return SuperAlgebra(dim, tuple(basis), tuple(parity), _table_from_cells(cells, dim, dim), unit_index=unit)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def algebra_to_dict(algebra: SuperAlgebra) -> dict:
    products = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            terms = [
                {"k": k, "coeff": format_rational(c)}
                for k, c in algebra.products[i][j]
            ]
            if terms:
                products.append({"i": i, "j": j, "terms": terms})
    doc: dict = {
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "parity": list(algebra.parity),
        "products": products,
    }
    if algebra.unit_index is not None:
        doc["unit"] = algebra.unit_index
    return doc


def _read_json(path: str) -> Any:
    """The JSON document in ``path``; an unreadable or malformed file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_algebra(path: str) -> SuperAlgebra:
    return algebra_from_dict(_read_json(path))


def dump_algebra(algebra: SuperAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def cochain_from_dict(doc: dict, algebra: SuperAlgebra, module: SuperModule) -> Cochain:
    _expect(isinstance(doc, dict), "cochain document must be a JSON object")
    _expect("degree" in doc and "entries" in doc, "cochain document needs 'degree' and 'entries'")
    degree = doc["degree"]
    _expect(_is_int(degree) and degree >= 0, "'degree' must be a nonnegative integer")
    _expect(isinstance(doc["entries"], list), "'entries' must be a list")
    entries: dict[tuple[tuple[int, ...], int], Rat] = {}
    for entry in doc["entries"]:
        _expect(isinstance(entry, dict), "each entry must be an object")
        for key in ("i", "l", "coeff"):
            _expect(key in entry, f"cochain entry missing '{key}'")
        idx = entry["i"]
        _expect(
            isinstance(idx, list) and len(idx) == degree and all(_is_int(x) for x in idx),
            f"'i' must be a list of {degree} integers",
        )
        _expect(all(0 <= x < algebra.dim for x in idx), f"argument indices {idx} out of range")
        l = entry["l"]
        _expect(_is_int(l) and 0 <= l < module.dim, f"value index {l} out of range")
        key = (tuple(idx), l)
        _expect(key not in entries, f"duplicate cochain entry for {key}")
        entries[key] = parse_rational(entry["coeff"])
    return cochain_from_entries(algebra, module, degree, entries)


def cochain_to_dict(f: Cochain) -> dict:
    entries = [
        {"i": list(t), "l": l, "coeff": format_rational(v)}
        for t, l, v in f.iter_nonzero()
    ]
    return {"degree": f.degree, "entries": entries}


def load_cochain(
    path: str, algebra: SuperAlgebra, module: SuperModule, degree: Optional[int] = None, name: str = "cochain"
) -> Cochain:
    """The cochain document in ``path``.

    With ``degree`` given, a document of any other degree is refused as
    "``name`` must have degree ..." before ``cochain_from_dict`` reads any
    of its entries.
    """
    doc = _read_json(path)
    found = doc.get("degree") if isinstance(doc, dict) else None
    if degree is not None and _is_int(found) and found >= 0 and found != degree:
        raise InputFormatError(f"{name} must have degree {degree}, got {found}")
    return cochain_from_dict(doc, algebra, module)
