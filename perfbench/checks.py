"""Checks of the CLI's reports against computations made in ``reference``.

Each check raises ``CheckError`` with a one-line reason when a report is
wrong.  None of them compares against a stored copy of earlier output: the
expected values come from closed forms, from properties every complex has,
or from ``reference``'s own evaluation of the structure constants.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref

VERIFY_SUITES = ["validators", "complex", "closure", "derivations", "deformations", "extensions", "equivalence"]
DEFAULT_CEILING = 20000


class CheckError(AssertionError):
    """A report disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def load_report(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from exc


def _entries(doc: dict, algebra: ref.Algebra, degree: int) -> dict:
    expect(doc.get("degree") == degree, f"cochain degree {doc.get('degree')} != {degree}")
    entries = ref.cochain_from_doc(doc)
    for t, l in entries:
        expect(len(t) == degree and all(0 <= i < algebra.dim for i in t), f"argument tuple {t} out of range")
        expect(0 <= l < algebra.dim, f"value index {l} out of range")
    expect(any(entries.values()), "a representative is zero")
    return entries


def check_representative(algebra: ref.Algebra, kind: str, degree: int, entries: dict) -> None:
    """What a cocycle of the given complex must satisfy, decided apart from the program."""
    if kind == "harrison":
        expect(ref.parity_ok(algebra, entries), f"Harrison representative in degree {degree} breaks parity")
        if degree == 1:
            expect(ref.is_derivation(algebra, entries), "degree-1 Harrison representative is not a derivation")
        if degree == 2:
            verdict = ref.deformation_verdict(algebra, entries)
            expect(
                verdict["supercommutative_mod_t2"] and verdict["associative_mod_t2"],
                f"degree-2 Harrison representative fails the t^2 = 0 check: {verdict}",
            )
    if not any(algebra.parity) and degree >= 1:
        expect(ref.is_even_cocycle(algebra, entries, degree), f"representative in degree {degree} is not a cocycle")


def check_cohomology(report: dict, algebra: ref.Algebra, family, kind: str, degree: int) -> tuple[int, int, int]:
    """Dimensions against closed forms and properties; returns (dim C, dim Z, dim B)."""
    expect(report.get("command") == "cohomology" and report.get("kind") == kind, "wrong command or kind")
    expect(report.get("degree") == degree, f"degree {report.get('degree')} != {degree}")
    c, z, b, h = (report[k] for k in ("dim_cochain", "dim_cocycles", "dim_coboundaries", "dim_cohomology"))
    if kind == "hochschild":
        expect(c == algebra.dim ** (degree + 1), f"dim C^{degree} = {c}, expected {algebra.dim ** (degree + 1)}")
        closed = ref.hochschild_dim(family, degree)
    else:
        if degree <= 1:
            consistent = ref.parity_consistent_entries(algebra, degree)
            expect(c == consistent, f"dim C^{degree} = {c}, expected {consistent} parity-consistent entries")
        closed = ref.harrison_dim(family, degree)
    expect(0 <= b <= z <= c, f"dimensions out of order: B={b} Z={z} C={c}")
    expect(degree > 0 or b == 0, "coboundaries in degree 0")
    expect(h == z - b, f"dim H = {h} but Z - B = {z - b}")
    if closed is not None:
        expect(h == closed, f"{kind} H^{degree} = {h}, closed form gives {closed}")
    reps = report["representatives"]
    expect(len(reps) == h, f"{len(reps)} representatives for dim H = {h}")
    for doc in reps:
        check_representative(algebra, kind, degree, _entries(doc, algebra, degree))
    return c, z, b


def check_consecutive(ledger: dict) -> None:
    """Rank-nullity across degrees: dim B^(n+1) = dim C^n - dim Z^n for each complex."""
    for (name, kind), by_degree in ledger.items():
        for n, (c, z, _) in by_degree.items():
            if n + 1 in by_degree:
                b_next = by_degree[n + 1][2]
                expect(b_next == c - z, f"{name} {kind}: dim B^{n + 1} = {b_next}, but C^{n} - Z^{n} = {c - z}")


def check_deform_classes(report: dict, algebra: ref.Algebra, family) -> None:
    expect(report.get("command") == "deform-classes", "wrong command")
    h = report["dim_classes"]
    expect(h == report["dim_cocycles"] - report["dim_coboundaries"], "dim_classes != Z - B")
    closed = ref.harrison_dim(family, 2)
    expect(h == closed, f"{h} deformation classes, closed form gives {closed}")
    expect(len(report["representatives"]) == h, "representative count != dim_classes")
    for doc in report["representatives"]:
        entries = _entries(doc, algebra, 2)
        verdict = ref.deformation_verdict(algebra, entries)
        expect(_verdict_valid(verdict), f"deformation class fails the t^2 = 0 check: {verdict}")


def _verdict_valid(verdict: dict) -> bool:
    return verdict["parity_ok"] and verdict["supercommutative_mod_t2"] and verdict["associative_mod_t2"]


def check_deform_check(report: dict, code: int, algebra: ref.Algebra, psi: dict) -> None:
    verdict = ref.deformation_verdict(algebra, psi)
    valid = _verdict_valid(verdict)
    expect(report.get("command") == "deform-check", "wrong command")
    expect(report["valid"] == valid, f"valid = {report['valid']}, t^2 = 0 check says {valid}")
    expect(code == (0 if valid else 1), f"exit code {code} for valid = {valid}")
    for key in ("parity_ok", "supercommutative_mod_t2", "associative_mod_t2"):
        expect(report[key] == verdict[key], f"{key} = {report[key]}, expected {verdict[key]}")
    for key in ("supercommutativity_witness", "associativity_witness"):
        want = list(verdict[key]) if verdict[key] else None
        expect(report[key] == want, f"{key} = {report[key]}, expected {want}")


def extension_products(algebra: ref.Algebra, psi: dict) -> dict:
    """Structure constants of A (+) A with (a, m)(b, n) = (ab, an + mb + psi(a, b))."""
    d = algebra.dim
    out: dict = {}
    for (i, j), row in algebra.mult.items():
        out.setdefault((i, j), {}).update(row)
        out.setdefault((i, d + j), {}).update({d + k: c for k, c in row.items()})
        out.setdefault((d + i, j), {}).update({d + k: c for k, c in row.items()})
    for t, row in ref.cochain_values(psi).items():
        cell = out.setdefault(t, {})
        for l, c in row.items():
            cell[d + l] = cell.get(d + l, 0) + c
    return {key: {k: c for k, c in row.items() if c} for key, row in out.items() if any(row.values())}


def check_extend(report: dict, code: int, algebra: ref.Algebra, psi: dict) -> None:
    verdict = ref.deformation_verdict(algebra, psi)
    valid = _verdict_valid(verdict)
    expect(report.get("command") == "extend", "wrong command")
    expect(report["valid"] == valid, f"extension valid = {report['valid']}, t^2 = 0 check says {valid}")
    expect(code == (0 if valid else 1), f"exit code {code} for valid = {valid}")
    failing = {
        law for law, key in (("parity", "parity_ok"), ("supercommutativity", "supercommutative_mod_t2"),
                             ("associativity", "associative_mod_t2"))
        if not verdict[key]
    }
    kinds = {v["kind"] for v in report["violations"]}
    expect(kinds == failing, f"violated laws {sorted(kinds)}, expected {sorted(failing)}")
    ext = report["extension"]
    expect(ext["dim"] == 2 * algebra.dim and ext["parity"] == list(algebra.parity) * 2, "extension shape")
    got = {(p["i"], p["j"]): {t["k"]: Fraction(t["coeff"]) for t in p["terms"]} for p in ext["products"]}
    expect(got == extension_products(algebra, psi), "extension structure constants differ from A (+) A twisted by psi")


def check_verify(report: dict, algebra: ref.Algebra, budget: int) -> None:
    expect(report.get("command") == "verify", "wrong command")
    suites = report["suites"]
    expect([s["name"] for s in suites] == VERIFY_SUITES, f"suites {[s['name'] for s in suites]}")
    failed = [s["name"] for s in suites if not s["passed"]]
    expect(not failed and report["passed"], f"failing suites {failed}")
    cases = f"{ref.parity_consistent_entries(algebra, 2) + budget} cases"
    for s in suites:
        if s["name"] in ("deformations", "extensions"):
            expect(s["detail"] == cases, f"{s['name']}: {s['detail']!r}, expected {cases!r}")


def check_valid_algebra(report: dict, code: int) -> None:
    expect(report.get("command") == "check", "wrong command")
    expect(report["valid"] is True and report["violations"] == [] and code == 0, "input algebra rejected")


def check_refusal(stdout: str, stderr: str, code: int, columns: int) -> None:
    """Exit 3, nothing on stdout, and the ceiling message naming the refused size."""
    message = f"resource ceiling: cochain space of dimension {columns} exceeds the ceiling {DEFAULT_CEILING}"
    expect(code == 3, f"exit code {code}, expected 3")
    expect(stdout == "", "a refused request printed a report")
    expect(stderr.strip() == message, f"stderr {stderr.strip()!r}, expected {message!r}")

