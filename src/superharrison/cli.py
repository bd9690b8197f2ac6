"""Command-line interface.

Exit codes are part of the contract:

* 0: success (for checks: the mathematical answer is "valid"/"yes"),
* 1: the computation ran fine and the mathematical answer is negative,
* 2: input problems: unreadable files, malformed JSON, bad flags or ranges,
  and an invalid algebra given to a command that computes on it,
* 3: a resource ceiling would be exceeded.

Algebras are given either as a JSON file path or as a builtin name:
``builtin:exterior:K``, ``builtin:truncpoly:N``, and
``builtin:tensor:<a>:<b>`` where ``<a>`` and ``<b>`` are again builtin
tails, e.g. ``builtin:tensor:truncpoly:2:exterior:1``.

Output is deterministic: identical inputs produce byte-identical reports.
JSON reports carry a sha256 digest of the canonicalized inputs.

Each ``_cmd_*`` handler returns its report as (exit code, JSON document,
text lines), and ``run`` alone prints it: with ``--json`` the document,
to which ``run`` adds the ``command`` key (the subcommand), otherwise the
lines.  ``verify`` runs the suites of ``SUITES`` in table order.
Cochains print from their sparse (module index, value) terms.
A command that computes on an algebra validates it as it reads it, before
any complex is built, so ``NotASubspaceError`` and ``NotACocycleError`` are
faults of the program: ``run`` lets them propagate.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

try:  # the interpreter's builtin SHA-256, found as the standard ``random`` finds its sha512
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .algebras import (
    MAX_BUILTIN_DIM,
    SuperAlgebra,
    SuperModule,
    Violation,
    exterior_algebra,
    self_module,
    tensor_product,
    truncated_polynomial,
    validate_superalgebra,
    validate_supermodule,
)
from .cochains import Cochain, coboundary_scatter, hochschild_coboundary, super_shuffle_sum
from .cohomology import (
    Complex,
    ComplexKind,
    ResourceCeilingError,
    ResourceLimits,
    coboundary_matrix,
    cohomology,
    derivation_space,
)
from .deformations import (
    NotACocycleError,
    SweepReport,
    deformation_classes,
    deformation_iff_cocycle,
    extension_equivalence,
    extension_valid_iff_cocycle,
    first_order_deformation_check,
    random_parity_cochain,
    square_zero_extension,
)
from .linalg import NotASubspaceError, Rat, SubspaceBasis, kernel_basis
from .serialize import (
    InputFormatError,
    algebra_to_dict,
    cochain_to_dict,
    format_rational,
    load_algebra,
    load_cochain,
)
from .shuffles import Permutation, enumerate_shuffles, sigma_o_sign

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# (exit code, JSON document, text lines); the document is None for the
# commands without ``--json``.
Report = tuple[int, Optional[dict], list[str]]


def _parse_builtin(spec: str, tokens: list[str], pos: int) -> tuple[SuperAlgebra, int]:
    if pos >= len(tokens):
        # Only a tensor reads past the last token.
        raise InputFormatError(f"{spec} is incomplete: a tensor product needs two factors")
    head = tokens[pos]
    if head in ("exterior", "truncpoly"):
        if pos + 1 >= len(tokens):
            raise InputFormatError(f"{spec} is incomplete: {head} needs an integer parameter")
        try:
            value = int(tokens[pos + 1])
        except ValueError as exc:
            raise InputFormatError(f"{spec}: bad integer {tokens[pos + 1]!r} for {head}") from exc
        try:
            algebra = exterior_algebra(value) if head == "exterior" else truncated_polynomial(value)
        except ValueError as exc:
            raise InputFormatError(f"{spec}: {exc}") from exc
        return algebra, pos + 2
    if head == "tensor":
        left, nxt = _parse_builtin(spec, tokens, pos + 1)
        right, end = _parse_builtin(spec, tokens, nxt)
        # tensor_product builds all dim^2 product rows; refuse before it runs.
        if left.dim * right.dim > MAX_BUILTIN_DIM:
            raise InputFormatError(
                f"builtin:{':'.join(tokens[pos:end])} has dimension {left.dim * right.dim}, "
                f"above the builtin bound {MAX_BUILTIN_DIM}"
            )
        return tensor_product(left, right), end
    raise InputFormatError(f"{spec}: unknown builtin algebra {head!r}")


def resolve_algebra(spec: str) -> SuperAlgebra:
    """File path or builtin:... name."""
    if spec.startswith("builtin:"):
        tokens = spec.split(":")[1:]
        algebra, end = _parse_builtin(spec, tokens, 0)
        if end != len(tokens):
            raise InputFormatError(f"{spec}: trailing tokens after the algebra: {':'.join(tokens[end:])}")
        return algebra
    return load_algebra(spec)


def _valid_algebra(spec: str) -> SuperAlgebra:
    """The algebra of ``spec``, refused unless it is a supercommutative superalgebra; its self-module's laws follow."""
    algebra = resolve_algebra(spec)
    violations = validate_superalgebra(algebra).violations
    if violations:
        raise InputFormatError(f"{spec} is not a supercommutative superalgebra: {_format_violation(violations[0])}")
    return algebra


def _nonnegative(args: argparse.Namespace, name: str) -> int:
    """The value of the flag of ``name``, refused as bad input if it is negative."""
    value = getattr(args, name)
    if value < 0:
        raise InputFormatError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")
    return value


def _complex(args: argparse.Namespace, algebra: SuperAlgebra, kind: ComplexKind) -> Complex:
    """The complex of ``kind`` of the algebra on itself, under the ceilings of the flags."""
    limits = ResourceLimits(max_degree=_nonnegative(args, "max_degree"), max_columns=_nonnegative(args, "max_columns"))
    return Complex(self_module(algebra), kind, limits)


def _digest(*docs: dict) -> str:
    # Not ``hashlib``: importing it loads OpenSSL, about 3.4 MB of peak RSS and 3-4 ms per process.
    blob = "\x1e".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) for doc in docs)
    return sha256(blob.encode("utf-8")).hexdigest()


def _format_terms(module: SuperModule, terms: Iterable[tuple[int, Rat]]) -> str:
    """A module element from its nonzero (basis index, coefficient) terms."""
    parts = []
    for l, v in terms:
        coeff = format_rational(v)
        parts.append(module.basis_names[l] if coeff == "1" else f"{coeff}*{module.basis_names[l]}")
    return " + ".join(parts) or "0"


def _format_cochains(label: str, cochains: Sequence[Cochain]) -> list[str]:
    """One header per cochain, then one line per argument tuple with a nonzero value."""
    lines = []
    for idx, f in enumerate(cochains):
        lines.append(f"{label} {idx}:")
        names = f.algebra.basis_names
        # Entries come in offset order, so the entries of one tuple are adjacent.
        for t, terms in groupby(f.iter_nonzero(), key=itemgetter(0)):
            value = _format_terms(f.module, ((l, v) for _, l, v in terms))
            lines.append(f"  f({','.join(names[i] for i in t)}) = {value}")
    return lines


def _format_violation(v: Violation) -> str:
    return f"{v.kind} at {v.indices}: {v.detail}"


def _violations_report(ok: bool, doc: dict, header: list[str], violations: Sequence[Violation]) -> Report:
    """``doc`` with its violations, or the ``header`` lines and one line per violation."""
    doc["violations"] = [{"kind": v.kind, "indices": list(v.indices), "detail": v.detail} for v in violations]
    lines = header + [f"  {_format_violation(v)}" for v in violations]
    return (EXIT_OK if ok else EXIT_NEGATIVE), doc, lines


def _cmd_check(args: argparse.Namespace) -> Report:
    algebra = resolve_algebra(args.algebra)
    violations = validate_superalgebra(algebra).violations + validate_supermodule(self_module(algebra)).violations
    ok = not violations
    doc = {"inputs_digest": _digest(algebra_to_dict(algebra)), "valid": ok}
    return _violations_report(ok, doc, [f"algebra: {args.algebra}", f"valid: {'yes' if ok else 'no'}"], violations)


def _cmd_shuffles(args: argparse.Namespace) -> Report:
    # All C(n, p) shuffles are built before one prints; a bad split gets enumerate_shuffles's error.
    # C(n, i) grows up to i = min(p, n - p), so its running product stops as soon as it passes the ceiling.
    limit = ResourceLimits.max_columns
    n, p = args.n, args.p
    count = 1
    for i in range(1, min(p, n - p) + 1):
        count = count * (n - i + 1) // i
        if count > limit:
            raise ResourceCeilingError(f"C({n}, {p}) shuffles exceed the ceiling {limit}")
    return EXIT_OK, None, [" ".join(str(v) for v in perm.images) for perm in enumerate_shuffles(n, p)]


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    tokens = text.split(",")
    if not any(tokens):
        raise InputFormatError(f"empty {what} list {text!r}")
    if not all(tokens):
        raise InputFormatError(f"empty item in {what} list {text!r}")
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise InputFormatError(f"bad {what} list {text!r}") from exc


def _cmd_sign(args: argparse.Namespace) -> Report:
    images = _parse_int_list(args.perm, "permutation")
    parities = _parse_int_list(args.parity, "parity")
    return EXIT_OK, None, ["+1" if sigma_o_sign(Permutation(images), parities) == 1 else "-1"]


def _require_self_module(args: argparse.Namespace) -> None:
    if getattr(args, "module", "self") != "self":
        raise InputFormatError("only --module self is supported")


def _cmd_cohomology(args: argparse.Namespace) -> Report:
    _require_self_module(args)
    algebra = _valid_algebra(args.algebra)
    kind = ComplexKind(args.kind)
    result = cohomology(_complex(args, algebra, kind), _nonnegative(args, "degree"))
    doc = {
        "inputs_digest": _digest(algebra_to_dict(algebra)),
        "kind": kind.value,
        "degree": result.degree,
        "dim_cochain": result.dim_cochain,
        "dim_cocycles": result.dim_cocycles,
        "dim_coboundaries": result.dim_coboundaries,
        "dim_cohomology": result.dim_cohomology,
        "representatives": [cochain_to_dict(rep) for rep in result.representatives],
    }
    lines = [
        f"algebra: {args.algebra}",
        f"kind: {kind.value}",
        f"degree: {result.degree}",
        f"dim C = {result.dim_cochain}",
        f"dim Z = {result.dim_cocycles}",
        f"dim B = {result.dim_coboundaries}",
        f"dim H = {result.dim_cohomology}",
    ]
    return EXIT_OK, doc, lines + _format_cochains("representative", result.representatives)


def _cmd_derivations(args: argparse.Namespace) -> Report:
    algebra = _valid_algebra(args.algebra)
    module = self_module(algebra)
    space = derivation_space(module)
    derivations = [list(Cochain(1, module, row).iter_nonzero()) for row in space.rows]
    doc = {
        "inputs_digest": _digest(algebra_to_dict(algebra)),
        "dim": space.dim,
        "basis": [[{"arg": i, "value": l, "coeff": str(v)} for (i,), l, v in terms] for terms in derivations],
    }
    lines = [f"algebra: {args.algebra}", f"dim Der = {space.dim}"]
    for idx, terms in enumerate(derivations):
        parts = [f"e_{algebra.basis_names[i]} -> {_format_terms(module, [(l, v)])}" for (i,), l, v in terms]
        lines.append(f"derivation {idx}: " + "; ".join(parts))
    return EXIT_OK, doc, lines


def _cmd_deform_check(args: argparse.Namespace) -> Report:
    algebra = resolve_algebra(args.algebra)
    psi = load_cochain(args.psi, self_module(algebra), degree=2, name="deformation direction")
    report = first_order_deformation_check(psi)
    doc = {
        "inputs_digest": _digest(algebra_to_dict(algebra), cochain_to_dict(psi)),
        "valid": report.valid,
        "parity_ok": report.parity_ok,
        "supercommutative_mod_t2": report.supercommutative_mod_t2,
        "associative_mod_t2": report.associative_mod_t2,
        "supercommutativity_witness": list(report.supercommutativity_witness or ()) or None,
        "associativity_witness": list(report.associativity_witness or ()) or None,
    }
    names = algebra.basis_names
    lines = [
        f"valid first-order deformation: {'yes' if report.valid else 'no'}",
        f"  parity preserved: {report.parity_ok}",
        f"  supercommutative mod t^2: {report.supercommutative_mod_t2}",
    ]
    if report.supercommutativity_witness:
        lines.append(f"    fails at ({', '.join(names[i] for i in report.supercommutativity_witness)})")
    lines.append(f"  associative mod t^2: {report.associative_mod_t2}")
    if report.associativity_witness:
        lines.append(f"    fails at ({', '.join(names[i] for i in report.associativity_witness)})")
    return (EXIT_OK if report.valid else EXIT_NEGATIVE), doc, lines


def _cmd_deform_classes(args: argparse.Namespace) -> Report:
    algebra = _valid_algebra(args.algebra)
    result = deformation_classes(_complex(args, algebra, ComplexKind.SUPER_HARRISON))
    doc = {
        "inputs_digest": _digest(algebra_to_dict(algebra)),
        "dim_classes": result.dim_cohomology,
        "dim_cocycles": result.dim_cocycles,
        "dim_coboundaries": result.dim_coboundaries,
        "representatives": [cochain_to_dict(rep) for rep in result.representatives],
    }
    lines = [f"algebra: {args.algebra}", f"first-order deformation classes: {result.dim_cohomology}"]
    return EXIT_OK, doc, lines + _format_cochains("class", result.representatives)


def _cmd_extend(args: argparse.Namespace) -> Report:
    _require_self_module(args)
    algebra = resolve_algebra(args.algebra)
    psi = load_cochain(args.psi, self_module(algebra), degree=2, name="extension cocycle")
    ext = square_zero_extension(psi)
    report = validate_superalgebra(ext)
    doc = {
        "inputs_digest": _digest(algebra_to_dict(algebra), cochain_to_dict(psi)),
        "valid": report.ok,
        "extension": algebra_to_dict(ext),
    }
    header = [f"extension dimension: {ext.dim}", f"valid superalgebra: {'yes' if report.ok else 'no'}"]
    return _violations_report(report.ok, doc, header, report.violations)


# The verify suites, in run order.  Each takes the Harrison complex of the
# algebra on its self-module, which they share, and the budget, and returns
# (passed, detail).  Every suite but ``validators`` reaches its degrees
# through that complex, so its ceilings admit or refuse the suite.


def _suite_validators(harrison: Complex, budget: int):
    ok = validate_superalgebra(harrison.algebra).ok and validate_supermodule(harrison.module).ok
    return ok, "algebra and self-module laws"


def _suite_complex(harrison: Complex, budget: int):
    detail = []
    # d_{n+1} reaches degree n + 2; d_1 d_0 is always checked, so a ceiling below 2 refuses.
    for n in range(max(1, min(3, harrison.limits.max_degree - 1))):
        if not coboundary_matrix(harrison, n + 1).matmul(coboundary_matrix(harrison, n)).is_zero():
            detail.append(f"d(d(.)) != 0 at degree {n}")
    # d d vanishes on all of C^2 once it vanishes on each elementary cochain,
    # the parity-violating ones included, which no Harrison matrix reaches.
    module = harrison.module
    for off in range(module.algebra.dim**2 * module.dim):
        if coboundary_scatter(module, 3, coboundary_scatter(module, 2, {off: 1})):
            detail.append(f"d(d(f)) != 0 for the elementary cochain at offset {off}")
            break
    return not detail, "; ".join(detail) if detail else "d composed with d is zero"


def _suite_closure(harrison: Complex, budget: int):
    module = harrison.module
    for index, row in enumerate(harrison.space(2).rows):
        boundary = hochschild_coboundary(Cochain(2, module, row))
        for p in (1, 2):
            for t, l, value in super_shuffle_sum(boundary, p).iter_nonzero():  # its first nonzero entry
                args = ", ".join(module.algebra.basis_names[i] for i in t)
                return False, (
                    f"su_{{3,{p}}} of the coboundary of Harrison element {index} is {format_rational(value)} "
                    f"at entry (t, l) = ({t}, {l}), that is ({args}) -> {module.basis_names[l]}"
                )
    return True, "coboundaries of Harrison elements stay Harrison"


def _suite_derivations(harrison: Complex, budget: int):
    z1 = kernel_basis(coboundary_matrix(harrison, 1))
    harrison1 = harrison.space(1)
    cocycles = SubspaceBasis.from_vectors((harrison1.combination(row) for row in z1.rows), harrison1.ambient_dim)
    ok = cocycles == derivation_space(harrison.module)
    return ok, "degree-1 cocycles match the Leibniz solutions"


def _sweep_suite(sweep: Callable[[Complex, int], SweepReport]):
    """The suite that runs ``sweep`` on the complex with the budget."""

    def suite(harrison: Complex, budget: int):
        report = sweep(harrison, budget)
        return report.passed, f"{report.cases} cases" if report.passed else "; ".join(report.failures[:3])

    return suite


def _suite_equivalence(harrison: Complex, budget: int):
    module = harrison.module
    rng = random.Random(11)
    z2 = kernel_basis(coboundary_matrix(harrison, 2))
    runs = max(budget // 10, 5)
    for _ in range(runs):
        weights = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(z2.dim)}
        psi = Cochain(2, module, harrison.space(2).combination(z2.combination(weights)))
        shifted = psi - hochschild_coboundary(random_parity_cochain(module, 1, rng))
        # extension_equivalence itself checks that a g it returns has dg = psi - shifted.
        if extension_equivalence(harrison, psi, shifted) is None:
            return False, "a random coboundary shift was not recovered"
    return True, f"{runs} random coboundary shifts recovered"


SUITES = {
    "validators": _suite_validators,
    "complex": _suite_complex,
    "closure": _suite_closure,
    "derivations": _suite_derivations,
    "deformations": _sweep_suite(deformation_iff_cocycle),
    "extensions": _sweep_suite(extension_valid_iff_cocycle),
    "equivalence": _suite_equivalence,
}


def _cmd_verify(args: argparse.Namespace) -> Report:
    budget = _nonnegative(args, "budget")
    wanted = args.suite or ["all"]
    # The validators suite reports an invalid algebra itself; every other suite assumes a valid one.
    algebra = (resolve_algebra if "all" in wanted or "validators" in wanted else _valid_algebra)(args.algebra)
    harrison = _complex(args, algebra, ComplexKind.SUPER_HARRISON)
    # The budget counts random cochains, each drawn and judged in full, so the column ceiling bounds it too.
    if budget > harrison.limits.max_columns:
        raise ResourceCeilingError(f"budget {budget} exceeds the ceiling {harrison.limits.max_columns}")
    suites = []
    for name, suite in SUITES.items():
        if "all" in wanted or name in wanted:
            ok, detail = suite(harrison, budget)
            suites.append({"name": name, "passed": ok, "detail": detail})
            if name == "validators" and not ok:
                break  # Every later suite assumes a valid algebra.
    passed = all(s["passed"] for s in suites)
    doc = {"inputs_digest": _digest(algebra_to_dict(algebra)), "suites": suites, "passed": passed}
    lines = [f"{'PASS' if s['passed'] else 'FAIL'} {s['name']}: {s['detail']}" for s in suites]
    return (EXIT_OK if passed else EXIT_NEGATIVE), doc, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superharrison",
        description="Exact Hochschild and graded Harrison cohomology for supercommutative superalgebras.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_algebra(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algebra", required=True, help="JSON file or builtin:... name")

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable report")

    def add_limits(p: argparse.ArgumentParser) -> None:
        for name, what in (("max_degree", "degree"), ("max_columns", "cochain dimension")):
            default = getattr(ResourceLimits, name)
            text = f"{what} ceiling (default {default})"
            p.add_argument("--" + name.replace("_", "-"), type=int, default=default, help=text)

    p = sub.add_parser("check", help="validate superalgebra laws")
    add_algebra(p)
    add_json(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("shuffles", help="list (p, n-p)-shuffles, one per line")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(handler=_cmd_shuffles)

    p = sub.add_parser("sign", help="odd-subpermutation signature")
    p.add_argument("--perm", required=True, help="images, e.g. 3,1,2")
    p.add_argument("--parity", required=True, help="slot parities, e.g. 0,1,1")
    p.set_defaults(handler=_cmd_sign)

    p = sub.add_parser("cohomology", help="dimensions and representatives at one degree")
    add_algebra(p)
    p.add_argument("--module", default="self", help="only 'self' is supported")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--kind", choices=["harrison", "hochschild"], required=True)
    add_limits(p)
    add_json(p)
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("derivations", help="parity-preserving Leibniz maps A -> A")
    add_algebra(p)
    add_json(p)
    p.set_defaults(handler=_cmd_derivations)

    p = sub.add_parser("deform-check", help="is psi a valid first-order deformation direction")
    add_algebra(p)
    p.add_argument("--psi", required=True, help="degree-2 cochain JSON file")
    add_json(p)
    p.set_defaults(handler=_cmd_deform_check)

    p = sub.add_parser("deform-classes", help="first-order deformations modulo equivalence")
    add_algebra(p)
    add_limits(p)
    add_json(p)
    p.set_defaults(handler=_cmd_deform_classes)

    p = sub.add_parser("extend", help="build and validate the square-zero extension")
    add_algebra(p)
    p.add_argument("--module", default="self", help="only 'self' is supported")
    p.add_argument("--psi", required=True, help="degree-2 cochain JSON file")
    add_json(p)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("verify", help="run consistency suites against an algebra")
    add_algebra(p)
    p.add_argument("--suite", action="append", choices=["all", *SUITES], help="run in table order")
    p.add_argument(
        "--budget",
        type=int,
        default=50,
        help="random cochains that deformations and extensions each draw after the parity basis; "
        "equivalence runs max(BUDGET // 10, 5) shifts",
    )
    add_limits(p)
    add_json(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        code, doc, lines = args.handler(args)
    except ResourceCeilingError as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NotASubspaceError, NotACocycleError):
        raise  # The algebra was validated when it was read: these are faults of the program, not bad input.
    except ValueError as exc:  # InputFormatError and the library's own checks of an argument
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    as_json = getattr(args, "json", False)
    print(json.dumps({**doc, "command": args.subcommand}, sort_keys=True, indent=2) if as_json else "\n".join(lines))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
