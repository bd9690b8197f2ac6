"""The benchmark's workloads: which CLI invocations each one makes, on which inputs.

Inputs come from the seed alone.  Each JSON algebra is a builtin algebra in
a seeded change of basis (``reference.Rebased``), so its cohomology is the
builtin's and the same closed forms check it, while its rational structure
constants exercise the ``Fraction`` arithmetic that 0/+-1 constants skip.
Each psi document is a seeded coboundary, valid by construction, or one
with a seeded defect.

Regenerate the inputs of one workload and list its operations with

    python3 perfbench/workloads.py --workload harrison --seed 3 --out .perfbench/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks
import reference as ref

# The largest builtin, at a degree whose cochain space is far over the
# default ceiling of 20000 columns: each kind must refuse it with exit 3.
OVERSIZED = ("builtin:exterior:6", 3)
VERIFY_BUDGET = 50


@dataclass
class Outcome:
    """What one CLI process left behind."""

    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One CLI invocation, the exit codes that mean it ran, and how to check its report.

    ``check`` gets the outcome and the round's ledger of cohomology
    dimensions, which ``checks.check_consecutive`` reads after the round.
    """

    argv: list
    check: Callable[[Outcome, dict], None]
    exits: tuple = (0,)


@dataclass
class Workload:
    ops: list
    algebras: list  # every --algebra value, for set-up


class Inputs:
    """Writes the seeded input files of one workload and resolves algebra specs."""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.known: dict = {}  # --algebra value -> (reference algebra, closed-form family)
        os.makedirs(out_dir, exist_ok=True)

    def builtin(self, spec: str) -> str:
        self.known[spec] = (ref.builtin(spec), ref.family_of(spec))
        return spec

    def rebased(self, spec: str) -> str:
        rng = random.Random(f"{self.seed}:rebase:{spec}")
        algebra = ref.Rebased(ref.builtin(spec), rng).algebra
        path = os.path.join(self.out_dir, "rebased-" + spec.split(":", 1)[1].replace(":", "-") + ".json")
        _write_json(path, algebra.to_doc())
        self.known[path] = (algebra, ref.family_of(spec))
        return path

    def psi_docs(self, name: str, count: int) -> list:
        """Seeded degree-2 cochains on an algebra: a coboundary, then defective variants."""
        algebra = self.known[name][0]
        rng = random.Random(f"{self.seed}:psi:{name}")
        par = algebra.parity
        dim = algebra.dim
        out = []
        for index in range(count):
            g = {((i,), l): rng.choice((1, -1, 2, -3)) for i in range(dim) for l in range(dim)
                 if par[i] == par[l] and rng.random() < 0.5}
            psi = ref.coboundary_of_1cochain(algebra, g)
            i, j = rng.randrange(dim), rng.randrange(dim)
            l = next(l for l in range(dim) if (par[i] + par[j]) % 2 == par[l])
            defect = index % 4
            if defect == 1:  # symmetric bump: usually breaks associativity only
                sign = -1 if par[i] and par[j] else 1
                psi[((i, j), l)] = psi.get(((i, j), l), 0) + 1
                psi[((j, i), l)] = psi.get(((j, i), l), 0) + (sign if i != j else 0)
            elif defect == 2:  # one-sided bump: breaks graded symmetry
                j = (i + 1) % dim
                psi[((i, j), l)] = psi.get(((i, j), l), 0) + 1
            elif defect == 3 and any(par):  # an entry of the wrong parity
                odd_l = next(l for l in range(dim) if (par[i] + par[j]) % 2 != par[l])
                psi[((i, j), odd_l)] = psi.get(((i, j), odd_l), 0) + 1
            psi = {key: v for key, v in psi.items() if v}
            path = os.path.join(self.out_dir, f"psi-{_slug(name)}-{index}.json")
            _write_json(path, ref.cochain_to_doc(psi, 2))
            out.append((path, psi))
        return out


def _slug(name: str) -> str:
    return os.path.splitext(os.path.basename(name))[0].replace(":", "-")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _cohomology(inputs: Inputs, name: str, kind: str, degree: int) -> Op:
    algebra, family = inputs.known[name]

    def check(out: Outcome, ledger: dict) -> None:
        dims = checks.check_cohomology(checks.load_report(out.stdout), algebra, family, kind, degree)
        ledger.setdefault((name, kind), {})[degree] = dims

    return Op(["cohomology", "--algebra", name, "--degree", str(degree), "--kind", kind, "--json"], check)


def _oversized(kind: str) -> Op:
    spec, degree = OVERSIZED
    algebra = ref.builtin(spec)
    if kind == "hochschild":
        columns = algebra.dim ** (degree + 1)
    else:
        columns = ref.parity_consistent_entries(algebra, degree)

    def check(out: Outcome, ledger: dict) -> None:
        checks.check_refusal(out.stdout, out.stderr, out.code, columns)

    return Op(["cohomology", "--algebra", spec, "--degree", str(degree), "--kind", kind, "--json"], check, exits=(3,))


def _deform_classes(inputs: Inputs, name: str) -> Op:
    algebra, family = inputs.known[name]

    def check(out: Outcome, ledger: dict) -> None:
        checks.check_deform_classes(checks.load_report(out.stdout), algebra, family)

    return Op(["deform-classes", "--algebra", name, "--json"], check)


def _verify(inputs: Inputs, name: str) -> Op:
    algebra = inputs.known[name][0]

    def check(out: Outcome, ledger: dict) -> None:
        checks.check_verify(checks.load_report(out.stdout), algebra, VERIFY_BUDGET)

    return Op(["verify", "--algebra", name, "--budget", str(VERIFY_BUDGET), "--json"], check)


def _psi_ops(inputs: Inputs, name: str, count: int) -> list:
    algebra = inputs.known[name][0]
    ops = []
    for path, psi in inputs.psi_docs(name, count):
        def check_deform(out: Outcome, ledger: dict, psi=psi) -> None:
            checks.check_deform_check(checks.load_report(out.stdout), out.code, algebra, psi)

        def check_extend(out: Outcome, ledger: dict, psi=psi) -> None:
            checks.check_extend(checks.load_report(out.stdout), out.code, algebra, psi)

        ops.append(Op(["deform-check", "--algebra", name, "--psi", path, "--json"], check_deform, exits=(0, 1)))
        ops.append(Op(["extend", "--algebra", name, "--psi", path, "--json"], check_extend, exits=(0, 1)))
    return ops


def _hochschild(inputs: Inputs) -> list:
    ops = []
    plan = [
        (inputs.builtin("builtin:truncpoly:4"), range(2, 4)),
        (inputs.builtin("builtin:truncpoly:5"), range(2, 4)),
        (inputs.builtin("builtin:exterior:2"), range(2, 4)),
        (inputs.builtin("builtin:exterior:3"), range(1, 3)),
        (inputs.builtin("builtin:tensor:truncpoly:2:truncpoly:2"), range(2, 4)),
        (inputs.builtin("builtin:tensor:truncpoly:2:truncpoly:3"), range(0, 3)),
        (inputs.rebased("builtin:truncpoly:4"), range(1, 3)),
        (inputs.rebased("builtin:truncpoly:3"), range(2, 4)),
        (inputs.rebased("builtin:exterior:2"), range(2, 4)),
        (inputs.rebased("builtin:tensor:truncpoly:2:truncpoly:2"), range(1, 3)),
        (inputs.rebased("builtin:tensor:truncpoly:2:exterior:1"), range(1, 4)),
    ]
    for name, degrees in plan:
        ops += [_cohomology(inputs, name, "hochschild", n) for n in degrees]
    ops.append(_oversized("hochschild"))
    return ops


def _harrison(inputs: Inputs) -> list:
    ops = []
    plan = [
        (inputs.builtin("builtin:truncpoly:3"), range(2, 4)),
        (inputs.builtin("builtin:truncpoly:4"), range(3, 4)),
        (inputs.builtin("builtin:exterior:2"), range(0, 4)),
        (inputs.builtin("builtin:tensor:truncpoly:2:exterior:1"), range(2, 4)),
        (inputs.builtin("builtin:tensor:truncpoly:2:truncpoly:2"), range(2, 4)),
        (inputs.builtin("builtin:tensor:truncpoly:2:exterior:2"), range(1, 2)),
        (inputs.builtin("builtin:tensor:truncpoly:3:exterior:1"), range(2, 3)),
        (inputs.rebased("builtin:truncpoly:4"), range(2, 4)),
        (inputs.rebased("builtin:exterior:2"), range(1, 3)),
        (inputs.rebased("builtin:tensor:truncpoly:2:exterior:1"), range(2, 4)),
    ]
    for name, degrees in plan:
        ops += [_cohomology(inputs, name, "harrison", n) for n in degrees]
    for spec in ("builtin:tensor:truncpoly:2:exterior:1", "builtin:tensor:truncpoly:3:exterior:1"):
        ops.append(_deform_classes(inputs, inputs.builtin(spec)))
    for spec in ("builtin:truncpoly:4", "builtin:tensor:truncpoly:2:exterior:1"):
        ops.append(_deform_classes(inputs, inputs.rebased(spec)))
    ops.append(_oversized("harrison"))
    return ops


def _crosscheck(inputs: Inputs) -> list:
    ops = []
    for spec in ("builtin:exterior:1", "builtin:exterior:2", "builtin:truncpoly:2", "builtin:truncpoly:3",
                 "builtin:tensor:truncpoly:2:exterior:1"):
        ops.append(_verify(inputs, inputs.builtin(spec)))
    for spec in ("builtin:truncpoly:3", "builtin:exterior:2", "builtin:tensor:truncpoly:2:exterior:1"):
        ops.append(_verify(inputs, inputs.rebased(spec)))
    for name in (inputs.builtin("builtin:truncpoly:3"), inputs.builtin("builtin:tensor:truncpoly:2:exterior:1"),
                 inputs.rebased("builtin:exterior:2"), inputs.rebased("builtin:tensor:truncpoly:2:exterior:1")):
        ops += _psi_ops(inputs, name, 4)
    return ops


WORKLOADS = {"hochschild": _hochschild, "harrison": _harrison, "crosscheck": _crosscheck}


def build(name: str, seed: int, out_dir: str) -> Workload:
    """Write the workload's inputs for ``seed`` under ``out_dir`` and list its operations."""
    inputs = Inputs(seed, out_dir)
    ops = WORKLOADS[name](inputs)
    algebras = sorted({op.argv[op.argv.index("--algebra") + 1] for op in ops})
    return Workload(ops, algebras)


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate one workload's inputs and list its operations.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=os.path.join(".perfbench", "inputs"))
    args = parser.parse_args(argv)
    workload = build(args.workload, args.seed, os.path.join(args.out, f"{args.workload}-{args.seed}"))
    for op in workload.ops:
        print("superharrison " + " ".join(op.argv))


if __name__ == "__main__":
    main()
