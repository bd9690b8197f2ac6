"""Each checker accepts the program's real report and rejects a corrupted copy.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layers  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def cli(*argv: str) -> workloads.Outcome:
    proc = subprocess.run([sys.executable, "-m", "superharrison.cli", *argv], capture_output=True, text=True,
                          env=ENV, cwd=ROOT)
    return workloads.Outcome(proc.returncode, proc.stdout, proc.stderr)


def report(*argv: str) -> dict:
    return json.loads(cli(*argv, "--json").stdout)


def rejects(check, *args) -> None:
    with pytest.raises(checks.CheckError):
        check(*args)


def cohomology_report(spec: str, kind: str, degree: int) -> dict:
    return report("cohomology", "--algebra", spec, "--degree", str(degree), "--kind", kind)


def bump_first_coeff(rep: dict) -> None:
    entry = rep["entries"][0]
    entry["coeff"] = ref.format_rational(Fraction(entry["coeff"]) + 1)


def add_one_sided_entry(rep: dict, dim: int) -> None:
    """Give a degree-2 cochain a value on (i, j) but not on (j, i), breaking graded symmetry."""
    used = {tuple(e["i"]) for e in rep["entries"]}
    i, j = next((i, j) for i in range(dim) for j in range(dim)
                if i != j and (i, j) not in used and (j, i) not in used)
    rep["entries"].append({"i": [i, j], "l": 0, "coeff": "1"})


def test_harrison_cohomology_checker():
    spec = "builtin:truncpoly:3"
    algebra, family = ref.builtin(spec), ref.family_of(spec)
    good = cohomology_report(spec, "harrison", 2)
    checks.check_cohomology(good, algebra, family, "harrison", 2)

    wrong_dim = copy.deepcopy(good)
    wrong_dim["dim_cohomology"] += 1
    wrong_dim["dim_cocycles"] += 1
    rejects(checks.check_cohomology, wrong_dim, algebra, family, "harrison", 2)

    missing_rep = copy.deepcopy(good)
    missing_rep["representatives"].pop()
    rejects(checks.check_cohomology, missing_rep, algebra, family, "harrison", 2)

    bad_rep = copy.deepcopy(good)
    add_one_sided_entry(bad_rep["representatives"][0], algebra.dim)
    rejects(checks.check_cohomology, bad_rep, algebra, family, "harrison", 2)


def test_harrison_degree_one_representatives_are_derivations():
    spec = "builtin:exterior:2"
    algebra, family = ref.builtin(spec), ref.family_of(spec)
    good = cohomology_report(spec, "harrison", 1)
    checks.check_cohomology(good, algebra, family, "harrison", 1)
    bad = copy.deepcopy(good)
    bump_first_coeff(bad["representatives"][0])
    rejects(checks.check_cohomology, bad, algebra, family, "harrison", 1)


def test_hochschild_checker_on_even_and_odd_algebras():
    spec = "builtin:tensor:truncpoly:2:truncpoly:2"
    algebra, family = ref.builtin(spec), ref.family_of(spec)
    good = cohomology_report(spec, "hochschild", 2)
    checks.check_cohomology(good, algebra, family, "hochschild", 2)
    bad = copy.deepcopy(good)
    bump_first_coeff(bad["representatives"][0])
    rejects(checks.check_cohomology, bad, algebra, family, "hochschild", 2)

    spec = "builtin:exterior:2"
    algebra, family = ref.builtin(spec), ref.family_of(spec)
    good = cohomology_report(spec, "hochschild", 2)
    checks.check_cohomology(good, algebra, family, "hochschild", 2)
    for key, delta in (("dim_cochain", 1), ("dim_cocycles", 1), ("dim_coboundaries", -1)):
        bad = copy.deepcopy(good)
        bad[key] += delta
        rejects(checks.check_cohomology, bad, algebra, family, "hochschild", 2)


def test_consecutive_degrees_checker():
    ledger = {("a", "hochschild"): {1: (16, 6, 1), 2: (64, 20, 10)}}
    checks.check_consecutive(ledger)
    ledger[("a", "hochschild")][2] = (64, 20, 11)
    rejects(checks.check_consecutive, ledger)


def test_deform_classes_checker():
    spec = "builtin:truncpoly:3"
    algebra, family = ref.builtin(spec), ref.family_of(spec)
    good = report("deform-classes", "--algebra", spec)
    checks.check_deform_classes(good, algebra, family)
    bad = copy.deepcopy(good)
    add_one_sided_entry(bad["representatives"][0], algebra.dim)
    rejects(checks.check_deform_classes, bad, algebra, family)
    bad = copy.deepcopy(good)
    bad["dim_classes"] -= 1
    bad["dim_cocycles"] -= 1
    bad["representatives"].pop()
    rejects(checks.check_deform_classes, bad, algebra, family)


def test_deform_check_and_extend_checkers(tmp_path):
    inputs = workloads.Inputs(seed=1, out_dir=str(tmp_path))
    name = inputs.rebased("builtin:tensor:truncpoly:2:exterior:1")
    algebra = inputs.known[name][0]
    verdicts = set()
    for path, psi in inputs.psi_docs(name, 4):
        out = cli("deform-check", "--algebra", name, "--psi", path, "--json")
        doc = json.loads(out.stdout)
        checks.check_deform_check(doc, out.code, algebra, psi)
        verdicts.add(doc["valid"])
        flipped = dict(doc, valid=not doc["valid"])
        rejects(checks.check_deform_check, flipped, out.code, algebra, psi)
        rejects(checks.check_deform_check, doc, 1 - out.code, algebra, psi)
        rejects(checks.check_deform_check, dict(doc, associativity_witness=[0, 0, 0]), out.code, algebra, psi)

        out = cli("extend", "--algebra", name, "--psi", path, "--json")
        doc = json.loads(out.stdout)
        checks.check_extend(doc, out.code, algebra, psi)
        bad = copy.deepcopy(doc)
        bump_first_coeff({"entries": bad["extension"]["products"][-1]["terms"]})
        rejects(checks.check_extend, bad, out.code, algebra, psi)
        bad = copy.deepcopy(doc)
        bad["violations"] = [] if doc["violations"] else [{"kind": "associativity", "indices": [0, 0, 0], "detail": ""}]
        rejects(checks.check_extend, bad, out.code, algebra, psi)
    assert verdicts == {True, False}


def test_verify_checker():
    spec = "builtin:exterior:1"
    algebra = ref.builtin(spec)
    good = report("verify", "--algebra", spec, "--budget", "7")
    checks.check_verify(good, algebra, 7)
    rejects(checks.check_verify, good, algebra, 8)
    bad = copy.deepcopy(good)
    bad["suites"][2]["passed"] = False
    rejects(checks.check_verify, bad, algebra, 7)
    bad = copy.deepcopy(good)
    bad["suites"].pop()
    rejects(checks.check_verify, bad, algebra, 7)


def test_refusal_and_input_checkers():
    out = cli("cohomology", "--algebra", "builtin:exterior:3", "--degree", "2", "--kind", "harrison",
              "--max-columns", "10", "--json")
    message = f"resource ceiling: cochain space of dimension 256 exceeds the ceiling {checks.DEFAULT_CEILING}"
    assert out.code == 3 and out.stderr.strip() == message.replace(str(checks.DEFAULT_CEILING), "10")
    checks.check_refusal("", message + "\n", 3, 256)
    rejects(checks.check_refusal, "", message, 2, 256)
    rejects(checks.check_refusal, "{}", message, 3, 256)
    rejects(checks.check_refusal, "", message, 3, 255)

    out = cli("check", "--algebra", "builtin:exterior:2", "--json")
    doc = json.loads(out.stdout)
    checks.check_valid_algebra(doc, out.code)
    rejects(checks.check_valid_algebra, dict(doc, valid=False), out.code)


def test_closed_forms_match_the_stated_tables():
    def harr(spec, degrees):
        return [ref.harrison_dim(ref.family_of(spec), n) for n in degrees]

    def hh(spec, degrees):
        return [ref.hochschild_dim(ref.family_of(spec), n) for n in degrees]

    assert harr("builtin:tensor:truncpoly:2:exterior:1", (1, 2, 3)) == [3, 1, 0]
    assert harr("builtin:tensor:truncpoly:3:exterior:1", (1, 2, 3)) == [5, 2, 0]
    assert harr("builtin:tensor:truncpoly:2:truncpoly:2", (1, 2, 3)) == [4, 4, 0]
    assert harr("builtin:exterior:3", (0, 1, 2)) == [4, 12, 0]
    assert hh("builtin:tensor:truncpoly:2:truncpoly:2", (0, 1, 2, 3)) == [4, 4, 5, 6]
    assert hh("builtin:tensor:truncpoly:2:truncpoly:3", (0, 1, 2)) == [6, 7, 9]
    assert hh("builtin:exterior:2", (0,)) == [None]
    algebra = ref.builtin("builtin:tensor:truncpoly:2:exterior:2")
    for degree in range(4):
        brute = sum(
            1 for t in range(algebra.dim ** degree) for l in range(algebra.dim)
            if sum(algebra.parity[(t // algebra.dim ** s) % algebra.dim] for s in range(degree)) % 2
            == algebra.parity[l]
        )
        assert ref.parity_consistent_entries(algebra, degree) == brute


def test_rebased_algebras_are_supercommutative_and_associative():
    for spec in ("builtin:exterior:3", "builtin:tensor:truncpoly:2:exterior:2", "builtin:truncpoly:4"):
        algebra = ref.Rebased(ref.builtin(spec), random.Random(spec)).algebra
        verdict = ref.deformation_verdict(algebra, {})
        assert verdict["supercommutative_mod_t2"] and verdict["associative_mod_t2"]
        # psi = the product itself is a cocycle exactly when the algebra is associative
        product = {((i, j), k): c for (i, j), row in algebra.mult.items() for k, c in row.items()}
        assert ref.deformation_verdict(algebra, product)["associative_mod_t2"]


def test_traced_run_counts_layers_and_refusals(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(spans), "--", "cohomology", "--algebra",
         "builtin:exterior:3", "--degree", "2", "--kind", "harrison", "--max-columns", "10"],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
    )
    assert proc.returncode == 3
    refused = layers.totals([str(spans)])
    assert refused["cohomology.refusals"] == 1 and refused["cohomology.refuse_entries"] == 256

    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(spans), "--", "deform-classes", "--algebra",
         "builtin:truncpoly:3", "--json"],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
    )
    assert proc.returncode == 0
    checks.check_deform_classes(json.loads(proc.stdout), ref.builtin("builtin:truncpoly:3"),
                                ref.family_of("builtin:truncpoly:3"))
    totals = layers.totals([str(spans)])
    for key in ("cli.run.self_s", "cochains.harrison_space.s", "linalg.kernel_basis.rank", "linalg.cells",
                "shuffles.sigma_o_sign.hits", "deformations.first_order_deformation_check.calls"):
        assert totals[key] > 0, key
    assert totals["cohomology.coboundary_matrix.s"] >= totals["cohomology.coboundary_matrix.self_s"]
    assert "cohomology.refusals" not in totals


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "harrison", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
