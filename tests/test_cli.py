"""Tests for the command line interface, driven through run()."""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import dump_algebra

import superharrison
from superharrison.algebras import exterior_algebra, self_module, tensor_product, truncated_polynomial
from superharrison.cli import SUITES, _digest, build_parser, resolve_algebra, run
from superharrison.cochains import Cochain, coboundary_scatter, encode, hochschild_coboundary, super_shuffle_sum
from superharrison.cohomology import ResourceLimits
from superharrison.deformations import NotACocycleError, is_cocycle
from superharrison.linalg import NotASubspaceError
from superharrison.serialize import algebra_to_dict, cochain_from_dict, cochain_to_dict


@pytest.fixture
def invalid_algebra_file(tmp_path):
    doc = {
        "dim": 2,
        "basis": ["1", "t"],
        "parity": [0, 1],
        "products": [
            {"i": 0, "j": 0, "terms": [{"k": 0, "coeff": "1"}]},
            {"i": 0, "j": 1, "terms": [{"k": 1, "coeff": "1"}]},
            {"i": 1, "j": 0, "terms": [{"k": 1, "coeff": "1"}]},
            {"i": 1, "j": 1, "terms": [{"k": 0, "coeff": "1"}]},
        ],
        "unit": 0,
    }
    path = tmp_path / "clifford.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def square_psi_file(tmp_path):
    doc = {"degree": 2, "entries": [{"i": [1, 1], "l": 0, "coeff": "1"}]}
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestShufflesCommand:
    def test_lists_images_in_combination_order(self, capsys):
        assert run(["shuffles", "4", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "1 2 3 4",
            "1 3 2 4",
            "1 4 2 3",
            "2 3 1 4",
            "2 4 1 3",
            "3 4 1 2",
        ]

    def test_rejects_bad_split(self, capsys):
        assert run(["shuffles", "3", "3"]) == 2
        assert run(["shuffles", "3", "0"]) == 2

    def test_too_many_shuffles_are_refused_before_any_is_built(self, capsys, monkeypatch):
        def refuse(n, p):
            raise AssertionError("shuffles were enumerated")

        monkeypatch.setattr("superharrison.shuffles.enumerate_shuffles", refuse)
        monkeypatch.setattr("superharrison.cli.enumerate_shuffles", refuse)
        assert run(["shuffles", "30", "15"]) == 3
        assert capsys.readouterr() == ("", "resource ceiling: C(30, 15) shuffles exceed the ceiling 20000\n")

    def test_a_huge_split_is_refused_without_its_binomial(self, capsys):
        # C(1000000, 500000) has over 300000 digits: the refusal names it
        # and stops counting once the ceiling is passed.
        assert run(["shuffles", "1000000", "500000"]) == 3
        assert capsys.readouterr() == ("", "resource ceiling: C(1000000, 500000) shuffles exceed the ceiling 20000\n")

    def test_more_entries_than_the_bound_are_refused_before_any_is_built(self, capsys, monkeypatch):
        # C(20000, 1) = 20000 is within the ceiling, but its 20000 shuffles of 20000 images are not.
        def refuse(n, p):
            raise AssertionError("shuffles were enumerated")

        monkeypatch.setattr("superharrison.shuffles.enumerate_shuffles", refuse)
        monkeypatch.setattr("superharrison.cli.enumerate_shuffles", refuse)
        assert run(["shuffles", "20000", "1"]) == 3
        message = "20000 * C(20000, 1) = 400000000 shuffle entries exceed the bound 250000"
        assert capsys.readouterr() == ("", f"resource ceiling: {message}\n")
        assert run(["shuffles", "200", "2"]) == 3
        assert capsys.readouterr().out == ""

    def test_the_entry_bound_admits_its_edge(self, capsys):
        # 500 * C(500, 1) = 250000 entries is the bound itself.
        assert run(["shuffles", "500", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 500
        assert run(["shuffles", "501", "1"]) == 3
        assert run(["shuffles", "501", "501"]) == 2

    def test_shuffles_under_the_ceiling_are_listed(self, capsys):
        # C(16, 8) = 12870 fits under the default 20000; C(17, 8) = 24310 does not.
        assert run(["shuffles", "16", "8"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 12870
        assert run(["shuffles", "17", "8"]) == 3


class TestSignCommand:
    def test_negative_example(self, capsys):
        assert run(["sign", "--perm", "3,1,2", "--parity", "0,1,1"]) == 0
        assert capsys.readouterr().out == "-1\n"

    def test_positive_example(self, capsys):
        assert run(["sign", "--perm", "1,2", "--parity", "1,1"]) == 0
        assert capsys.readouterr().out == "+1\n"

    def test_mismatched_lengths_are_input_errors(self, capsys):
        assert run(["sign", "--perm", "1,2", "--parity", "1"]) == 2

    def test_malformed_permutation_is_an_input_error(self, capsys):
        assert run(["sign", "--perm", "1,1", "--parity", "0,0"]) == 2

    def test_a_bad_parity_is_named_with_its_vector(self, capsys):
        assert run(["sign", "--perm", "2,1", "--parity", "0,2"]) == 2
        assert capsys.readouterr() == ("", "error: parities must be 0 or 1, got (0, 2)\n")

    @pytest.mark.parametrize(
        "perm, parity, problem",
        [("3,,1,2", "0,1,1,", "permutation list '3,,1,2'"), ("3,1,2", "0,1,1,", "parity list '0,1,1,'")],
    )
    def test_an_empty_item_is_an_input_error(self, capsys, perm, parity, problem):
        assert run(["sign", "--perm", perm, "--parity", parity]) == 2
        assert capsys.readouterr().err == f"error: empty item in {problem}\n"

    @pytest.mark.parametrize(
        "perm, parity, problem", [(",", ",", "permutation list ','"), ("1", "", "parity list ''")]
    )
    def test_an_empty_list_is_an_input_error(self, capsys, perm, parity, problem):
        assert run(["sign", "--perm", perm, "--parity", parity]) == 2
        assert capsys.readouterr().err == f"error: empty {problem}\n"

    def test_a_long_reversal_is_signed_in_linear_time(self, capsys):
        # The reversal of 1..n, all slots odd, has n(n-1)/2 inversions: even for n = 100000.
        n = 100000
        perm = ",".join(str(i) for i in range(n, 0, -1))
        start = time.perf_counter()
        assert run(["sign", "--perm", perm, "--parity", ",".join(["1"] * n)]) == 0
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out == "+1\n"


class TestCheckCommand:
    def test_builtin_algebras_pass(self, capsys):
        assert run(["check", "--algebra", "builtin:exterior:2"]) == 0
        out = capsys.readouterr().out
        assert "valid: yes" in out

    def test_violations_produce_exit_one(self, capsys, invalid_algebra_file):
        assert run(["check", "--algebra", invalid_algebra_file]) == 1
        out = capsys.readouterr().out
        assert "valid: no" in out
        assert "supercommutativity" in out

    def test_json_report(self, capsys, invalid_algebra_file):
        assert run(["check", "--algebra", invalid_algebra_file, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is False
        assert doc["violations"]


class TestCohomologyCommand:
    def test_human_readable_dimensions(self, capsys):
        code = run(
            [
                "cohomology",
                "--algebra",
                "builtin:exterior:1",
                "--degree",
                "2",
                "--kind",
                "harrison",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dim C = 2" in out
        assert "dim Z = 1" in out
        assert "dim B = 1" in out
        assert "dim H = 0" in out

    def test_json_representatives_are_cocycles(self, capsys):
        code = run(
            [
                "cohomology",
                "--algebra",
                "builtin:truncpoly:2",
                "--degree",
                "2",
                "--kind",
                "harrison",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_cohomology"] == 1
        alg = truncated_polynomial(2)
        mod = self_module(alg)
        for rep_doc in doc["representatives"]:
            rep = cochain_from_dict(rep_doc, mod)
            assert is_cocycle(rep)

    def test_output_is_deterministic(self, capsys):
        argv = [
            "cohomology",
            "--algebra",
            "builtin:tensor:truncpoly:2:exterior:1",
            "--degree",
            "2",
            "--kind",
            "harrison",
            "--json",
        ]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_hochschild_kind(self, capsys):
        code = run(
            [
                "cohomology",
                "--algebra",
                "builtin:exterior:1",
                "--degree",
                "2",
                "--kind",
                "hochschild",
            ]
        )
        assert code == 0
        assert "dim H = 1" in capsys.readouterr().out

    def test_algebra_file_input(self, capsys, tmp_path):
        path = tmp_path / "ext2.json"
        dump_algebra(exterior_algebra(2), str(path))
        code = run(
            [
                "cohomology",
                "--algebra",
                str(path),
                "--degree",
                "1",
                "--kind",
                "harrison",
            ]
        )
        assert code == 0
        assert "dim H = 4" in capsys.readouterr().out

    def test_a_one_element_algebra_at_degree_eleven_finishes_quickly(self):
        # truncpoly:1 has one basis element, so it has no Lyndon word of
        # length 11; solving the shuffle conditions over all n!
        # rearrangements of the arguments instead took over a minute.
        src = str(Path(superharrison.__file__).resolve().parent.parent)
        argv = ["--algebra", "builtin:truncpoly:1", "--degree", "11", "--kind", "harrison", "--max-degree", "20"]
        out = subprocess.run(
            [sys.executable, "-m", "superharrison.cli", "cohomology", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 0, out.stderr
        assert "dim C = 0" in out.stdout.splitlines()

    @pytest.mark.parametrize("kind", ["hochschild", "harrison"])
    def test_a_huge_degree_is_refused_before_any_count(self, kind):
        # 3**(10**9) columns would take far longer than the timeout to count.
        src = str(Path(superharrison.__file__).resolve().parent.parent)
        argv = ["--algebra", "builtin:truncpoly:3", "--degree", "1000000000", "--kind", kind]
        out = subprocess.run(
            [sys.executable, "-m", "superharrison.cli", "cohomology", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr == "resource ceiling: degree 1000000000 exceeds the ceiling 4\n"


class TestDerivationsCommand:
    def test_lists_a_basis(self, capsys):
        assert run(["derivations", "--algebra", "builtin:truncpoly:3"]) == 0
        out = capsys.readouterr().out
        assert "dim Der = 2" in out

    def test_terms_come_in_basis_order(self, capsys):
        assert run(["derivations", "--algebra", "builtin:truncpoly:6", "--json"]) == 0
        basis = json.loads(capsys.readouterr().out)["basis"]
        assert len(basis) == 5
        for terms in basis:
            keys = [(term["arg"], term["value"]) for term in terms]
            assert keys == sorted(keys)
        assert run(["derivations", "--algebra", "builtin:truncpoly:6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "derivation 0: e_x -> x; e_x^2 -> 2*x^2; e_x^3 -> 3*x^3; e_x^4 -> 4*x^4; e_x^5 -> 5*x^5"


class TestDeformCommands:
    def test_valid_deformation_exits_zero(self, capsys, square_psi_file):
        code = run(
            [
                "deform-check",
                "--algebra",
                "builtin:truncpoly:2",
                "--psi",
                square_psi_file,
            ]
        )
        assert code == 0
        assert "yes" in capsys.readouterr().out

    def test_invalid_deformation_exits_one_with_witness(
        self, capsys, square_psi_file
    ):
        code = run(
            [
                "deform-check",
                "--algebra",
                "builtin:exterior:1",
                "--psi",
                square_psi_file,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "fails at (t1, t1)" in out

    def test_classes_reports_the_count(self, capsys):
        assert run(["deform-classes", "--algebra", "builtin:truncpoly:2"]) == 0
        out = capsys.readouterr().out
        assert "first-order deformation classes: 1" in out

    def test_extend_emits_a_valid_extension(self, capsys, square_psi_file):
        code = run(
            [
                "extend",
                "--algebra",
                "builtin:truncpoly:2",
                "--psi",
                square_psi_file,
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert doc["extension"]["dim"] == 4

    def test_classes_honour_the_column_ceiling(self, capsys):
        assert run(["deform-classes", "--algebra", "builtin:exterior:2", "--max-columns", "10"]) == 3
        assert "exceeds the ceiling 10" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, what", [("deform-check", "deformation direction"), ("extend", "extension cocycle")]
    )
    def test_wrong_degree_is_refused_before_the_cochain_is_built(self, capsys, monkeypatch, bad_inputs, command, what):
        built = []
        monkeypatch.setattr(Cochain, "__init__", lambda f, degree, *args: built.append(degree))
        code = run([command, "--algebra", "builtin:truncpoly:2", "--psi", "psi_degree22.json"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {what} must have degree 2, got 22\n"
        assert built == []

    def test_extend_flags_bad_twists(self, capsys, square_psi_file):
        code = run(
            [
                "extend",
                "--algebra",
                "builtin:exterior:1",
                "--psi",
                square_psi_file,
            ]
        )
        assert code == 1


class TestVerifyCommand:
    def test_all_suites_pass_on_a_builtin(self, capsys):
        code = run(
            ["verify", "--algebra", "builtin:truncpoly:2", "--budget", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS") for line in lines)

    def test_suite_selection_is_repeatable(self, capsys):
        code = run(
            [
                "verify",
                "--algebra",
                "builtin:exterior:1",
                "--suite",
                "validators",
                "--suite",
                "closure",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_json_summary(self, capsys):
        code = run(
            [
                "verify",
                "--algebra",
                "builtin:exterior:1",
                "--suite",
                "validators",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["suites"][0]["name"] == "validators"

    def test_suites_run_in_table_order_whatever_the_flag_order(self, capsys):
        argv = ["verify", "--algebra", "builtin:truncpoly:2", "--budget", "5"]
        assert run(argv + ["--suite", "extensions", "--suite", "complex", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in doc["suites"]] == ["complex", "extensions"]

    @pytest.mark.parametrize("suites", [[], ["--suite", "complex"]])
    def test_a_degree_ceiling_of_three_suffices(self, capsys, suites):
        # d_2 reaches degree 3, and no suite needs a higher degree.
        argv = ["verify", "--algebra", "builtin:truncpoly:2", "--max-degree", "3", "--budget", "5", "--json"]
        assert run(argv + suites) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True and len(doc["suites"]) == (1 if suites else 7)

    def test_a_degree_ceiling_of_two_refuses_the_equivalence_suite(self, capsys):
        assert run(["verify", "--algebra", "builtin:truncpoly:2", "--max-degree", "2", "--budget", "5"]) == 3
        assert capsys.readouterr().err == "resource ceiling: degree 3 exceeds the ceiling 2\n"

    @pytest.mark.parametrize("suite", [name for name in SUITES if name != "validators"])
    def test_every_suite_but_validators_is_admitted_by_the_ceilings(self, capsys, suite):
        # Degree 2 of exterior(6) on itself has 131072 parity-consistent
        # entries, over the default ceiling of 20000 columns.
        assert run(["verify", "--algebra", "builtin:exterior:6", "--suite", suite]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource ceiling: cochain space of dimension 131072 exceeds the ceiling 20000\n"

    @pytest.mark.parametrize("suite", ["complex", "closure"])
    def test_a_degree_ceiling_of_one_refuses(self, capsys, suite):
        # The complex suite checks d_1 d_0, which reaches degree 2, whatever the ceiling.
        assert run(["verify", "--algebra", "builtin:truncpoly:2", "--max-degree", "1", "--suite", suite]) == 3
        assert capsys.readouterr().err == "resource ceiling: degree 2 exceeds the ceiling 1\n"

    def test_the_complex_suite_checks_parity_violating_cochains(self, capsys, monkeypatch):
        # Break d linearly on the entry f(1, 1) = t of exterior(1), at flat
        # offset 1, which no parity-preserving cochain sets: d(f) gains the
        # degree-3 entry at offset 0, whose own coboundary is nonzero.
        alg = exterior_algebra(1)
        mod = self_module(alg)
        assert coboundary_scatter(mod, 3, {0: 1})

        def broken(module, degree, entries):
            image = coboundary_scatter(module, degree, entries)
            if degree == 2 and 1 in entries:
                image[0] = image.get(0, 0) + entries[1]
            return image

        monkeypatch.setattr("superharrison.cli.coboundary_scatter", broken)
        assert run(["verify", "--algebra", "builtin:exterior:1", "--suite", "complex"]) == 1
        assert capsys.readouterr().out == "FAIL complex: d(d(f)) != 0 for the elementary cochain at offset 1\n"

    def test_the_closure_suite_fails_on_a_coboundary_that_leaves_the_harrison_space(self, capsys, monkeypatch):
        # Add to every coboundary the entry f(1, x, x) = 1 of truncpoly(2): it
        # preserves parity, but su_{3,1} of it is nonzero.
        def stray(module):
            return Cochain(3, module, {encode((0, 1, 1), 0, 2, 2): 1})

        assert not super_shuffle_sum(stray(self_module(truncated_polynomial(2))), 1).is_zero()

        def broken(f):
            return hochschild_coboundary(f) + stray(f.module)

        monkeypatch.setattr("superharrison.cli.hochschild_coboundary", broken)
        assert run(["verify", "--algebra", "builtin:truncpoly:2", "--suite", "closure"]) == 1
        assert capsys.readouterr().out == (
            "FAIL closure: su_{3,1} of the coboundary of Harrison element 0 is 1 "
            "at entry (t, l) = ((0, 1, 1), 0), that is (1, x, x) -> 1\n"
        )

    def test_suite_choices_are_all_and_the_table(self):
        assert list(SUITES) == [
            "validators", "complex", "closure", "derivations", "deformations", "extensions", "equivalence",
        ]
        (verify,) = [p for name, p in _subcommands().items() if name == "verify"]
        (suite,) = [a for a in verify._actions if a.dest == "suite"]
        assert suite.choices == ["all", *SUITES]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


class TestJsonReports:
    """Every subcommand with ``--json`` prints one JSON document naming the subcommand."""

    ARGV = {
        "check": ["--algebra", "builtin:exterior:1"],
        "cohomology": ["--algebra", "builtin:truncpoly:2", "--degree", "2", "--kind", "harrison"],
        "derivations": ["--algebra", "builtin:truncpoly:2"],
        "deform-check": ["--algebra", "builtin:exterior:1", "--psi", None],
        "deform-classes": ["--algebra", "builtin:truncpoly:2"],
        "extend": ["--algebra", "builtin:truncpoly:2", "--psi", None],
        "verify": ["--algebra", "builtin:truncpoly:2", "--budget", "5"],
    }

    def test_every_json_subcommand_is_covered(self):
        with_json = {
            name for name, p in _subcommands().items() if any(a.dest == "json" for a in p._actions)
        }
        assert with_json == set(self.ARGV)

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_one_document_named_after_the_subcommand(self, capsys, square_psi_file, command):
        argv = [square_psi_file if arg is None else arg for arg in self.ARGV[command]]
        assert run([command, *argv, "--json"]) in (0, 1)
        doc = json.loads(capsys.readouterr().out)  # refuses trailing output
        assert doc["command"] == command


class TestInvalidAlgebras:
    """A command that computes on a broken algebra refuses it with exit 2 as it reads it, naming its first violation."""

    @pytest.mark.parametrize(
        "argv, violation",
        [
            (["cohomology", "--algebra", "parity.json", "--degree", "2", "--kind", "harrison"], "parity at (1, 1, 2)"),
            (["deform-classes", "--algebra", "parity.json"], "parity at (1, 1, 2)"),
            (
                ["cohomology", "--algebra", "clifford.json", "--degree", "2", "--kind", "harrison"],
                "supercommutativity at (1, 1, 0)",
            ),
            (["deform-classes", "--algebra", "clifford.json"], "supercommutativity at (1, 1, 0)"),
            (
                ["cohomology", "--algebra", "nonassoc.json", "--degree", "2", "--kind", "hochschild"],
                "associativity at (1, 1, 2)",
            ),
            (
                ["cohomology", "--algebra", "nonassoc.json", "--degree", "2", "--kind", "harrison"],
                "associativity at (1, 1, 2)",
            ),
            (["verify", "--algebra", "clifford.json", "--suite", "complex"], "supercommutativity at (1, 1, 0)"),
            (["verify", "--algebra", "nonassoc.json", "--suite", "equivalence"], "associativity at (1, 1, 2)"),
            # No computation below trips on these: the algebra is refused as it is read.
            (["derivations", "--algebra", "nonassoc.json"], "associativity at (1, 1, 2)"),
            (["derivations", "--algebra", "clifford.json"], "supercommutativity at (1, 1, 0)"),
            (
                ["cohomology", "--algebra", "nonassoc.json", "--degree", "0", "--kind", "hochschild"],
                "associativity at (1, 1, 2)",
            ),
            (
                ["cohomology", "--algebra", "clifford.json", "--degree", "0", "--kind", "harrison"],
                "supercommutativity at (1, 1, 0)",
            ),
            (
                ["cohomology", "--algebra", "parity.json", "--degree", "3", "--kind", "hochschild"],
                "parity at (1, 1, 2)",
            ),
            (["cohomology", "--algebra", "badunit.json", "--degree", "2", "--kind", "harrison"], "unit at (1,)"),
            (["deform-classes", "--algebra", "badunit.json"], "unit at (1,)"),
            (["verify", "--algebra", "nonassoc.json", "--suite", "derivations"], "associativity at (1, 1, 2)"),
            (["verify", "--algebra", "badunit.json", "--suite", "derivations"], "unit at (1,)"),
            (["verify", "--algebra", "parity.json", "--suite", "closure"], "parity at (1, 1, 2)"),
        ],
    )
    def test_exit_two_names_the_violation(self, capsys, bad_inputs, argv, violation):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {argv[2]} is not a supercommutative superalgebra: {violation}: ")

    @pytest.mark.parametrize("name", ["parity.json", "clifford.json", "nonassoc.json", "badunit.json"])
    def test_verify_stops_after_failing_validators(self, capsys, bad_inputs, name):
        assert run(["verify", "--algebra", name, "--budget", "5"]) == 1
        assert capsys.readouterr().out == "FAIL validators: algebra and self-module laws\n"

    @pytest.mark.parametrize("error", [NotASubspaceError, NotACocycleError])
    def test_closure_failure_on_a_valid_algebra_is_a_bug(self, monkeypatch, error):
        # The algebra was validated when it was read, so each of these is a fault of the program, never exit 2.
        def broken(*args, **kwargs):
            raise error("coboundary of a Harrison element fails a shuffle condition")

        monkeypatch.setattr("superharrison.cli.cohomology", broken)
        with pytest.raises(error):
            run(["cohomology", "--algebra", "builtin:truncpoly:2", "--degree", "1", "--kind", "harrison"])


# 5001 digits: over the 4300 that interpreters with sys.get_int_max_str_digits()
# convert by default (3.11 on, and 3.10 from 3.10.7).
LONG_COEFF = "1" + "0" * 5000
LONG_COEFF_FILES = {
    "check": {
        "dim": 1, "basis": ["1"], "parity": [0], "unit": 0,
        "products": [{"i": 0, "j": 0, "terms": [{"k": 0, "coeff": LONG_COEFF}]}],
    },
    "deform-check": {"degree": 2, "entries": [{"i": [1, 1], "l": 0, "coeff": LONG_COEFF}]},
}


class TestDigests:
    def test_digest_is_hashlibs_sha256(self, corpus_algebra):
        psi = Cochain(2, self_module(corpus_algebra), {1: Fraction(-1, 2), 5: 3})
        docs = [algebra_to_dict(corpus_algebra), cochain_to_dict(psi)]
        for n in (1, 2):
            blob = "\x1e".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) for doc in docs[:n])
            assert _digest(*docs[:n]) == hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @pytest.mark.skipif(
        not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
        reason="this interpreter has no builtin SHA-256 module, so the digest falls back to hashlib",
    )
    def test_cli_runs_leave_openssl_unloaded(self, tmp_path):
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"degree": 2, "entries": [{"i": [1, 1], "l": 0, "coeff": "1"}]}))
        algebra = ["--algebra", "builtin:truncpoly:3"]
        commands = [
            ["check", *algebra],
            ["cohomology", *algebra, "--degree", "2", "--kind", "harrison"],
            ["deform-check", *algebra, "--psi", str(psi)],
            ["extend", *algebra, "--psi", str(psi)],
            ["verify", *algebra, "--budget", "1"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "from superharrison.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [run(argv + ['--json']) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, '_hashlib' in sys.modules)\n"
        )
        src = str(Path(superharrison.__file__).resolve().parent.parent)
        # -S: leave out site, whose imports vary between installations.
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == "[0, 0, 1, 1, 0] False\n"


class TestExitCodes:
    @pytest.mark.parametrize("command", sorted(LONG_COEFF_FILES))
    def test_an_overlong_coefficient_is_named(self, capsys, tmp_path, command):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(LONG_COEFF_FILES[command]))
        argv = [command, "--algebra", str(path)]
        if command == "deform-check":
            argv = [command, "--algebra", "builtin:truncpoly:2", "--psi", str(path)]
        code = run(argv)
        out = capsys.readouterr()
        if hasattr(sys, "get_int_max_str_digits"):
            assert code == 2
            assert out == ("", f"error: {path}: coefficient 10000000000000000000... of 5001 digits is too long\n")
        else:
            # No digit limit: the coefficient is read.
            assert code in (0, 1) and out.err == ""

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "--algebra", "builtin:truncpoly:2", "--degree", "1", "--kind", "harrison"],
            ["extend", "--algebra", "builtin:truncpoly:2", "--psi", None],
        ],
    )
    def test_a_module_other_than_self_is_an_input_error(self, capsys, square_psi_file, argv):
        argv = [square_psi_file if arg is None else arg for arg in argv]
        assert run([*argv, "--module", "trivial"]) == 2
        assert capsys.readouterr() == ("", "error: only --module self is supported\n")

    def test_unknown_builtin_is_an_input_error(self, capsys):
        assert (
            run(
                [
                    "cohomology",
                    "--algebra",
                    "builtin:quaternions",
                    "--degree",
                    "1",
                    "--kind",
                    "harrison",
                ]
            )
            == 2
        )

    def test_missing_file_is_an_input_error(self, capsys):
        assert (
            run(
                [
                    "cohomology",
                    "--algebra",
                    "/does/not/exist.json",
                    "--degree",
                    "1",
                    "--kind",
                    "harrison",
                ]
            )
            == 2
        )

    def test_trailing_builtin_tokens_rejected(self, capsys):
        assert (
            run(
                [
                    "cohomology",
                    "--algebra",
                    "builtin:exterior:1:junk",
                    "--degree",
                    "1",
                    "--kind",
                    "harrison",
                ]
            )
            == 2
        )

    def test_degree_over_ceiling_is_a_resource_error(self, capsys):
        code = run(
            [
                "cohomology",
                "--algebra",
                "builtin:exterior:1",
                "--degree",
                "9",
                "--kind",
                "harrison",
            ]
        )
        assert code == 3
        assert "resource ceiling" in capsys.readouterr().err

    def test_column_ceiling_flag_wins(self, capsys):
        code = run(
            [
                "cohomology",
                "--algebra",
                "builtin:exterior:2",
                "--degree",
                "2",
                "--kind",
                "hochschild",
                "--max-columns",
                "5",
            ]
        )
        assert code == 3

    def test_ceiling_environment_variables_are_ignored(self, monkeypatch):
        # The flags are the only override of the defaults.
        monkeypatch.setenv("SUPERHARRISON_MAX_DEGREE", "1")
        assert run(["cohomology", "--algebra", "builtin:exterior:1", "--degree", "2", "--kind", "harrison"]) == 0

    def test_ceiling_help_reads_the_defaults_of_the_limits(self, monkeypatch):
        monkeypatch.setattr(ResourceLimits, "max_degree", 7)
        monkeypatch.setattr(ResourceLimits, "max_columns", 300)
        for name in ("cohomology", "deform-classes", "verify"):
            helps = {a.dest: a.help for a in _subcommands()[name]._actions}
            assert helps["max_degree"] == "degree ceiling (default 7)"
            assert helps["max_columns"] == "cochain dimension ceiling (default 300)"

    @pytest.mark.parametrize("flag", ["--max-degree", "--max-columns"])
    def test_negative_ceiling_flag_is_an_input_error(self, capsys, flag):
        code = run(
            ["cohomology", "--algebra", "builtin:truncpoly:2", "--degree", "1", "--kind", "harrison", flag, "-5"]
        )
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_oversized_harrison_request_is_refused_with_its_size(self, capsys):
        code = run(["cohomology", "--algebra", "builtin:exterior:6", "--degree", "3", "--kind", "harrison"])
        assert code == 3
        assert capsys.readouterr().err == (
            "resource ceiling: cochain space of dimension 8388608 exceeds the ceiling 20000\n"
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("builtin:truncpoly:257",
             "builtin:truncpoly:257: truncated polynomial supported for 1 <= n <= 256, got 257"),
            ("builtin:truncpoly:100000", "builtin:truncpoly:100000: truncated polynomial supported for 1 <= n <= 256, "
             "got 100000"),
            ("builtin:exterior:7", "builtin:exterior:7: exterior algebra supported for 0 <= k <= 6, got 7"),
            ("builtin:tensor:truncpoly:16:truncpoly:17",
             "builtin:tensor:truncpoly:16:truncpoly:17 has dimension 272, above the builtin bound 256"),
            ("builtin:tensor:tensor:exterior:4:exterior:4:exterior:1",
             "builtin:tensor:tensor:exterior:4:exterior:4:exterior:1 has dimension 512, above the builtin bound 256"),
        ],
    )
    def test_oversized_builtin_is_refused_before_it_is_built(self, capsys, monkeypatch, spec, message):
        def bounded(a, b):
            assert a.dim * b.dim <= 256, "tensor_product ran on an oversized builtin"
            return tensor_product(a, b)

        monkeypatch.setattr("superharrison.cli.tensor_product", bounded)
        code = run(["cohomology", "--algebra", spec, "--degree", "3", "--kind", "hochschild"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_builtins_at_the_bound_are_built(self):
        assert resolve_algebra("builtin:truncpoly:256").dim == 256
        assert resolve_algebra("builtin:tensor:truncpoly:16:truncpoly:16").dim == 256

    def test_json_algebra_over_the_bound_is_refused(self, capsys, tmp_path):
        doc = {"dim": 257, "basis": [f"b{i}" for i in range(257)], "parity": [0] * 257,
               "products": [{"i": 0, "j": 0, "terms": [{"k": 0, "coeff": "1"}]}]}
        path = tmp_path / "dim257.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--algebra", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: 'dim' is 257, above the bound 256\n")

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("check", {"dim": 3, "basis": ["a", "b", "c"], "parity": [0, 0, 0],
                       "products": [{"i": 0, "j": 3, "terms": []}]}, "product indices (0, 3) out of range"),
            ("deform-check", {"degree": 2, "entries": [{"i": [0, 5], "l": 0, "coeff": "1"}]},
             "argument indices [0, 5] out of range"),
            ("extend", {"degree": 2, "entries": [{"i": [0, 1], "l": 2, "coeff": "1"}]}, "value index 2 out of range"),
        ],
    )
    def test_bad_file_content_names_the_file(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--algebra", str(path)]
        if command != "check":
            argv = [command, "--algebra", "builtin:truncpoly:2", "--psi", str(path)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "spec", ["builtin:tensor", "builtin:tensor:exterior:1", "builtin:tensor:tensor:truncpoly:2:exterior:1"]
    )
    def test_an_incomplete_builtin_is_named(self, capsys, spec):
        assert run(["cohomology", "--algebra", spec, "--degree", "1", "--kind", "harrison"]) == 2
        assert capsys.readouterr() == ("", f"error: {spec} is incomplete: a tensor product needs two factors\n")

    @pytest.mark.parametrize(
        "spec, problem",
        [
            ("builtin:tensor:exterior:1:exterior", " is incomplete: exterior needs an integer parameter"),
            ("builtin:truncpoly", " is incomplete: truncpoly needs an integer parameter"),
            ("builtin:", ": unknown builtin algebra ''"),
            ("builtin:tensor:truncpoly:2:foo:1", ": unknown builtin algebra 'foo'"),
            ("builtin:exterior:x", ": bad integer 'x' for exterior"),
            ("builtin:exterior:1:junk", ": trailing tokens after the algebra: junk"),
            ("builtin:tensor:exterior:7:exterior:1", ": exterior algebra supported for 0 <= k <= 6, got 7"),
        ],
    )
    def test_a_bad_builtin_name_is_quoted_whole(self, capsys, spec, problem):
        assert run(["check", "--algebra", spec]) == 2
        assert capsys.readouterr() == ("", f"error: {spec}{problem}\n")

    def test_negative_degree_names_its_flag(self, capsys):
        assert run(["cohomology", "--algebra", "builtin:exterior:1", "--degree", "-1", "--kind", "harrison"]) == 2
        assert capsys.readouterr() == ("", "error: --degree must be nonnegative, got -1\n")

    @pytest.mark.parametrize("budget", ["-1", "-5"])
    def test_negative_budget_is_an_input_error(self, capsys, budget):
        assert run(["verify", "--algebra", "builtin:truncpoly:2", "--budget", budget]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --budget must be nonnegative, got {budget}\n"

    def test_a_budget_over_the_column_ceiling_is_refused_before_any_suite(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a random cochain was drawn")

        monkeypatch.setattr("superharrison.deformations.random_parity_cochain", refuse)
        assert run(["verify", "--algebra", "builtin:exterior:2", "--budget", "1000000000"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "resource ceiling: budget 1000000000 exceeds the ceiling 20000\n"
