"""The benchmark's tracer still binds to the package.

``perfbench/traced_cli.py`` wraps the package's functions by name and
looks methods up statically, so renaming or deleting one that it binds
breaks the traced benchmark runs.  This runs it once, as the benchmark
does, in a fresh process with the package taken from ``src/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_cli_records_the_layers(tmp_path):
    spans_path = tmp_path / "spans.json"
    argv = ["cohomology", "--algebra", "builtin:truncpoly:2", "--degree", "2", "--kind", "harrison"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans_path), "--", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "dim H = 1" in out.stdout
    doc = json.loads(spans_path.read_text())
    assert doc["exit"] == 0
    spanned = {doc["names"][span[0]] for span in doc["spans"]}
    assert {"linalg.kernel_basis", "cohomology.coboundary_matrix"} <= spanned
