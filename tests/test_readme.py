"""The ```python examples of README.md run, in order, and print what their comments say.

Every ``print(...)`` line of an example ends in a comment that starts with
the value it prints, as in ``print(report.valid)  # False``; the comment
may go on after a colon, as in ``# 1: the algebra deforms``.  The blocks
run as one program, since later ones use the names of earlier ones, in a
fresh interpreter that imports whichever ``superharrison`` its path finds.
The test puts ``src`` on ``PYTHONPATH``.  Run as a script,

    python3 tests/test_readme.py [README.md]

it checks the package installed for that interpreter instead, and exits 1
on a mismatch; run it from outside the checkout, so that the current
directory does not shadow the installed package.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def examples(text: str) -> tuple[str, list[str]]:
    """The python blocks of ``text`` as one program, and the comment of each of its prints."""
    code = "".join(BLOCK.findall(text))
    comments = [line.partition("#")[2].strip() for line in code.splitlines() if line.startswith("print(")]
    return code, comments


def mismatches(readme: Path, env: Optional[dict] = None) -> list[str]:
    """Each printed line that its comment does not start with, and any failure to run."""
    code, comments = examples(readme.read_text(encoding="utf-8"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if run.returncode:
        return [f"the examples exit {run.returncode}:\n{run.stderr}"]
    printed = run.stdout.splitlines()
    if len(printed) != len(comments):
        return [f"{len(comments)} commented prints, {len(printed)} printed lines"]
    return [
        f"printed {got!r}, the comment says {comment!r}"
        for got, comment in zip(printed, comments)
        if comment != got and not comment.startswith(got + ":")
    ]


def test_the_readme_examples_print_what_their_comments_say():
    assert examples(README.read_text(encoding="utf-8"))[1]
    paths = [str(README.parent / "src"), os.environ.get("PYTHONPATH", "")]
    assert mismatches(README, {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}) == []


if __name__ == "__main__":
    problems = mismatches(Path(sys.argv[1]) if len(sys.argv) > 1 else README)
    print("\n".join(problems) or "README examples: every printed value matches its comment")
    sys.exit(1 if problems else 0)
