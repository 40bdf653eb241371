"""Golden corpus: every CLI invocation in ``golden/cases.json`` still exits with
the code, and prints the stdout and stderr, recorded in ``golden/``.

Each case runs through ``cli.main`` in process, from the golden directory, so
matrix paths are relative to it. A warning is recorded as one
``Category: message`` line of stderr. After a deliberate change of output,
rewrite the files with ``python tests/golden/regenerate.py`` and review the
diff.
"""

import contextlib
import io
import json
import os
import warnings
from pathlib import Path

import pytest

from ginfo import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(f"{category.__name__}: {message}\n")

    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = show
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def recorded(name: str) -> dict:
    return {"exit": json.loads((GOLDEN / "exit_codes.json").read_text())[name],
            "stdout": (GOLDEN / f"{name}.out").read_text(),
            "stderr": (GOLDEN / f"{name}.err").read_text()}


# the selftest case is checked by the one selftest run of tests/test_selftest.py
@pytest.mark.parametrize("name", sorted(set(CASES) - {"selftest"}))
def test_output_matches_the_golden_files(name):
    got, want = run_case(CASES[name]), recorded(name)
    for stream in ("exit", "stderr", "stdout"):
        assert got[stream] == want[stream], f"{name}: {stream} differs"


def test_corpus_holds_only_what_the_cases_name():
    # an output left behind by a renamed or removed case shows up here
    inputs = {arg for argv in CASES.values() for arg in argv if (GOLDEN / arg).is_file()}
    outputs = {f"{name}.{stream}" for name in CASES for stream in ("out", "err")}
    tools = {"cases.json", "exit_codes.json", "regenerate.py"}
    assert {path.name for path in GOLDEN.iterdir()} == inputs | outputs | tools
    assert set(json.loads((GOLDEN / "exit_codes.json").read_text())) == set(CASES)
