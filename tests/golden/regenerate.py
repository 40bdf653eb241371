"""Rewrite the golden corpus from the current code.

Runs every case of ``cases.json`` as ``tests/test_golden.py`` does and writes
``<case>.out`` (stdout), ``<case>.err`` (stderr) and ``exit_codes.json``. Run
it only after a deliberate change of output, then review the diff:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, GOLDEN, run_case  # noqa: E402


def main() -> None:
    codes = {}
    for name in sorted(CASES):
        result = run_case(CASES[name])
        codes[name] = result["exit"]
        (GOLDEN / f"{name}.out").write_text(result["stdout"])
        (GOLDEN / f"{name}.err").write_text(result["stderr"])
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
