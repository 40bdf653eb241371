"""The README's quick-start example runs and prints the values its comments quote."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ginfo

ROOT = Path(__file__).resolve().parents[1]

# runs each top-level statement as the interactive interpreter does, so that
# a bare expression prints its value
ECHO = """
import ast, sys
source = sys.stdin.read()
namespace = {}
for node in ast.parse(source).body:
    exec(compile(ast.Interactive([node]), "README", "single"), namespace)
"""


def test_quick_start_prints_the_quoted_values():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    source = blocks[0]
    src = str(Path(ginfo.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", ECHO], input=source, env=env, check=True,
                         capture_output=True, text=True).stdout
    # a comment that ends in "...)" quotes the leading digits of a printed value
    quoted = re.findall(r"# (\w+\(.*?)\.\.\.\)", source)
    assert quoted == ["RsupResult(valid=True, min_invariant=1.55",
                      "PptResult(separable=True, margin=0.436"]
    for prefix in quoted:
        assert prefix in out
