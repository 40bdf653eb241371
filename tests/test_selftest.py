"""Every ``ginfo.selftest`` battery as one pytest case, read from one run of
``ginfo --command selftest`` at its default seed."""

import contextlib
import io
import json
import time
from importlib import resources

import jsonschema
import pytest

from ginfo import cli, selftest

SCHEMA = json.loads(resources.files("ginfo").joinpath("schemas/report.schema.json").read_text())


@pytest.fixture(scope="module")
def command(tmp_path_factory):
    """Exit code, stdout, wall time and JSON report of one selftest command."""
    report = tmp_path_factory.mktemp("selftest") / "selftest.json"
    stdout = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--command", "selftest", "--out", str(report)])
    elapsed = time.monotonic() - start
    return code, stdout.getvalue(), elapsed, json.loads(report.read_text())


def test_command_report(command):
    code, stdout, elapsed, doc = command
    jsonschema.validate(doc, SCHEMA)
    assert code == 0 and doc["results"]["passed"] is True
    assert "seed=20240901" in stdout and "selftest PASSED" in stdout
    assert stdout.count("PASS") >= len(selftest.BATTERIES)
    assert elapsed < 60.0
    assert doc["config"] == {"command": "selftest", "seed": 20240901}
    assert len(doc["results"]["properties"]) == len(selftest.BATTERIES)
    boundary = [p for p in doc["results"]["properties"]
                if p["name"] == "exact boundary agrees with the reflection spectrum"]
    assert len(boundary) == 1
    assert boundary[0]["passed"] is True and boundary[0]["cases"] == 3 * 99


@pytest.mark.parametrize("battery", selftest.BATTERIES,
                         ids=lambda battery: battery.__name__.removeprefix("battery_"))
def test_battery_passes(command, battery):
    result = command[3]["results"]["properties"][selftest.BATTERIES.index(battery)]
    assert result["passed"], f"{result['name']}: {result['detail']}"
