"""Every ``ginfo.selftest`` battery as one pytest case, read from one run of
``ginfo --command selftest`` at its default seed. That run is also the golden
``selftest`` case: ``--out`` adds the JSON report and leaves stdout as it is."""

import json
import re
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from ginfo import selftest

from test_golden import recorded, run_case

README = Path(__file__).resolve().parents[1] / "README.md"
SCHEMA = json.loads(resources.files("ginfo").joinpath("schemas/report.schema.json").read_text())


@pytest.fixture(scope="module")
def command(tmp_path_factory):
    """Exit code, stdout and stderr, wall time and JSON report of one selftest command."""
    report = tmp_path_factory.mktemp("selftest") / "selftest.json"
    start = time.monotonic()
    streams = run_case(["--command", "selftest", "--out", str(report)])
    elapsed = time.monotonic() - start
    return streams, elapsed, json.loads(report.read_text())


def test_output_matches_the_golden_files(command):
    streams, _, _ = command
    want = recorded("selftest")
    for stream in ("exit", "stderr", "stdout"):
        assert streams[stream] == want[stream], f"selftest: {stream} differs"


def test_command_report(command):
    streams, elapsed, doc = command
    code, stdout = streams["exit"], streams["stdout"]
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


def _short(battery) -> str:
    return battery.check.__name__.removeprefix("battery_")


@pytest.mark.parametrize("battery", selftest.BATTERIES, ids=_short)
def test_battery_passes(command, battery):
    result = command[2]["results"]["properties"][selftest.BATTERIES.index(battery)]
    assert result["passed"], f"{result['name']}: {result['detail']}"


def test_readme_route_table_is_the_catalogue():
    def name(route):
        if route is None:
            return "—"
        return f"`{route.__module__.removeprefix('ginfo.')}.{route.__name__}`"

    section = README.read_text().split("\n## Routes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", section, flags=re.M)
    assert rows == [(_short(b), name(b.route), name(b.second)) for b in selftest.BATTERIES]
