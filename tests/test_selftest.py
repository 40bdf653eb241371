"""Every ``ginfo.selftest`` battery as one pytest case, at the CLI's seed."""

import pytest

from ginfo import selftest


@pytest.fixture(scope="module")
def report():
    return selftest.run_all()


@pytest.mark.parametrize("battery", selftest.BATTERIES,
                         ids=lambda battery: battery.__name__.removeprefix("battery_"))
def test_battery_passes(report, battery):
    result = report.results[selftest.BATTERIES.index(battery)]
    assert result.passed, f"{result.name}: {result.detail}"
