import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ginfo
from ginfo import (
    CovarianceMatrix,
    DegenerateSpectrumError,
    NormalizationError,
    NumericDomainError,
    Ordering,
)
from ginfo import cli, oscillator, selftest
from ginfo.cli import main
from ginfo.matrixio import save_cvm
from ginfo.policy import RSUP_SLACK

SCHEMA = json.loads(resources.files("ginfo").joinpath("schemas/report.schema.json").read_text())


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def validate_report(text):
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    return doc


class TestFigures:
    def test_figure1_csv_layout(self, tmp_path):
        code, text = run(tmp_path, "--command", "figure1", "--grid", "99")
        assert code == 0
        lines = text.strip().splitlines()
        header_lines = [ln for ln in lines if ln.startswith("#")]
        assert "# command=figure1" in header_lines
        assert "# m=0.125" in header_lines
        columns = lines[len(header_lines)]
        assert columns == "theta,min_invariant,margin,crossing_theta"
        rows = lines[len(header_lines) + 1:]
        assert len(rows) == 99
        crossing = {row.split(",")[3] for row in rows}
        assert len(crossing) == 1 and crossing != {""}   # one crossing, emitted on every row

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["--command", "figure1", "--grid", "30", "--out", str(out1)]) == 0
        assert main(["--command", "figure1", "--grid", "30", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_requires_correlations(self, tmp_path):
        code, _ = run(tmp_path, "--command", "sweep")
        assert code == 1

    def test_grid_floor(self, tmp_path):
        code, _ = run(tmp_path, "--command", "figure1", "--grid", "5")
        assert code == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["--command", "figure1", "--bogus", "1"]) == 1

    @pytest.mark.parametrize("argv", [
        ("--command", "sweep", "--m", "0.2", "--n", "0.1", "--grid", "10"),
        ("--command", "figure1", "--grid", "10"),
    ])
    def test_theta_is_usage_error(self, tmp_path, capsys, argv):
        code, text = run(tmp_path, *argv, "--theta", "0.7")
        assert code == 1
        assert text == ""
        assert "--theta" in capsys.readouterr().err

    def test_unwritable_path_is_io_error(self):
        code = main(["--command", "figure1", "--grid", "10",
                     "--out", "/nonexistent-dir/f.csv"])
        assert code == 2

    def test_json_format(self, tmp_path):
        code, text = run(tmp_path, "--command", "figure3", "--grid", "12",
                         "--format", "json")
        assert code == 0
        doc = validate_report(text)
        assert doc["config"]["m"] == 0.0625
        assert len(doc["results"]["rows"]) == 12


class TestDistance:
    def test_identical_sources(self, tmp_path):
        code, text = run(tmp_path, "--command", "distance",
                         "--a", "1", "--b", "1", "--a0", "1", "--b0", "1")
        assert code == 0
        doc = validate_report(text)
        assert doc["results"]["distance_half"] == pytest.approx(0.0, abs=1e-12)

    def test_scaled_pair(self, tmp_path):
        code, text = run(tmp_path, "--command", "distance",
                         "--a", "1", "--b", "1", "--a0", "2", "--b0", "2")
        doc = validate_report(text)
        assert doc["results"]["distance_half"] == pytest.approx(
            math.sqrt(2) * math.log(2), rel=1e-12)
        assert doc["results"]["generalized_eigenvalues"] == pytest.approx([2.0] * 4)

    def test_invariance_check(self, tmp_path):
        code, text = run(tmp_path, "--command", "distance",
                         "--a", "1", "--b", "0.9", "--c", "0.2",
                         "--a0", "1.3", "--b0", "1.1", "--d0", "-0.3",
                         "--check-invariance", "--seed", "7")
        doc = validate_report(text)
        assert doc["results"]["invariance_delta"] < 1e-10

    def test_file_source(self, tmp_path):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(4, 4))
        cvm = CovarianceMatrix(a @ a.T + np.eye(4), ordering=Ordering.MODE_INTERLEAVED)
        path = tmp_path / "s1.cvm"
        save_cvm(path, cvm)
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(path), "--sigma2", str(path))
        assert code == 0
        doc = validate_report(text)
        assert doc["results"]["distance_half"] == pytest.approx(0.0, abs=1e-10)

    def test_uncertainty_violating_state_rejected(self, tmp_path):
        code, _ = run(tmp_path, "--command", "distance",
                      "--a", "0.4", "--b", "0.4", "--a0", "1", "--b0", "1")
        assert code == 3

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_file_entry_rejected(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.cvm"
        bad.write_text(f"# cvm modes=1 ordering=mode_interleaved\n{entry} 0\n0 1\n")
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(bad), "--sigma2", str(bad))
        assert code == 3
        assert text == ""
        assert "finite" in capsys.readouterr().err

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.cvm"
        bad.write_text("no header\n1 0\n0 1\n")
        code = main(["--command", "distance", "--sigma1", str(bad),
                     "--sigma2", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_missing_source_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "--command", "distance", "--a", "1", "--b", "1")
        assert code == 1

    def test_config_echoes_inline_parameters(self, tmp_path):
        code, text = run(tmp_path, "--command", "distance",
                         "--a", "1.2", "--b", "0.9", "--c", "0.2",
                         "--a0", "1.3", "--b0", "1.1", "--d0", "-0.3")
        assert code == 0
        config = validate_report(text)["config"]
        assert config == {"command": "distance", "seed": 20240901,
                          "check_invariance": False,
                          "a": 1.2, "b": 0.9, "c": 0.2, "d": 0.0,
                          "a0": 1.3, "b0": 1.1, "c0": 0.0, "d0": -0.3}

    def test_config_echoes_file_paths(self, tmp_path):
        path1, path2 = tmp_path / "s1.cvm", tmp_path / "s2.cvm"
        save_cvm(path1, CovarianceMatrix(np.eye(4), ordering=Ordering.MODE_INTERLEAVED))
        save_cvm(path2, CovarianceMatrix(2.0 * np.eye(4), ordering=Ordering.MODE_INTERLEAVED))
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(path1), "--sigma2", str(path2))
        assert code == 0
        config = validate_report(text)["config"]
        assert config == {"command": "distance", "seed": 20240901,
                          "check_invariance": False,
                          "sigma1": str(path1), "sigma2": str(path2)}


class TestReports:
    def test_metric_report(self, tmp_path):
        code, text = run(tmp_path, "--command", "metric",
                         "--a", "1", "--b", "1")
        assert code == 0
        doc = validate_report(text)
        g = np.array(doc["results"]["metric"])
        np.testing.assert_allclose(g, np.eye(4), atol=1e-12)
        assert doc["results"]["det_closed_form"] == pytest.approx(1.0)
        assert doc["results"]["numeric_route_max_deviation"] < 1e-6

    def test_oscillator_report(self, tmp_path):
        code, text = run(tmp_path, "--command", "oscillator",
                         "--m1", "1", "--m2", "1", "--w1", "1", "--w2", "2",
                         "--theta", "0.3", "--eta", "0.2")
        assert code == 0
        doc = validate_report(text)
        res = doc["results"]
        assert res["separable"] is False
        assert res["ppt_margin"] < 0
        assert res["min_invariant"] == pytest.approx(1.0, abs=1e-9)
        assert res["hbar_effective"] == pytest.approx(1.015)

    @pytest.mark.parametrize("hbar", ["0.5", "2"])
    @pytest.mark.parametrize("state", [
        ("--m1", "1.3", "--m2", "1.3", "--w1", "1.7", "--w2", "1.7", "--theta", "0.4", "--eta", "0.3"),
        ("--m1", "1", "--m2", "1", "--w1", "1", "--w2", "2", "--theta", "0.3", "--eta", "0.2"),
    ], ids=["isotropic", "anisotropic"])
    def test_oscillator_report_in_units_of_hbar(self, tmp_path, state, hbar):
        # the ground state is pure whatever hbar is, and the PPT margin must
        # agree with the verdict
        code, text = run(tmp_path, "--command", "oscillator", *state, "--hbar", hbar)
        assert code == 0
        res = validate_report(text)["results"]
        assert res["min_invariant"] == pytest.approx(1.0, abs=1e-9)
        assert (res["ppt_margin"] >= -RSUP_SLACK) == res["separable"]

    def test_oscillator_theta_defaults_to_zero(self, tmp_path):
        code, text = run(tmp_path, "--command", "oscillator")
        assert code == 0
        assert '"theta": 0.0' in text
        assert validate_report(text)["config"]["theta"] == 0.0

    def test_oscillator_degenerate_modes_report_null(self, tmp_path):
        # isotropic and undeformed: the closed-form mode frequencies coincide
        code, text = run(tmp_path, "--command", "oscillator",
                         "--m1", "1", "--m2", "1", "--w1", "1.5", "--w2", "1.5")
        assert code == 0
        assert validate_report(text)["results"]["mode_freqs"] is None

    def test_volume_report(self, tmp_path):
        args = ("--command", "volume", "--region", "separable",
                "--samples", "2000", "--seed", "3")
        code, text = run(tmp_path, *args)
        assert code == 0
        doc = validate_report(text)
        assert doc["results"]["volume"] > 0
        code2, text2 = run(tmp_path, *args)
        assert text == text2   # seeded determinism


class TestSelftest:
    def test_full_battery_passes(self, tmp_path, capsys):
        import time
        out = tmp_path / "selftest.json"
        start = time.monotonic()
        code = main(["--command", "selftest", "--out", str(out)])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr().out
        assert "seed=20240901" in captured
        assert "selftest PASSED" in captured
        assert code == 0
        assert captured.count("PASS") >= len(selftest.BATTERIES)
        assert elapsed < 60.0
        doc = validate_report(out.read_text())
        assert doc["results"]["passed"] is True
        assert len(doc["results"]["properties"]) == len(selftest.BATTERIES)
        boundary = [p for p in doc["results"]["properties"]
                    if p["name"] == "exact boundary agrees with the reflection spectrum"]
        assert len(boundary) == 1
        assert boundary[0]["passed"] is True and boundary[0]["cases"] == 3 * 99


class TestInputBoundary:
    @pytest.mark.parametrize("argv", [
        ("--command", "metric", "--a", "nan", "--b", "1"),
        ("--command", "metric", "--a", "inf", "--b", "1"),
        ("--command", "sweep", "--m", "nan", "--n", "0.1"),
        ("--command", "oscillator", "--theta=-inf"),
        ("--command", "volume", "--box", "0.5,inf,0.5,1.5,-0.5,0.5,-0.5,0.5",
         "--samples", "1000"),
        ("--command", "volume", "--box", "0.5,1.5,0.5,1.5,-0.5,0.5,-0.5,nan",
         "--samples", "1000"),
    ])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, argv):
        code, text = run(tmp_path, *argv)
        assert code == 1
        assert text == ""
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, unread", [
        (("--command", "figure1", "--samples", "5", "--region", "entangled"),
         "--region, --samples"),
        (("--command", "metric", "--a", "1", "--b", "1", "--eta", "0.3"), "--eta"),
        (("--command", "metric", "--a", "1", "--b", "1", "--eta", "0"), "--eta"),
        (("--command", "distance", "--a", "1", "--b", "1", "--a0", "2", "--b0", "2",
          "--format", "csv"), "--format"),
        (("--command", "oscillator", "--box", "1,2"), "--box"),
        (("--command", "selftest", "--m", "0.3"), "--m"),
    ], ids=["figure1", "metric", "metric-default-value", "distance", "oscillator", "selftest"])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv, unread):
        code, text = run(tmp_path, *argv)
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == f"usage error: {argv[1]} does not read {unread}\n"

    def test_flag_table_covers_every_flag(self):
        defaults = vars(cli.build_parser().parse_args(["--command", "selftest"]))
        assert frozenset().union(*cli.COMMAND_FLAGS.values()) == defaults.keys() - {"command"}

    @pytest.mark.parametrize("argv", [
        ("--command", "oscillator", "--w1", "1e200"),
        ("--command", "oscillator", "--theta", "1e200"),
        ("--command", "metric", "--a", "1e300", "--b", "1e300"),
    ], ids=["oscillator-w1", "oscillator-theta", "metric"])
    def test_overflow_or_non_finite_result_is_numeric_domain_error(self, tmp_path, capsys, argv):
        with np.errstate(all="ignore"):
            code, text = run(tmp_path, *argv)
        assert code == 4
        assert text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric domain error: ")

    def test_singular_form_is_numeric_domain_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "--command", "sweep", "--m", "0.2", "--n", "0.1",
                      "--eta", "4.5")
        assert code == 4
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel, error", [
        ("ground_state", DegenerateSpectrumError),
        ("ground_state", NormalizationError),
        ("mode_spectrum", NumericDomainError),
    ], ids=["DegenerateSpectrumError", "NormalizationError", "mode_spectrum"])
    def test_spectral_failure_is_numeric_domain_error(self, tmp_path, capsys,
                                                       monkeypatch, kernel, error):
        def fail(*args, **kwargs):
            raise error("forced by the test")

        monkeypatch.setattr(oscillator, kernel, fail)
        code, text = run(tmp_path, "--command", "oscillator")
        assert code == 4
        assert text == ""
        assert "numeric domain error: forced by the test" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-05", "-2.5E+3"])
    @pytest.mark.parametrize("command, flags", [
        ("metric", ("--a", "3000", "--b", "3000", "--c")),
        ("distance", ("--a", "3000", "--b", "3000", "--a0", "3000", "--b0", "3000", "--d0")),
    ], ids=["metric", "distance"])
    def test_negative_e_notation_value(self, tmp_path, command, flags, value):
        code, text = run(tmp_path, "--command", command, *flags, value)
        assert code == 0
        assert validate_report(text)["config"][flags[-1][2:]] == float(value)
        joined = run(tmp_path, "--command", command, *flags[:-1], f"{flags[-1]}={value}")
        assert joined == (0, text)

    def test_negative_box_edge_value(self, tmp_path):
        box = "-0.5,1.5,0.5,1.5,-0.5,0.5,-0.5,0.5"
        code, text = run(tmp_path, "--command", "volume", "--samples", "1000", "--box", box)
        assert code == 0
        assert validate_report(text)["config"]["box"] == box
        assert run(tmp_path, "--command", "volume", "--samples", "1000", f"--box={box}") == (0, text)

    def test_cli_import_needs_numpy_only(self):
        # each command imports its own modules; importing the CLI loads none of them
        probe = ("import sys, ginfo.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in "
                 "('ginfo.selftest', 'ginfo.oscillator', 'ginfo.bipartite', 'ginfo.matrixio', "
                 "'ginfo.randmat')))")
        src = str(Path(ginfo.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
