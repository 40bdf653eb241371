import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ginfo
from ginfo import cli, oscillator
from ginfo.cli import main
from ginfo.errors import NumericDomainError
from ginfo.matrixio import save_cvm
from ginfo.policy import RSUP_SLACK
from ginfo.symplectic import CovarianceMatrix, Ordering, permute_ordering

SCHEMA = json.loads(resources.files("ginfo").joinpath("schemas/report.schema.json").read_text())


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# the modules a fresh ``import ginfo.cli`` loads, sorted
CLI_MODULES = ("ginfo", "ginfo.cli", "ginfo.errors", "ginfo.policy", "ginfo.symplectic")


def _raising(error):
    def fake(*args, **kwargs):
        raise error("forced by the test")

    return fake


def _modes_off_by(factor):
    real = oscillator.mode_spectrum

    def fake(*args, **kwargs):
        modes = real(*args, **kwargs)
        return oscillator.ModeSpectrum(factor * modes.freq1, factor * modes.freq2)

    return fake


def fresh_env():
    """The environment of a fresh interpreter that imports this ginfo."""
    src = str(Path(ginfo.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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

    @pytest.mark.parametrize("samples", ["999", "0", "-5"])
    def test_sample_floor_is_usage_error(self, tmp_path, capsys, samples):
        # the library's own floor raises ValueError (exit 3); the flag is checked first
        code, _ = run(tmp_path, "--command", "volume", "--samples", samples)
        assert code == 1
        assert "--samples must be at least 1000" in capsys.readouterr().err

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

    def test_invariance_check_on_large_entries(self, tmp_path):
        # T S T^T misses the absolute SYMMETRY_TOL by rounding at entries ~1e6;
        # the check symmetrizes it, as the congruence battery does
        code, text = run(tmp_path, "--command", "distance", "--a", "1e6", "--b", "1e6",
                         "--c", "1e5", "--a0", "2e6", "--b0", "2e6", "--check-invariance")
        assert code == 0
        assert validate_report(text)["results"]["invariance_delta"] < 1e-10

    def test_invariance_check_echoes_its_seed(self, tmp_path):
        # without --seed the transform draws from the flag's default, which the config names
        argv = ("--command", "distance", "--a", "1", "--b", "1", "--a0", "2", "--b0", "2",
                "--check-invariance")
        default = cli._FLAG_SETTINGS["seed"]["default"]
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert validate_report(text)["config"]["seed"] == default
        assert run(tmp_path, *argv, "--seed", str(default)) == (0, text)
        code, text = run(tmp_path, *argv, "--seed", "7")
        assert validate_report(text)["config"]["seed"] == 7

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

    def test_header_token_without_a_value_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cvm"
        bad.write_text("# cvm modes=1 ordering=mode_interleaved v2\n1 0\n0 1\n")
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(bad), "--a0", "1", "--b0", "1")
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == ("validation error: state 1 rejected: matrix header "
                                           "token 'v2' is not a key=value field\n")

    def test_header_field_given_twice_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cvm"
        bad.write_text("# cvm modes=1 ordering=block_xp ordering=mode_interleaved\n1 0\n0 1\n")
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(bad), "--a0", "1", "--b0", "1")
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == ("validation error: state 1 rejected: matrix header "
                                           "field 'ordering' is given twice\n")

    def test_ragged_file_body_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cvm"
        bad.write_text("# cvm modes=2 ordering=mode_interleaved\n1 0 0 0\n0 1 0\n"
                       "0 0 1 0\n0 0 0 1\n")
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(bad), "--a0", "1", "--b0", "1")
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == ("validation error: state 1 rejected: matrix row 2 "
                                           "does not match modes=2: 3 entries\n")

    def test_party_file_with_an_odd_mode_count_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cvm"
        rows = "\n".join(" ".join(f"{x:g}" for x in row) for row in np.eye(6))
        bad.write_text(f"# cvm modes=3 ordering=party_block_xp\n{rows}\n")
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(bad), "--a0", "1", "--b0", "1")
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == ("validation error: state 1 rejected: cannot split "
                                           "3 modes into two equal parties\n")

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_state_2_compared_in_the_ordering_of_state_1(self, tmp_path, ordering):
        # one state, saved in two orderings, is at distance 0 from itself
        m = np.diag([1.0, 2, 3, 4])
        path1, path2 = tmp_path / "s1.cvm", tmp_path / "s2.cvm"
        save_cvm(path1, CovarianceMatrix(m, ordering=Ordering.MODE_INTERLEAVED))
        save_cvm(path2, CovarianceMatrix(permute_ordering(m, Ordering.MODE_INTERLEAVED, ordering),
                                         ordering=ordering))
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(path1), "--sigma2", str(path2))
        assert code == 0
        assert validate_report(text)["results"]["distance_half"] < 1e-12

    def test_states_of_two_sizes_rejected_by_size(self, tmp_path, capsys):
        path1, path2 = tmp_path / "s1.cvm", tmp_path / "s2.cvm"
        save_cvm(path1, CovarianceMatrix(np.eye(8), ordering=Ordering.PARTY_BLOCK_XP))
        save_cvm(path2, CovarianceMatrix(np.eye(2), ordering=Ordering.BLOCK_XP))
        code, _ = run(tmp_path, "--command", "distance",
                      "--sigma1", str(path1), "--sigma2", str(path2))
        assert code == 3
        assert capsys.readouterr().err == "validation error: size mismatch: (8, 8) vs (2, 2)\n"

    @pytest.mark.parametrize("ordering, code", [(Ordering.PARTY_BLOCK_XP, 0),
                                                (Ordering.MODE_INTERLEAVED, 3)])
    def test_uncertainty_bound_read_in_the_file_ordering(self, tmp_path, ordering, code):
        # variances (1, 1, 0.3, 0.3) per party: as (x1, x2, p1, p2) the
        # invariants are 2 sqrt(0.3) > 1, as (x1, p1, x2, p2) one is 0.6 < 1
        path = tmp_path / "s.cvm"
        save_cvm(path, CovarianceMatrix(np.diag([1.0, 1, 0.3, 0.3] * 2), ordering=ordering))
        got, _ = run(tmp_path, "--command", "distance",
                     "--sigma1", str(path), "--sigma2", str(path))
        assert got == code

    def test_missing_source_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "--command", "distance", "--a", "1", "--b", "1")
        assert code == 1

    def test_config_echoes_inline_parameters(self, tmp_path):
        code, text = run(tmp_path, "--command", "distance",
                         "--a", "1.2", "--b", "0.9", "--c", "0.2",
                         "--a0", "1.3", "--b0", "1.1", "--d0", "-0.3")
        assert code == 0
        config = validate_report(text)["config"]
        assert config == {"command": "distance", "check_invariance": False,
                          "a": 1.2, "b": 0.9, "c": 0.2, "d": 0.0,
                          "a0": 1.3, "b0": 1.1, "c0": 0.0, "d0": -0.3}

    @pytest.mark.parametrize("argv, err", [
        (("--sigma1", "s1.cvm", "--a", "5", "--b", "5", "--a0", "1", "--b0", "1"),
         "state 1 has two sources: --sigma1 and --a, --b"),
        (("--sigma1", "s1.cvm", "--c", "0", "--a0", "1", "--b0", "1"),
         "state 1 has two sources: --sigma1 and --c"),
        (("--a", "1", "--b", "1", "--sigma2", "s2.cvm", "--d0", "0"),
         "state 2 has two sources: --sigma2 and --d0"),
    ], ids=["inline", "inline-default-value", "state2"])
    def test_file_and_inline_source_exclude_each_other(self, tmp_path, capsys, argv, err):
        # the files do not exist: the sources are checked before any is read
        code, text = run(tmp_path, "--command", "distance",
                         *(str(tmp_path / x) if x.endswith(".cvm") else x for x in argv))
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"usage error: {err}\n"

    def test_config_echoes_file_paths(self, tmp_path):
        path1, path2 = tmp_path / "s1.cvm", tmp_path / "s2.cvm"
        save_cvm(path1, CovarianceMatrix(np.eye(4), ordering=Ordering.MODE_INTERLEAVED))
        save_cvm(path2, CovarianceMatrix(2.0 * np.eye(4), ordering=Ordering.MODE_INTERLEAVED))
        code, text = run(tmp_path, "--command", "distance",
                         "--sigma1", str(path1), "--sigma2", str(path2))
        assert code == 0
        config = validate_report(text)["config"]
        assert config == {"command": "distance", "check_invariance": False,
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
        assert doc["results"]["numeric_route_max_deviation"] < 1e-14

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

    def test_oscillator_runs_each_stage_once(self, tmp_path, monkeypatch):
        calls = Counter()

        def count(name):
            real = getattr(oscillator, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(oscillator, name, wrapper)

        stages = ("equivalent_params", "equivalent_hamiltonian", "mode_spectrum", "ground_state",
                  "_polar_ground_state", "separability_condition")
        for name in stages:
            count(name)
        code, _ = run(tmp_path, "--command", "oscillator", "--w2", "2",
                      "--theta", "0.3", "--eta", "0.2")
        assert code == 0
        # the polar form is a second route of selftest only, off the command path
        assert calls == Counter(dict.fromkeys(set(stages) - {"_polar_ground_state"}, 1))

    def test_oscillator_coinciding_modes_reported(self, tmp_path):
        # isotropic and undeformed: the closed-form mode frequencies coincide
        code, text = run(tmp_path, "--command", "oscillator",
                         "--m1", "1", "--m2", "1", "--w1", "1.5", "--w2", "1.5")
        assert code == 0
        assert validate_report(text)["results"]["mode_freqs"] == [1.5, 1.5]

    def test_volume_report(self, tmp_path):
        args = ("--command", "volume", "--region", "separable",
                "--samples", "2000", "--seed", "3")
        code, text = run(tmp_path, *args)
        assert code == 0
        doc = validate_report(text)
        assert doc["results"]["volume"] > 0
        code2, text2 = run(tmp_path, *args)
        assert text == text2   # seeded determinism


class TestCommandTable:
    def test_command_help_lists_exactly_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--command", "metric", "--help"])
        assert exc.value.code == 0
        options = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert options == ["--command", "--a", "--b", "--c", "--d", "--out"]

    def test_bare_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(cli.COMMANDS) + "}" in out
        assert re.findall(r"^  (--[\w-]+)", out, re.M) == ["--command"]

    @pytest.mark.parametrize("command, argv", [
        ("figure1", ()), ("figure2", ()), ("figure3", ()),
        ("sweep", ("--m", "0.2", "--n", "0.1")),
        ("metric", ("--a", "1", "--b", "1")),
        ("oscillator", ()),
        ("volume", ("--samples", "1000")),
    ])
    def test_config_echoes_the_table_flags(self, tmp_path, command, argv):
        table = cli.COMMANDS[command]
        if "format" in table.flags:
            argv = (*argv, "--grid", "10", "--format", "json")
        code, text = run(tmp_path, "--command", command, *argv)
        assert code == 0
        config = validate_report(text)["config"]
        assert config.keys() == {"command", *table.flags, *table.defaults} - {"out"}


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
        *((("--command", name, "--seed", "5"), "--seed")
          for name in ("figure1", "figure2", "figure3", "oscillator")),
        (("--command", "sweep", "--m", "0.1", "--n", "0.1", "--seed", "5"), "--seed"),
        (("--command", "metric", "--a", "1", "--b", "1", "--seed", "5"), "--seed"),
        (("--command", "distance", "--a", "1", "--b", "1", "--a0", "2", "--b0", "2",
          "--seed", "5"), "--seed without --check-invariance"),
    ], ids=["figure1", "metric", "metric-default-value", "distance", "oscillator", "selftest",
            "figure1-seed", "figure2-seed", "figure3-seed", "oscillator-seed", "sweep-seed",
            "metric-seed", "distance-seed"])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv, unread):
        code, text = run(tmp_path, *argv)
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == f"usage error: {argv[1]} does not read {unread}\n"

    def test_flag_table_covers_every_flag(self):
        # every flag a command names has settings, and every setting has a command
        assert set(cli._FLAG_SETTINGS) == {flag for command in cli.COMMANDS.values()
                                           for flag in command.flags}

    @pytest.mark.parametrize("argv", [
        ("--command", "oscillator", "--w1", "1e200"),
        ("--command", "oscillator", "--theta", "1e200"),
        ("--command", "metric", "--a", "1e300", "--b", "1e300"),
        ("--command", "volume", "--samples", "1000",
         "--box", "0.5,1e200,0.5,1.5,-0.5,0.5,-0.5,0.5"),
    ], ids=["oscillator-w1", "oscillator-theta", "metric", "volume-huge-box"])
    def test_overflow_or_non_finite_result_is_numeric_domain_error(self, argv):
        # a fresh process, so that a numpy warning would reach stderr too
        proc = subprocess.run([sys.executable, "-c", "import sys; from ginfo.cli import main; "
                               "sys.exit(main())", *argv],
                              env=fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric domain error: "), proc.stderr

    def test_float_overflow_prints_its_message(self, capsys):
        # a Python float overflow raises OverflowError(34, 'Numerical result out of range')
        assert main(["--command", "oscillator", "--w1", "1e200"]) == 4
        assert capsys.readouterr().err == "numeric domain error: Numerical result out of range\n"

    def test_singular_form_is_numeric_domain_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "--command", "sweep", "--m", "0.2", "--n", "0.1",
                      "--eta", "4.5")
        assert code == 4
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel, fake, message", [
        ("mode_spectrum", _raising(NumericDomainError), "forced by the test"),
        # mode frequencies off by 1e-9, relative: the covariance misses its identity
        ("mode_spectrum", _modes_off_by(1.0 + 1e-9),
         "ground state misses (2 Sigma H / hbar)^2 = -(Omega H)^2 by 1.042e-11"),
    ], ids=["mode_spectrum", "identity-residual"])
    def test_spectral_failure_is_numeric_domain_error(self, tmp_path, capsys,
                                                       monkeypatch, kernel, fake, message):
        monkeypatch.setattr(oscillator, kernel, fake)
        code, text = run(tmp_path, "--command", "oscillator")
        assert code == 4
        assert text == ""
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"numeric domain error: {message}")

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
                 "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'ginfo')))")
        out = subprocess.run([sys.executable, "-c", probe], env=fresh_env(), check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == list(CLI_MODULES)

    @pytest.mark.parametrize("argv, modules", [
        (("figure1", "--grid", "10"), ("bipartite", "states")),
        (("sweep", "--m", "0.1", "--n", "0.1", "--grid", "10"), ("bipartite", "states")),
        (("oscillator",), ("oscillator", "states")),
        (("metric", "--a", "1", "--b", "1"), ("fisher", "states")),
        (("volume", "--samples", "1000"), ("fisher", "states")),
        (("distance", "--a", "1", "--b", "1", "--a0", "2", "--b0", "2", "--check-invariance"),
         ("fisher", "matrixio", "randmat", "states")),
    ], ids=["figure1", "sweep", "oscillator", "metric", "volume", "distance"])
    def test_command_loads_only_its_modules(self, tmp_path, argv, modules):
        # a fresh process: its modules beyond those of the CLI are the command's own
        probe = ("import sys; from ginfo.cli import main; "
                 f"code = main(['--command', *{list(argv)!r}, '--out', {str(tmp_path / 'o')!r}]); "
                 "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'ginfo'))")
        out = subprocess.run([sys.executable, "-c", probe], env=fresh_env(), check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", *sorted(CLI_MODULES + tuple(f"ginfo.{m}" for m in modules))]
