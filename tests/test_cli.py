"""End-to-end CLI tests: output contracts, exit codes, determinism, and
file emission."""

import math
import shutil
import subprocess
import sys
import xml.dom.minidom

import pytest

from hardylab import __version__
from hardylab.chsh import DELTA_MAX, OPTIMAL_BETA0_DEG, OPTIMAL_C1_SQUARED, scan_surface
from hardylab.cli import (
    RunManifest,
    TWO_PHOTON_FIXTURE_ERRORS,
    TWO_PHOTON_FIXTURE_VALUES,
    inequality_margin,
    quadrature_error,
    run,
)
from hardylab.correlations import correlation_set
from hardylab.hardy import solve_hardy
from hardylab.qstate import make_state

from decimal import Decimal

GOLDEN_P_HARDY = 0.05170426184374023

ANTICORRELATED_TEXT = "type = mixture\nweight_ppmm = 1/2\nweight_mmpp = 1/2\n"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_values(out):
    """Collect 'key = value' lines into a dict (last wins)."""
    values = {}
    for line in out.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        values[key.strip()] = value.strip()
    return values


@pytest.fixture
def solved_config_path(tmp_path):
    solution = solve_hardy(make_state(0.3), math.radians(40.0))
    config = solution.config()
    lines = ["c1_squared = 0.3"]
    for name, setting in (
        ("11", config.d11),
        ("12", config.d12),
        ("21", config.d21),
        ("22", config.d22),
    ):
        lines.append(f"beta_{name}_deg = {math.degrees(setting.beta)!r}")
    path = tmp_path / "solved.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def anticorrelated_path(tmp_path):
    path = tmp_path / "anticorrelated.lhv"
    path.write_text(ANTICORRELATED_TEXT, encoding="utf-8")
    return str(path)


class TestManifest:
    def test_lines_structure(self):
        manifest = RunManifest(
            "scan",
            parameters=(("c1sq_steps", "5"),),
            seed=7,
            output_paths=("a.csv", "b.svg"),
        )
        assert manifest.lines() == [
            f"# tool: hardylab {__version__}",
            "# subcommand: scan",
            "# c1sq_steps: 5",
            "# seed: 7",
            "# output: a.csv",
            "# output: b.svg",
        ]
        assert manifest.text().endswith("b.svg\n")

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("verify",), "verify"),
            (("inequality",), "inequality"),
            (("hardy-solve", "--c1-squared", "0.3", "--beta0-deg", "40"), "hardy-solve"),
        ],
    )
    def test_stdout_opens_with_manifest(self, capsys, argv, name):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# tool: hardylab {__version__}"
        assert lines[1] == f"# subcommand: {name}"


class TestProbs:
    def test_all_pairs(self, capsys, solved_config_path):
        code, out, err = run_cli(capsys, "probs", "--config", solved_config_path)
        assert code == 0 and err == ""
        values = parse_values(out)
        assert len(values) == 16
        assert float(values["p22_pp"]) == pytest.approx(GOLDEN_P_HARDY, rel=1e-11)
        for key in ("p11_mm", "p12_pp", "p21_pp"):
            assert float(values[key]) <= 1e-10
        for name in ("11", "12", "21", "22"):
            total = sum(float(values[f"p{name}_{s}"]) for s in ("pp", "pm", "mp", "mm"))
            assert total == pytest.approx(1.0, abs=1e-11)

    def test_single_pair(self, capsys, solved_config_path):
        code, out, _ = run_cli(
            capsys, "probs", "--config", solved_config_path, "--pair", "12"
        )
        assert code == 0
        values = parse_values(out)
        assert sorted(values) == ["p12_mm", "p12_mp", "p12_pm", "p12_pp"]

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "probs", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("c1_squared = 0.3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "probs", "--config", str(path))
        assert code == 1
        assert err.startswith("error:")


class TestCorrelation:
    def test_full_set(self, capsys, solved_config_path):
        code, out, _ = run_cli(capsys, "correlation", "--config", solved_config_path)
        assert code == 0
        values = parse_values(out)
        solution = solve_hardy(make_state(0.3), math.radians(40.0))
        expected = correlation_set(solution.config())
        for name in ("11", "12", "21", "22"):
            assert float(values[f"e{name}"]) == pytest.approx(
                getattr(expected, f"e{name}"), abs=1e-10
            )
        assert float(values["delta"]) == pytest.approx(
            2.0 + 4.0 * GOLDEN_P_HARDY, abs=1e-10
        )
        assert values["violated"] == "true"

    def test_single_pair(self, capsys, solved_config_path):
        code, out, _ = run_cli(
            capsys, "correlation", "--config", solved_config_path, "--pair", "21"
        )
        assert code == 0
        values = parse_values(out)
        assert list(values) == ["e21"]

    def test_single_pair_lines_match_full_table(self, capsys, tmp_path):
        # e11 is 0 up to rounding here, and the probability route and the
        # closed form round it differently (1.9e-16 against 6.1e-17).
        path = tmp_path / "pair.cfg"
        path.write_text(
            "c1_squared = 0.3\nbeta_11_deg = 45\nbeta_12_deg = 30\n"
            "beta_21_deg = 0\nbeta_22_deg = 17\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "correlation", "--config", str(path))
        assert code == 0
        full = out.splitlines()
        for name in ("11", "12", "21", "22"):
            code, out, _ = run_cli(
                capsys, "correlation", "--config", str(path), "--pair", name
            )
            assert code == 0
            line = out.splitlines()[-1]
            assert line.startswith(f"e{name} = ") and line in full


class TestHardySolve:
    def test_golden_solution(self, capsys):
        code, out, err = run_cli(
            capsys, "hardy-solve", "--c1-squared", "0.3", "--beta0-deg", "40"
        )
        assert code == 0 and err == ""
        values = parse_values(out)
        assert float(values["c1_squared"]) == pytest.approx(0.3, abs=1e-12)
        assert values["variant"] == "canonical"
        assert float(values["beta_11_deg"]) == pytest.approx(62.944256871428834, abs=1e-9)
        assert float(values["beta_12_deg"]) == 40.0
        assert float(values["beta_21_deg"]) == pytest.approx(-37.960851281300684, abs=1e-9)
        assert float(values["beta_22_deg"]) == pytest.approx(-18.48815056064918, abs=1e-9)
        assert all(float(values[f"delta_{n}_deg"]) == 0.0 for n in ("11", "12", "21", "22"))
        assert float(values["p_d"]) == pytest.approx(GOLDEN_P_HARDY, rel=1e-11)
        assert max(float(values[k]) for k in ("p_a", "p_b", "p_c")) <= 1e-10
        assert values["satisfied"] == "true"
        assert "P(D11=-1, D21=-1)" in out
        assert "P(D12=+1, D22=+1)" in out

    def test_variant_labels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hardy-solve",
            "--c1-squared", "0.3",
            "--beta0-deg", "40",
            "--variant", "particle1-flipped",
        )
        assert code == 0
        values = parse_values(out)
        assert values["variant"] == "particle1-flipped"
        assert values["satisfied"] == "true"
        assert "P(D11=+1, D21=-1)" in out
        assert "P(D12=-1, D22=+1)" in out

    def test_maximally_entangled_diagnostic(self, capsys):
        code, out, err = run_cli(
            capsys, "hardy-solve", "--c1-squared", "0.5", "--beta0-deg", "30"
        )
        assert code == 1
        assert err == "error: maximally entangled state admits no Hardy solution\n"

    def test_product_state_diagnostic(self, capsys):
        code, _, err = run_cli(
            capsys, "hardy-solve", "--c1-squared", "1", "--beta0-deg", "30"
        )
        assert code == 1
        assert "product state admits no Hardy solution" in err

    def test_degenerate_beta0(self, capsys):
        code, _, err = run_cli(
            capsys, "hardy-solve", "--c1-squared", "0.3", "--beta0-deg", "90"
        )
        assert code == 1
        assert err.startswith("error:")

    def test_printed_angles_round_trip_through_check(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "hardy-solve", "--c1-squared", "0.37", "--beta0-deg", "25"
        )
        assert code == 0
        values = parse_values(out)
        lines = [f"c1_squared = {values['c1_squared']}"]
        for name in ("11", "12", "21", "22"):
            lines.append(f"beta_{name}_deg = {values[f'beta_{name}_deg']}")
            lines.append(f"delta_{name}_deg = {values[f'delta_{name}_deg']}")
        path = tmp_path / "round.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "hardy-check", "--config", str(path))
        assert code == 0
        assert parse_values(out)["satisfied"] == "true"


class TestHardyCheck:
    def test_solved_config(self, capsys, solved_config_path):
        code, out, _ = run_cli(capsys, "hardy-check", "--config", solved_config_path)
        assert code == 0
        values = parse_values(out)
        assert values["satisfied"] == "true"
        assert float(values["p_d"]) == pytest.approx(GOLDEN_P_HARDY, rel=1e-11)

    def test_tolerance_flag(self, capsys, solved_config_path):
        code, out, _ = run_cli(
            capsys, "hardy-check", "--config", solved_config_path, "--tol", "1"
        )
        assert code == 0
        assert parse_values(out)["satisfied"] == "false"

    def test_bad_tolerance(self, capsys, solved_config_path):
        code, _, err = run_cli(
            capsys, "hardy-check", "--config", solved_config_path, "--tol", "-1"
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "1e400"])
    def test_non_finite_tolerance(self, capsys, solved_config_path, tol):
        code, out, err = run_cli(
            capsys, "hardy-check", "--config", solved_config_path, "--tol", tol
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "zero_tol must be finite" in err


class TestScan:
    ARGS = ("scan", "--c1sq-steps", "5", "--beta0-steps", "4")

    def test_stdout_csv(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0 and err == ""
        lines = out.splitlines()
        header = lines.index("c1_squared,beta0_deg,p_hardy,delta,degenerate")
        assert all(line.startswith("#") for line in lines[:header])
        rows = lines[header + 1:]
        assert len(rows) == 20
        sample = rows[5].split(",")
        assert float(sample[0]) == 0.25
        assert float(sample[1]) == 30.0
        assert float(sample[2]) == pytest.approx(0.075, abs=1e-12)
        assert float(sample[3]) == pytest.approx(2.3, abs=1e-12)
        assert sample[4] == "false"
        assert rows[0].endswith(",true")

    def test_rows_match_library_formatting(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        rows = out.splitlines()[out.splitlines().index(
            "c1_squared,beta0_deg,p_hardy,delta,degenerate"
        ) + 1:]
        grid = scan_surface(5, 4)
        expected = [
            f"{x:.12g},{b:.12g},{p:.12g},{d:.12g},{'true' if flag else 'false'}"
            for x, b, p, d, flag in grid.rows()
        ]
        assert rows == expected

    def test_file_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        svg_path = tmp_path / "grid.svg"
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--out", str(csv_path), "--svg", str(svg_path)
        )
        assert code == 0
        values = parse_values(out)
        assert values["cells"] == "20"
        assert float(values["max_delta"]) == pytest.approx(2.3, abs=1e-12)
        assert float(values["max_c1_squared"]) == 0.25
        assert float(values["max_beta0_deg"]) == 30.0
        csv_text = csv_path.read_text(encoding="utf-8")
        assert csv_text.startswith("# tool: hardylab")
        assert f"# output: {csv_path}" in csv_text
        assert f"# output: {svg_path}" in csv_text
        assert csv_text.count("\n") == 6 + 1 + 20  # manifest, header, rows

    def test_svg_is_wellformed(self, capsys, tmp_path):
        svg_path = tmp_path / "grid.svg"
        code, _, _ = run_cli(capsys, *self.ARGS, "--svg", str(svg_path))
        assert code == 0
        text = svg_path.read_text(encoding="utf-8")
        document = xml.dom.minidom.parseString(text)
        assert document.documentElement.tagName == "svg"
        assert text.count("<rect") >= 20
        assert "CHSH violation surface" in text
        assert "max delta = 2.3" in text

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--out", str(first))
        assert code == 0
        code, _, _ = run_cli(capsys, *self.ARGS, "--out", str(second))
        assert code == 0
        a = first.read_bytes().replace(str(first).encode(), b"OUT")
        b = second.read_bytes().replace(str(second).encode(), b"OUT")
        assert a == b

    def test_rejects_tiny_grid(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--c1sq-steps", "1")
        assert code == 1
        assert "at least 2 steps" in err


class TestOptimize:
    def test_defaults(self, capsys):
        code, out, err = run_cli(capsys, "optimize")
        assert code == 0 and err == ""
        values = parse_values(out)
        assert float(values["delta"]) == pytest.approx(DELTA_MAX, abs=1e-9)
        assert values["within_tolerance"] == "true"
        x = float(values["c1_squared"])
        b = float(values["beta0_deg"])
        primary = abs(x - OPTIMAL_C1_SQUARED) <= 1e-4 and abs(b - OPTIMAL_BETA0_DEG) <= 1e-4
        mirror = (
            abs(x - (1.0 - OPTIMAL_C1_SQUARED)) <= 1e-4
            and abs(b - (90.0 - OPTIMAL_BETA0_DEG)) <= 1e-4
        )
        assert primary or mirror
        assert float(values["p_hardy"]) == pytest.approx(
            (DELTA_MAX - 2.0) / 4.0, abs=1e-9
        )


class TestLhvSim:
    def test_anticorrelated_mixture(self, capsys, anticorrelated_path):
        code, out, err = run_cli(
            capsys, "lhv-sim", "--strategy", anticorrelated_path,
            "--trials", "4000", "--seed", "9",
        )
        assert code == 0 and err == ""
        assert "# seed: 9" in out
        values = parse_values(out)
        assert values["trials_per_pair"] == "4000"
        for name in ("11", "12", "21", "22"):
            assert values[f"count_{name}_pp"] == "0"
            assert values[f"count_{name}_mm"] == "0"
            pm = int(values[f"count_{name}_pm"])
            mp = int(values[f"count_{name}_mp"])
            assert pm + mp == 4000
            assert values[f"e{name}"] == "-1"
            assert values[f"se_e{name}"] == "0"
        assert values["delta"] == "2"
        assert values["se_delta"] == "0"

    def test_reruns_are_byte_identical(self, capsys, anticorrelated_path):
        args = ("lhv-sim", "--strategy", anticorrelated_path, "--trials", "1000")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_seed_changes_counts(self, capsys, anticorrelated_path):
        args = ("lhv-sim", "--strategy", anticorrelated_path, "--trials", "1000")
        _, first, _ = run_cli(capsys, *args, "--seed", "1")
        _, second, _ = run_cli(capsys, *args, "--seed", "2")
        assert first != second

    def test_stochastic_strategy_file(self, capsys, tmp_path):
        path = tmp_path / "coin.lhv"
        path.write_text(
            "type = stochastic\nbreakpoints = 0, 1\ndensity = 1\n"
            "response_1 = 0.5, 0.5, 0.5, 0.5\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "lhv-sim", "--strategy", str(path), "--trials", "20000"
        )
        assert code == 0
        values = parse_values(out)
        for name in ("11", "12", "21", "22"):
            assert abs(float(values[f"e{name}"])) <= 4.0 / math.sqrt(20000.0)

    def test_missing_strategy_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "lhv-sim", "--strategy", str(tmp_path / "nope.lhv")
        )
        assert code == 1
        assert "cannot read strategy file" in err

    @pytest.mark.parametrize(
        "breakpoints,density",
        [("0, 0.5, 1", "nan, 1"), ("0, 0.5, 1", "1, inf"), ("0, nan, 1", "1, 1")],
    )
    def test_rejects_non_finite_strategy(self, capsys, tmp_path, breakpoints, density):
        path = tmp_path / "bad.lhv"
        path.write_text(
            f"type = stochastic\nbreakpoints = {breakpoints}\ndensity = {density}\n"
            "response_1 = 1, 0, 1, 0\nresponse_2 = 0, 1, 0, 1\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "lhv-sim", "--strategy", str(path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "must be finite" in err

    def test_rejects_negative_seed(self, capsys, anticorrelated_path):
        code, out, err = run_cli(
            capsys, "lhv-sim", "--strategy", anticorrelated_path, "--seed", "-1"
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "seed must be a non-negative integer" in err

    def test_rejects_zero_trials(self, capsys, anticorrelated_path):
        code, _, err = run_cli(
            capsys, "lhv-sim", "--strategy", anticorrelated_path, "--trials", "0"
        )
        assert code == 1
        assert "positive integer" in err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0 and err == ""
        assert "normalization: ok" in out
        assert "delta identity: ok" in out
        assert "vanishing-condition round-trip: ok" in out
        assert "FAIL" not in out


class TestInequality:
    def test_fixture_margin(self, capsys):
        code, out, err = run_cli(capsys, "inequality")
        assert code == 0 and err == ""
        assert "# source: two-photon fixture" in out
        assert "lhs = 0.099" in out
        assert "rhs = 0.0144" in out
        assert "margin = 0.0846" in out
        values = parse_values(out)
        assert float(values["margin_std_error"]) == pytest.approx(
            0.002137755832643195, abs=1e-14
        )
        assert values["violated"] == "true"

    def test_explicit_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "inequality", "--values", "0.5", "0.1", "0.1", "0.1"
        )
        assert code == 0
        values = parse_values(out)
        assert values["margin"] == "0.2"
        assert values["violated"] == "true"
        assert "margin_std_error" not in values

    def test_negative_margin(self, capsys):
        code, out, _ = run_cli(
            capsys, "inequality", "--values", "0.01", "0.1", "0.1", "0.1"
        )
        assert code == 0
        values = parse_values(out)
        assert values["margin"] == "-0.29"
        assert values["violated"] == "false"

    def test_errors_require_values(self, capsys):
        code, _, err = run_cli(
            capsys, "inequality", "--errors", "0.1", "0.1", "0.1", "0.1"
        )
        assert code == 1
        assert "--errors requires --values" in err

    def test_config_conflicts_with_values(self, capsys, solved_config_path):
        code, _, err = run_cli(
            capsys, "inequality",
            "--config", solved_config_path,
            "--values", "0.1", "0.1", "0.1", "0.1",
        )
        assert code == 1
        assert "not both" in err

    def test_config_route(self, capsys, solved_config_path):
        code, out, _ = run_cli(capsys, "inequality", "--config", solved_config_path)
        assert code == 0
        values = parse_values(out)
        assert float(values["lhs"]) == pytest.approx(GOLDEN_P_HARDY, rel=1e-11)
        assert float(values["margin"]) > 0.05
        assert values["violated"] == "true"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--values", "a", "0.1", "0.1", "0.1"), "four decimal numbers"),
            (("--values", "nan", "0", "0", "0"), "probabilities in [0, 1]"),
            (("--values", "inf", "0", "0", "0"), "probabilities in [0, 1]"),
            (("--values", "-1", "0", "0", "0"), "probabilities in [0, 1]"),
            (("--values", "0.5", "0", "1.5", "0"), "probabilities in [0, 1]"),
            (("--values", "0.5", "0", "0", "0", "--errors", "nan", "0", "0", "0"), "finite and non-negative"),
            (("--values", "0.5", "0", "0", "0", "--errors", "0", "inf", "0", "0"), "finite and non-negative"),
            (("--values", "0.5", "0", "0", "0", "--errors", "0", "0", "-0.1", "0"), "finite and non-negative"),
            (("--values", "0.5", "0", "0", "0", "--errors", "0", "0", "0", "e"), "must be numbers"),
        ],
        ids=[
            "non-decimal", "nan", "inf", "negative", "above-one",
            "errors-nan", "errors-inf", "errors-negative", "errors-non-number",
        ],
    )
    def test_rejects_bad_numbers(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "inequality", *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and message in err

    def test_margin_helpers(self):
        assert inequality_margin(TWO_PHOTON_FIXTURE_VALUES) == Decimal("0.0846")
        assert quadrature_error(TWO_PHOTON_FIXTURE_ERRORS) == pytest.approx(
            0.002137755832643195, abs=1e-18
        )


class TestWorkersEnvironment:
    def test_explicit_thread_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HARDY_LAB_THREADS", "2")
        code, out, _ = run_cli(capsys, *TestScan.ARGS)
        assert code == 0

    def test_cap_does_not_change_bytes(self, capsys, monkeypatch):
        code, wide, _ = run_cli(capsys, *TestScan.ARGS)
        assert code == 0
        monkeypatch.setenv("HARDY_LAB_THREADS", "1")
        code, narrow, _ = run_cli(capsys, *TestScan.ARGS)
        assert code == 0
        assert wide == narrow

    @pytest.mark.parametrize("value,fragment", [("0", ">= 1"), ("x", "integer")])
    def test_rejects_bad_cap(self, capsys, monkeypatch, value, fragment):
        monkeypatch.setenv("HARDY_LAB_THREADS", value)
        code, _, err = run_cli(capsys, *TestScan.ARGS)
        assert code == 1
        assert fragment in err


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_usage_error_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_usage_error_unknown_flag(self, capsys):
        assert run_cli(capsys, "verify", "--nope")[0] == 2

    def test_version(self, capsys):
        code, out, err = run_cli(capsys, "--version")
        assert code == 0
        assert f"hardylab {__version__}" in out + err


class TestInstalledEntryPoint:
    def test_console_script(self):
        binary = shutil.which("hardylab")
        if binary:
            argv = [binary, "--version"]
        else:
            argv = [sys.executable, "-m", "hardylab.cli", "--version"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0
        assert f"hardylab {__version__}" in proc.stdout + proc.stderr

    def test_cross_process_determinism(self, tmp_path):
        binary = shutil.which("hardylab")
        base = [binary] if binary else [sys.executable, "-m", "hardylab.cli"]
        (tmp_path / "s.lhv").write_text(ANTICORRELATED_TEXT, encoding="utf-8")
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                base + ["lhv-sim", "--strategy", str(tmp_path / "s.lhv"),
                        "--trials", "500", "--seed", "4"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
