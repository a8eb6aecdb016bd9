"""End-to-end CLI tests: output contracts, exit codes, determinism, and
file emission."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardylab
from hardylab import __version__, chsh, cli, lhv
from hardylab.chsh import scan_surface
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


def run_quietly(argv):
    """cli.run in process with stdout and stderr captured, for properties
    (Hypothesis refuses capsys)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err):
    """Exit 0 with a manifest and a silent stderr, 1 with exactly one
    `error:` line, or 2 with a usage message."""
    if code == 0:
        assert err == ""
        assert out.startswith(f"# tool: hardylab {__version__}\n")
    elif code == 1:
        assert err.count("\n") == 1
        assert err.startswith("error: ")
    else:
        assert code == 2
        assert "usage:" in err


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

    def test_non_utf8_config(self, capsys, tmp_path):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"c1_squared = 0.3\xff\n")
        code, out, err = run_cli(capsys, "probs", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read config file:")
        assert err.count("\n") == 1

    def test_nul_byte_in_config_path(self, capsys):
        code, out, err = run_cli(capsys, "probs", "--config", "a\x00b")
        assert code == 1 and out == ""
        assert err == "error: cannot read config file: embedded null byte\n"


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

    @pytest.mark.parametrize("command", ["scan"])
    def test_rejects_oversized_grid(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--c1sq-steps", "10001", "--beta0-steps", "1001")
        assert code == 1
        assert err == "error: a 10001x1001 grid exceeds the limit of 10000000 cells\n"

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_nul_byte_in_output_path(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "scan", "--c1sq-steps", "2", "--beta0-steps", "2", flag, "a\x00b"
        )
        assert code == 1 and out == ""
        assert err == "error: cannot write 'a\\x00b': embedded null byte\n"

    def test_reader_closing_early_is_not_an_error(self):
        # The CSV (about 5 MB) is far larger than a pipe buffer, so the
        # writes after the reader leaves fail with a broken pipe.
        env = dict(os.environ, PYTHONPATH=str(Path(hardylab.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "hardylab.cli", "scan",
             "--c1sq-steps", "401", "--beta0-steps", "301"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        assert first == f"# tool: hardylab {__version__}\n".encode()
        assert code == 0 and err == b""


# Step tokens at and beyond the scan's boundaries, then anything at all.
step_tokens = st.one_of(
    st.integers(min_value=-3, max_value=40).map(str),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.sampled_from(
        ["2", "1", "0", "-0", "-1", "nan", "-nan", "inf", "-inf", "1e400", "2.0", "0x10",
         " 3 ", "1_0", "9" * 5000, "", "-", "--", "--out"]
    ),
    st.text(max_size=12),
)


class TestScanArgv:
    """Any scan step tokens: a grid, one `error:` line, or a usage error."""

    @given(
        c1sq=st.one_of(st.none(), step_tokens),
        beta0=st.one_of(st.none(), step_tokens),
    )
    @settings(max_examples=300, deadline=None)
    @example(c1sq="9" * 5000, beta0="2")
    @example(c1sq="nan", beta0="inf")
    @example(c1sq="3", beta0="20")
    def test_exit_codes(self, c1sq, beta0):
        argv = ["scan"]
        for flag, token in (("--c1sq-steps", c1sq), ("--beta0-steps", beta0)):
            if token is not None:
                argv += [flag, token]
        # A small cap keeps every accepted grid tiny; the defaults exceed it.
        with mock.patch.object(chsh, "MAX_SCAN_CELLS", 400):
            assert_exit_contract(*run_quietly(argv))


# lhv-sim count tokens: the scan's, plus values at and past the trial cap.
count_tokens = st.one_of(
    step_tokens,
    st.integers(min_value=395, max_value=405).map(str),
    st.sampled_from(["10000000", "10000001", str(10**30), "1e3", "4e2"]),
)


@pytest.fixture(scope="class")
def strategy_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("strategies")
    (folder / "mixture.lhv").write_text(ANTICORRELATED_TEXT, encoding="utf-8")
    (folder / "stochastic.lhv").write_text(
        "type = stochastic\nbreakpoints = 0, 0.5, 1\ndensity = 1, 1\n"
        "response_1 = 0.9, 0.1, 0.8, 0.3\nresponse_2 = 0.2, 0.7, 0.4, 0.5\n",
        encoding="utf-8",
    )
    return [str(folder / "mixture.lhv"), str(folder / "stochastic.lhv")]


class TestLhvSimArgv:
    """Any lhv-sim trial and seed tokens: a tally, one `error:` line, or a
    usage error."""

    @given(
        trials=st.one_of(st.none(), count_tokens),
        seed=st.one_of(st.none(), count_tokens),
        which=st.sampled_from([0, 1]),
    )
    @settings(max_examples=300, deadline=None)
    @example(trials="9" * 5000, seed="1", which=0)
    @example(trials="400", seed=str(10**30), which=1)
    @example(trials="401", seed="0", which=1)
    @example(trials="nan", seed="inf", which=0)
    def test_exit_codes(self, strategy_files, trials, seed, which):
        argv = ["lhv-sim", "--strategy", strategy_files[which]]
        for flag, token in (("--trials", trials), ("--seed", seed)):
            if token is not None:
                argv += [flag, token]
        # A small cap keeps every accepted run tiny; the default exceeds it.
        with mock.patch.object(lhv, "MAX_TRIALS", 400):
            assert_exit_contract(*run_quietly(argv))


# Number tokens at and beyond the float and probability boundaries:
# signalling NaNs, overflow on squaring, decimal exponents past 10**9.
number_tokens = st.one_of(
    st.sampled_from(
        ["0", "-0", "1", "-1", "0.5", "-0.5", "1e-320", "nan", "-nan", "inf", "-inf", "sNaN",
         "-sNaN", "1e200", "1e308", "1.8e308", "1e400", "-1e400", "1e1000000001",
         "1e-1000000001", "0e-99999999999", "0x10", "1_0", ""]
    ),
    st.floats().map(repr),
    st.text(max_size=12),
)


def four(*tokens):
    return st.one_of(st.none(), *(st.lists(t, min_size=4, max_size=4) for t in tokens))


# Valid values and errors reach the later checks; random ones rarely do.
values_tokens = four(st.sampled_from(["0", "1", "0.099", "5e-4"]), number_tokens)
errors_tokens = four(st.floats(min_value=0, allow_infinity=False).map(repr), number_tokens)


class TestNumberArgv:
    """Any inequality and hardy-solve number tokens: a result, one
    `error:` line, or a usage error."""

    @given(values=values_tokens, errors=errors_tokens)
    @settings(max_examples=300, deadline=None)
    @example(values=["1e-1000000001", "sNaN", "0", "0"], errors=None)
    def test_inequality_exit_codes(self, values, errors):
        argv = ["inequality"]
        for flag, tokens in (("--values", values), ("--errors", errors)):
            if tokens is not None:
                argv += [flag, *tokens]
        assert_exit_contract(*run_quietly(argv))

    @given(
        c1sq=st.one_of(st.none(), number_tokens),
        beta0=st.one_of(st.none(), number_tokens),
    )
    @settings(max_examples=300, deadline=None)
    @example(c1sq="0.3", beta0="1e308")
    @example(c1sq="1e-320", beta0="40")
    def test_hardy_solve_exit_codes(self, c1sq, beta0):
        argv = ["hardy-solve"]
        for flag, token in (("--c1-squared", c1sq), ("--beta0-deg", beta0)):
            if token is not None:
                argv += [flag, token]
        assert_exit_contract(*run_quietly(argv))


# Every path flag, with the arguments that keep its run small and the
# name of a file it accepts.
PATH_FLAGS = (
    (["probs"], ("--config",), "solved.cfg"),
    (["correlation"], ("--config",), "solved.cfg"),
    (["hardy-check"], ("--config",), "solved.cfg"),
    (["inequality"], ("--config",), "solved.cfg"),
    (["lhv-sim", "--trials", "10"], ("--strategy",), "mixture.lhv"),
    (["scan", "--c1sq-steps", "3", "--beta0-steps", "3"], ("--out", "--svg"), "grid.out"),
)
PATH_KINDS = ("empty", "dot", "directory", "missing", "nul", "valid")


@pytest.fixture(scope="class")
def path_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("paths")
    (folder / "solved.cfg").write_text(
        "c1_squared = 0.25\nbeta_11_deg = 60\nbeta_12_deg = 30\n"
        "beta_21_deg = -45\nbeta_22_deg = -18.43494882292201\n",
        encoding="utf-8",
    )
    (folder / "mixture.lhv").write_text(ANTICORRELATED_TEXT, encoding="utf-8")
    return folder


class TestPathArgv:
    """Any path token on any path flag: a result, one `error:` line, or a
    usage error."""

    @given(command=st.sampled_from(PATH_FLAGS), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exit_codes(self, path_folder, command, data):
        prefix, flags, valid = command
        tokens = {
            "empty": "",
            "dot": ".",
            "directory": str(path_folder),
            "missing": str(path_folder / "missing" / "file"),
            "nul": "a\x00b",
            "valid": str(path_folder / valid),
        }
        argv = list(prefix)
        for flag in flags:
            kind = data.draw(st.one_of(st.none(), st.sampled_from(PATH_KINDS)), label=flag)
            if kind is not None:
                argv += [flag, tokens[kind]]
        assert_exit_contract(*run_quietly(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["inequality", "--config", ""],
            ["scan", "--c1sq-steps", "3", "--beta0-steps", "3", "--out", ""],
            ["scan", "--c1sq-steps", "3", "--beta0-steps", "3", "--svg", ""],
            ["lhv-sim", "--strategy", ""],
        ],
        ids=["inequality-config", "scan-out", "scan-svg", "lhv-sim-strategy"],
    )
    def test_empty_path_is_a_missing_file(self, capsys, argv):
        expected = run_cli(capsys, "probs", "--config", "")
        assert expected == (1, "", "error: [Errno 2] No such file or directory: ''\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.replace("cannot read strategy file: ", "")) == expected


class TestOptimize:
    def test_defaults(self, capsys):
        code, out, err = run_cli(capsys, "optimize")
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [
            "# subcommand: optimize",
            "c1_squared = 0.82264836316",
            "beta0_deg = 72.4434160749",
            "delta = 2.360679775",
            "p_hardy = 0.0901699437495",
            "within_tolerance = true",
        ]

    def test_within_tolerance_checks_the_probability_route(self, capsys, monkeypatch):
        # A Hardy probability taken off the maximizer must break
        # delta = 2 + 4 p_hardy, and with it within_tolerance. The CLI
        # resolves library names through the package namespace.
        monkeypatch.setattr(
            hardylab, "solve_hardy", lambda state, beta0: solve_hardy(state, beta0 + 0.01)
        )
        code, out, err = run_cli(capsys, "optimize")
        assert code == 1
        assert out.splitlines()[-1] == "within_tolerance = false"
        assert err.startswith("error:") and err.count("\n") == 1

    def test_rejects_step_flags(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--c1sq-steps", "5")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --c1sq-steps 5" in err


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

    def test_non_utf8_strategy_file(self, capsys, tmp_path):
        path = tmp_path / "latin.lhv"
        path.write_bytes(b"type = mixture\xff\n")
        code, out, err = run_cli(capsys, "lhv-sim", "--strategy", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read strategy file:")
        assert err.count("\n") == 1

    def test_nul_byte_in_strategy_path(self, capsys):
        code, out, err = run_cli(capsys, "lhv-sim", "--strategy", "a\x00b")
        assert code == 1 and out == ""
        assert err == "error: cannot read strategy file: embedded null byte\n"

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

    def test_rejects_weight_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "huge.lhv"
        path.write_text("type = mixture\nweight_pppp = 1e400\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "lhv-sim", "--strategy", str(path))
        assert code == 1 and out == ""
        assert err == "error: weights sum to inf, expected 1\n"

    def test_rejects_weight_exponent_far_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "vast.lhv"
        path.write_text("type = mixture\nweight_pppp = 1e999999999\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "lhv-sim", "--strategy", str(path))
        assert code == 1 and out == ""
        assert err == "error: weight_pppp: exponent beyond 1000 in magnitude: '1e999999999'\n"

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

    def test_rejects_trials_over_the_cap(self, capsys, monkeypatch, anticorrelated_path):
        monkeypatch.setattr(lhv, "MAX_TRIALS", 100)
        args = ("lhv-sim", "--strategy", anticorrelated_path)
        assert run_cli(capsys, *args, "--trials", "100")[0] == 0
        code, out, err = run_cli(capsys, *args, "--trials", "101")
        assert code == 1 and out == ""
        assert err == "error: 101 trials per pair exceed the limit of 100\n"


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

    def test_huge_errors_do_not_overflow(self, capsys):
        code, out, err = run_cli(
            capsys, "inequality",
            "--values", "0.1", "0", "0", "0", "--errors", "1e200", "1e200", "0", "0",
        )
        assert code == 0 and err == ""
        assert parse_values(out)["margin_std_error"] == "1.41421356237e+200"

    def test_errors_beyond_the_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "inequality", "--values", "0.1", "0", "0", "0", "--errors", *["1e308"] * 4
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "exceeds the float range" in err

    def test_margin_helpers(self):
        assert inequality_margin(TWO_PHOTON_FIXTURE_VALUES) == Decimal("0.0846")
        assert quadrature_error(TWO_PHOTON_FIXTURE_ERRORS) == pytest.approx(
            0.002137755832643195, abs=1e-18
        )


class TestWorkersEnvironment:
    """HARDY_LAB_THREADS, once lhv-sim's worker cap, is read by nothing."""

    @staticmethod
    def _args(path):
        return ("lhv-sim", "--strategy", path, "--trials", "3000", "--seed", "5")

    def test_explicit_thread_cap(self, capsys, monkeypatch, anticorrelated_path):
        monkeypatch.setenv("HARDY_LAB_THREADS", "2")
        code, out, err = run_cli(capsys, *self._args(anticorrelated_path))
        assert code == 0 and err == ""
        assert parse_values(out)["trials_per_pair"] == "3000"

    def test_cap_does_not_change_bytes(self, capsys, monkeypatch, anticorrelated_path):
        argv = self._args(anticorrelated_path)
        monkeypatch.delenv("HARDY_LAB_THREADS", raising=False)
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        for value in ("1", "2", "0", "x"):
            monkeypatch.setenv("HARDY_LAB_THREADS", value)
            assert run_cli(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("argv", [TestScan.ARGS, ("verify",)])
    def test_scan_and_verify_ignore_cap(self, capsys, monkeypatch, argv):
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("HARDY_LAB_THREADS", "x")
        assert run_cli(capsys, *argv) == (0, expected, "")


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


_STARTUP_SCRIPT = """
import contextlib, io, json, sys
from hardylab import cli

report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    report.append([code, "numpy" in sys.modules, "concurrent.futures" in sys.modules])
print(json.dumps(report))
"""

_LOADS_SCRIPT = """
import contextlib, io, json, sys
from hardylab import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]))
loaded = [m[len("hardylab."):] for m in sys.modules if m.startswith("hardylab.")]
print(json.dumps([code, sorted(loaded), "fractions" in sys.modules,
                  "concurrent.futures" in sys.modules]))
"""

_SOLVE = ["hardy-solve", "--c1-squared", "0.3", "--beta0-deg", "40"]
_LOADS = [
    (["--version"], 0, [], False),
    (["frobnicate"], 2, [], False),
    (_SOLVE + ["--variant", "bogus"], 2, [], False),
    (["inequality"], 0, [], False),
    (["inequality", "--values", "0.1", "0.01", "0.02", "0.03"], 0, [], False),
    (["probs", "--config", "{config}"], 0, ["correlations"], False),
    (["hardy-check", "--config", "{config}"], 0, ["correlations", "hardy"], False),
    (_SOLVE, 0, ["correlations", "hardy"], False),
    (["inequality", "--config", "{config}"], 0, ["correlations", "hardy"], False),
    (["correlation", "--config", "{config}"], 0, ["chsh", "correlations", "hardy"], False),
    (["optimize"], 0, ["chsh", "correlations", "hardy"], False),
    (["scan", "--c1sq-steps", "5", "--beta0-steps", "4"], 0, ["chsh", "correlations", "hardy"], False),
    (["verify"], 0, ["chsh", "correlations", "hardy"], False),
    (["lhv-sim", "--strategy", "s.lhv", "--trials", "200"], 0, ["lhv"], True),
]


class TestLightStartup:
    """Subcommands load only what they use: no numpy for scalar work, no
    thread pool at all, and only the package modules each one reaches."""

    def test_scalar_subcommands_load_no_numpy(self, tmp_path, solved_config_path):
        (tmp_path / "s.lhv").write_text(ANTICORRELATED_TEXT, encoding="utf-8")
        solve = ["hardy-solve", "--c1-squared"]
        light = [
            (["probs", "--config", solved_config_path], 0),
            (["correlation", "--config", solved_config_path], 0),
            (["correlation", "--config", solved_config_path, "--pair", "12"], 0),
            (solve + ["0.3", "--beta0-deg", "40"], 0),
            (solve + ["0.5", "--beta0-deg", "40"], 1),
            (solve + ["0.3", "--beta0-deg", "1e-8"], 1),
            (solve + ["0.3", "--beta0-deg", "nan"], 1),
            (["hardy-check", "--config", solved_config_path], 0),
            (["inequality"], 0),
            (["inequality", "--values", "0.1", "0.01", "0.02", "0.03"], 0),
            (["inequality", "--config", solved_config_path], 0),
            (["optimize"], 0),
            (["--version"], 0),
            (["frobnicate"], 2),
        ]
        heavy = [
            (["scan", "--c1sq-steps", "5", "--beta0-steps", "4", "--svg", "g.svg"], 0),
            (["verify"], 0),
            (["lhv-sim", "--strategy", "s.lhv", "--trials", "200"], 0),
        ]
        argvs = json.dumps([argv for argv, _ in light + heavy])
        env = dict(os.environ, PYTHONPATH=str(Path(hardylab.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, argvs],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        report = json.loads(proc.stdout)
        # Each light run is checked before any heavy run loads numpy.
        assert report[: len(light)] == [[code, False, False] for _, code in light]
        assert [code for code, _, _ in report[len(light):]] == [code for _, code in heavy]

    @pytest.mark.parametrize(
        "argv, code, modules, fractions", _LOADS, ids=[" ".join(argv) for argv, *_ in _LOADS]
    )
    def test_each_subcommand_loads_only_its_modules(
        self, tmp_path, solved_config_path, argv, code, modules, fractions
    ):
        # Package modules besides cli and qstate, fractions (which only
        # lhv needs) and the thread pool (which nothing needs), loaded by
        # one run in a fresh interpreter.
        (tmp_path / "s.lhv").write_text(ANTICORRELATED_TEXT, encoding="utf-8")
        argv = [a.format(config=solved_config_path) for a in argv]
        env = dict(os.environ, PYTHONPATH=str(Path(hardylab.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _LOADS_SCRIPT, json.dumps(argv)],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(proc.stdout) == [
            code, sorted(["cli", "qstate", *modules]), fractions, False
        ]


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
