"""Tests for the benchmark's own checkers and its command contract.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def scan_files(tmp_path, n1=11, n2=7):
    from hardylab.cli import run as cli_run

    csv_path, svg_path = tmp_path / "grid.csv", tmp_path / "grid.svg"
    code = cli_run(["scan", "--c1sq-steps", str(n1), "--beta0-steps", str(n2), "--out", str(csv_path), "--svg", str(svg_path)])
    assert code == 0
    return csv_path, svg_path


def test_valid_scan_passes(tmp_path, capsys):
    csv_path, svg_path = scan_files(tmp_path)
    out = capsys.readouterr().out
    text = csv_path.read_text()
    assert checks.check_scan_csv(text, 11, 7) == []
    assert checks.check_svg(str(svg_path), 77) == []
    assert checks.check_scan_stdout(out, 77, text) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows.__setitem__(20, rows[20].replace(rows[20].split(",")[3], "2.3", 1)),  # delta != 2 + 4 p
    lambda rows: rows.__setitem__(0, rows[0].replace("true", "false")),  # degenerate flag
    lambda rows: rows.pop(),  # row count
    lambda rows: rows.insert(5, rows[5]),  # axis order
])
def test_corrupted_csv_row_raises_failed_ratio(tmp_path, capsys, corrupt):
    csv_path, _ = scan_files(tmp_path)
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line == checks.CSV_HEADER) + 1
    rows = lines[start:]
    corrupt(rows)
    tally = checks.Tally()
    tally.record("scan", checks.check_scan_csv("\n".join(lines[:start] + rows) + "\n", 11, 7))
    assert tally.failed == 1 and tally.failed_ratio == 1.0


def test_truncated_svg_fails(tmp_path, capsys):
    _, svg_path = scan_files(tmp_path)
    capsys.readouterr()
    svg_path.write_text(svg_path.read_text()[:-20])
    assert checks.check_svg(str(svg_path), 77)


def test_flipped_polytope_verdict_raises_failed_ratio():
    tally = checks.Tally()
    for quad, verdict in [((0.5, 0.5, 0.5, 0.5), True), ((1.0, 1.0, 0.0, 0.0), True), ((1.0, 1.0, 1.0, -1.0), False)]:
        tally.record("ok", checks.check_polytope_verdict(quad, verdict))
    assert tally.failed == 0
    tally.record("flipped", checks.check_polytope_verdict((1.0, 1.0, 1.0, -1.0), True))
    assert tally.failed == 1 and tally.failed_ratio == 0.25


def test_polytope_classes_agree_with_the_package():
    from hardylab import is_locally_realizable

    for quad, kind in [((0.5, 0.25, 0.25, -0.5), "inside"), ((1.0, 1.0, 0.0, 0.0), "boundary"),
                       ((0.75, 0.75, 0.75, 0.25), "boundary"), ((0.75, 0.75, 0.75, -0.5), "outside")]:
        assert checks.polytope_class(quad) == kind
        assert checks.check_polytope_verdict(quad, is_locally_realizable(*quad)) == []


@pytest.mark.parametrize("code, stderr, expected, error", [
    (1, "error: boom\n", 0, None),  # unexpected failure
    (0, "", 1, "maximally entangled"),  # expected domain error did not happen
    (1, "error: one\nerror: two\n", 1, None),  # more than one diagnostic line
    (1, "error: product state admits no Hardy solution\n", 1, "maximally entangled"),  # wrong diagnostic
    (2, "usage: hardylab\n", 1, None),  # usage error instead of domain error
])
def test_unexpected_exit_raises_failed_ratio(code, stderr, expected, error):
    tally = checks.Tally()
    tally.record("cli", checks.check_exit(code, stderr, expected, error))
    assert tally.failed_ratio == 1.0


def test_expected_exits_pass():
    assert checks.check_exit(0, "", 0, None) == []
    assert checks.check_exit(1, "error: maximally entangled state admits no Hardy solution\n", 1, "maximally entangled") == []
    assert checks.check_exit(2, "usage: hardylab\nhardylab: error: x\n", 2, None) == []


def test_state_vector_oracle_solves_hardy():
    for x, beta in [(0.177352, 17.5566), (0.8, 40.0), (0.3, 85.0)]:
        settings = checks.hardy_settings(x, math.radians(beta))
        c1, c2 = math.sqrt(x), math.sqrt(1.0 - x)
        p = checks.hardy_probabilities(c1, c2, settings)
        assert max(p[:3]) < 1e-15 and p[3] > 1e-4
        assert checks.chsh_value(c1, c2, settings) == pytest.approx(2.0 + 4.0 * p[3], abs=1e-12)
        table = checks.pair_table(c1, c2, (0.3, 0.2), (1.1, -0.4))
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-14)
    assert checks.DELTA_BOUND == pytest.approx(2.360679775, abs=1e-9)


def test_tally_check_catches_wrong_counts():
    exact = checks.mixture_correlations([(Fraction(1, 2), "ppmm"), (Fraction(1, 2), "mmpp")])
    assert exact == [-1, -1, -1, -1]
    good = [[0, 50, 50, 0]] * 4
    assert checks.check_tally(good, 100, exact) == []
    assert checks.check_tally([[1, 49, 50, 0]] + good[1:], 100, exact)
    assert checks.check_tally([[0, 50, 49, 0]] + good[1:], 100, exact)


def test_changed_output_is_a_failure(tmp_path):
    session = workloads.CliSession(workloads.Context(ROOT, tmp_path, seed=1, python=sys.executable))
    session.reference = {}
    invocation = workloads.Invocation(["inequality"], check=lambda out: [])
    assert session._check(0, invocation, workloads.Child(0, b"lhs = 1\n", b"", 0.1, 10.0)) == []
    assert session._check(0, invocation, workloads.Child(0, b"lhs = 2\n", b"", 0.1, 10.0))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "config-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
