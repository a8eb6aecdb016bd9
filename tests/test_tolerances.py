"""The tolerance table: every numerical threshold lives in qstate, once."""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import pytest

from hardylab import chsh, cli, correlations, hardy, lhv, qstate
from hardylab.qstate import BOUNDARY_TOL, ROUNDING_TOL, ZERO_TOL

SOURCES = sorted(Path(qstate.__file__).parent.glob("*.py"))
TABLE = ("ROUNDING_TOL", "ZERO_TOL", "BOUNDARY_TOL")


def _small_float_literals(path: Path) -> list[tuple[int, str]]:
    """(line, source line) of every float literal in (0, 1e-6]."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    found = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.NUMBER:
            continue
        value = ast.literal_eval(token.string)
        if isinstance(value, float) and 0.0 < value <= 1e-6:
            found.append((token.start[0], lines[token.start[0] - 1].strip()))
    return found


def test_table_values():
    assert (ROUNDING_TOL, ZERO_TOL, BOUNDARY_TOL) == (1e-12, 1e-10, 1e-9)
    assert set(TABLE) <= set(qstate.__all__)


def test_no_threshold_literal_outside_the_table():
    assert SOURCES, "package sources not found"
    stray = []
    table_lines = []
    for path in SOURCES:
        for lineno, line in _small_float_literals(path):
            if path.name == "qstate.py" and line.partition(" = ")[0] in TABLE:
                table_lines.append(line)
            else:
                stray.append(f"{path.name}:{lineno}: {line}")
    assert stray == []
    assert [line.partition(" = ")[0] for line in table_lines] == list(TABLE)


@pytest.mark.parametrize(
    "name",
    [
        "NORMALIZATION_TOL",
        "CLASSIFICATION_TOL",
        "DEGENERATE_BETA0_TOL",
        "VIOLATION_TOL",
        "_FORCING_TOL",
        "_WEIGHT_SUM_TOL",
    ],
)
def test_old_tolerance_names_are_gone(name):
    for module in (qstate, correlations, hardy, chsh, lhv, cli):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", [correlations, hardy, chsh, lhv])
def test_only_qstate_exports_tolerances(module):
    assert not [name for name in module.__all__ if name.endswith("_TOL")]


@pytest.mark.parametrize(
    "function,parameter,entry",
    [
        (qstate.entanglement_class, "tol", BOUNDARY_TOL),
        (correlations.is_perfectly_correlated, "tol", BOUNDARY_TOL),
        (lhv.local_realism_forcing, "tol", BOUNDARY_TOL),
        (hardy.maximal_entanglement_forcing, "tol", BOUNDARY_TOL),
        (chsh.evaluate, "tol", BOUNDARY_TOL),
        (hardy.check_hardy, "zero_tol", ZERO_TOL),
    ],
)
def test_public_defaults_are_table_entries(function, parameter, entry):
    assert inspect.signature(function).parameters[parameter].default is entry


def test_hardy_check_tol_default_is_zero_tol():
    args = cli._build_parser().parse_args(["hardy-check", "--config", "x.cfg"])
    assert args.tol is ZERO_TOL
