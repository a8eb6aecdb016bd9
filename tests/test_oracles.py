"""The reference implementations stay independent of the package."""

import ast
from decimal import Decimal, localcontext
from pathlib import Path

from oracles import optimum_decimal


def test_oracles_do_not_import_hardylab():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "hardylab"]


def test_optimum_reaches_the_golden_mean_bound():
    c1_squared, cos_sq_beta0, p_hardy = optimum_decimal()
    with localcontext() as ctx:
        ctx.prec = 60
        tau = (1 + Decimal(5).sqrt()) / 2
        assert abs(p_hardy - tau**-5) < Decimal("1e-30")
    assert Decimal("0.8226483631597") < c1_squared < Decimal("0.8226483631598")
    assert 0 < cos_sq_beta0 < Decimal("0.5")
