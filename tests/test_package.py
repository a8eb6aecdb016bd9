"""The package namespace: lazy, complete, and the same objects as the
submodules define."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardylab

NAMES = [name for name in hardylab.__all__ if name != "__version__"]
HOMES = ("qstate", "correlations", "hardy", "chsh", "lhv")


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(Path(hardylab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", NAMES)
def test_each_name_is_the_object_its_home_module_defines(name):
    value = getattr(hardylab, name)
    defining = [
        home for home in HOMES
        if getattr(importlib.import_module(f"hardylab.{home}"), name, None) is value
    ]
    assert defining, f"{name} is in no submodule"
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ in [f"hardylab.{home}" for home in defining]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hardylab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hardylab.__all__)
    assert all(namespace[name] is getattr(hardylab, name) for name in hardylab.__all__)


def test_dir_lists_every_public_name():
    assert set(hardylab.__all__) <= set(dir(hardylab))


def test_all_has_no_duplicates():
    assert len(hardylab.__all__) == len(set(hardylab.__all__))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'hardylab' has no attribute 'nope'$"):
        hardylab.nope
    assert not hasattr(hardylab, "nope")


def test_hardy_variant_is_one_object():
    from hardylab import hardy, qstate

    assert hardy.HardyVariant is qstate.HardyVariant is hardylab.HardyVariant


def test_bare_import_loads_no_submodule():
    _run(
        "import sys, hardylab\n"
        "assert [m for m in sys.modules if m.startswith('hardylab.')] == []\n"
        "hardylab.make_state\n"
        "assert [m for m in sys.modules if m.startswith('hardylab.')] == ['hardylab.qstate']\n"
    )


def test_names_are_bound_when_their_module_is_imported():
    # Each module imported directly binds all of its names in the package
    # at once, as its code defined them: replacing one in the module
    # afterwards (as a tracer or a monkeypatch does) leaves the package's
    # copy, so no temporary wrapper is ever cached there.
    _run(
        "import hardylab, hardylab.correlations as c\n"
        "original = c.batch_correlation\n"
        "c.batch_correlation = lambda *args: None\n"
        "assert hardylab.batch_correlation is original\n"
        "import hardylab.chsh, hardylab.lhv\n"
        "assert set(hardylab.__all__) <= set(vars(hardylab))\n"
    )
