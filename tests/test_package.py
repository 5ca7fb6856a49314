"""The package namespace: every name a module lists in ``__all__`` exists,
and each name ``qostbc`` exports is listed by exactly one module and is
that module's object.  The commands run on numpy alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from types import ModuleType

import pytest

import qostbc

MODULES = [importlib.import_module(f"qostbc.{m.name}") for m in pkgutil.iter_modules(qostbc.__path__)]
LISTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", LISTING, ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_package_exports_are_listed_once_and_identical():
    exported = [
        name for name, value in vars(qostbc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert exported
    for name in exported:
        owners = [m for m in LISTING if name in m.__all__]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(qostbc, name) is getattr(owners[0], name), name


def test_commands_load_no_scipy():
    # scipy is a test dependency only; importing it would add to every
    # command's start-up time
    code = """
import sys
from qostbc.cli import main
for argv in (
    ["verify", "--K", "8"],
    ["simulate", "--K", "2", "--trials", "64", "--esno-stop", "0"],
    ["analyze", "--mod", "qpsk", "--nt", "2", "--esno-stop", "0"],
    ["capacity", "--nt", "2", "--esno-stop", "0"],
):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(qostbc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
