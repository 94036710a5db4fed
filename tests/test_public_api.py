"""Every exported name exists, and so does every package name the
benchmark calls (read as text: the benchmark is not imported here).  The
package's ``__all__`` is the modules' own lists, re-exported, and its
import leaves the command line out."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stripcoef

SUBMODULES = ("series", "polylog", "maps", "logcoef", "verify", "cli")
MODULES = ["stripcoef", *(f"stripcoef.{m}" for m in SUBMODULES)]
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_benchmark_names_resolve():
    names = set(re.findall(r"\bsc\.(\w+)", WORKLOADS.read_text()))
    assert names
    assert sorted(n for n in names if not hasattr(stripcoef, n)) == []


def test_per_family_names_are_the_classes_and_benchmark_names():
    # one strip class serves both families down to the coefficients, so a
    # name per family is only a class or a name the benchmark calls (it
    # wraps each by identity, so none is an alias); the seeded draws are
    # the tests' own (tests/oracles.py)
    family = re.compile("strip|dorff", re.IGNORECASE)
    called = set(re.findall(r"\bsc\.(\w+)", WORKLOADS.read_text()))
    kept = {"StripParams", "DorffParam"} | {n for n in called if family.search(n)}
    assert {n for n in stripcoef.__all__ if family.search(n)} == kept


def test_package_import_leaves_cli_out():
    code = "import sys, stripcoef; print('stripcoef.cli' in sys.modules, 'argparse' in sys.modules)"
    # the package the tests import, wherever it lives, also for the child
    env = {**os.environ, "PYTHONPATH": str(Path(stripcoef.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_package_all_is_version_then_module_lists():
    lists = [importlib.import_module(f"stripcoef.{m}").__all__ for m in SUBMODULES[:-1]]
    assert stripcoef.__all__ == ["__version__", *(n for names in lists for n in names)]
    assert len(set(stripcoef.__all__)) == len(stripcoef.__all__)


def test_polylog_name_is_the_function():
    assert stripcoef.polylog is sys.modules["stripcoef.polylog"].polylog
