"""Every exported name exists, and so does every package name the
benchmark calls (read as text: the benchmark is not imported here)."""

import importlib
import re
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
