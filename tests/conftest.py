"""Fixtures shared by the tests that load the benchmark's modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    """bench/workloads.py, loaded by path after the bench/checks.py it imports.

    Both are registered in sys.modules while the test runs, as dataclasses
    need for a module's string annotations."""
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("checks", "workloads"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return module
