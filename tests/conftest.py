"""Fixtures shared by the test modules."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's checks, planted corpus and reference modules, imported
    read-only: no bytecode is written there."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield {name: importlib.import_module(name) for name in ("checks", "planted", "reference", "tracing", "run")}
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
