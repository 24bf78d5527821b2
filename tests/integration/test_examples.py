"""Every example under ``examples/`` imports against the current API.

Importing a module runs its imports and definitions but not ``main()``, so
a renamed or deleted class fails here in milliseconds; CI's ``smoke`` job
runs each example end to end.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
