"""Every name the benchmark scripts and the acceptance suite import from
``raresplit`` still exists.  The benchmark is kept fixed between its own
revisions, so a library change must not remove what it imports."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def raresplit_imports(path):
    """(module, name) for each name ``path`` imports from raresplit; name is
    None for a plain ``import raresplit...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "raresplit" or node.module.startswith("raresplit.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "raresplit" or alias.name.startswith("raresplit."):
                    yield alias.name, None


def test_frozen_imports_resolve():
    if not BENCH.is_dir():
        pytest.skip("no bench/ directory in this checkout")
    files = sorted(BENCH.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    found, missing = 0, []
    for path in files:
        for module_name, name in raresplit_imports(path):
            found += 1
            module = importlib.import_module(module_name)
            if name is not None and name != "*" and not hasattr(module, name):
                missing.append(f"{path.name}: from {module_name} import {name}")
    assert found > 0
    assert not missing, missing
