"""Every name the benchmark scripts and the acceptance suite import from
``raresplit`` still exists, every call they make to such a name still
binds to its signature, and every member they read off a problem is still
there.  The benchmark is kept fixed between its own revisions, so a library
change must not remove or re-shape what it uses."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from raresplit.cli import load_preset, preset_problem

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def frozen_trees():
    """(path, parsed module) of each benchmark script and the acceptance suite."""
    if not BENCH.is_dir():
        pytest.skip("no bench/ directory in this checkout")
    for path in sorted(BENCH.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def raresplit_imports(tree):
    """(module, name, local name) for each name ``tree`` imports from
    raresplit; name and local name are None for a plain ``import raresplit...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "raresplit" or node.module.startswith("raresplit.")):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "raresplit" or alias.name.startswith("raresplit."):
                    yield alias.name, None, None


def test_frozen_imports_resolve():
    found, missing = 0, []
    for path, tree in frozen_trees():
        for module_name, name, _ in raresplit_imports(tree):
            found += 1
            module = importlib.import_module(module_name)
            if name is not None and name != "*" and not hasattr(module, name):
                missing.append(f"{path.name}: from {module_name} import {name}")
    assert found > 0
    assert not missing, missing


def test_frozen_calls_bind():
    # each call's arguments, as AST nodes, stand in for its values: binding
    # checks the positional count and the keyword names, not the types
    checked, broken = 0, []
    for path, tree in frozen_trees():
        imported = {}
        for module_name, name, local in raresplit_imports(tree):
            module = importlib.import_module(module_name)
            if name not in (None, "*") and hasattr(module, name):
                imported[local] = getattr(module, name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue  # *args or **kwargs: the count is not known statically
            checked += 1
            try:
                inspect.signature(imported[node.func.id]).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                broken.append(f"{path.name}:{node.lineno}: {node.func.id}(...): {exc}")
    assert checked > 0
    assert not broken, broken


def problem_members(tree):
    """Each attribute ``tree`` reads off a name ``problem``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "problem"):
            yield node.attr


def test_frozen_problem_members_exist():
    # the replay repeats a splitting level from what it reads off the problem:
    # Table I is the benchmark's Poisson problem, Table V a continuous one
    problems = [preset_problem(load_preset(table)) for table in ("I", "V")]
    assert [p.kind for p in problems] == ["poisson", "continuous"]
    read, missing = set(), []
    for path, tree in frozen_trees():
        for member in problem_members(tree):
            read.add(member)
            missing += [f"{path.name}: problem.{member} on {p.kind}"
                        for p in problems if not hasattr(p, member)]
    assert {"rates", "kind", "n", "importance", "gamma"} <= read
    assert not missing, missing
