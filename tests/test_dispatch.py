"""No module of raresplit picks a code path by comparing a ``kind`` string.

A problem's process object, and each law and aggregate, carry their own
behaviour; a ``.kind`` is compared only where it is input: where
``ProblemSpec`` builds its process from it, and where the CLI checks that a
scenario suits the command.
"""

import ast
from pathlib import Path

import raresplit

SRC = Path(raresplit.__file__).resolve().parent

# (module, enclosing function) of every comparison with a ``.kind`` allowed
ALLOWED = {
    ("model.py", "ProblemSpec.__post_init__"),  # the kind names the process to build
    ("cli.py", "run_estimation"),  # --method is needs a Poisson scenario
    ("cli.py", "cmd_verify"),  # verify's message for a Poisson lattice past the cap
}


def kind_comparisons(tree):
    """(enclosing function, line) of each comparison in ``tree`` that has
    a ``.kind`` attribute as an operand; the function is dotted with its
    classes, and "" at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Compare) and any(
                    isinstance(operand, ast.Attribute) and operand.attr == "kind"
                    for operand in (child.left, *child.comparators)):
                yield ".".join(scope), child.lineno
            yield from visit(child, inner)

    yield from visit(tree, ())


def test_guard_finds_kind_comparisons():
    source = ("class P:\n"
              "    def f(self, p):\n"
              "        return 'poisson' == p.kind or p.process.kind in ('a', 'b')\n"
              "x = y.kind != 'continuous'\n"
              "z = y.kind\n")
    assert list(kind_comparisons(ast.parse(source))) == [("P.f", 3), ("P.f", 3), ("", 4)]


def test_no_kind_dispatch_outside_input_checks():
    found, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for scope, line in kind_comparisons(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, scope) in ALLOWED:
                used.add((path.name, scope))
            else:
                found.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert not found, found
    assert used == ALLOWED  # an allowance whose comparison is gone is removed too
