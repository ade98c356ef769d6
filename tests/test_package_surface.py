"""Every module-level function of the package has a caller in the package
or is part of its public surface.

A function that only tests call is a cross-check, and cross-checks live in
``tests/oracles.py``. The test parses the package source: a function counts
as used when its name appears as a name or an attribute anywhere in
``src/macfusion`` (its own ``def`` line is not such a use), or when it is
listed in ``macfusion.__all__``.
"""

import ast
from pathlib import Path

import macfusion

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "macfusion"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(trees) -> set[str]:
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_module_function_has_a_caller_or_is_exported():
    trees = _trees()
    used = _used_names(trees) | set(macfusion.__all__)
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in used
    ]
    assert not unused, f"no caller in src and not exported (move to tests/oracles.py): {unused}"


def test_the_scan_sees_functions_and_their_uses():
    tree = ast.parse("def f():\n    pass\n\ndef g():\n    return f()\n")
    assert [node.name for node in tree.body] == ["f", "g"]
    assert _used_names({"m.py": tree}) == {"f"}
