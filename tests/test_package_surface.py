"""Every module-level function and constant of the package has a reader in
the package or is part of its public surface.

A function that only tests call is a cross-check, and cross-checks live in
``tests/oracles.py``. The test parses the package source: a name counts as
used when it is read as a name (``Load`` context) or an attribute anywhere
in ``src/macfusion`` (its own ``def`` line or assignment is not such a
use), or when it is listed in ``macfusion.__all__``.
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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _constants(tree) -> list[str]:
    """Names bound by the module-level assignments of ``tree``, dunders aside."""
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name) and not n.id.startswith("__")]
    return names


def test_every_module_constant_is_read_or_exported():
    trees = _trees()
    used = _used_names(trees) | set(macfusion.__all__)
    unread = [f"{module}:{name}" for module, tree in trees.items() for name in _constants(tree) if name not in used]
    assert not unread, f"no reader in src and not exported: {unread}"


def test_the_scan_sees_functions_and_their_uses():
    tree = ast.parse("def f():\n    pass\n\ndef g():\n    return f()\n")
    assert [node.name for node in tree.body] == ["f", "g"]
    assert _used_names({"m.py": tree}) == {"f"}


def test_the_scan_sees_constants_and_their_reads():
    tree = ast.parse("A = 1\nB: float = 2.0\nC, D = 3, 4\n__all__ = ['D']\n\ndef f():\n    return A + m.B\n")
    assert _constants(tree) == ["A", "B", "C", "D"]
    assert _used_names({"m.py": tree}) == {"A", "float", "m", "B"}
