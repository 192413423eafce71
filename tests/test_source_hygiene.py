"""Static checks on the library source.

Every module-level private function must be used somewhere in the package
outside its own body; a helper nothing calls is dead code. Decorated
functions are exempt, because a decorator may register them (the selftest's
checks are collected by ``@_check``).

numpy is the only runtime dependency: no module imports anything but the
standard library, numpy and surfcert itself, at any depth of the source.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surfcert"


def _used_names(node: ast.AST) -> set:
    """Names read inside node, as bare names or attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_private_helper_is_used():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    assert "certificates.py" in trees
    # names read by each top-level statement of every module
    uses = [(stmt, _used_names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = stmt.name
            if not name.startswith("_") or name.startswith("__") or stmt.decorator_list:
                continue
            if not any(name in names for other, names in uses if other is not stmt):
                unused.append(f"{module}:{name}")
    assert unused == []


def test_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "surfcert"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed
            ]
    assert foreign == []
