"""Static checks on the library source.

Every module-level private name (function, class or assigned variable) must
be read somewhere in the package outside its own statement; a helper
nothing reads is dead code. Decorated functions and classes are exempt,
because a decorator may register them (the selftest's checks are collected
by ``@_check``). Every parameter of every function must be read by that
function's body, apart from ``self``, ``cls`` and names starting with ``_``.

Every public name has one owner: each name the package exports (bar
``__version__``) is listed in exactly one submodule's ``__all__``, every
submodule has an ``__all__``, and every listed name exists. The package
exports each name of the nine library modules' ``__all__`` as the same object,
and defines nothing itself but ``__version__`` and ``__all__``.

Every `face_reach` call in the package passes the radii it will be read
at, so no clip is made one radius at a time on demand.

numpy is the only runtime dependency: no module imports anything but the
standard library, numpy and surfcert itself, at any depth of the source.
"""

import ast
import importlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surfcert"


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def _read_names(node: ast.AST) -> set:
    """Names read inside node, as bare names or attributes."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
    return read


def _private_names(stmt: ast.stmt) -> list:
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [] if stmt.decorator_list else [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_helper_is_used():
    trees = _trees()
    assert "certificates.py" in trees
    # names read by each top-level statement of every module
    reads = [(stmt, _read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in _private_names(stmt)
        if not any(name in names for other, names in reads if other is not stmt)
    ]
    assert unused == []


def test_every_parameter_is_read():
    unread = []
    for module, tree in sorted(_trees().items()):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            params = [p.arg for p in args if p]
            read = {
                n.id
                for stmt in fn.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{module}:{fn.name}({p})"
                for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")
            ]
    assert unread == []


def test_every_public_name_has_one_owner():
    import surfcert

    owners, problems = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"surfcert.{path.stem}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            problems.append(f"{path.stem} has no __all__")
            continue
        problems += [f"{path.stem}.{n} is listed but undefined" for n in listed if not hasattr(module, n)]
        for name in listed:
            owners.setdefault(name, []).append(path.stem)
    for name in surfcert.__all__:
        if name == "__version__":
            continue
        if not hasattr(surfcert, name):
            problems.append(f"surfcert.{name} is listed but undefined")
        if len(owners.get(name, [])) != 1:
            problems.append(f"surfcert.{name} is owned by {owners.get(name, [])}")
    assert problems == []


LIBRARY_MODULES = (
    "errors", "geometry", "curves", "surfaces", "monotonicity", "intersect", "certificates",
    "catalog", "fileio",
)


def test_package_exports_each_library_name_itself():
    import surfcert

    exported = set(surfcert.__all__)
    mismatched = []
    for stem in LIBRARY_MODULES:
        module = importlib.import_module(f"surfcert.{stem}")
        mismatched += [
            f"{stem}.{name}"
            for name in module.__all__
            if name not in exported or getattr(surfcert, name) is not getattr(module, name)
        ]
    assert mismatched == []
    # the tool and the acceptance battery are imported by name, not exported
    for stem in ("cli", "selftest"):
        assert exported.isdisjoint(importlib.import_module(f"surfcert.{stem}").__all__)
    # __init__ defines nothing of its own but the version and the export list
    defined = []
    for stmt in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(stmt, ast.Assign):
            defined += [t.id for t in stmt.targets]
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Expr)):
            defined.append(type(stmt).__name__)
    assert defined == ["__version__", "__all__"]


def test_every_face_reach_call_passes_its_radii():
    calls, missing = 0, []
    for module, tree in sorted(_trees().items()):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if (fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)) != "face_reach":
                continue
            calls += 1
            if len(node.args) < 4 and "radii" not in {k.arg for k in node.keywords}:
                missing.append(f"{module}:{node.lineno}")
    assert calls > 0
    assert missing == []


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
