"""Every name a module imports is used.

No linter is installed, so this walks each module of ``src/`` and
``tests/`` with :mod:`ast` and lists the names an import binds that the
module never reads. Exempt are ``from __future__`` imports, package
``__init__`` modules (they import to re-export or to register), names a
module lists in its ``__all__`` (re-exports), and names read only inside
a string annotation, such as a ``TYPE_CHECKING`` import.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree) -> set[str]:
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def test_every_imported_name_is_used():
    unused = []
    for top in ("src", "tests"):
        for directory, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for filename in files:
                if not filename.endswith(".py") or filename == "__init__.py":
                    continue
                path = os.path.join(directory, filename)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                read = _read_names(tree)
                unused += [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                           for name, line in _bound_names(tree)
                           if name not in read]
    assert sorted(unused) == []
