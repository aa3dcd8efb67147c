"""The shipped package holds the scheme and nothing more: no unused imports,
no top-level function or class, and no method or property of a package
class, that nothing in the package uses."""

import ast
from pathlib import Path

import mvphe

PACKAGE = Path(mvphe.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Names read as variables or attributes, plus those listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    unused = []
    for name, tree in TREES.items():
        used = _used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def _package_names() -> set[str]:
    used = set(mvphe.__all__)
    for tree in TREES.values():
        used |= _used_names(tree)
    return used


def test_every_top_level_definition_is_used():
    used = _package_names()
    unused = [f"{name}: {node.name}"
              for name, tree in TREES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == []


def test_every_method_is_used():
    """Dunders are called by the language; any other method or property must
    be named somewhere in the package.  The scan goes by name, so a member
    whose name other code happens to use escapes it."""
    used = _package_names()
    unused = [f"{name}: {cls.name}.{node.name}"
              for name, tree in TREES.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []
