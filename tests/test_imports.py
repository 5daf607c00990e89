"""Every name a module in src/ramseykit/ imports is used there, or is
re-exported through the module's ``__all__``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ramseykit"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            inner = ast.walk(ast.parse(annotation.value))
            used |= {n.id for n in inner if isinstance(n, ast.Name)}
    return used


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = set(imported_names(tree)) - used_names(tree) - exported_names(tree)
    assert not unused, [f"{path.name}:{imported_names(tree)[n]} {n}" for n in sorted(unused)]


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add(node.module or "__init__")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ramseykit"):
            found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] or "__init__" for a in node.names
                      if a.name.split(".")[0] == "ramseykit"}
    return found


def test_naive_oracle_shares_no_engine_code():
    """bruteforce.py, the oracle the searches are checked against, reaches
    only coloring, families and polynomials, directly or through them."""
    reached, todo = set(), ["bruteforce"]
    while todo:
        for module in package_imports(PACKAGE / f"{todo.pop()}.py") - reached:
            reached.add(module)
            todo.append(module)
    assert reached <= {"coloring", "families", "polynomials"}, sorted(reached)
