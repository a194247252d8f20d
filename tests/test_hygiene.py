"""Source hygiene: no module imports a name it never uses; the public API resolves."""
import ast
from pathlib import Path

import pytest

import nst

SOURCE_DIR = Path(nst.__file__).resolve().parent
MODULES = sorted(SOURCE_DIR.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import, with the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name loaded anywhere, including inside string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as "Dataset" or "list[Utterance]".
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in sorted(_imported_names(tree).items())
        if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_unused_import_is_detected():
    tree = ast.parse("from typing import Mapping, Sequence\nx: Sequence[int] = []\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Mapping"}


def test_public_names_resolve():
    missing = [name for name in nst.__all__ if not hasattr(nst, name)]
    assert not missing, f"nst.__all__ lists names the package lacks: {missing}"
    assert len(set(nst.__all__)) == len(nst.__all__)
