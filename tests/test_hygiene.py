"""Source hygiene in place of a linter, by parsing src/bsea2 with ast.

Every name a module imports is used in it, and every private
module-level function, class or constant is referenced somewhere in the
package. A deletion then cannot leave an import or a helper behind. An
import line marked ``noqa`` (a re-export) is exempt.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bsea2"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    text = path.read_text()
    return text.splitlines(), ast.parse(text, str(path))


def _loaded_names(tree):
    """Every name read in the tree, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    lines, tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "noqa" not in lines[node.lineno - 1]):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set(_loaded_names(tree))
    unused = {name: line for name, line in imported.items()
              if name not in used}
    assert unused == {}, f"{path.name}: imported but never used: {unused}"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_definition_is_referenced():
    trees = {path.name: _parse(path)[1] for path in MODULES}
    used = {name for tree in trees.values() for name in _loaded_names(tree)}
    dead = [f"{module}:{line} {name}" for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in used]
    assert dead == [], f"defined but referenced nowhere in src: {dead}"
