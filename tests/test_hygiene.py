"""Source hygiene in place of a linter, by parsing src/bsea2 with ast.

Every name a module imports is used in it, every parameter of a
function is read in its body, and every private module-level function,
class or constant is referenced somewhere in the package. A public one
is too, unless OUTSIDE_READERS names the file outside the package that
reads it. Every field of a dataclass is read as an attribute in the
package, unless OUTSIDE_FIELD_READERS names the file that reads it. A
deletion then cannot leave an import, a parameter, a helper, a field or
an API with no caller behind. An import line marked ``noqa`` (a
re-export) is exempt.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bsea2"
MODULES = sorted(SRC.glob("*.py"))

#: The public names no module of the package reads, each with the file
#: that reads it and so keeps it
OUTSIDE_READERS = {
    "kernels.HAVE_CORE": "perfbench/worker.py",
    "randomness.keystream_for_key": "perfbench/workloads.py",
    "plaintext.KNOWN_KEYSTREAM_MODEL": "perfbench/workloads.py",
    "boolfn.is_bent": "tests/test_acceptance.py",       # criterion 2
    "cipher.decrypt": "tests/test_acceptance.py",       # criterion 6
}

#: The dataclass fields no module of the package reads, each with the
#: file that reads it and so keeps it
OUTSIDE_FIELD_READERS = {
    "ScoreBoard.entries": "perfbench/workloads.py",
    "ScoreBoard.n_candidates": "perfbench/workloads.py",
}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = _parse(path)[1]
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}:{node.lineno} {p}" for p in params
                   if p not in read and p not in ("self", "cls")]
    assert unread == [], f"{path.name}: parameters never read: {unread}"


def _definitions(tree):
    """(name, line) of each module-level function, class or constant."""
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
            if not name.startswith("__"):
                yield name, node.lineno


def _unread_definitions():
    """(module, line, name) of each definition no module reads."""
    trees = {path.stem: _parse(path)[1] for path in MODULES}
    used = {name for tree in trees.values() for name in _loaded_names(tree)}
    return [(module, line, name) for module, tree in trees.items()
            for name, line in _definitions(tree) if name not in used]


def test_every_private_definition_is_referenced():
    dead = [f"{module}.py:{line} {name}"
            for module, line, name in _unread_definitions()
            if name.startswith("_")]
    assert dead == [], f"defined but referenced nowhere in src: {dead}"


def test_every_public_definition_has_a_reader():
    unread = {f"{module}.{name}" for module, _, name in _unread_definitions()
              if not name.startswith("_")}
    assert unread == set(OUTSIDE_READERS), (
        "public names src never reads, against the outside readers listed")
    for qualified, reader in OUTSIDE_READERS.items():
        name = qualified.split(".")[1]
        assert name in set(_loaded_names(_parse(ROOT / reader)[1])), (
            f"{reader} does not read {qualified}")


def _read_attributes(tree):
    """Every attribute name read in the tree."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _dataclass_fields(tree):
    """(class, field) of each field of each module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield node.name, stmt.target.id


def test_every_dataclass_field_is_read():
    trees = [_parse(path)[1] for path in MODULES]
    read = set().union(*map(_read_attributes, trees))
    fields = {f"{cls}.{name}" for tree in trees
              for cls, name in _dataclass_fields(tree)}
    assert len(fields) > len(OUTSIDE_FIELD_READERS)
    unread = {f for f in fields if f.split(".")[1] not in read}
    assert unread == set(OUTSIDE_FIELD_READERS), (
        "dataclass fields src never reads, against the outside readers "
        "listed")
    for qualified, reader in OUTSIDE_FIELD_READERS.items():
        assert qualified.split(".")[1] in _read_attributes(
            _parse(ROOT / reader)[1]), f"{reader} does not read {qualified}"
