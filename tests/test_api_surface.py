"""Every public ``src/eigenadapt`` name has a reference in the package.

Every public top-level function or class, and every public method or
property, must be referenced in some module of the package, outside
annotations and docstrings: as a name, as an attribute or as an imported
name.  The only exceptions are the allowlisted names below, whose callers
live outside the package.  One reference suffices, from any definition,
an allowlisted one included; whether the reference lies on a run's path is
not checked.
"""

import ast
from pathlib import Path

import eigenadapt

SRC = Path(eigenadapt.__file__).resolve().parent

# public names whose callers live outside the package, with the caller
ALLOWED = {
    "mesh.check_mesh": "the benchmark worker checks every final mesh",
    "mesh.min_angle_deg": "acceptance criterion 8 bounds the angles",
}


def _public_definitions(module, tree):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def _annotation_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, ast.FunctionDef):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            yield from ast.walk(annotation)


def _references(tree):
    skip = set(map(id, _annotation_nodes(tree)))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_name_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    uncalled = {qualified for module, tree in trees.items()
                for qualified, name in _public_definitions(module, tree)
                if name not in referenced}
    extra = sorted(uncalled - ALLOWED.keys())
    assert not extra, f"no reference in src/eigenadapt: {', '.join(extra)}"
    stale = sorted(ALLOWED.keys() - uncalled)
    assert not stale, f"allowed but referenced or gone: {', '.join(stale)}"
