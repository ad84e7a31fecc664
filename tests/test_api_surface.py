"""The package keeps no code that only the tests reach.

Every module-level function and class of ``src/cslab`` must be referenced
somewhere in ``src/cslab`` outside its own definition: by name in its own
module, by name in a module that imports it, or as an attribute.  Import
statements, ``__all__`` strings and the re-exports of ``cslab/__init__.py``
are not references.  Methods are out of scope.
"""

import ast
import importlib
from pathlib import Path

import cslab

SRC = Path(__file__).resolve().parents[1] / "src" / "cslab"


def _parse_package():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _unreferenced(trees):
    """'module.name' of every top-level function or class without a reference."""
    attrs = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)}
    # names loaded by each top-level statement, and names imported per module
    loads = {m: [{sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
                 for node in tree.body] for m, tree in trees.items()}
    imports = {m: {(n.module, a.name) for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.level == 1
                   for a in n.names if a.asname is None}
               for m, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        for k, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            own = any(name in used for i, used in enumerate(loads[module]) if i != k)
            elsewhere = any((module, name) in imports[other]
                            and any(name in used for used in loads[other])
                            for other in trees if other != module)
            if not (name in attrs or own or elsewhere):
                missing.append(f"{module}.{name}")
    return missing


def test_every_definition_has_a_caller_in_the_package():
    assert _unreferenced(_parse_package()) == []


def test_exported_names_resolve():
    assert [n for n in cslab.__all__ if not hasattr(cslab, n)] == []
    for module in _parse_package():
        if module == "__main__":  # importing it runs the command line
            continue
        mod = importlib.import_module(f"cslab.{module}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], module
