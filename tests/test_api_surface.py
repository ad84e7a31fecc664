"""The package keeps no code that only the tests reach, and declares each
public name and each acceptance criterion once.

Every module-level function, class and UPPER_CASE constant of ``src/cslab``
must be referenced somewhere in ``src/cslab`` outside its own definition: by
name in its own module, by name in a module that imports it, or as an
attribute.  Import statements, ``__all__`` strings and the re-exports of
``cslab/__init__.py`` are not references.  Methods are out of scope.

The package's ``__all__`` is the union of its modules' lists, each name
exported by the module that defines it; each criterion of ``verify`` carries
its number, slug and wall gate from its one ``_criterion`` declaration.
"""

import ast
import importlib
import inspect
from pathlib import Path

import cslab
from cslab import InvalidParameter, verify

SRC = Path(__file__).resolve().parents[1] / "src" / "cslab"


def _parse_package():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _defined(node):
    """The names a top-level statement defines: a function or a class, or
    the UPPER_CASE names (leading underscores allowed) it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    names = [sub.id for target in targets for sub in ast.walk(target)
             if isinstance(sub, ast.Name)]
    return [n for n in names if n.lstrip("_")[:1].isupper() and n == n.upper()]


def _unreferenced(trees):
    """'module.name' of every top-level function, class or constant without
    a reference."""
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
            for name in _defined(node):
                own = any(name in used for i, used in enumerate(loads[module]) if i != k)
                elsewhere = any((module, name) in imports[other]
                                and any(name in used for used in loads[other])
                                for other in trees if other != module)
                if not (name in attrs or own or elsewhere):
                    missing.append(f"{module}.{name}")
    return missing


def test_every_definition_has_a_caller_in_the_package():
    assert _unreferenced(_parse_package()) == []


def test_a_constant_without_a_reader_is_reported():
    tree = ast.parse("FOCUSING = 'focusing'\n_TOL: float = 1e-8\n"
                     "__all__ = ['f']\ndef f():\n    return _TOL\nf()\n")
    assert _unreferenced({"lax": tree}) == ["lax.FOCUSING"]


def test_exported_names_resolve():
    assert [n for n in cslab.__all__ if not hasattr(cslab, n)] == []
    for module in _parse_package():
        if module == "__main__":  # importing it runs the command line
            continue
        mod = importlib.import_module(f"cslab.{module}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], module


def test_package_api_is_the_union_of_the_module_lists():
    assert len(cslab.__all__) == len(set(cslab.__all__))
    for name in cslab._MODULES:
        mod = importlib.import_module(f"cslab.{name}")
        for export in mod.__all__:
            obj = getattr(mod, export)
            assert getattr(cslab, export) is obj
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, export


def test_reload_keeps_the_exports():
    names = list(cslab.__all__)
    importlib.reload(cslab)
    assert inspect.isfunction(cslab.evolve)
    assert cslab.__all__ == names


def test_criteria_are_numbered_once_with_fixed_wall_gates():
    assert [fn.cid for fn in verify._CRITERIA] == list(range(1, 11))
    assert len({fn.slug for fn in verify._CRITERIA}) == 10
    # the wall_seconds gates, pinned so that none is loosened unnoticed
    assert {fn.cid: fn.wall for fn in verify._CRITERIA if fn.wall is not None} \
        == {1: 10.0, 2: 10.0, 3: 180.0, 8: 300.0}
    result = verify._criterion(0, "no-work", wall=5.0)(lambda seed: [])(0)
    assert [(c.name, c.bound) for c in result.checks] == [("wall_seconds", 5.0)]
    assert result.passed


def test_a_failing_criterion_is_reported_and_the_next_one_runs(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise InvalidParameter("no fixtures today")

    monkeypatch.setattr(verify, "make_fixture", refuse)
    monkeypatch.setattr(verify, "_CRITERIA", (verify.criterion_1, verify.criterion_5))
    results = verify.run_verify()
    assert [(r.cid, r.passed, r.checks) for r in results] == [(1, False, ()), (5, False, ())]
    assert all(r.error == "InvalidParameter: no fixtures today" for r in results)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:2]] == ["1", "5"]
    assert "[InvalidParameter: no fixtures today]" in lines[0]
    assert lines[-1] == "0/2 criteria passed"
