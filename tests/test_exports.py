import ast
import importlib
import pathlib
import pkgutil

import pytest

import subreglab

MODULES = ["subreglab"] + sorted(f"subreglab.{m.name}"
                                 for m in pkgutil.iter_modules(subreglab.__path__))
SRC = pathlib.Path(subreglab.__file__).parent
LAYERTRACE = SRC.parents[1] / "perfbench" / "layertrace.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _traced_names() -> set:
    """The (module, attribute) pairs perfbench's layer trace patches by name."""
    out = set()
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("TIMED", "COUNTED")
                                                for t in node.targets):
            out |= set(ast.literal_eval(node.value))
    return out


def _references(tree) -> set:
    """Every name the tree reads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_unused_imports_or_unreferenced_private_definitions():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    traced = _traced_names()
    everywhere = set().union(*map(_references, trees.values()))
    dead = []
    for mod, tree in trees.items():
        used = _references(tree)
        exported = {c.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for c in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used | exported and (mod, name) not in traced:
                        dead.append(f"{mod}: unused import {name}")
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{mod}: unreferenced {name}" for name in names
                     if _is_private(name) and name not in everywhere
                     and (mod, name) not in traced]
    assert not dead, dead
