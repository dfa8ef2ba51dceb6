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


def _exports(tree) -> list:
    """The names of the module's __all__."""
    return [c.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for c in node.value.elts]


def _defined(node) -> list:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_no_unused_imports_or_unreferenced_private_definitions():
    trees = _trees()
    traced = _traced_names()
    everywhere = set().union(*map(_references, trees.values()))
    dead = []
    for mod, tree in trees.items():
        used = _references(tree)
        exported = set(_exports(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used | exported and (mod, name) not in traced:
                        dead.append(f"{mod}: unused import {name}")
        for node in tree.body:
            dead += [f"{mod}: unreferenced {name}" for name in _defined(node)
                     if _is_private(name) and name not in everywhere
                     and (mod, name) not in traced]
    assert not dead, dead


def test_every_exported_name_is_used_or_reexported():
    """A name in a submodule's __all__ is read somewhere in the package
    outside its own definition, or the package re-exports it."""
    trees = _trees()
    traced = _traced_names()
    reexported = {(node.module, alias.name) for node in trees.pop("__init__").body
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for mod, tree in trees.items():
        elsewhere = set().union(*(_references(t) for m, t in trees.items() if m != mod))
        for name in _exports(tree):
            if (mod, name) in reexported or (mod, name) in traced:
                continue
            here = set().union(*(_references(node) for node in tree.body
                                 if name not in _defined(node)))
            if name not in elsewhere | here:
                unused.append(f"{mod}.{name}")
    assert not unused, unused


def test_every_public_method_is_read_in_the_package():
    """A public method or property of a class in the package is read as an
    attribute somewhere in the package, not only by the tests."""
    trees = _trees()
    read = set().union(*({n.attr for n in ast.walk(t) if isinstance(n, ast.Attribute)
                          and isinstance(n.ctx, ast.Load)} for t in trees.values()))
    unread = [f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_") and fn.name not in read]
    assert not unread, unread
