"""The package's import layering, read from the source with ast.

Each module imports only from the layers below it, only public names cross
a module boundary, and every import sits at module level.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sidhlab"

# field -> montgomery -> isogeny -> protocol -> countermeasure -> faultsim,
# protocol -> attack, and cli on top: the sidhlab modules each may import.
BELOW = {"field": set()}
BELOW["montgomery"] = BELOW["field"] | {"field"}
BELOW["isogeny"] = BELOW["montgomery"] | {"montgomery"}
BELOW["protocol"] = BELOW["isogeny"] | {"isogeny"}
BELOW["countermeasure"] = BELOW["protocol"] | {"protocol"}
BELOW["faultsim"] = BELOW["countermeasure"] | {"countermeasure"}
BELOW["attack"] = BELOW["protocol"] | {"protocol"}
BELOW["cli"] = BELOW["faultsim"] | BELOW["attack"] | {"faultsim", "attack"}
BELOW["__init__"] = {"field"}

MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _sidhlab_imports(tree):
    """(imported sidhlab module, imported names, name the module is bound to)
    per import of the package, relative or absolute: `from .x import y` and
    `from sidhlab.x import y` give ("x", ["y"], None); `from . import x as m`,
    `from sidhlab import x as m` and `import sidhlab.x as m` give
    ("x", [], "m"); a bare `import sidhlab.x` gives ("x", [], "sidhlab.x")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None
            package = package or (node.level == 0 and node.module == "sidhlab")
            if package:
                for alias in node.names:
                    yield alias.name, [], alias.asname or alias.name
            elif node.level == 1 or node.module.startswith("sidhlab."):
                module = node.module.removeprefix("sidhlab.")
                yield module, [alias.name for alias in node.names], None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sidhlab" or alias.name.startswith("sidhlab."):
                    module = alias.name.removeprefix("sidhlab").removeprefix(".")
                    yield module or "__init__", [], alias.asname or alias.name


def _dotted(node):
    """"a.b.c" for the expression a.b.c, None for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} == set(BELOW)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_follow_the_layers(path):
    imported = {module for module, _, _ in _sidhlab_imports(_tree(path))}
    assert imported <= BELOW[path.stem], imported - BELOW[path.stem]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_crosses_a_module(path):
    tree = _tree(path)
    imports = list(_sidhlab_imports(tree))
    private = [
        f"{module}.{name}" for module, names, _ in imports for name in names if _private(name)
    ]
    bound = {alias: module for module, _, alias in imports if alias}
    private += [
        f"{bound[_dotted(node.value)]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _private(node.attr) and _dotted(node.value) in bound
    ]
    assert not private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_sit_at_module_level(path):
    nested = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested
