"""The package's import layering, read from the source with ast.

Each module imports only from the layers below it, only public names cross
a module boundary, every import sits at module level, and no module or
function, in the package or among the tests, imports a name it never uses.
protocol, countermeasure and faultsim import no object-level arithmetic
wrapper but protocol's ladder3pt.
Importing the package loads nothing from outside the standard library, and
not dataclasses, an import every short run would pay for; the tests import
nothing from outside it but pytest.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sidhlab"

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
TEST_MODULES = sorted(TESTS.glob("*.py"))


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


# montgomery's and isogeny's object-level arithmetic wrappers.
OBJECT_LEVEL = {"xdbl", "xadd", "xtpl", "xdbl_e", "xtpl_e", "ladder3pt", "xisog3", "xeval3", "xisog4", "xeval4"}


@pytest.mark.parametrize(
    "stem, allowed", [("protocol", {"ladder3pt"}), ("countermeasure", set()), ("faultsim", set())]
)
def test_chains_run_on_the_int_kernels(stem, allowed):
    imported = {name for _, names, _ in _sidhlab_imports(_tree(SRC / f"{stem}.py")) for name in names}
    assert imported & OBJECT_LEVEL == allowed


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


def _bound(nodes):
    """The names the imports among nodes bind."""
    bound = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound


def _read(tree):
    """The names read anywhere in tree."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_every_import_is_used(path):
    """Each name a module-level import binds is read in the module or
    listed in its __all__, and each name an import inside a function binds
    is read in that function."""
    tree = _tree(path)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    unused = sorted(_bound(tree.body) - _read(tree) - exported)
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused += sorted(f"{fn.name}:{name}" for name in _bound(ast.walk(fn)) - _read(fn))
    assert not unused


def _imported(tree):
    """The top-level name of each module that an absolute import anywhere in
    tree imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_tests_need_only_pytest():
    """Every module imported anywhere in a test file is the standard
    library's, pytest, sidhlab or a module of tests/."""
    allowed = set(sys.stdlib_module_names) | {"pytest", "sidhlab"} | {p.stem for p in TEST_MODULES}
    outside = [(p.name, name) for p in TEST_MODULES for name in _imported(_tree(p)) if name not in allowed]
    assert not outside


def test_import_leaves_out_dataclasses():
    """What importing the top modules adds to a fresh interpreter's modules:
    sidhlab's own, the standard library's (not dataclasses), and the
    __mp_main__ alias that multiprocessing registers."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sidhlab.attack, sidhlab.faultsim, sidhlab.countermeasure, sidhlab.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "sidhlab.cli" in added
    assert "dataclasses" not in added
    outside = [
        name
        for name in added
        if name.partition(".")[0] not in {"sidhlab", "__mp_main__", *sys.stdlib_module_names}
    ]
    assert not outside
