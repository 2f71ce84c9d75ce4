"""The package's modules import each other in one direction, at module level only."""

import ast
import tokenize
from pathlib import Path

import pytest

import collisim

# each module imports only modules before it; the package itself may import them all
ORDER = ["errors", "qcore", "bath", "collision", "lindblad", "scenarios", "render", "cli"]
ALLOWED_NAMES = {"render": {"__version__"}}  # names other modules take from the package itself
SOURCES = {path.stem: path for path in Path(collisim.__file__).parent.glob("*.py")}
# compiling a module peaks at ~430 bytes of memory per token, freed into a heap that a fresh
# process does not reuse, so the largest module sets every fresh process's peak: none may grow
# past cli.py's size when it still held the artifact writers
MAX_TOKENS = 6_410


def intra_package_imports(tree):
    """(line, name) of every module of this package, or name of the package itself, imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ["collisim"] * (node.level > 0) + (node.module or "").split(".")
        elif isinstance(node, ast.Import):
            base = []
        else:
            continue
        for alias in node.names:
            path = [part for part in base + alias.name.split(".") if part]
            if path[0] == "collisim" and len(path) > 1:
                yield node.lineno, path[1]


def test_every_module_has_a_layer():
    assert set(SOURCES) == set(ORDER) | {"__init__"}


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_import_inside_a_function(module):
    tree = ast.parse(SOURCES[module].read_text(), str(SOURCES[module]))
    inner = [f"{module}.py:{node.lineno}" for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


@pytest.mark.parametrize("module", ORDER)
def test_imports_follow_the_layer_order(module):
    tree = ast.parse(SOURCES[module].read_text(), str(SOURCES[module]))
    below = set(ORDER[:ORDER.index(module)]) | ALLOWED_NAMES.get(module, set())
    upward = [f"{module}.py:{line} imports {name}" for line, name in intra_package_imports(tree)
              if name not in below]
    assert upward == []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_module_outgrows_the_token_cap(module):
    with open(SOURCES[module], encoding="utf-8") as handle:
        tokens = sum(1 for _ in tokenize.generate_tokens(handle.readline))
    assert tokens <= MAX_TOKENS


def test_collision_runs_every_bath_by_one_routine():
    # a bath is a source start and a factor stack: no code of collision.py may ask which family
    # a bath came from, so no second run path can grow back beside the one routine
    tree = ast.parse(SOURCES["collision"].read_text(), str(SOURCES["collision"]))
    named = [f"collision.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "CORRELATED_PURE"
             or isinstance(node, ast.Attribute) and node.attr in ("kind", "CORRELATED_PURE")]
    assert named == []
