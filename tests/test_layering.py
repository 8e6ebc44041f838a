"""Each epsym module imports only modules of lower layers, each name
from the module that defines it, and nothing outside the standard
library and epsym itself.

Layers, lowest first: epsmat; report, whose records are built with
epsmat's ``record``; partitions; cumulants and tensormaps, neither
importing the other; groups and indicator; cli.
The package's ``__init__`` re-exports everything and is not layered.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "epsym"

LAYERS = [("epsmat",), ("report",), ("partitions",), ("cumulants", "tensormaps"),
          ("groups", "indicator"), ("cli",)]
LAYER = {mod: depth for depth, mods in enumerate(LAYERS) for mod in mods}


def epsym_imports(path: Path) -> set[str]:
    """The epsym modules a source file imports, at any nesting depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("epsym."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("epsym."))
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", list(LAYER))
def test_module_imports_only_lower_layers(module):
    upward = {m for m in epsym_imports(SRC / f"{module}.py")
              if LAYER[m] >= LAYER[module]}
    assert not upward, f"{module} imports {sorted(upward)} from its own or a higher layer"


def top_level_imports(path: Path) -> set[str]:
    """The top-level package of every absolute import in a source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_stdlib_and_epsym(path):
    outside = top_level_imports(path) - set(sys.stdlib_module_names) - {"epsym"}
    assert not outside, f"{path.stem} imports {sorted(outside)}, which are not stdlib"


def defined_names(path: Path) -> set[str]:
    """The names a source file binds at top level itself, not by import."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                found.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return found


@pytest.mark.parametrize("module", list(LAYER))
def test_module_imports_each_name_from_its_owner(module):
    borrowed = [f"{alias.name} from {node.module}"
                for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names
                if alias.name not in defined_names(SRC / f"{node.module}.py")]
    assert not borrowed, f"{module} imports {borrowed}, defined elsewhere"


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Those three take half the start-up time of a short CLI run; with
    ``-S`` no site hook loads them either, so epsym alone is measured."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import epsym, epsym.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
