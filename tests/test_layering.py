"""Each epsym module imports only modules of lower layers.

Layers, lowest first: report and epsmat; partitions; cumulants;
tensormaps; groups and indicator; cli.  The package's ``__init__``
re-exports everything and is not layered.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "epsym"

LAYERS = [("report", "epsmat"), ("partitions",), ("cumulants",), ("tensormaps",),
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
