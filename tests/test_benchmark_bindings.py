"""The names that the benchmark's span recorder binds exist in epsym.

``perfbench/tracing.py`` wraps epsym functions by module and name, and
``TensorMap`` methods by their entries in the class ``__dict__``; it
also relies on a few functions being imported under the same name into
a second module.  Deleting or renaming any of them breaks the traced
benchmark run, so these tests load the recorder by path, install
nothing, and check each name.
"""

import importlib.util
from pathlib import Path

import pytest

from epsym import cumulants, indicator, partitions, tensormaps
from epsym.tensormaps import TensorMap

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _ in TRACING.FUNCTIONS])
def test_every_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"epsym.{module}"), name))


@pytest.mark.parametrize("name", sorted(TRACING.METHODS))
def test_every_traced_method_is_in_the_class_dict(name):
    assert name in TensorMap.__dict__


def test_the_rebound_aliases_are_the_same_function():
    assert cumulants.nc_eps_set is partitions.nc_eps_set
    assert indicator.t_pi is tensormaps.t_pi
    assert indicator.in_nc_eps is partitions.in_nc_eps
