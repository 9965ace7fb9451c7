"""The names that the benchmark tracer (fupbench/tracing.py) binds by lookup.

The tracer wraps every name in each layer module's ``__all__`` (found with
``getattr``), the public entry points of ``lab_cli``, and ``apply``/``adjoint``
of the three operator cores (taken from the class ``__dict__``).  A stale
name there breaks traced benchmark runs without failing any other test.
"""

import importlib
import types

import pytest

LAYERS = ("fup_numerics", "porosity", "word_combinatorics", "lorentz_core", "stable_unstable")
LAB_CLI_PUBLIC = ("main", "rerun_manifest", "write_manifest", "set_from_spec", "load_set_spec")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_is_bound(layer):
    mod = importlib.import_module(f"fuplab.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _not_a_plain_function(mod, name):
    obj = getattr(mod, name)
    return not (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__)


@pytest.mark.parametrize("layer", LAYERS)
def test_exported_callables_are_plain_functions_of_their_layer(layer):
    # The tracer wraps only plain functions: a public name that a cache or
    # another decorator turns into some other callable drops out of the
    # per-layer metrics without any error.
    mod = importlib.import_module(f"fuplab.{layer}")
    callables = [name for name in mod.__all__
                 if callable(getattr(mod, name)) and not isinstance(getattr(mod, name), type)]
    assert callables
    assert [name for name in callables if _not_a_plain_function(mod, name)] == []


def test_lab_cli_entry_points_are_bound():
    mod = importlib.import_module("fuplab.lab_cli")
    assert [name for name in LAB_CLI_PUBLIC if not callable(getattr(mod, name, None))] == []
    assert [name for name in LAB_CLI_PUBLIC if _not_a_plain_function(mod, name)] == []


@pytest.mark.parametrize("cls_name", ["FourierCore", "KernelCore", "SubmatrixKernelCore"])
def test_cores_define_apply_and_adjoint_in_their_own_body(cls_name):
    cls = getattr(importlib.import_module("fuplab.fup_numerics"), cls_name)
    for meth in ("apply", "adjoint"):
        assert callable(cls.__dict__.get(meth)), (cls_name, meth)
