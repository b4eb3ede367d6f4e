"""The benchmark tracer patches levitype by name; those names must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("levitype_bench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load_tracing()
    for name, mod, attr in tracing.FUNCTIONS:
        module = importlib.import_module(f"levitype.{mod}")
        assert callable(getattr(module, attr, None)), name


def test_traced_methods_are_defined_on_their_class():
    # install() reads cls.__dict__[attr], so an inherited method will not do
    tracing = _load_tracing()
    for name, mod, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(f"levitype.{mod}"), cls_name)
        assert attr in cls.__dict__, name
