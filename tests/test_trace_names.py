"""The benchmark's traced mode resolves library functions by name: every
entry of ``SPANS`` in perfbench/tracing.py, and every binding its
``install`` patches directly, must name a function defined in
``reedychain``, so a rename or removal fails here and not only in the
benchmark's self-test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


# The counters ``install`` wraps outside ``SPANS``: elimination sizes,
# matrix constructions and assembled system shapes.
DIRECT = ("linalg._rref_inplace", "linalg.FpMatrix.__post_init__", "system.BlockSystem._assemble")


def _names():
    return [f"{mod}.{fn}" for mod, fns in _spans().items() for fn in fns] + list(DIRECT)


@pytest.mark.parametrize("name", _names())
def test_traced_name_resolves(name):
    mod, *path = name.split(".")
    obj = importlib.import_module(f"reedychain.{mod}")
    for part in path:
        obj = getattr(obj, part)
    assert callable(obj)
