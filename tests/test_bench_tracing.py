"""The benchmark's span tracer still finds every library name it wraps.

``bench/tracing.py`` patches the functions and methods named in its
``SPANS`` and ``LEAVES`` tables.  A refactor that renames or drops one of
them would only break ``python3 bench/run.py --trace 1``; these tests
load the tracer module as it is and resolve every target the way
``Tracer.install`` does, so such a refactor fails here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import gencluster

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = sorted((name, modname, attr)
                 for table in (tracing.SPANS, tracing.LEAVES)
                 for name, (modname, *attrs) in table.items()
                 for attr in attrs)


@pytest.mark.parametrize("name,modname,attr", TARGETS)
def test_traced_target_resolves(name, modname, attr):
    module = importlib.import_module(modname)
    owner, _, member = attr.rpartition(".")
    if owner:
        assert member in vars(getattr(module, owner)), (name, attr)
    else:
        assert callable(getattr(module, member)), (name, attr)


def _namespaces():
    """Every gencluster module namespace and every traced class dict."""
    out = {name: dict(vars(m)) for name, m in sys.modules.items()
           if m is not None and name.startswith("gencluster")}
    for _, modname, attr in TARGETS:
        owner = attr.rpartition(".")[0]
        if owner:
            cls = getattr(sys.modules[modname], owner)
            out[cls] = dict(vars(cls))
    return out


def test_install_and_uninstall_restore_every_name():
    before = _namespaces()
    tracer = tracing.Tracer(gencluster, clock=lambda: 0.0)
    try:
        tracer.install()
        assert tracer._patches
    finally:
        tracer.uninstall()
    assert _namespaces() == before
