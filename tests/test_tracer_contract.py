"""Names other code relies on must resolve.  The benchmark's tracer
(perfbench/spans.py) wraps program functions by module and attribute name:
a name it lists that no longer resolves makes `perfbench/run.py --trace 1`
fail, so every listed name must stay.  Each module's __all__ is its public
API: a stale entry makes `from flrw_dirac.<module> import *` raise."""
import importlib
import pkgutil
from pathlib import Path

import flrw_dirac

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    import flrw_dirac.blowup
    import flrw_dirac.cli  # noqa: F401
    import flrw_dirac.kernels  # noqa: F401

    missing = []
    for module_name, attr, _ in spans.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
    # the tracer also counts the IntegrationWarnings of every quadrature here
    assert callable(flrw_dirac.blowup.quad)


def test_every_public_name_resolves():
    stale = []
    for info in pkgutil.iter_modules(flrw_dirac.__path__, "flrw_dirac."):
        module = importlib.import_module(info.name)
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
