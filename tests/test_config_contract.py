"""The run config maps onto the model specs and the solver settings key for
key.  Each key of a model section of `cli._RUN` is a field of its spec, and
the per-kind tables let a kind read only such keys; each key of the solver
section is a field of SolverConfig.  A key with no field would need a
translation in `load_run_config`, and a field with no key would be an
option that only the Python API reaches.  The walker of these tables,
`schema`, stands below both `cli` and `solver`, and every module imports
only modules below it in one declared order."""
import ast
import dataclasses
import sys
from pathlib import Path

import pytest

import flrw_dirac
import flrw_dirac.schema
from flrw_dirac.cli import _KIND_KEYS, _RUN
from flrw_dirac.models import NonlinearitySpec, PotentialSpec
from flrw_dirac.solver import SolverConfig

SPECS = {"nonlinearity": NonlinearitySpec, "potential": PotentialSpec}


@pytest.mark.parametrize("section", SPECS)
def test_model_section_keys_are_the_spec_fields(section):
    fields = {f.name for f in dataclasses.fields(SPECS[section])}
    kind, keys, _ = _RUN[section]
    assert kind == "section"
    assert set(keys) == fields
    for read in _KIND_KEYS[section].values():
        assert set(read) <= fields - {"kind"}


def test_solver_section_keys_are_the_config_fields():
    """Every SolverConfig field is a key of the solver section, except
    cone_center, which load_run_config takes from initial_data.center."""
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    kind, keys, _ = _RUN["solver"]
    assert kind == "section"
    assert set(keys) == fields - {"cone_center"}
    assert "center" in _RUN["initial_data"][1]


def test_schema_imports_only_the_standard_library():
    """cli and solver both import schema, so it imports no module of the
    package (no cycle) and nothing beyond the standard library (no work
    added to the import of either)."""
    tree = ast.parse(Path(flrw_dirac.schema.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported  # the walk saw the module's imports
    outside = [name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# The package's modules from the bottom up: each imports only modules before it.
LAYERS = ("gamma", "spacetime", "schema", "field", "initial_data", "models", "solver",
          "kernels", "diagnostics", "blowup", "cli")


def _package_imports(path: Path) -> list[str]:
    """The modules of the package that the module at path imports, anywhere in it."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names += [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name.split(".")[1] for a in node.names
                      if a.name.startswith("flrw_dirac.")]
    return names


def test_modules_import_only_the_layers_below_them():
    """The import graph is acyclic and follows LAYERS; models, say, imports
    only field and gamma."""
    package = Path(flrw_dirac.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    seen = {}
    for name in LAYERS:
        seen[name] = _package_imports(package / f"{name}.py")
        below = LAYERS[:LAYERS.index(name)]
        assert [m for m in seen[name] if m not in below] == [], name
    assert _package_imports(package / "__init__.py") == []
    assert sorted(seen["models"]) == ["field", "gamma"]
    assert sum(map(len, seen.values())) > 20  # the walk saw the imports
