"""The run config maps onto the model specs key for key.  Each key of a
model section of `cli._RUN` is a field of its spec, and the per-kind tables
let a kind read only such keys.  A key with no field would need a
translation in `load_run_config`, and a field with no key would be an
option that only the Python API reaches."""
import dataclasses

import pytest

from flrw_dirac.cli import _KIND_KEYS, _RUN
from flrw_dirac.models import NonlinearitySpec, PotentialSpec

SPECS = {"nonlinearity": NonlinearitySpec, "potential": PotentialSpec}


@pytest.mark.parametrize("section", SPECS)
def test_model_section_keys_are_the_spec_fields(section):
    fields = {f.name for f in dataclasses.fields(SPECS[section])}
    kind, keys, _ = _RUN[section]
    assert kind == "section"
    assert set(keys) == fields
    for read in _KIND_KEYS[section].values():
        assert set(read) <= fields - {"kind"}
