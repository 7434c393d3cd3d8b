"""End-to-end tests of the command line through ``flrw_dirac.cli.main``.

They pin what ``simulate`` writes to ``record.json`` and how ``verify``
reads it back, including every exit code of the verification path, and
drive ``kernel``, ``sweep``, ``lifespan`` and ``classify`` with their
exit codes.
"""
import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flrw_dirac
from flrw_dirac.blowup import BOUND_SLACK
from flrw_dirac.cli import main
from flrw_dirac.field import Grid, load_snapshot, save_snapshot
from flrw_dirac.initial_data import compact_bump, gaussian_bump
from flrw_dirac.kernels import KernelEval, reconstruct_free
from flrw_dirac.spacetime import Cosmology

SERIES_KEYS = {
    "times",
    "l2",
    "sobolev_k",
    "xi_int",
    "eta_int",
    "gamma2_re",
    "gamma2_im",
    "rho2_int",
    "rho_int",
    "cone_leak",
    "imv_int",
    "source_k",
}

ALL_CHECKS = [
    {"name": "energy_identity", "tolerance": 1e-4},
    {"name": "gamma2", "tolerance": 1e-4},
    {"name": "lm", "tolerance": 1e-4},
    {"name": "cone", "tolerance": 1e-8},
    {"name": "forward_bound"},
    {
        "name": "decay",
        "tolerance": 1e-2,
        "params": {"window": [1.5, 3.0], "expected": -1.0},
    },
]


def config(lm_z=None):
    """Small 1D free run on ell = 2/3 with real mass, t 1 -> 3."""
    tree = {
        "cosmology": {"ell": 2 / 3},
        "mass": 1.0,
        "grid": {"dim": 1, "n": 64, "box_length": 32.0},
        "initial_data": {"family": "gaussian", "width": 2.0},
        "solver": {"t_start": 1.0, "t_end": 3.0, "cfl": 0.2},
    }
    if lm_z is not None:
        tree["initial_data"] = {
            "lm_constrained": True,
            "width": 2.0,
            "amplitude": 0.8,
            "second_amplitude": 0.5,
        }
        tree["solver"]["lm_z"] = lm_z
    return tree


def write_json(path, tree):
    path.write_text(json.dumps(tree))
    return path


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def simulate(tmp_path, tree, name="run"):
    """simulate the config tree; every record it writes must be strict JSON."""
    cfg = write_json(tmp_path / f"{name}.json", tree)
    out = tmp_path / name
    code = main(["simulate", str(cfg), "--out", str(out)])
    record = out / "record.json"
    if record.exists():
        strict_json(record.read_text())
    return code, record


def verify(tmp_path, record, checks, out=None):
    suite = write_json(tmp_path / "suite.json", {"checks": checks})
    argv = ["verify", str(record), str(suite)]
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


@pytest.fixture(scope="module")
def lm_record(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lm")
    code, record = simulate(tmp, config(lm_z=1.0))
    assert code == 0
    return record


@pytest.fixture(scope="module")
def plain_record(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plain")
    code, record = simulate(tmp, config())
    assert code == 0
    return record


def test_record_series_keys_with_lm_z(lm_record):
    tree = json.loads(lm_record.read_text())
    assert tree["schema"] == "flrw-dirac-run/1"
    assert set(tree["series"]) == SERIES_KEYS | {"lm_defect"}


def test_record_series_keys_without_lm_z(plain_record):
    tree = json.loads(plain_record.read_text())
    assert set(tree["series"]) == SERIES_KEYS


def test_verify_runs_every_check(tmp_path, lm_record):
    report = tmp_path / "report.json"
    assert verify(tmp_path, lm_record, ALL_CHECKS, out=report) == 0
    tree = json.loads(report.read_text())
    assert tree["status"] == "pass"
    names = [r["check"] for r in tree["reports"]]
    assert names == [
        "energy_identity",
        "gamma2_conservation",
        "lm_evolution",
        "cone_containment",
        "forward_bound",
        "decay",
    ]
    by_name = {r["check"]: r for r in tree["reports"]}
    assert by_name["decay"]["window"] == [1.5, 3.0]
    assert by_name["decay"]["fitted_constants"]["exponent"] == pytest.approx(-1.0, abs=1e-2)


def test_simulate_missing_ell_is_config_error(tmp_path):
    tree = config()
    del tree["cosmology"]["ell"]
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()


def test_verify_unknown_check_is_config_error(tmp_path, plain_record):
    assert verify(tmp_path, plain_record, [{"name": "no_such_check"}]) == 1


def test_verify_lm_without_defect_is_runtime_error(tmp_path, plain_record):
    assert verify(tmp_path, plain_record, [{"name": "lm", "tolerance": 1e-4}]) == 2


def test_verify_failing_tolerance_exits_3(tmp_path, plain_record):
    report = tmp_path / "report.json"
    checks = [{"name": "energy_identity", "tolerance": 0.0}]
    assert verify(tmp_path, plain_record, checks, out=report) == 3
    assert json.loads(report.read_text())["status"] == "fail"


@pytest.mark.parametrize(
    "key, length, message",
    [("times", 1, "'times' has 1"), ("gamma2_im", -1, "'gamma2_im' has")],
)
def test_verify_rejects_series_of_other_length(
    tmp_path, plain_record, capsys, key, length, message
):
    """A series whose length differs from the time axis is a load error,
    not a verdict computed by broadcasting."""
    tree = json.loads(plain_record.read_text())
    tree["series"][key] = tree["series"][key][:length]
    cut = write_json(tmp_path / "cut.json", tree)
    checks = [{"name": "gamma2", "tolerance": 1e-4}, {"name": "cone", "tolerance": 1e-8}]
    assert verify(tmp_path, cut, checks) == 1
    err = capsys.readouterr().err
    assert "cannot load inputs" in err and message in err


@pytest.mark.parametrize("edit, message", [
    (lambda tree: tree.update(schema="something-else/9"),
     "record schema 'something-else/9' is not 'flrw-dirac-run/1'"),
    (lambda tree: tree["flags"].pop("blown_up"), "'flags.blown_up'"),
    (lambda tree: tree.update(flags=5), "'flags' must be an object"),
    (lambda tree: tree["series"].pop("gamma2_im"),
     "series 'gamma2' needs both 'gamma2_re' and 'gamma2_im'"),
    (lambda tree: tree["series"].pop("gamma2_re"),
     "series 'gamma2' needs both 'gamma2_re' and 'gamma2_im'"),
], ids=["other_schema", "missing_flag", "flags_not_an_object", "gamma2_without_im",
        "gamma2_without_re"])
def test_verify_rejects_a_record_it_cannot_read(tmp_path, plain_record, capsys, edit, message):
    """A record of another schema, or one that lacks a field or half of a
    complex series, is a load error naming what is wrong, not a verdict on
    a misread run or a run read without that series."""
    tree = json.loads(plain_record.read_text())
    edit(tree)
    record = write_json(tmp_path / "edited.json", tree)
    assert verify(tmp_path, record, [{"name": "energy_identity", "tolerance": 1e-4}]) == 1
    captured = capsys.readouterr()
    assert "cannot load inputs" in captured.err and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda tree: tree["series"].update(times=5), "'series.times' must be a list of numbers"),
    (lambda tree: tree.update(cone_center=5), "'cone_center' must be a list of 3 numbers"),
    (lambda tree: tree["mass"].update(re="x"), "'mass.re' must be a number"),
    (lambda tree: tree["cosmology"].update(ell="x"), "'cosmology.ell' must be a number"),
    (lambda tree: tree["series"].update(l2=[str(v) for v in tree["series"]["l2"]]),
     "'series.l2' must be a list of numbers"),
    (lambda tree: tree["flags"].update(completed="no"), "'flags.completed' must be true or false"),
    (lambda tree: tree.update(cone_centre=[0, 0, 0]),
     "the record has unknown key 'cone_centre'; did you mean 'cone_center'?"),
    (lambda tree: tree["series"]["l2"].__setitem__(2, math.nan), "'series.l2[2]' must be finite"),
    (lambda tree: tree["flags"].update(blowup_time="x"), "'flags.blowup_time' must be a number"),
    (lambda tree: tree["flags"].pop("blowup_time"), "missing required field 'flags.blowup_time'"),
], ids=["times_a_number", "cone_center_a_number", "mass_re_a_string", "ell_a_string",
        "l2_as_strings", "completed_a_string", "misspelt_key", "l2_nan", "blowup_time_a_string",
        "blowup_time_absent"])
def test_verify_rejects_a_record_field_of_the_wrong_type(tmp_path, plain_record, capsys, edit,
                                                         message):
    """A record field that does not hold what to_dict writes, and a key it
    does not write, is a load error naming the field, not a TypeError from
    inside a check (exit 2) or a verdict on a misread run (exit 0 or 3)."""
    tree = json.loads(plain_record.read_text())
    edit(tree)
    record = write_json(tmp_path / "edited.json", tree)
    assert verify(tmp_path, record, [{"name": "energy_identity", "tolerance": 1e-4}]) == 1
    captured = capsys.readouterr()
    assert "cannot load inputs" in captured.err and message in captured.err
    assert captured.out == ""


def test_verify_missing_series_is_runtime_error(tmp_path, plain_record, capsys):
    """A check whose series the record lacks fails as incompatible (exit 2);
    checks that do not need it still run."""
    tree = json.loads(plain_record.read_text())
    del tree["series"]["cone_leak"]
    record = write_json(tmp_path / "partial.json", tree)
    assert verify(tmp_path, record, [{"name": "energy_identity", "tolerance": 1e-4}]) == 0
    assert verify(tmp_path, record, [{"name": "cone", "tolerance": 1e-8}]) == 2
    assert "'cone_leak'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"name": "energy_identity", "tolerence": 1e-4}, "'tolerence'"),
        ({"name": "decay", "params": {"windw": [2.0, 3.0]}}, "'windw'"),
        ({"name": "forward_bound", "params": {"margin": 0.3}}, "'margin'"),
    ],
)
def test_verify_rejects_misspelled_keys(tmp_path, plain_record, capsys, spec, message):
    """A misspelled spec key or check parameter is a config error naming
    it, not a silent fall-back to the default."""
    assert verify(tmp_path, plain_record, [spec]) == 1
    assert message in capsys.readouterr().err



@pytest.mark.parametrize("spec, message", [
    ({"name": "decay", "params": {"expected": "x"}},
     "field 'checks[0].params.expected' must be a number"),
    ({"name": "decay", "params": {"expected": True}},
     "field 'checks[0].params.expected' must be a number"),
    ({"name": "decay", "params": {"window": 5}},
     "field 'checks[0].params.window' must be a list of 2 numbers"),
    ({"name": "decay", "params": {"window": None}},
     "field 'checks[0].params.window' must be a list of 2 numbers"),
    ({"name": "cone", "tolerance": 1e-8, "params": {"window": [1.5, 3.0]}},
     "unexpected keyword argument 'window'"),
    ({"name": "decay", "params": {"window": [4.0, 2.0], "expected": -1.0}},
     "field 'checks[0].params.window' must satisfy t_lo < t_hi, got [4.0, 2.0]"),
    ({"name": "decay", "params": {"window": [1.0, 1.0], "expected": -1.0}},
     "field 'checks[0].params.window' must satisfy t_lo < t_hi, got [1.0, 1.0]"),
    ({"name": "energy_identity", "tolerance": -1},
     "field 'checks[0].tolerance' must be >= 0.0"),
])
def test_verify_mistyped_params_are_config_errors(tmp_path, plain_record, capsys, spec,
                                                  message):
    """Each check parameter has a declared kind, and a check is passed only
    the parameters it takes; anything else fails before any check runs.  So
    does a value that means nothing for any record: a window holding no
    interval, or a negative tolerance."""
    assert verify(tmp_path, plain_record, [spec]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("tolerance", ["abc", None, [1e-3], True],
                         ids=["string", "null", "list", "bool"])
def test_verify_non_numeric_tolerance_is_config_error(tmp_path, plain_record, capsys,
                                                      tolerance):
    spec = {"name": "energy_identity", "tolerance": tolerance}
    assert verify(tmp_path, plain_record, [spec]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'energy_identity'" in err and "tolerance" in err


@pytest.mark.parametrize("suite, message", [
    ([{"name": "cone"}], "the config must be an object"),
    ({"checks": 5}, "field 'checks' must be a list of one or more objects"),
    ({"checks": []}, "field 'checks' must be a list of one or more objects"),
    ({"checks": [{"name": "cone"}, "gamma2"]},
     "field 'checks' must be a list of one or more objects"),
    ({"checks": [{"name": ["lm"]}]}, "field 'checks[0].name' must be a string"),
    ({}, "missing required field 'checks'"),
])
def test_verify_malformed_suite_is_config_error(tmp_path, plain_record, capsys, suite,
                                                message):
    """A suite of the wrong shape is a config error naming the path; no
    check runs and nothing passes by default."""
    path = write_json(tmp_path / "suite.json", suite)
    assert main(["verify", str(plain_record), str(path)]) == 1
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err and captured.out == ""

# --- simulate: the checks made once, where the invariant is declared ---------


def test_simulate_cone_overflow_is_config_error(tmp_path, capsys):
    tree = config()
    tree["solver"]["t_end"] = 1000.0  # forward cone radius 27 > torus limit 15
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert "enlarge the box" in capsys.readouterr().err


def test_simulate_failing_potential_flag_is_config_error(tmp_path, capsys):
    tree = config()
    tree["potential"] = {
        "kind": "scalar_bump",
        "amplitude": 0.5,
        "gamma2_condition_required": True,
    }
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert "field 'potential'" in capsys.readouterr().err



@pytest.mark.parametrize("rows", [3, 5])
def test_simulate_mis_shaped_potential_matrix_is_config_error(tmp_path, capsys, rows):
    tree = config()
    tree["potential"] = {
        "kind": "custom_matrix",
        "amplitude": 0.5,
        "matrix": [[[1.0, 0.0]] * 4] * rows,
    }
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    err = capsys.readouterr().err
    assert "field 'potential'" in err and "'matrix' must be a 4x4 matrix" in err

@pytest.mark.parametrize("value", ["false", 0])
@pytest.mark.parametrize("path", [
    "solver.track_cone",
    "outputs.snapshots",
    "initial_data.lm_constrained",
    "potential.hermitian_required",
    "potential.gamma2_condition_required",
])
def test_simulate_non_bool_flag_is_config_error(tmp_path, capsys, path, value):
    tree = config()
    section, key = path.split(".")
    tree.setdefault(section, {})[key] = value
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert f"field {path!r} must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    ("grid.dim", 1.5),
    ("grid.n", 64.9),
    ("grid.n", "64"),
    ("grid.n", True),
    ("solver.record_every", 2.5),
    ("solver.sobolev_order", "1"),
    ("initial_data.seed", 2.7),
    ("initial_data.seed", True),
    ("initial_data.seed", "x"),
    ("initial_data.seed", None),
])
def test_simulate_non_integer_field_is_config_error(tmp_path, capsys, path, value):
    tree = config()
    tree["initial_data"] = {"family": "random_smooth", "amplitude": 0.5}
    section, key = path.split(".")
    tree[section][key] = value
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert f"field {path!r} must be an integer" in capsys.readouterr().err


def test_simulate_integral_float_is_an_integer(tmp_path):
    tree = config()
    tree["initial_data"] = {"family": "random_smooth", "amplitude": 0.5, "seed": 3}
    tree["solver"].update(record_every=2, track_cone=False)
    code, ints = simulate(tmp_path, tree, name="ints")
    tree["grid"]["n"] = 64.0
    tree["initial_data"]["seed"] = 3.0
    tree["solver"]["record_every"] = 2.0
    code_f, floats = simulate(tmp_path, tree, name="floats")
    assert code == code_f == 0
    assert ints.read_bytes() == floats.read_bytes()


@pytest.mark.parametrize("outputs, field", [
    ("x", "'outputs' must be an object"),
    ({"dir": 5}, "'outputs.dir' must be a string"),
])
def test_simulate_malformed_outputs_is_config_error(tmp_path, capsys, outputs, field):
    tree = config()
    tree["outputs"] = outputs
    cfg = write_json(tmp_path / "run.json", tree)
    assert main(["simulate", str(cfg)]) == 1
    assert f"config error: field {field}" in capsys.readouterr().err


def test_simulate_writes_to_outputs_dir_without_out(tmp_path):
    tree = config()
    tree["outputs"] = {"dir": str(tmp_path / "from_config")}
    cfg = write_json(tmp_path / "run.json", tree)
    assert main(["simulate", str(cfg)]) == 0
    strict_json((tmp_path / "from_config" / "record.json").read_text())


def test_simulate_untracked_cone_measures_no_support(tmp_path):
    tree = config()
    tree["solver"]["track_cone"] = False
    code, record = simulate(tmp_path, tree)
    assert code == 0
    tree = json.loads(record.read_text())
    assert tree["support_radius0"] == 0.0
    assert set(tree["series"]["cone_leak"]) == {0.0}


def test_simulate_defect_phase_off_the_unit_circle_is_config_error(tmp_path, capsys):
    code, record = simulate(tmp_path, config(lm_z=2.0))
    assert code == 1
    assert not record.exists()
    err = capsys.readouterr().err
    assert "config error: field 'solver'" in err and "unit circle" in err


@pytest.mark.parametrize("section, value, field", [
    ("potential", "zero", "'potential' must be an object"),
    ("nonlinearity", "cubic", "'nonlinearity' must be an object"),
    ("nonlinearity", {"kind": "lochak_form", "alpha_coeffs": ["a", 0]},
     "'nonlinearity.alpha_coeffs' must be a list of 2 numbers"),
    ("nonlinearity", {"kind": "lochak_form", "beta_coeffs": 5},
     "'nonlinearity.beta_coeffs' must be a list of 2 numbers"),
    ("initial_data", {"amplitude": "big"}, "'initial_data.amplitude' must be a number"),
    ("initial_data", [2.0], "'initial_data' must be an object"),
    ("mass", {"re": "x"}, "'mass' must be a number, [re, im] or {re, im}"),
    ("initial_data", {"coeffs": 5}, "'initial_data.coeffs' must be a list of complex numbers"),
    ("solver", {"t_end": 3.0, "lm_z": [1, "x"]},
     "'solver.lm_z' must be a number, [re, im] or {re, im}"),
    ("potential", {"kind": "scalar_bump", "center": ["a"]},
     "'potential.center' must be a list of at most 3 numbers"),
    ("nonlinearity", {"kind": "power_abs", "sign": 1.5}, "'nonlinearity.sign' must be an integer"),
    ("potential", {"kind": "scalar_bump", "amplitude": "1"},
     "'potential.amplitude' must be a number"),
    ("nonlinearity", {"kind": "power_abs", "alpha_exp": True},
     "'nonlinearity.alpha_exp' must be a number"),
    ("solver", {"t_end": 3.0, "on_cone_violation": "stopp"},
     "'solver.on_cone_violation' has unknown value 'stopp'; did you mean 'stop'?"),
])
def test_simulate_malformed_section_is_config_error(tmp_path, capsys, section, value, field):
    tree = config()
    tree[section] = value
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert f"config error: field {field}" in capsys.readouterr().err


def _sweep_tree():
    return {"ell": [0.5], "alpha": [0.3]}


@pytest.mark.parametrize("base, path, value, where, key, hint", [
    (config, "nonlinarity", {"kind": "power_abs"}, "the config", "nonlinarity",
     "nonlinearity"),
    (config, "solver.cfll", 0.9, "field 'solver'", "cfll", "cfl"),
    (config, "initial_data.widht", 0.5, "field 'initial_data'", "widht", "width"),
    (config, "outputs.snapshot", True, "field 'outputs'", "snapshot", "snapshots"),
    (_sweep_tree, "E", 4.0, "the config", "E", "E1"),
    (_sweep_tree, "empirical.enable", True, "field 'empirical'", "enable", "enabled"),
    (dict, "chekcs", [{"name": "cone"}], "the config", "chekcs", "checks"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_misspelt_key_is_config_error_naming_the_nearest_key(
    tmp_path, plain_record, capsys, base, path, value, where, key, hint
):
    """An unknown key at any level of a run, sweep or suite config is an
    error that names where it is and the valid key nearest to it, instead
    of being ignored."""
    tree = base()
    *sections, last = path.split(".")
    node = tree
    for section in sections:
        node = node.setdefault(section, {})
    node[last] = value
    cfg = write_json(tmp_path / "cfg.json", tree)
    out = tmp_path / "out"
    argv = {
        config: ["simulate", str(cfg), "--out", str(out)],
        _sweep_tree: ["sweep", str(cfg), "--out", str(out)],
        dict: ["verify", str(plain_record), str(cfg), "--out", str(out)],
    }[base]
    assert main(argv) == 1
    assert (f"config error: {where} has unknown key {key!r}; did you mean {hint!r}?"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("path", ["solver.cfl", "solver.t_start", "grid.box_length",
                                  "cosmology.a0"])
def test_simulate_null_number_is_config_error(tmp_path, capsys, path):
    tree = config()
    section, key = path.split(".")
    tree[section][key] = None
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert f"config error: field {path!r} must be a number" in capsys.readouterr().err


_SCALAR_BUMP = {"kind": "scalar_bump", "amplitude": 0.5, "width": 1.0}


@pytest.mark.parametrize("section, key, value, message", [
    ("initial_data", "amplitude", float("nan"), "field 'initial_data.amplitude' must be finite"),
    ("initial_data", "amplitude", float("inf"), "field 'initial_data.amplitude' must be finite"),
    ("initial_data", "width", 0.0, "field 'initial_data': width must be positive, got 0.0"),
    ("initial_data", "width", float("nan"), "field 'initial_data.width' must be finite"),
    ("initial_data", "center", [float("nan")], "field 'initial_data.center[0]' must be finite"),
    ("grid", "box_length", float("inf"), "field 'grid.box_length' must be finite"),
    ("potential", "amplitude", float("nan"), "field 'potential.amplitude' must be finite"),
    ("potential", "amplitude", float("inf"), "field 'potential.amplitude' must be finite"),
    ("potential", "width", float("nan"), "field 'potential.width' must be finite"),
    ("potential", "center", [float("nan")], "field 'potential.center[0]' must be finite"),
])
def test_simulate_non_finite_number_is_config_error(tmp_path, capsys, section, key, value,
                                                    message):
    """json reads NaN and Infinity; each used to run into a 'numerical
    blow-up' with exit 0.  They fail before the run, naming the field."""
    tree = config()
    if section == "potential":
        tree["potential"] = dict(_SCALAR_BUMP)
    tree[section][key] = value
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dt_max", "blowup_factor"])
def test_simulate_infinite_solver_bound_is_accepted(tmp_path, key):
    """dt_max and blowup_factor keep inf: no step cap, or only non-finite
    data count as a blow-up."""
    tree = config()
    tree["solver"][key] = float("inf")
    code, record = simulate(tmp_path, tree)
    assert code == 0
    assert json.loads(record.read_text())["flags"]["completed"]


def _unbounded_blowup():
    """A focusing 1D RK4 run whose only blow-up test is the recordable norm."""
    return {
        "cosmology": {"ell": 0.0},
        "mass": 0.0,
        "grid": {"dim": 1, "n": 64, "box_length": 8.0},
        "nonlinearity": {"kind": "blowup_G", "alpha_exp": 2.0, "c0": 1.0},
        "initial_data": {"family": "compact_bump", "amplitude": 3.0},
        "solver": {"t_start": 1.0, "t_end": 4.0, "cfl": 0.3,
                   "blowup_factor": math.inf, "track_cone": False},
    }


def test_unbounded_blowup_records_only_finite_numbers(tmp_path, capsys):
    """With blowup_factor inf the run stops at the largest norm whose
    observables are finite, so its record holds numbers that verify loads,
    and no RuntimeWarning is raised on the way (pyproject makes one an error)."""
    code, record = simulate(tmp_path, _unbounded_blowup())
    assert code == 0
    assert "blow-up" in capsys.readouterr().out
    series = strict_json(record.read_text())["series"]
    assert all(math.isfinite(v) for values in series.values() for v in values)
    assert verify(tmp_path, record, [{"name": "forward_bound"}]) == 0


def test_initial_data_above_the_recordable_norm_is_config_error(tmp_path, capsys):
    """A start field whose squared norm is past that bound is refused before
    the run squares it."""
    tree = _unbounded_blowup()
    tree["initial_data"]["amplitude"] = 1e300
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    err = capsys.readouterr().err
    assert "config error: field 'initial_data': 'compact_bump' initial data" in err
    assert "the largest at which its observables are finite" in err


def test_simulate_refuses_to_write_a_record_that_is_not_json(tmp_path, monkeypatch, capsys):
    """A non-finite number that reaches the record fails simulate (exit 2)
    instead of being written as NaN, which strict JSON readers refuse."""
    import flrw_dirac.cli as cli

    run = cli.propagate

    def nan_l2(*args, **kwargs):
        rec = run(*args, **kwargs)
        rec.series["l2"][-1] = math.nan
        return rec

    monkeypatch.setattr(cli, "propagate", nan_l2)
    code, record = simulate(tmp_path, config())
    assert code == 2
    assert "ValueError" in capsys.readouterr().err
    assert not record.exists()
    with pytest.raises(ValueError, match="NaN is not JSON"):
        strict_json('{"l2": [NaN]}')


@pytest.mark.parametrize("center", [5, "x", [1.0, 2.0, 3.0, 4.0], [1.0, "a"], [True], None])
def test_simulate_malformed_center_is_config_error(tmp_path, capsys, center):
    tree = config()
    tree["initial_data"]["center"] = center
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert ("config error: field 'initial_data.center' must be a list of at most 3 numbers"
            in capsys.readouterr().err)


@pytest.mark.parametrize("initial_data, message", [
    ({"family": "compact_bump", "lm_constrained": True},
     "field 'initial_data.lm_constrained' needs family 'gaussian' or 'lm_gaussian', "
     "not 'compact_bump'"),
    ({"family": "plane_wave", "lm_constrained": True},
     "field 'initial_data.lm_constrained' needs family"),
    ({"family": "random_smooth", "lm_constrained": True},
     "field 'initial_data.lm_constrained' needs family"),
    ({"family": "gaussian", "seed": 7},
     "field 'initial_data': gaussian_bump() got an unexpected keyword argument 'seed'"),
    ({"family": "random_smooth", "coeffs": [1.0, 0.0, 0.0, 0.0]},
     "field 'initial_data': random_smooth() got an unexpected keyword argument 'coeffs'"),
])
def test_simulate_initial_data_key_the_family_ignores_is_config_error(
        tmp_path, capsys, initial_data, message):
    """A key the family would override or drop is rejected, not run past."""
    tree = config()
    tree["initial_data"] = initial_data
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("nonlinearity, key", [
    ({"kind": "power_abs", "c0": -1.0}, "c0"),
    ({"kind": "power_abs", "c0": 7.0}, "c0"),
    ({"kind": "blowup_G", "sign": -1}, "sign"),
    ({"kind": "none", "alpha_exp": 3.0}, "alpha_exp"),
    ({"alpha_exp": 3.0}, "alpha_exp"),
    ({"kind": "lochak_form", "alpha_exp": 2.0}, "alpha_exp"),
    ({"kind": "power_abs", "alpha_coeffs": [1.0, 0.0]}, "alpha_coeffs"),
])
def test_simulate_nonlinearity_key_the_kind_ignores_is_config_error(
        tmp_path, capsys, nonlinearity, key):
    """A nonlinearity key that its kind does not read used to run the
    record of the base config byte for byte; it is rejected, naming it."""
    tree = config()
    tree["nonlinearity"] = nonlinearity
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    kind = nonlinearity.get("kind", "none")
    assert (f"config error: field 'nonlinearity.{key}' is not read by kind {kind!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("nonlinearity", [
    {"kind": "none"},
    {"kind": "power_abs", "alpha_exp": 2.0, "sign": -1},
    {"kind": "blowup_G", "alpha_exp": 2.0, "c0": 0.5},
    {"kind": "lochak_form", "alpha_coeffs": [0.1, 0.0], "beta_coeffs": [0.0, 0.1]},
], ids=lambda nl: nl["kind"])
def test_simulate_every_key_a_nonlinearity_kind_reads_is_accepted(tmp_path, nonlinearity):
    tree = config()
    tree["nonlinearity"] = nonlinearity
    code, record = simulate(tmp_path, tree)
    assert code == 0
    assert json.loads(record.read_text())["nonlinearity_kind"] == nonlinearity["kind"]


_IDENTITY = [[float(i == j) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("potential, key", [
    ({"kind": "scalar_bump", "amplitude": 0.5, "matrix": _IDENTITY}, "matrix"),
    ({"kind": "zero", "amplitude": 0.5}, "amplitude"),
    ({"kind": "zero", "width": -1.0}, "width"),
    ({"kind": "zero", "matrix": _IDENTITY}, "matrix"),
    ({"amplitude": 0.5}, "amplitude"),
    ({"kind": "zero", "center": [1.0]}, "center"),
    ({"kind": "zero", "hermitian_required": True}, "hermitian_required"),
])
def test_simulate_potential_key_the_kind_ignores_is_config_error(
        tmp_path, capsys, potential, key):
    """A potential key that its kind does not read used to run the record
    of the config without it byte for byte; it is rejected, naming it."""
    tree = config()
    tree["potential"] = potential
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    kind = potential.get("kind", "zero")
    assert (f"config error: field 'potential.{key}' is not read by kind {kind!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("potential", [
    {"kind": "zero"},
    {"kind": "scalar_bump", "amplitude": 0.5, "center": [1.0], "width": 2.0,
     "hermitian_required": True, "gamma2_condition_required": False},
    {"kind": "custom_matrix", "amplitude": 0.5, "center": [1.0], "width": 2.0,
     "hermitian_required": True, "gamma2_condition_required": False, "matrix": _IDENTITY},
], ids=lambda p: p["kind"])
def test_simulate_every_key_a_potential_kind_reads_is_accepted(tmp_path, potential):
    tree = config()
    tree["potential"] = potential
    code, record = simulate(tmp_path, tree)
    assert code == 0
    assert json.loads(record.read_text())["potential_kind"] == potential["kind"]


def test_one_config_gives_one_hashable_model():
    """The model specs are plain values: loading one config twice gives
    equal specs with equal hashes, Lochak coefficients and potential included."""
    from flrw_dirac.cli import load_run_config

    tree = config()
    tree["potential"] = {"kind": "custom_matrix", "amplitude": 0.5, "center": [1.0],
                         "matrix": [[[0.0, 0.2] if i == j else 0.0 for j in range(4)]
                                    for i in range(4)]}
    tree["nonlinearity"] = {"kind": "lochak_form", "alpha_coeffs": [0.1, 0.0],
                            "beta_coeffs": [0.0, 0.1]}
    first, second = (load_run_config(json.loads(json.dumps(tree)))[1] for _ in range(2))
    assert first == second and hash(first) == hash(second)
    assert first.nonlinearity.alpha_coeffs == (0.1, 0.0)
    assert first.potential.center == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("section, value", [
    ("initial_data", {"family": "gaussian", "amplitude": 0.5}),
    ("initial_data", {"family": "lm_gaussian", "amplitude": 0.5, "second_amplitude": 0.3}),
    ("potential", {"kind": "scalar_bump", "amplitude": 0.5}),
])
def test_simulate_width_whose_square_overflows_runs_the_flat_envelope(
        tmp_path, capsys, section, value):
    """A finite width past the square root of the float range used to exit 2
    on an OverflowError from width**2.  Its square is inf, so the envelope is
    its flat limit: the run writes the record of a width of 1e150, whose
    envelope is 1.0 to the last bit.  Flat data fill the box, which the
    forward cone guard refuses, so the cone is not tracked."""
    tree = config()
    tree["solver"]["track_cone"] = False
    records = []
    for width in (1e150, 1e300):
        tree[section] = dict(value, width=width)
        code, record = simulate(tmp_path, tree, name=f"w{width:g}")
        assert code == 0
        records.append(record.read_bytes())
    assert records[0] == records[1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("family, width", [
    ("gaussian", -1.0), ("compact_bump", -1.0), ("compact_bump", 0.0), ("lm_gaussian", -2.0),
])
def test_simulate_non_positive_width_is_config_error(tmp_path, capsys, family, width):
    """A negative width used to run the |width| profile, and a zero
    compact_bump width a zero field."""
    tree = config()
    tree["initial_data"] = {"family": family, "width": width}
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert (f"config error: field 'initial_data': width must be positive, got {width}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("t_start, t_end", [(2.0, 1.5), (1e300, 1.05)])
def test_simulate_end_before_start_is_config_error(tmp_path, capsys, t_start, t_end):
    """simulate runs forward; it used to run backward and report completion
    or, from t_start 1e300, a blow-up after an overflow."""
    tree = config()
    tree["nonlinearity"] = {"kind": "power_abs"}
    tree["solver"].update(t_start=t_start, t_end=t_end, track_cone=False)
    code, record = simulate(tmp_path, tree)
    assert code == 1
    assert not record.exists()
    assert (f"config error: field 'solver.t_end' ({t_end}) lies before solver.t_start "
            f"({t_start}); simulate runs forward" in capsys.readouterr().err)


def test_simulate_center_is_padded_with_zeros(tmp_path):
    tree = config()
    tree["initial_data"]["center"] = [1]
    code, short = simulate(tmp_path, tree, name="short")
    tree["initial_data"]["center"] = [1.0, 0.0, 0.0]
    code_full, full = simulate(tmp_path, tree, name="full")
    assert code == code_full == 0
    assert json.loads(short.read_text())["cone_center"] == [1.0, 0.0, 0.0]
    assert short.read_bytes() == full.read_bytes()


def test_every_solver_config_field_is_settable_from_the_run_config():
    """The run config's solver section sets every SolverConfig field, so no
    field is an option only the Python API reaches.  cone_center is the one
    exception: load_run_config fills it from initial_data.center."""
    import dataclasses

    from flrw_dirac.cli import _RUN
    from flrw_dirac.solver import SolverConfig

    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    kind, settable, _ = _RUN["solver"]
    assert kind == "section"
    assert fields - set(settable) == {"cone_center"}
    assert set(settable) <= fields


def test_simulate_plane_wave_is_a_unit_wavenumber_gaussian(tmp_path):
    tree = config()
    tree["initial_data"] = {"family": "plane_wave", "width": 2.0, "amplitude": 0.7}
    tree["outputs"] = {"snapshots": True}
    code, record = simulate(tmp_path, tree)
    assert code == 0
    start = load_snapshot(record.parent / "snapshot_start.fdrc")
    expected = gaussian_bump(
        Grid(1, 64, 32.0), amplitude=0.7, width=2.0, wavenumber=1.0, coeffs=(1, 0, 0, 0)
    )
    assert np.array_equal(start.data, expected.data)


# --- kernel ------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["K1", "E"])
def test_kernel_table(tmp_path, kernel):
    out = tmp_path / "table.csv"
    argv = ["kernel", "--kernel", kernel, "--ell", "0.5", "--m-re", "0.5",
            "--t", "2.0", "--nr", "8", "--out", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(np.isfinite(float(r["re"])) and np.isfinite(float(r["im"])) for r in rows)


@pytest.mark.parametrize(
    "extra",
    [["--ell", "1.5", "--t", "2.0"],
     ["--ell", "0.5", "--t", "2.0", "--kernel", "E", "--t0", "3.0"]],
)
def test_kernel_table_bad_input_is_config_error(tmp_path, extra):
    assert main(["kernel", *extra, "--out", str(tmp_path / "t.csv")]) == 1


@pytest.mark.parametrize("extra, message", [
    (["--mode", "reconstruct"], "--mode reconstruct needs --snapshot"),
    (["--nr", "0"], "--nr must be >= 1"),
    (["--nr", "-1"], "--nr must be >= 1"),
    (["--m-re", "nan"], "m must be finite"),
    (["--t", "nan"], "t must be >= t0"),
    (["--t", "60"], "t must be >= t0 > 0 and t/t0 <= 50: t/t0 = 60.0 exceeds"),
    (["--kernel", "E", "--t0", "0"], "t must be >= t0 > 0"),
    (["--kernel", "E", "--t0", "-1"], "t must be >= t0 > 0"),
    # the snapshot is never read: the time is checked first
    (["--mode", "reconstruct", "--snapshot", "missing.fdrc", "--t", "nan"],
     "t must be >= t0"),
    (["--mode", "reconstruct", "--snapshot", "missing.fdrc", "--t", "0.5"],
     "t must be >= t0"),
    (["--mode", "reconstruct", "--snapshot", "missing.fdrc", "--t", "60"],
     "t must be >= t0 > 0 and t/t0 <= 50: t/t0 = 60.0 exceeds"),
    # K1 and reconstruct start at --eps, so --t0 would only mislabel them
    (["--kernel", "K1", "--t0", "0.5"], "--t0 applies only to --kernel E"),
    (["--kernel", "K1", "--t0", "1.5"], "--t0 applies only to --kernel E"),
    (["--kernel", "K1", "--t", "60", "--t0", "2"], "--t0 applies only to --kernel E"),
    (["--mode", "reconstruct", "--snapshot", "missing.fdrc",
      "--kernel", "E", "--t0", "1.5"], "--t0 applies only to --kernel E"),
    # non-finite arguments fail before a series is summed on NaN
    (["--eps", "inf", "--t", "inf"], "epsilon must be positive and finite"),
    (["--kernel", "E", "--t0", "inf", "--t", "inf"],
     "t must be >= t0 > 0 and t/t0 <= 50: t/t0 = nan exceeds"),
])
def test_kernel_bad_argument_is_config_error(tmp_path, capsys, extra, message):
    """Each fails at once, before any kernel is evaluated, naming the argument."""
    out = tmp_path / "t.csv"
    assert main(["kernel", "--ell", "0.5", "--t", "2.0", *extra, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_reconstruct(tmp_path):
    f0 = compact_bump(Grid(3, 8, 12.0), width=3.0)
    snap, out = tmp_path / "f0.fdrc", tmp_path / "f.fdrc"
    save_snapshot(f0, snap)
    argv = ["kernel", "--mode", "reconstruct", "--ell", "0.5", "--m-re", "0.5",
            "--t", "2.0", "--snapshot", str(snap), "--out", str(out)]
    assert main(argv) == 0
    expected = reconstruct_free(f0, 2.0, KernelEval(Cosmology(0.5, 1.0), 0.5, 1.0))
    assert np.array_equal(load_snapshot(out).data, expected.data)


def test_kernel_reconstruct_bad_snapshot_is_runtime_error(tmp_path):
    one_d = tmp_path / "f1d.fdrc"
    save_snapshot(compact_bump(Grid(1, 16, 12.0)), one_d)
    for snap in (one_d, tmp_path / "missing.fdrc"):
        argv = ["kernel", "--mode", "reconstruct", "--ell", "0.5", "--t", "2.0",
                "--snapshot", str(snap), "--out", str(tmp_path / "f.fdrc")]
        assert main(argv) == 2


def test_kernel_reconstruct_nan_time_snapshot_is_runtime_error(tmp_path, capsys):
    """A snapshot stamped with a NaN time is rejected, not reconstructed as
    if it started at --eps."""
    snap, out = tmp_path / "f0.fdrc", tmp_path / "f.fdrc"
    save_snapshot(compact_bump(Grid(3, 8, 12.0), width=3.0), snap)
    raw = bytearray(snap.read_bytes())
    raw[24:32] = struct.pack("<d", float("nan"))  # the header's time
    snap.write_bytes(bytes(raw))
    argv = ["kernel", "--mode", "reconstruct", "--ell", "0.5", "--t", "2.0",
            "--snapshot", str(snap), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(snap) in err and "snapshot time nan is not positive and finite" in err
    assert not out.exists()


def test_kernel_reconstruct_start_time_mismatch_names_both_times(tmp_path, capsys):
    snap, out = tmp_path / "f0.fdrc", tmp_path / "f.fdrc"
    save_snapshot(compact_bump(Grid(3, 8, 12.0), width=3.0, time=1.75), snap)
    argv = ["kernel", "--mode", "reconstruct", "--ell", "0.5", "--eps", "1.25",
            "--t", "2.0", "--snapshot", str(snap), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "1.75" in err and "1.25" in err
    assert not out.exists()


@pytest.mark.parametrize("cut, expected, actual", [
    (lambda raw: b"", 32, 0),  # no header
    (lambda raw: raw[:-1], 32800, 32799),  # truncated payload
    (lambda raw: raw + b"\0", 32800, 32801),  # trailing bytes
])
def test_kernel_reconstruct_malformed_snapshot_names_its_size(tmp_path, capsys, cut,
                                                               expected, actual):
    snap, out = tmp_path / "f0.fdrc", tmp_path / "f.fdrc"
    save_snapshot(compact_bump(Grid(3, 8, 12.0), width=3.0), snap)
    snap.write_bytes(cut(snap.read_bytes()))
    argv = ["kernel", "--mode", "reconstruct", "--ell", "0.5", "--t", "2.0",
            "--snapshot", str(snap), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(snap) in err and f"needs {expected} bytes, file has {actual}" in err
    assert not out.exists()


# --- sweep, lifespan, classify ------------------------------------------------


def test_sweep_two_points(tmp_path, monkeypatch):
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    grid = write_json(tmp_path / "sweep.json", {"ell": [0.5], "alpha": [2.0, 0.3], "E1": 4.0})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["alpha"], r["regime"]) for r in rows] == [
        ("0.3", "no_global_any_size"),
        ("2.0", "no_global_large_data"),
    ]
    assert float(rows[0]["T_bu"]) == pytest.approx(16.05, rel=1e-3)
    assert all(r["error"] == "" and r["t_numerical"] == "" for r in rows)
    assert all(r[k] == "" for r in rows for k in ("ineq_holds", "ineq_worst", "ineq_points"))


def test_sweep_row_tests_the_bound_it_reports(tmp_path, monkeypatch):
    """satisfied compares the run with the row's own T_bu: it is empty when
    that bound is infinite, and the inequality columns report the
    comparison bound E >= Y, which holds on this blow-up run."""
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    grid = write_json(tmp_path / "sweep.json", {
        "ell": [1.0], "alpha": [2.0], "im_m": [0.0], "R": 1.0, "E1": 4.0,
        "empirical": {"enabled": True, "dim": 1, "n": 256, "box_length": 16.0,
                      "t_end": 4.0, "cfl": 0.3},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "" and row["t_numerical"] != ""
    t_bu = float(row["T_bu"])
    assert (row["satisfied"] != "") == math.isfinite(t_bu)
    if math.isfinite(t_bu):
        expected = float(row["t_numerical"]) <= t_bu * (1.0 + BOUND_SLACK)
        assert row["satisfied"] == str(expected).lower()
    assert int(row["ineq_points"]) > 0
    assert row["ineq_holds"] == str(float(row["ineq_worst"]) <= 0.0).lower() == "true"


def test_sweep_inequality_over_no_point_is_empty(tmp_path, monkeypatch):
    """A run that records no time after its start checks no point of the
    comparison bound, so ineq_holds and ineq_worst stay empty instead of
    reading true."""
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    grid = write_json(tmp_path / "sweep.json", {
        "ell": [1.0], "alpha": [2.0], "E1": 4.0,
        "empirical": {"enabled": True, "n": 64, "box_length": 16.0, "t_end": 1.0},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["ineq_points"], row["ineq_holds"], row["ineq_worst"]) == ("0", "", "")


def test_sweep_row_2_1_0_holds_the_comparison_bound(tmp_path, monkeypatch):
    """Row (ell 2, alpha 1, Im m 0) of the benchmark's sweep never blows up
    before t_end and has an infinite bound.  A centred difference of its
    recorded energy broke the inequality by step error; the comparison bound
    holds at every recorded time."""
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    grid = write_json(tmp_path / "sweep.json", {
        "ell": [2.0], "alpha": [1.0], "im_m": [0.0], "c0": 1.0, "R": 1.0, "E1": 4.0,
        "empirical": {"enabled": True, "dim": 1, "n": 256, "box_length": 16.0,
                      "t_end": 4.0, "cfl": 0.3},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["T_bu"], row["t_numerical"], row["satisfied"], row["error"]) == ("inf", "", "", "")
    assert row["ineq_holds"] == "true" and int(row["ineq_points"]) > 0
    assert float(row["ineq_worst"]) < 0.0


def test_sweep_pool_writes_the_serial_csv(tmp_path, monkeypatch):
    grid = write_json(tmp_path / "sweep.json", {
        "ell": [0.5, 2.0], "alpha": [0.5, 2.0], "E1": 4.0,
        "empirical": {"enabled": True, "dim": 1, "n": 64, "box_length": 16.0,
                      "t_end": 2.0, "cfl": 0.3},
    })
    written = []
    for threads in ("2", "1"):
        monkeypatch.setenv("FLRW_DIRAC_THREADS", threads)
        out = tmp_path / f"sweep{threads}.csv"
        assert main(["sweep", str(grid), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 5
    assert b"Error" not in written[0]


_BENCHMARK_SWEEP = {
    "ell": [0.5, 0.667, 1.0, 2.0], "alpha": [0.3, 0.5, 1.0, 2.0], "im_m": [0.0, 0.5],
    "c0": 1.0, "R": 1.0, "E1": 4.0,
    "empirical": {"enabled": True, "dim": 1, "n": 256, "box_length": 16.0,
                  "t_end": 4.0, "cfl": 0.3},
}


def test_benchmark_sweep_rows_are_those_of_one_point_sweeps(tmp_path, monkeypatch):
    """The benchmark's 32-row sweep runs a stack per ell.  It writes the
    same bytes with 1 and 2 workers, and each row is the row a sweep of that
    one point writes, where its run is a stack of one."""
    grid = write_json(tmp_path / "sweep.json", _BENCHMARK_SWEEP)
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FLRW_DIRAC_THREADS", threads)
        out = tmp_path / f"sweep{threads}.csv"
        assert main(["sweep", str(grid), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    header, *rows = written[0].decode().splitlines()
    assert len(rows) == 32 and all(row.endswith(",") for row in rows)  # no error column
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    points = [(e, a, i) for e in _BENCHMARK_SWEEP["ell"] for a in _BENCHMARK_SWEEP["alpha"]
              for i in _BENCHMARK_SWEEP["im_m"]]
    for (e, a, i), row in zip(points, rows):
        one = write_json(tmp_path / "one.json",
                         {**_BENCHMARK_SWEEP, "ell": [e], "alpha": [a], "im_m": [i]})
        out = tmp_path / "one.csv"
        assert main(["sweep", str(one), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [header, row]


def test_3d_sweep_runs_a_stack_per_row(tmp_path, monkeypatch):
    """A 3D row is a stack of one: the 3D sweep runs every point, with no
    error in any row."""
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    grid = write_json(tmp_path / "sweep.json", {
        "ell": [0.5], "alpha": [0.3, 2.0], "E1": 4.0,
        "empirical": {"enabled": True, "dim": 3, "n": 16, "box_length": 16.0, "t_end": 1.2},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all(r["error"] == "" and r["T_bu"] != "" for r in rows)
    assert rows[1]["t_numerical"] != ""  # alpha 2 blows up


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that notes its worker count and
    maps in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, ells, pool", [
    ({0}, [0.5, 2.0], []),
    ({0, 1, 2, 3, 4}, [0.5, 1.0, 2.0], [3]),
    ({0, 1, 2, 3, 4}, [0.5], []),
])
def test_sweep_pool_follows_the_affinity_and_the_stacks(tmp_path, monkeypatch, cpus, ells, pool):
    """Unset, FLRW_DIRAC_THREADS means the CPUs the process may run on, and
    the pool has at most one worker per stack (per ell): a sweep of one
    stack, or on one CPU, forks no pool."""
    import concurrent.futures

    monkeypatch.delenv("FLRW_DIRAC_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    grid = write_json(tmp_path / "sweep.json", {"ell": ells, "alpha": [0.3, 2.0], "E1": 4.0})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 0
    assert _RecordingPool.sizes == pool
    assert out.read_text().count("\n") == 1 + 2 * len(ells)


@pytest.mark.parametrize("threads", ["abc", "-1", ""])
def test_sweep_bad_thread_count_is_config_error(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("FLRW_DIRAC_THREADS", threads)
    grid = write_json(tmp_path / "sweep.json", {"ell": [0.5], "alpha": [0.3]})
    assert main(["sweep", str(grid), "--out", str(tmp_path / "s.csv")]) == 1
    assert f"FLRW_DIRAC_THREADS must be a nonnegative integer, got {threads!r}" in (
        capsys.readouterr().err)


def test_sweep_without_ell_is_config_error(tmp_path):
    grid = write_json(tmp_path / "sweep.json", {"alpha": [0.3]})
    assert main(["sweep", str(grid), "--out", str(tmp_path / "s.csv")]) == 1


@pytest.mark.parametrize("key, value", [
    ("c0", "x"), ("c0", -1), ("c0", 0), ("R", None), ("R", True), ("E1", [4.0]),
    ("alpha", [-1]), ("im_m", [-0.5]), ("ell", ["0.5"]), ("alpha", [True]), ("ell", []),
    ("im_m", 0.5),
])
def test_sweep_bad_scalar_is_config_error(tmp_path, capsys, key, value):
    grid = write_json(tmp_path / "sweep.json", {"ell": [0.5], "alpha": [0.3], key: value})
    out = tmp_path / "s.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 1
    assert f"config error: field {key!r} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("empirical, field", [
    ("on", "'empirical' must be an object"),
    ({"enabled": "yes"}, "'empirical.enabled' must be true or false"),
    ({"enabled": True, "n": "x"}, "'empirical.n' must be an integer"),
    ({"enabled": True, "n": 4}, "'empirical.n' must be >= 8"),
    ({"enabled": True, "n": 100}, "'empirical': n must be a power of two"),
    ({"enabled": True, "dim": 2.5}, "'empirical.dim' must be an integer"),
    ({"enabled": True, "dim": 2}, "'empirical': dim must be 1 or 3"),
    ({"enabled": True, "box_length": "8"}, "'empirical.box_length' must be a number"),
    ({"enabled": True, "t_end": 0.5}, "'empirical.t_end' must be >= 1.0"),
    ({"enabled": True, "cfl": 1.5}, "'empirical.cfl' must lie in (0.0, 1.0)"),
    ({"enabled": False, "n": "x"}, "'empirical.n' must be an integer"),
])
def test_sweep_bad_empirical_section_is_config_error(tmp_path, capsys, empirical, field):
    grid = write_json(tmp_path / "sweep.json",
                      {"ell": [0.5], "alpha": [0.3], "empirical": empirical})
    out = tmp_path / "s.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 1
    assert f"config error: field {field}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empirical_defaults_match_explicit_values(tmp_path, monkeypatch):
    """An enabled section without fields runs with the defaults
    (1D, n 256, box 8, t_end 4, cfl 0.3); integral floats count as integers."""
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    written = []
    for name, empirical in (
        ("defaults", {"enabled": True}),
        ("explicit", {"enabled": True, "dim": 1.0, "n": 256, "box_length": 8,
                      "t_end": 4, "cfl": 0.3}),
    ):
        grid = write_json(tmp_path / f"{name}.json",
                          {"ell": [0.5], "alpha": [2.0], "E1": 4.0, "empirical": empirical})
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", str(grid), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    row = next(csv.DictReader(written[0].decode().splitlines()))
    assert row["error"] == "" and row["t_numerical"] != ""


def test_sweep_empirical_runs_split(tmp_path, monkeypatch):
    """The blow-up runs step with the split method: on the benchmark's
    empirical settings at (ell 1, alpha 2, Im m 0) the sweep reads split's
    time (RK4 reads 1.17109875154531, test_blowup)."""
    monkeypatch.setenv("FLRW_DIRAC_THREADS", "1")
    empirical = {"enabled": True, "dim": 1, "n": 256, "box_length": 16.0,
                 "t_end": 4.0, "cfl": 0.3}
    grid = write_json(tmp_path / "sweep.json", {
        "ell": [1.0], "alpha": [2.0], "im_m": [0.0], "R": 1.0, "E1": 4.0,
        "empirical": empirical})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(grid), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["t_numerical"] == "1.1495447867929423"


def test_lifespan(capsys):
    assert main(["lifespan", "--ell", "0.5", "--alpha", "0.3", "--E1", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "no_global_any_size"
    assert out["solvability_threshold_E1"] == 0.0
    assert out["T_bu"] == pytest.approx(16.05, rel=1e-3)


_STARTUP_PROBE = """
import json, sys
from flrw_dirac.cli import main

LAZY = ("scipy.integrate", "scipy.optimize", "scipy.special",
        "concurrent.futures.process", "numpy.polynomial")
config, work, report = sys.argv[1:]
seen = {"import": [m for m in LAZY if m in sys.modules]}
assert main(["simulate", config, "--out", work + "/run"]) == 0
assert main(["kernel", "--ell", "0.5", "--t", "2.0", "--nr", "8",
             "--out", work + "/table.csv"]) == 0
seen["simulate_kernel"] = [m for m in LAZY if m in sys.modules]
assert main(["lifespan", "--ell", "0.5", "--alpha", "0.3", "--E1", "4"]) == 0
seen["lifespan"] = [m for m in LAZY if m in sys.modules]
with open(report, "w") as fh:
    json.dump(seen, fh)
"""


def test_scipy_loads_only_with_the_first_quadrature(tmp_path):
    """In a fresh interpreter (pytest's warning filters import scipy.integrate
    into this one), importing the CLI and running simulate and a kernel table
    loads no scipy quadrature, root finder or special functions and no
    process pool; lifespan loads the first two."""
    cfg = write_json(tmp_path / "run.json", config())
    report = tmp_path / "modules.json"
    src = str(Path(flrw_dirac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(cfg), str(tmp_path), str(report)],
        env=env, check=True, capture_output=True, timeout=120)
    seen = json.loads(report.read_text())
    assert seen["import"] == [] and seen["simulate_kernel"] == []
    assert seen["lifespan"][:2] == ["scipy.integrate", "scipy.optimize"]


def test_lifespan_bad_case_is_config_error():
    assert main(["lifespan", "--ell", "0.5", "--alpha", "0.3", "--E1", "0"]) == 1


def test_classify(capsys):
    assert main(["classify", "--ell", "2.0", "--alpha", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "regime": "no_global_large_data",
        "branch": "ell>1:large_data",
        "threshold_value": 3.0,
    }


@pytest.mark.parametrize("argv, field", [
    (["classify", "--ell", "nan", "--alpha", "1.0"], "ell"),
    (["classify", "--ell", "0.5", "--alpha", "inf"], "alpha_exp"),
    (["lifespan", "--ell", "nan", "--alpha", "0.3"], "ell"),
    (["lifespan", "--ell", "0.5", "--alpha", "0.3", "--R", "inf"], "r_support"),
])
def test_non_finite_case_is_config_error(capsys, argv, field):
    assert main(argv) == 1
    assert f"config error: {field} must be finite" in capsys.readouterr().err


def test_classify_bad_case_is_config_error():
    assert main(["classify", "--ell", "0.5", "--alpha", "-1"]) == 1
