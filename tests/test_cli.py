"""End-to-end tests of the command line through ``flrw_dirac.cli.main``.

They pin what ``simulate`` writes to ``record.json`` and how ``verify``
reads it back, including every exit code of the verification path.
"""
import json

import pytest

from flrw_dirac.cli import main

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
    {"name": "forward_bound", "params": {"margin": 0.3}},
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


def simulate(tmp_path, tree, name="run"):
    cfg = write_json(tmp_path / f"{name}.json", tree)
    out = tmp_path / name
    code = main(["simulate", str(cfg), "--out", str(out)])
    return code, out / "record.json"


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
    assert by_name["forward_bound"]["fitted_constants"]["margin"] == 0.3
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


def test_verify_missing_series_is_runtime_error(tmp_path, plain_record, capsys):
    """A check whose series the record lacks fails as incompatible (exit 2);
    checks that do not need it still run."""
    tree = json.loads(plain_record.read_text())
    del tree["series"]["cone_leak"]
    record = write_json(tmp_path / "partial.json", tree)
    assert verify(tmp_path, record, [{"name": "energy_identity", "tolerance": 1e-4}]) == 0
    assert verify(tmp_path, record, [{"name": "cone", "tolerance": 1e-8}]) == 2
    assert "'cone_leak'" in capsys.readouterr().err
