"""End-to-end tests of the command line through ``flrw_dirac.cli.main``.

They pin what ``simulate`` writes to ``record.json`` and how ``verify``
reads it back, including every exit code of the verification path, and
drive ``kernel``, ``sweep``, ``lifespan`` and ``classify`` with their
exit codes.
"""
import csv
import json

import numpy as np
import pytest

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


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"name": "energy_identity", "tolerence": 1e-4}, "'tolerence'"),
        ({"name": "decay", "params": {"windw": [2.0, 3.0]}}, "'windw'"),
    ],
)
def test_verify_rejects_misspelled_keys(tmp_path, plain_record, capsys, spec, message):
    """A misspelled spec key or check parameter is a config error naming
    it, not a silent fall-back to the default."""
    assert verify(tmp_path, plain_record, [spec]) == 1
    assert message in capsys.readouterr().err


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
    [["--ell", "1.5", "--t", "2.0"], ["--ell", "0.5", "--t", "2.0", "--t0", "3.0"]],
)
def test_kernel_table_bad_input_is_config_error(tmp_path, extra):
    assert main(["kernel", *extra, "--out", str(tmp_path / "t.csv")]) == 1


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


def test_sweep_without_ell_is_config_error(tmp_path):
    grid = write_json(tmp_path / "sweep.json", {"alpha": [0.3]})
    assert main(["sweep", str(grid), "--out", str(tmp_path / "s.csv")]) == 1


def test_lifespan(capsys):
    assert main(["lifespan", "--ell", "0.5", "--alpha", "0.3", "--E1", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "no_global_any_size"
    assert out["solvability_threshold_E1"] == 0.0
    assert out["T_bu"] == pytest.approx(16.05, rel=1e-3)


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


def test_classify_bad_case_is_config_error():
    assert main(["classify", "--ell", "0.5", "--alpha", "-1"]) == 1
