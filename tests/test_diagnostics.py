import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from flrw_dirac.diagnostics import (
    IncompatibleRunError,
    _cumulative_integral,
    check_cone_containment,
    check_energy_identity,
    check_forward_bound,
    check_gamma2_conservation,
    check_lm_evolution,
    fit_decay,
    scattering_profile,
)
from flrw_dirac.field import Grid, l2_norm_sq
from flrw_dirac.initial_data import gaussian_bump, lm_constrained_bump, random_smooth
from flrw_dirac.models import Mass, ModelSpec, NonlinearitySpec, PotentialSpec
from flrw_dirac.solver import ConeSafetyError, SolverConfig, propagate
from flrw_dirac.spacetime import Cosmology

COSMO = Cosmology(2 / 3, 1.0)
GRID = Grid(dim=1, n=256, box_length=32.0)


def free_run(mass=1.0, cfl=0.1, lm_z=None, t_end=10.0, f0=None, nonlinearity=None):
    if f0 is None:
        f0 = gaussian_bump(GRID, amplitude=1.0, width=2.0, coeffs=(1.0, 0.6, 0.4j, 0.8))
    model = ModelSpec(
        mass=Mass(mass),
        nonlinearity=nonlinearity or NonlinearitySpec(),
    )
    cfg = SolverConfig(
        t_start=1.0, t_end=t_end, cfl=cfl, record_every=1, lm_z=lm_z
    )
    return propagate(f0, COSMO, model, cfg)


@pytest.fixture(scope="module")
def canary():
    return free_run(mass=1.0)


@pytest.fixture(scope="module")
def complex_mass_run():
    return free_run(mass=0.5j, cfl=0.05)


# --- decay fits -------------------------------------------------------------


def test_fit_decay_exact_power_law():
    t = np.linspace(1.0, 10.0, 200)
    fit = fit_decay(t, t**-1.0, (1.0, 10.0))
    assert fit.exponent == pytest.approx(-1.0, abs=1e-8)
    assert fit.residual < 1e-12


def test_fit_decay_constant_series():
    t = np.linspace(1.0, 10.0, 50)
    fit = fit_decay(t, np.full_like(t, 3.7), (2.0, 8.0))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_validation():
    t = np.linspace(1.0, 10.0, 50)
    with pytest.raises(ValueError):
        fit_decay(t, np.zeros_like(t), (2.0, 8.0))
    with pytest.raises(ValueError):
        fit_decay(t, t, (8.0, 2.0))
    with pytest.raises(ValueError):
        fit_decay(t, t, (20.0, 30.0))


def test_fit_decay_on_free_run(canary):
    fit = fit_decay(canary.series["times"], np.sqrt(canary.series["l2"]), (2.0, 10.0))
    assert fit.exponent == pytest.approx(-1.0, abs=1e-3)


# --- energy identity --------------------------------------------------------


def test_energy_identity_real_mass(canary):
    rep = check_energy_identity(canary, tol=1e-6)
    assert rep.passed and rep.max_mismatch < 1e-6


def test_energy_identity_complex_mass(complex_mass_run):
    rep = check_energy_identity(complex_mass_run, tol=1e-5)
    assert rep.passed


@pytest.mark.parametrize("model", [
    ModelSpec(mass=Mass(0.3 + 0.4j)),
    ModelSpec(mass=Mass(0.5), potential=PotentialSpec(
        kind="custom_matrix", amplitude=0.3, width=2.0,
        matrix=np.diag([1j, 1j, 0.5j, 0.5j]))),
], ids=["complex_mass", "absorbing_potential"])
def test_energy_identity_mismatch_is_of_the_integrators_order(model):
    """The balance law's time integrals are taken at RK4's order, so halving
    cfl shrinks the mismatch about 16x; with the trapezoid it shrank 4x,
    the quadrature's own error (2.6e-5 at cfl 0.2 with the complex mass)."""
    f0 = gaussian_bump(GRID, amplitude=1.0, width=2.0, coeffs=(1.0, 0.6, 0.4j, 0.8))
    mismatch = [
        check_energy_identity(propagate(
            f0, COSMO, model, SolverConfig(t_start=1.0, t_end=10.0, cfl=cfl),
            observables=("l2", "xi_int", "imv_int")), tol=1.0).max_mismatch
        for cfl in (0.2, 0.1, 0.05)]
    assert mismatch[0] < 2e-7
    for coarse, fine in zip(mismatch, mismatch[1:]):
        assert coarse > 12.0 * fine


def test_cumulative_integral_is_exact_for_cubics():
    """Exact for cubics on any spacing, a short step at a stop included
    (at the ends, inside, and backward in x); the trapezoid below 4
    samples."""
    rng = np.random.default_rng(1)
    x = 1.0 + np.cumsum(rng.uniform(0.5, 1.0, 12))
    cubic = np.polynomial.Polynomial([2.0, -1.0, 3.0, 0.5])
    antiderivative = cubic.integ()
    for grid in (x, np.append(x, x[-1] + 1e-9), np.sort(np.append(x, x[5] + 1e-9)),
                 np.insert(x, 1, x[0] + 1e-9), x[::-1]):
        exact = antiderivative(grid) - antiderivative(grid[0])
        got = _cumulative_integral(grid, cubic(grid))
        assert np.max(np.abs(got - exact)) < 1e-14 * np.max(np.abs(exact))
    assert np.array_equal(_cumulative_integral(x[:3], x[:3]),
                          [0.0, 0.5 * (x[0] + x[1]) * (x[1] - x[0]),
                           0.5 * (x[0] + x[1]) * (x[1] - x[0])
                           + 0.5 * (x[1] + x[2]) * (x[2] - x[1])])
    assert np.array_equal(_cumulative_integral(x[:1], x[:1]), [0.0])


def test_energy_identity_zero_field():
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=0.0, width=1.0)
    rec = propagate(
        f0, COSMO, ModelSpec(), SolverConfig(t_end=2.0, cfl=0.3, track_cone=False)
    )
    rep = check_energy_identity(rec, tol=1e-12)
    assert rep.passed and rep.max_mismatch == 0.0


def test_energy_identity_detects_tampering(canary):
    import dataclasses

    # a time-dependent distortion (a uniform rescale would cancel out)
    series = dict(canary.series)
    series["l2"] = series["l2"] * (1.0 + 1e-3 * (series["times"] - 1.0))
    tampered = dataclasses.replace(canary, series=series)
    rep = check_energy_identity(tampered, tol=1e-6)
    assert not rep.passed


def test_energy_identity_rejects_power_nonlinearity():
    grid = Grid(dim=1, n=64, box_length=16.0)
    f0 = gaussian_bump(grid, amplitude=0.1, width=1.0)
    model = ModelSpec(nonlinearity=NonlinearitySpec(kind="power_abs", alpha_exp=2.0))
    rec = propagate(
        f0, COSMO, model, SolverConfig(t_end=2.0, cfl=0.3, track_cone=False)
    )
    with pytest.raises(IncompatibleRunError):
        check_energy_identity(rec, tol=1e-6)


# --- gamma2 conservation ----------------------------------------------------


def test_gamma2_conservation(canary):
    rep = check_gamma2_conservation(canary, tol=1e-6)
    assert rep.passed


def test_gamma2_conservation_complex_mass(complex_mass_run):
    # the transpose bilinear is conserved for any complex mass
    rep = check_gamma2_conservation(complex_mass_run, tol=1e-5)
    assert rep.passed


# --- defect evolution -------------------------------------------------------


def test_lm_constant_for_generic_data_real_mass():
    rec = free_run(mass=1.0, cfl=0.1, lm_z=1.0 + 0j)
    rep = check_lm_evolution(rec, tol=1e-6)
    assert rep.passed and rep.fitted_constants["mode"] == "constant"


def test_lm_defect_free_data_stays_defect_free():
    f0 = lm_constrained_bump(GRID, amplitude=0.8, width=2.0, second_amplitude=0.5)
    nl = NonlinearitySpec(
        kind="lochak_form",
        alpha_coeffs=(1.0, 0.3),
        beta_coeffs=(0.2, 1.0),
    )
    rec = free_run(mass=1.0, cfl=0.25, lm_z=1.0 + 0j, f0=f0, nonlinearity=nl)
    assert np.max(rec.series["lm_defect"]) < 1e-8 * rec.series["l2"][0]


def test_lm_complex_mass_bound_for_defect_free_data():
    f0 = lm_constrained_bump(GRID, amplitude=0.8, width=2.0, second_amplitude=0.5)
    rec = free_run(mass=0.4j, cfl=0.1, lm_z=1.0 + 0j, f0=f0)
    rep = check_lm_evolution(rec, tol=1e-5)
    assert rep.passed and rep.fitted_constants["mode"] == "bounded"


def test_lm_complex_mass_equality_for_defect_free_data():
    """With defect-free data the defect equals 4 Im(m) t^(-3 ell) times the
    accumulated weighted scalar-density integral."""
    f0 = lm_constrained_bump(GRID, amplitude=0.8, width=2.0, second_amplitude=0.5)
    rec = free_run(mass=0.4j, cfl=0.05, lm_z=1.0 + 0j, f0=f0)
    ell = COSMO.ell
    tt = rec.series["times"]
    weighted = tt ** (3.0 * ell - 1.0) * rec.series["xi_int"]
    # the defect starts at zero, so a first-order (trapezoid) integral would
    # carry an O(dt) relative error on the first steps; use a cubic spline
    integral = CubicSpline(tt, weighted).antiderivative()(tt)
    predicted = 4.0 * 0.4 * tt ** (-3.0 * ell) * integral
    scale = np.maximum(np.abs(predicted), 1e-12 * rec.series["l2"][0])
    err = np.max(np.abs(rec.series["lm_defect"] - predicted) / scale)
    assert err < 1e-3


def test_lm_requires_recorded_defect(canary):
    with pytest.raises(IncompatibleRunError):
        check_lm_evolution(canary, tol=1e-6)


# --- cone and forward bound -------------------------------------------------


def test_cone_containment_check(canary):
    rep = check_cone_containment(canary, tol=1e-8)
    assert rep.passed


def test_forward_bound_free_run(canary):
    rep = check_forward_bound(canary)
    c = rep.fitted_constants["c_min"]
    assert rep.passed
    assert c >= 1.0  # the s = t pair forces at least 1
    assert c < 1.5


def test_forward_bound_stable_under_refinement(canary):
    grid2 = Grid(dim=1, n=512, box_length=32.0)
    f0 = gaussian_bump(grid2, amplitude=1.0, width=2.0, coeffs=(1.0, 0.6, 0.4j, 0.8))
    rec2 = propagate(
        f0,
        COSMO,
        ModelSpec(mass=Mass(1.0)),
        SolverConfig(t_end=10.0, cfl=0.1, record_every=2),
    )
    c1 = check_forward_bound(canary).fitted_constants["c_min"]
    c2 = check_forward_bound(rec2).fitted_constants["c_min"]
    assert abs(c1 - c2) <= 0.2 * max(c1, c2)


def test_forward_bound_with_decaying_source():
    grid = Grid(dim=1, n=64, box_length=16.0)
    f0 = gaussian_bump(grid, amplitude=0.5, width=1.5)
    x = grid.axis_coordinates()
    profile = np.exp(-(x**2))[None, :] * np.array([1.0, 0, 0, 0])[:, None]

    def source(t):
        return (profile / t**2).astype(complex)

    cfg = SolverConfig(t_end=6.0, cfl=0.2, record_every=2, track_cone=False)
    rec = propagate(f0, COSMO, ModelSpec(mass=Mass(1.0), source=source), cfg)
    rep = check_forward_bound(rec)
    assert rep.passed
    assert rep.fitted_constants["c_min"] < 3.0


# --- scattering -------------------------------------------------------------


def test_scattering_free_run_is_trivial():
    grid = Grid(dim=1, n=128, box_length=32.0)
    f0 = gaussian_bump(grid, amplitude=0.1, width=2.0)
    model = ModelSpec(mass=Mass(0.0))
    cfg = SolverConfig(t_end=6.0, cfl=0.3, record_every=10)
    res = scattering_profile(f0, COSMO, model, cfg, checkpoints=[3.0, 6.0], tol=1e-6)
    assert res.converged
    assert np.all(res.increments == 0.0)
    assert np.array_equal(res.psi_plus.data, f0.data)
    assert np.max(res.tail_norms) < 1e-7 * math.sqrt(l2_norm_sq(f0))


def test_scattering_free_model_steps_as_the_free_run(monkeypatch):
    """Without a nonlinearity there is no Duhamel sum, so the first run
    captures the checkpoints only; it then takes the free run's steps, and
    the tails are exactly 0."""
    import flrw_dirac.diagnostics as diagnostics

    captures = []
    original = diagnostics.propagate

    def recorded(*args, capture_times=None, **kwargs):
        captures.append(capture_times)
        return original(*args, capture_times=capture_times, **kwargs)

    monkeypatch.setattr(diagnostics, "propagate", recorded)
    grid = Grid(dim=1, n=256, box_length=48.0)
    f0 = gaussian_bump(grid, amplitude=0.1, width=2.0)
    checkpoints = [2.0, 4.0, 7.0, 10.0, 15.0, 20.0]
    res = scattering_profile(f0, COSMO, ModelSpec(mass=Mass(0.5)), SolverConfig(t_end=20.0),
                             checkpoints=checkpoints)
    assert captures[0] == checkpoints and captures[-1] == checkpoints
    assert np.all(res.tail_norms == 0.0)


def test_scattering_rejects_a_model_with_a_source():
    """The modified datum covers the nonlinear forcing only; a source would
    be dropped from the linear runs, so it is refused before any run."""
    grid = Grid(dim=1, n=32, box_length=16.0)
    f0 = gaussian_bump(grid, amplitude=0.1, width=2.0)
    model = ModelSpec(source=lambda t: np.zeros_like(f0.data))
    with pytest.raises(ValueError, match="source"):
        scattering_profile(f0, COSMO, model, SolverConfig(t_end=2.0), checkpoints=[2.0])


def test_scattering_small_data_cubic():
    grid = Grid(dim=1, n=256, box_length=48.0)
    f0 = gaussian_bump(grid, amplitude=0.02, width=2.0, coeffs=(1.0, 0.6, 0.4j, 0.8))
    model = ModelSpec(
        mass=Mass(0.0),
        nonlinearity=NonlinearitySpec(kind="power_abs", alpha_exp=2.0, sign=1),
    )
    cfg = SolverConfig(t_end=10.0, cfl=0.3, record_every=10)
    res = scattering_profile(
        f0, COSMO, model, cfg, checkpoints=[2.0, 4.0, 7.0, 10.0, 15.0, 20.0], tol=1e-6
    )
    assert res.converged
    assert np.all(np.diff(res.increments) < 0)
    n0 = math.sqrt(l2_norm_sq(f0))
    tail_at_10 = res.tail_norms[list(res.tail_times).index(10.0)]
    assert tail_at_10 < 1e-3 * n0


def test_scattering_violated_condition_reports_not_converged():
    """Below the admissible exponent the tail integral decays too slowly;
    the profile must report non-convergence without raising."""
    grid = Grid(dim=1, n=128, box_length=64.0)
    f0 = gaussian_bump(grid, amplitude=0.5, width=2.0)
    model = ModelSpec(
        mass=Mass(0.0),
        nonlinearity=NonlinearitySpec(kind="power_abs", alpha_exp=0.5, sign=-1),
    )
    cfg = SolverConfig(t_end=10.0, cfl=0.3, record_every=10)
    res = scattering_profile(
        f0, COSMO, model, cfg, checkpoints=[4.0, 8.0, 12.0, 16.0], tol=1e-6
    )
    assert not res.converged
    assert np.all(res.increments > 1e-6)


def test_scattering_guards_free_run_against_wraparound():
    """The free comparison run is not cone-tracked, so the up-front bound
    r0 + 2 |phi(t_last) - phi(t_start)| / a0 must raise on a box too small
    for it, even where the nonlinear run's own cone (r0 + |delta phi|) fits."""
    grid = Grid(dim=1, n=64, box_length=16.0)
    f0 = gaussian_bump(grid, amplitude=0.02, width=1.0)
    model = ModelSpec(
        mass=Mass(0.0),
        nonlinearity=NonlinearitySpec(kind="power_abs", alpha_exp=2.0, sign=1),
    )
    cfg = SolverConfig(t_end=8.0, cfl=0.3, record_every=10)
    with pytest.raises(ConeSafetyError):
        scattering_profile(f0, COSMO, model, cfg, checkpoints=[4.0, 8.0])
