import math

import numpy as np
import pytest

from flrw_dirac.field import Grid, SpinorField, l2_norm_sq
from flrw_dirac.gamma import BASIS
from flrw_dirac.initial_data import compact_bump, gaussian_bump, random_smooth
from flrw_dirac.models import Mass, ModelSpec, NonlinearitySpec, PotentialSpec
from flrw_dirac.solver import (
    CFLViolationError,
    ConeSafetyError,
    RunRecord,
    SolverConfig,
    propagate,
    rhs,
    step,
)
from flrw_dirac.spacetime import Cosmology

COSMO = Cosmology(2 / 3, 1.0)


def constant_field(grid, v, time=1.0):
    data = np.tile(
        np.asarray(v, dtype=complex).reshape((4,) + (1,) * grid.dim),
        (1,) + (grid.n,) * grid.dim,
    )
    return SpinorField(grid, data, time)


def exact_homogeneous(v, t, s, ell, m):
    """Spatially constant solution: damping plus mass rotation, diagonal in g0."""
    v = np.asarray(v, dtype=complex)
    ratio = t / s
    fac = ratio ** (-1.5 * ell)
    upper = fac * ratio ** (-1j * m) * v[:2]
    lower = fac * ratio ** (1j * m) * v[2:]
    return np.concatenate([upper, lower])


def test_rhs_spatially_constant():
    grid = Grid(dim=1, n=16, box_length=2 * np.pi)
    v = np.array([1.0, -0.5j, 0.25, 2.0])
    f = constant_field(grid, v, time=2.0)
    m = 0.7 + 0.3j
    out = rhs(f, 2.0, COSMO, ModelSpec(mass=Mass(m)))
    expected = -(1.0 / 2.0) * v - (1j * m / 2.0) * (BASIS.g0 @ v)
    assert np.allclose(out.data[:, 3], expected, atol=1e-13)


def test_rhs_zero_field():
    grid = Grid(dim=1, n=16, box_length=2 * np.pi)
    out = rhs(constant_field(grid, (0, 0, 0, 0)), 1.0, COSMO, ModelSpec())
    assert np.all(out.data == 0)


def test_rhs_single_mode_dispersion():
    """Massless static background: a mode of wavenumber q evolves with the
    transport matrix -i q alpha1, whose eigenfrequencies are +/- q."""
    grid = Grid(dim=1, n=64, box_length=2 * np.pi)
    q = 3.0
    x = grid.axis_coordinates()
    eigvals, eigvecs = np.linalg.eigh(BASIS.alpha1)
    v = eigvecs[:, 0]
    lam = eigvals[0]
    data = v[:, None] * np.exp(1j * q * x)[None, :]
    f = SpinorField(grid, data.astype(complex), 1.0)
    out = rhs(f, 1.0, Cosmology(0.0, 1.0), ModelSpec())
    assert np.allclose(out.data, -1j * q * lam * f.data, atol=1e-12)
    assert set(np.round(eigvals, 12)) == {-1.0, 1.0}


def test_step_matches_exact_solution_fourth_order():
    grid = Grid(dim=1, n=8, box_length=2 * np.pi)
    v = (0.3 + 0.1j, -0.2, 0.5j, 1.0)
    m = 0.7 + 0.2j
    model = ModelSpec(mass=Mass(m))

    def advance(dt, steps):
        f = constant_field(grid, v, time=1.0)
        for _ in range(steps):
            f = step(f, dt, COSMO, model)
        return f

    errs = []
    for dt, steps in ((0.05, 20), (0.025, 40)):
        f = advance(dt, steps)
        exact = exact_homogeneous(v, f.time, 1.0, 2 / 3, m)
        errs.append(np.max(np.abs(f.data[:, 0] - exact)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3


def test_step_dt_to_zero_is_identity():
    grid = Grid(dim=1, n=16, box_length=2 * np.pi)
    f = random_smooth(grid, amplitude=1.0, seed=1)
    out = step(f, 1e-12, COSMO, ModelSpec(mass=Mass(1.0)))
    assert np.allclose(out.data, f.data, atol=1e-10)


def test_step_cfl_guard():
    grid = Grid(dim=1, n=16, box_length=2 * np.pi)
    f = random_smooth(grid, amplitude=1.0, seed=1)
    with pytest.raises(CFLViolationError):
        step(f, 10.0, COSMO, ModelSpec(), cfl=0.5)


def test_propagate_zero_data():
    grid = Grid(dim=1, n=16, box_length=2 * np.pi)
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.4, track_cone=False)
    rec = propagate(constant_field(grid, (0, 0, 0, 0)), COSMO, ModelSpec(), cfg)
    assert rec.completed and not rec.blown_up
    assert np.all(rec.series["l2"] == 0)
    assert np.all(np.diff(rec.series["times"]) > 0)


def test_propagate_free_energy_decay():
    grid = Grid(dim=1, n=256, box_length=32.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=2.0)
    cfg = SolverConfig(t_start=1.0, t_end=10.0, cfl=0.15, record_every=10)
    rec = propagate(f0, COSMO, ModelSpec(mass=Mass(1.0)), cfg)
    weighted = rec.series["l2"] * rec.series["times"] ** 2
    assert np.max(np.abs(weighted / weighted[0] - 1.0)) < 1e-8


def test_propagator_group_property():
    grid = Grid(dim=1, n=64, box_length=16.0)
    f0 = random_smooth(grid, amplitude=0.5, seed=8)
    model = ModelSpec(mass=Mass(0.5 + 0.2j))

    def flow(f, t0, t1):
        cfg = SolverConfig(
            t_start=t0, t_end=t1, cfl=0.2, record_every=1000, track_cone=False
        )
        return propagate(f, COSMO, model, cfg).final

    once = flow(flow(f0, 1.0, 2.0), 2.0, 4.0)
    direct = flow(f0, 1.0, 4.0)
    rel = np.sqrt(
        np.sum(np.abs(once.data - direct.data) ** 2)
        / np.sum(np.abs(direct.data) ** 2)
    )
    assert rel < 1e-7


def test_backward_propagation_inverts_forward():
    grid = Grid(dim=1, n=64, box_length=16.0)
    f0 = random_smooth(grid, amplitude=0.5, seed=9)
    model = ModelSpec(mass=Mass(1.0))
    fwd_cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.2, record_every=1000,
                           track_cone=False)
    fwd = propagate(f0, COSMO, model, fwd_cfg).final
    back_cfg = SolverConfig(t_start=3.0, t_end=1.0, cfl=0.2, record_every=1000,
                            track_cone=False)
    back = propagate(fwd, COSMO, model, back_cfg).final
    rel = np.sqrt(np.sum(np.abs(back.data - f0.data) ** 2) / np.sum(np.abs(f0.data) ** 2))
    assert rel < 1e-6


def test_duhamel_manufactured_solution():
    """Prescribe the residual of g(t) e^{iqx} v as a source; the integrator
    must track the manufactured solution."""
    grid = Grid(dim=1, n=64, box_length=2 * np.pi)
    q = 2.0
    m = 0.8
    ell = COSMO.ell
    x = grid.axis_coordinates()
    v = np.array([0.6, -0.2j, 0.3, 0.9], dtype=complex)
    wave = np.exp(1j * q * x)

    def g(t):
        return math.exp(-0.3 * (t - 1.0)) / t

    def dg(t):
        return -0.3 * g(t) - math.exp(-0.3 * (t - 1.0)) / t**2

    def manufactured(t):
        return g(t) * v[:, None] * wave[None, :]

    a1v = BASIS.alpha1 @ v
    g0v = BASIS.g0 @ v

    def source(t):
        return (
            (dg(t) + 1.5 * ell / t * g(t)) * v[:, None]
            + t ** (-ell) * g(t) * 1j * q * a1v[:, None]
            + 1j * m / t * g(t) * g0v[:, None]
        ) * wave[None, :]

    f0 = SpinorField(grid, manufactured(1.0), 1.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.1, record_every=1000,
                       track_cone=False)
    rec = propagate(f0, COSMO, ModelSpec(mass=Mass(m)), cfg, source=source)
    expected = manufactured(3.0)
    rel = np.sqrt(
        np.sum(np.abs(rec.final.data - expected) ** 2) / np.sum(np.abs(expected) ** 2)
    )
    assert rel < 1e-6


def test_duhamel_zero_source_reduces_to_propagate():
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = random_smooth(grid, amplitude=0.5, seed=12)
    model = ModelSpec(mass=Mass(0.5))
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.3, record_every=1000,
                       track_cone=False)
    a = propagate(f0, COSMO, model, cfg).final
    b = propagate(f0, COSMO, model, cfg, source=lambda t: np.zeros_like(f0.data)).final
    assert np.allclose(a.data, b.data, atol=1e-14)


def test_duhamel_linearity():
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = constant_field(grid, (0, 0, 0, 0))
    model = ModelSpec(mass=Mass(0.5))
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.3, record_every=1000,
                       track_cone=False, blowup_factor=math.inf)
    x = grid.axis_coordinates()
    s1 = lambda t: (np.sin(x) / t)[None, :] * np.array([1, 0, 0, 0])[:, None]
    s2 = lambda t: (np.cos(2 * x) * t)[None, :] * np.array([0, 1j, 0, 0])[:, None]
    both = lambda t: s1(t) + s2(t)
    r1 = propagate(f0, COSMO, model, cfg, source=s1).final
    r2 = propagate(f0, COSMO, model, cfg, source=s2).final
    r12 = propagate(f0, COSMO, model, cfg, source=both).final
    assert np.allclose(r12.data, r1.data + r2.data, atol=1e-12)


def test_blowup_detection_and_linear_never_flags():
    grid = Grid(dim=1, n=128, box_length=8.0)
    f0 = compact_bump(grid, amplitude=3.0, width=1.0, coeffs=(1, 0, 0, 0))
    nl = NonlinearitySpec(kind="blowup_G", alpha_exp=2.0, c0=1.0)
    cfg = SolverConfig(t_start=1.0, t_end=4.0, cfl=0.3, record_every=1,
                       on_cone_violation="stop")
    rec = propagate(f0, Cosmology(0.0, 1.0), ModelSpec(nonlinearity=nl), cfg)
    assert rec.blown_up and rec.blowup_time is not None
    assert rec.blowup_time < 4.0
    assert np.all(np.isfinite(rec.series["l2"]))

    lin = propagate(f0, Cosmology(0.0, 1.0), ModelSpec(), cfg)
    assert not lin.blown_up


def test_cone_violation_error_and_stop():
    grid = Grid(dim=1, n=64, box_length=8.0)
    f0 = compact_bump(grid, amplitude=1.0, width=1.5, coeffs=(1, 0, 0, 0))
    cfg = SolverConfig(t_start=1.0, t_end=9.0, cfl=0.3, record_every=5)
    with pytest.raises(ConeSafetyError):
        propagate(f0, Cosmology(0.0, 1.0), ModelSpec(), cfg)
    cfg2 = SolverConfig(t_start=1.0, t_end=9.0, cfl=0.3, record_every=5,
                        on_cone_violation="stop")
    rec = propagate(f0, Cosmology(0.0, 1.0), ModelSpec(), cfg2)
    assert rec.cone_violation and not rec.completed


def test_capture_times():
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = random_smooth(grid, amplitude=0.3, seed=2)
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.3, record_every=1000,
                       track_cone=False)
    rec = propagate(f0, COSMO, ModelSpec(), cfg, capture_times=[1.25, 1.5, 2.0])
    assert set(rec.captured) == {1.25, 1.5, 2.0}
    for tc, f in rec.captured.items():
        assert f.time == pytest.approx(tc, abs=1e-9)


def test_record_roundtrip_through_json():
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = random_smooth(grid, amplitude=0.3, seed=2)
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.3, record_every=2,
                       track_cone=False, lm_z=1.0 + 0j)
    rec = propagate(f0, COSMO, ModelSpec(mass=Mass(0.5 + 0.1j)), cfg)
    back = RunRecord.from_dict(rec.to_dict())
    assert np.array_equal(back.series["times"], rec.series["times"])
    assert np.array_equal(back.series["gamma2"], rec.series["gamma2"])
    assert np.array_equal(back.series["lm_defect"], rec.series["lm_defect"])
    assert back.mass == rec.mass
    assert back.cosmology == rec.cosmology


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_start=0.5, t_end=2.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl=1.5)
    with pytest.raises(ValueError):
        SolverConfig(method="euler")
    with pytest.raises(ValueError):
        SolverConfig(record_every=0)


def test_config_coerces_numpy_times_to_float():
    """Numpy scalar times (quadrature nodes, say) are stored as builtin
    floats, so a backward run with capture times sorts them without error."""
    cfg = SolverConfig(t_start=np.float64(2.5), t_end=np.float64(1.0), cfl=0.3,
                       record_every=1000, track_cone=False)
    assert type(cfg.t_start) is float and type(cfg.t_end) is float
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = random_smooth(grid, amplitude=0.3, seed=4)
    f0 = f0.with_data(f0.data, time=np.float64(2.5))
    rec = propagate(f0, COSMO, ModelSpec(mass=Mass(0.5)), cfg,
                    capture_times=[np.float64(2.0), np.float64(1.5)])
    assert rec.completed
    assert set(rec.captured) == {2.0, 1.5}


def test_propagate_with_potential_records_its_invariants():
    """A nonzero potential reaches the recorded run: a scalar bump is
    Hermitian but breaks the gamma2 condition, and a non-self-adjoint
    matrix drives the Im V term that closes the L2 balance law."""
    from flrw_dirac.diagnostics import check_energy_identity

    grid = Grid(dim=1, n=64, box_length=16.0)
    f0 = gaussian_bump(grid, amplitude=0.5, width=1.5)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.1)
    cosmo = Cosmology(0.5, 1.0)

    bump = PotentialSpec(kind="scalar_bump", amplitude=0.8, width=2.0)
    rec = propagate(f0, cosmo, ModelSpec(mass=Mass(0.3), potential=bump), cfg)
    assert rec.completed
    assert rec.potential_gamma2_ok is False
    assert np.all(rec.series["imv_int"] == 0.0)

    lossy = tuple(tuple(0.2j if i == j else 0.0 for j in range(4)) for i in range(4))
    absorbing = PotentialSpec(kind="custom_matrix", amplitude=1.0, width=2.0, matrix=lossy)
    rec = propagate(f0, cosmo, ModelSpec(mass=Mass(0.3), potential=absorbing), cfg)
    assert rec.completed
    assert np.all(rec.series["imv_int"] > 0.0)
    assert check_energy_identity(rec, 1e-4).passed
