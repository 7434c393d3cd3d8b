import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flrw_dirac.blowup import BlowupCase, comparison_check
from flrw_dirac.field import (
    Grid,
    SpinorField,
    _derivative_wavenumbers,
    _recordable_norm_sq,
    l2_norm_sq,
)
from flrw_dirac.gamma import BASIS
from flrw_dirac.initial_data import compact_bump, gaussian_bump, random_smooth
from flrw_dirac.kernels import KernelEval, reconstruct_free
from flrw_dirac.models import (
    Mass,
    ModelSpec,
    NonlinearitySpec,
    PotentialSpec,
    hyperbolic_rhs_nonlinearity,
    potential_field,
    power_flow,
)
import flrw_dirac.solver as solver_module
from flrw_dirac.solver import (
    _FLAGS,
    _META,
    ConeSafetyError,
    SCHEMA,
    TIME_AXIS,
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


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_rhs_rejects_a_time_outside_the_domain(t):
    grid = Grid(dim=1, n=16, box_length=2 * np.pi)
    with pytest.raises(ValueError, match="requires t > 0"):
        rhs(constant_field(grid, (1, 0, 0, 0)), t, COSMO, ModelSpec())


def reference_rhs(f, t, cosmo, model):
    """The evolved right side written out in physical space, term by term:
    transport through the alpha matrices, damping, mass through g0, then
    potential, nonlinearity and source."""
    grid = f.grid
    axes = grid.spatial_axes
    hat = np.fft.fftn(f.data, axes=axes)
    ks = _derivative_wavenumbers(grid)
    acc = sum(
        (1j * ks[j]) * np.einsum("ab,b...->a...", BASIS.alphas[j], hat)
        for j in range(grid.dim)
    )
    out = (-1.0 / cosmo.scale(t)) * np.fft.ifftn(acc, axes=axes)
    out -= (1.5 * cosmo.ell / t) * f.data
    m = complex(model.mass.m)
    out -= (1j * m / t) * np.einsum("ab,b...->a...", BASIS.g0, f.data)
    vf = potential_field(model.potential, grid)
    if vf is not None:
        out += 1j * np.einsum("ab...,b...->a...", vf, f.data)
    if not model.nonlinearity.is_none:
        out += hyperbolic_rhs_nonlinearity(model.nonlinearity, f)
    if model.source is not None:
        out += model.source(t)
    return out


def reference_step(f, dt, cosmo, model):
    t = f.time

    def k(data, t_stage):
        return reference_rhs(f.with_data(data), t_stage, cosmo, model)

    k1 = k(f.data, t)
    k2 = k(f.data + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = k(f.data + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = k(f.data + dt * k3, t + dt)
    return f.data + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_split_step(f, dt, cosmo, model):
    """The Strang step composed from its pieces written out per mode: the
    transport and damping, then the mass, as matrix exponentials of their
    generators (scipy's expm over the alpha matrices and g0), around the
    pointwise flow of the nonlinearity."""
    from scipy.linalg import expm

    axes = f.grid.spatial_axes
    ks = np.broadcast_arrays(*_derivative_wavenumbers(f.grid))
    m = complex(model.mass.m)

    def transport(data, ta, tb):
        c = math.copysign(cosmo.travel_distance(max(ta, tb), min(ta, tb)), tb - ta)
        gen = sum(-1j * c * k[..., None, None] * BASIS.alphas[j] for j, k in enumerate(ks))
        hat = np.einsum("...ab,b...->a...", expm(gen), np.fft.fftn(data, axes=axes))
        return (ta / tb) ** (1.5 * cosmo.ell) * np.fft.ifftn(hat, axes=axes)

    def mass(data, ta, tb):
        return np.einsum("ab,b...->a...", expm(-1j * m * math.log(tb / ta) * BASIS.g0), data)

    t, mid = f.time, f.time + 0.5 * dt
    data = mass(transport(f.data, t, mid), t, mid)
    nl = model.nonlinearity
    if not nl.is_none:
        data = power_flow(nl.alpha_exp, nl.power_coefficient, data, dt)
    return transport(mass(data, mid, t + dt), mid, t + dt)


def reference_suzuki_step(f, dt, cosmo, model):
    """Suzuki's step: reference_split_step over p dt, p dt, (1 - 4p) dt,
    p dt and p dt in turn, p = 1/(4 - 4^(1/3))."""
    p = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    t = f.time
    bounds = [t + c * dt for c in (0.0, p, 2.0 * p, 1.0 - 2.0 * p, 1.0 - p)] + [t + dt]
    for a, b in zip(bounds, bounds[1:]):
        f = f.with_data(reference_split_step(f, b - a, cosmo, model), b)
    return f.data


def _split_step(f, dt, cosmo, model):
    """One split step: a split run of a stack of one, of one step from
    f.time to f.time + dt (cfl 0.9 does not bind on the steps the tests
    take)."""
    cfg = SolverConfig(t_start=f.time, t_end=f.time + dt, cfl=0.9, track_cone=False)
    (rec,) = propagate(f, cosmo, [model], cfg, observables=())
    assert len(rec.series[TIME_AXIS]) == 2
    return rec.final


def _rel_max(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


_GRIDS = {
    "3d": Grid(dim=3, n=16, box_length=8.0),  # one slab of the symbol pass
    "3d32": Grid(dim=3, n=32, box_length=8.0),  # two slabs: radial factors gathered per slab
    "1d": Grid(dim=1, n=64, box_length=16.0),
}


def _reference_case(dim, terms):
    grid = _GRIDS[dim]
    f = random_smooth(grid, amplitude=0.5, seed=21, time=1.5)
    kwargs = {"mass": Mass(0.6 + 0.25j)}
    if terms in ("potential", "all"):
        kwargs["potential"] = PotentialSpec(kind="scalar_bump", amplitude=0.7, width=1.5)
    if terms in ("nonlinear", "all"):
        kwargs["nonlinearity"] = NonlinearitySpec(kind="blowup_G", alpha_exp=2.0, c0=1.0)
    if terms in ("source", "all"):
        shape = random_smooth(grid, amplitude=0.3, seed=22).data
        kwargs["source"] = lambda t: math.sin(2.0 * t) * shape
    return f, ModelSpec(**kwargs)


@pytest.mark.parametrize("dim", ["3d", "3d32", "1d"])
@pytest.mark.parametrize("terms, ell", [
    pytest.param(terms, 0.5, id=terms)
    for terms in ("mass", "potential", "nonlinear", "source", "all")
] + [
    pytest.param("mass", ell, id=f"mass-ell{ell:g}") for ell in (1.0, 2.0)
])
def test_rhs_and_step_match_the_physical_space_formula(dim, terms, ell):
    """rhs and one RK4 step (forward and backward) agree with the term-by-term
    physical-space formula to rounding, for a complex mass alone and with a
    potential, a nonlinearity, a source, or all of them.  The mass-only
    cases also run at ell = 1, 2; at n = 32 the symbol pass runs over two
    slabs."""
    f, model = _reference_case(dim, terms)
    cosmo = Cosmology(ell, 1.0)
    expected = reference_rhs(f, 1.7, cosmo, model)
    assert _rel_max(rhs(f, 1.7, cosmo, model).data, expected) < 1e-12
    dt = 0.2 * f.grid.h * cosmo.scale(f.time)
    for h in (dt, -dt):
        out = step(f, h, cosmo, model)
        assert out.time == f.time + h
        assert _rel_max(out.data, reference_step(f, h, cosmo, model)) < 1e-12


def test_free_step_builds_no_full_size_multiplier(peak_allocation):
    """With the caches warm, one free 3D split step at n=32 and the field it
    builds allocate the spectrum and the field's data (two spinors), plus
    the symbol pass's slab scratch and the inverse transform's: at most 2.25
    times the spinor's bytes.  The factors of Suzuki's step are radial; the
    four full-size multipliers of a per-mode product would add a spinor's
    bytes."""
    grid = Grid(dim=3, n=32, box_length=8.0)
    f = random_smooth(grid, amplitude=0.5, seed=21, time=1.5)
    state = solver_module._SplitState.start(f, Cosmology(0.5, 1.0), [ModelSpec(mass=Mass(0.5))])

    def free_step():
        return state.advance(0.01)[0].fields

    free_step()  # warms the caches
    assert peak_allocation(free_step) <= 2.25 * f.data.nbytes


def test_step_carries_the_spectrum_of_its_result():
    """The field step returns holds its Fourier coefficients, with and without
    local terms; with_data drops them."""
    for terms in ("mass", "all"):
        f, model = _reference_case("3d", terms)
        out = step(f, 0.01, COSMO, model)
        assert "spectrum" in vars(out)
        expected = np.fft.fftn(out.data, axes=out.grid.spatial_axes)
        assert _rel_max(out.spectrum, expected) < 1e-13
        assert not out.spectrum.flags.writeable
    fresh = out.with_data(2.0 * out.data)
    assert "spectrum" not in vars(fresh)
    assert np.array_equal(fresh.spectrum, np.fft.fftn(fresh.data, axes=(1, 2, 3)))


def _count_transforms(monkeypatch) -> dict:
    """Count the calls of the field transform pair, at every name it is
    imported under, and of numpy's transforms; returns the live counts."""
    import flrw_dirac.field as field_module
    import flrw_dirac.solver as solver_module

    counts = {"_fftn": 0, "_ifftn": 0, "numpy": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_fftn", "_ifftn"):
        wrapped = counted(name, getattr(field_module, name))
        for module in (field_module, solver_module):
            monkeypatch.setattr(module, name, wrapped)
    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted("numpy", getattr(np.fft, name)))
    return counts


def test_linear_propagate_makes_one_forward_fft(monkeypatch):
    """A linear run transforms its start field once and each new state once
    back; neither the steps nor the recorder recompute a spectrum, and no
    transform bypasses the field pair.  A 3D field transform is one numpy
    call per spinor component."""
    counts = _count_transforms(monkeypatch)
    for grid, numpy_per_transform in ((Grid(dim=3, n=16, box_length=16.0), 4),
                                      (Grid(dim=1, n=64, box_length=16.0), 1)):
        f0 = compact_bump(grid, 1.0, 2.0, time=1.0)
        cfg = SolverConfig(t_start=1.0, t_end=1.5, cfl=0.1, record_every=1, sobolev_order=2)
        counts.update(_fftn=0, _ifftn=0, numpy=0)
        rec = propagate(f0, COSMO, ModelSpec(mass=Mass(0.5 + 0.1j)), cfg)
        steps = len(rec.series["times"]) - 1
        assert rec.completed and steps > 3
        assert counts == {"_fftn": 1, "_ifftn": steps,
                          "numpy": numpy_per_transform * (1 + steps)}


def test_nonlinear_1d_step_makes_eight_transforms(monkeypatch):
    """On a field that carries its spectrum, an RK4 step with a local term
    transforms that term at each of the 4 stages, the last 3 stage fields
    back, and the result back."""
    grid = Grid(dim=1, n=256, box_length=16.0)
    f = compact_bump(grid, 2.0, 1.0, coeffs=(1, 0, 0, 0))
    f.spectrum  # noqa: B018 -- computed before counting, as a carried spectrum
    model = ModelSpec(nonlinearity=NonlinearitySpec(kind="blowup_G", alpha_exp=1.0, c0=1.0))
    counts = _count_transforms(monkeypatch)
    step(f, 0.01, Cosmology(0.5, 1.0), model)
    assert counts == {"_fftn": 4, "_ifftn": 4, "numpy": 8}


# --- the split step ------------------------------------------------------------


def _split_case(kind):
    """A 1D Gaussian on n=128 with a complex mass and a defocusing power_abs
    or a focusing blowup_G term, small enough not to blow up by t = 2."""
    grid = Grid(dim=1, n=128, box_length=16.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0.5, 0.2j, 0.3))
    nonlinearity = (NonlinearitySpec(kind="power_abs", sign=-1, alpha_exp=1.0)
                    if kind == "power_abs"
                    else NonlinearitySpec(kind="blowup_G", c0=0.5, alpha_exp=2.0))
    return f0, ModelSpec(mass=Mass(0.3 + 0.2j), nonlinearity=nonlinearity)


def _run_to(f0, model, t_end, dt_max):
    """The end state of a run of model: RK4 for a nonlinear model alone,
    the split for a stack of one."""
    cfg = SolverConfig(t_start=f0.time, t_end=t_end, cfl=0.9, dt_max=dt_max, track_cone=False)
    rec = propagate(f0, Cosmology(0.5, 1.0), model, cfg, observables=())
    return (rec if isinstance(model, ModelSpec) else rec[0]).final


@pytest.mark.parametrize("kind", ["power_abs", "blowup_G"])
def test_split_step_is_second_order(kind):
    """Against a fine RK4 run, the split error shrinks about 4x per halving
    of dt_max (binding over the whole run)."""
    f0, model = _split_case(kind)
    reference = _run_to(f0, model, 2.0, 1e-3).data
    errs = [np.linalg.norm(_run_to(f0, [model], 2.0, dt).data - reference)
            for dt in (0.02, 0.01, 0.005)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 < coarse / fine < 4.5


@pytest.mark.parametrize("dim", ["3d", "1d"])
@pytest.mark.parametrize("terms", ["mass", "nonlinear"])
def test_split_step_is_the_stated_composition(dim, terms):
    """A split step, forward and backward, is transport dt/2, mass dt/2,
    the nonlinearity dt, mass dt/2 and transport dt/2, in that order: mass
    and transport do not commute, so another order gives another step.
    Without the nonlinearity it is Suzuki's composition of five of them."""
    f, model = _reference_case(dim, terms)
    cosmo = Cosmology(0.5, 1.0)
    dt = 0.2 * f.grid.h * cosmo.scale(f.time)
    reference = reference_suzuki_step if terms == "mass" else reference_split_step
    for h in (dt, -dt):
        out = _split_step(f, h, cosmo, model)
        assert out.time == f.time + h
        assert _rel_max(out.data, reference(f, h, cosmo, model)) < 1e-12


def test_split_backward_run_returns_to_the_start():
    """Each split step is undone by the step back over the same interval, so
    with dt_max binding (the same time grid both ways) a defocusing run
    forward and back returns to its start to rounding."""
    f0, model = _split_case("power_abs")
    back = _run_to(_run_to(f0, [model], 2.0, 1 / 64), [model], 1.0, 1 / 64)
    assert back.time == 1.0
    assert _rel_max(back.data, f0.data) < 1e-12


@pytest.mark.parametrize("ell", [0.5, 0.25])
def test_massless_free_split_run_is_the_closed_form(ell):
    """Without mass and local terms each piece of the split step is exact,
    so the run equals the closed-form propagator of kernels, whatever the
    step."""
    grid = Grid(dim=3, n=16, box_length=16.0)
    f0 = compact_bump(grid, 1.0, 3.0, coeffs=(1.0, 0.6, 0.4j, 0.8))
    cosmo = Cosmology(ell, 1.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, track_cone=False)
    out = propagate(f0, cosmo, ModelSpec(), cfg, observables=()).final
    expected = reconstruct_free(f0, 3.0, KernelEval(cosmo, 0.0, 1.0)).data
    assert np.linalg.norm(out.data - expected) < 1e-13 * np.linalg.norm(expected)


def test_free_run_is_fourth_order_against_the_closed_form():
    """A free run with a real mass takes Suzuki's step: its error against the
    closed-form propagator of kernels shrinks at least 12x per halving of
    cfl (16x for 4th order; about 15.6x and 16.7x here)."""
    grid = Grid(dim=3, n=16, box_length=10.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=0.9, coeffs=(1, 0.5, 0.3j, -0.2))
    cosmo = Cosmology(0.5, 1.0)
    expected = reconstruct_free(f0, 2.0, KernelEval(cosmo, 0.3, 1.0)).data
    errs = []
    for cfl in (0.6, 0.3, 0.15):
        cfg = SolverConfig(t_end=2.0, cfl=cfl, track_cone=False)
        out = propagate(f0, cosmo, ModelSpec(mass=Mass(0.3)), cfg, observables=()).final
        errs.append(np.linalg.norm(out.data - expected) / np.linalg.norm(expected))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 12.0


@pytest.mark.parametrize("ell", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("t_end", [10.0, 100.0])
def test_free_run_keeps_the_energy_identity_at_large_ell(ell, t_end):
    """For ell > 1 the step dt = cfl h t^ell outgrows t, and the free
    coefficients -3 ell/2t and -i m/t leave RK4's stability region.  The
    exact pieces of a free run keep E(t) t^(3 ell) = E(1) for a real mass
    to rounding at any step."""
    f0 = gaussian_bump(Grid(dim=1, n=256, box_length=32.0), amplitude=1.0, width=1.0)
    cfg = SolverConfig(t_end=t_end, cfl=0.25, track_cone=False)
    rec = propagate(f0, Cosmology(ell, 1.0), ModelSpec(mass=Mass(0.5)), cfg, observables=("l2",))
    times, e = rec.series[TIME_AXIS], rec.series["l2"]
    assert rec.completed and times[-1] == t_end
    assert np.max(np.abs(e * times ** (3.0 * ell) / e[0] - 1.0)) <= 1e-12


def _fused_case(dim, kind, t0, t1):
    """A split run of a bump under power_abs or blowup_G with mass 0.5i on
    ell = 2/3, where the CFL step a(t) cfl h changes every step, from t0 to
    t1 (either order), short of blow-up."""
    grid = (Grid(dim=1, n=256, box_length=16.0) if dim == "1d"
            else Grid(dim=3, n=16, box_length=8.0))
    f0 = compact_bump(grid, 1.0, 1.5, coeffs=(1, 0.5, 0.2j, 0.3), time=t0)
    nonlinearity = (NonlinearitySpec(kind="power_abs", sign=-1, alpha_exp=1.0)
                    if kind == "power_abs"
                    else NonlinearitySpec(kind="blowup_G", c0=0.5, alpha_exp=2.0))
    cfg = SolverConfig(t_start=t0, t_end=t1, cfl=0.2, track_cone=False)
    return f0, ModelSpec(mass=Mass(0.5j), nonlinearity=nonlinearity), cfg


@pytest.mark.parametrize("dim", ["1d", "3d"])
@pytest.mark.parametrize("kind", ["power_abs", "blowup_G"])
@pytest.mark.parametrize("t0, t1", [(1.0, 1.4), (1.4, 1.0)], ids=["forward", "backward"])
def test_fused_split_run_is_a_chain_of_split_steps(dim, kind, t0, t1):
    """A split run passes from mid-step to mid-step, fusing each step's
    closing half with the next one's opening half; its end state is that of
    one-step split runs chained over the run's time grid."""
    f0, model, cfg = _fused_case(dim, kind, t0, t1)
    (rec,) = propagate(f0, COSMO, [model], cfg, observables=())
    times = rec.series[TIME_AXIS]
    dts = np.diff(times)
    assert rec.completed and not rec.blown_up and len(times) > 4
    assert np.ptp(np.abs(dts[:-1])) > 0.05 * np.abs(dts).max()  # dt moves each step
    f = f0
    for dt in dts:
        f = _split_step(f, dt, COSMO, model)
    assert f.time == pytest.approx(rec.final.time, rel=1e-14)
    assert _rel_max(rec.final.data, f.data) < 1e-12


def test_split_run_does_not_depend_on_what_it_builds():
    """The field at a step boundary is built only for what reads it, and
    building it never feeds back: the final state and every series are
    bit-identical with record_every 1 and 3, and with and without a capture
    time on the run's time grid.  (dt_max binds at a power of two, so every
    time is exact and the capture changes no step.)"""
    f0, model, cfg = _fused_case("1d", "blowup_G", 1.0, 1.5)
    cfg = dataclasses.replace(cfg, dt_max=2.0**-7, track_cone=True)

    def run(**kwargs):
        capture_times = kwargs.pop("capture_times", ())
        return propagate(f0, COSMO, [model], dataclasses.replace(cfg, **kwargs),
                         capture_times=capture_times)[0]

    every, sparse, captures = run(), run(record_every=3), run(capture_times=(1.25,))
    assert every.completed and set(every.series) >= {"l2", "xi_int", "cone_leak", "sobolev_k"}
    times = list(every.series[TIME_AXIS])
    for other in (sparse, captures):
        picked = [times.index(t) for t in other.series[TIME_AXIS]]
        for name, values in other.series.items():
            assert np.array_equal(values, every.series[name][picked])
        assert np.array_equal(other.final.data, every.final.data)
    assert len(sparse.series[TIME_AXIS]) < len(times)
    assert np.array_equal(captures.captured[1.25].data, run(t_end=1.25).final.data)


def test_split_run_reads_the_norm_off_the_data_after_the_pointwise_map(monkeypatch):
    """With Im m = 0.5 the mass flow changes the norm.  The l2 a split run
    records, read off the data after the pointwise map, is the squared L2
    norm of the field built at every recorded time, all observables
    recorded."""
    monkeypatch.setitem(solver_module.OBSERVABLES, "built_l2", lambda s: l2_norm_sq(s.f))
    for dim in ("1d", "3d"):
        f0, model, cfg = _fused_case(dim, "blowup_G", 1.0, 1.5)
        (rec,) = propagate(f0, COSMO, [model], cfg)
        assert rec.completed and len(rec.series[TIME_AXIS]) > 4
        l2, built = rec.series["l2"], rec.series["built_l2"]
        assert np.max(np.abs(l2 - built) / built) < 1e-13
        assert np.ptp(l2) > 0.01 * l2[0]


def test_split_run_makes_two_transforms_a_step(monkeypatch):
    """A split run of N steps transforms its start field once, into physical
    space and back around each pointwise map (2 per step), and makes one
    inverse transform per field it builds: the final state only, when it
    records l2 alone, and each recorded state besides the start, when it
    records all observables (their spectra come with the built fields)."""
    counts = _count_transforms(monkeypatch)
    for observables in (("l2",), None):
        f0, model, cfg = _fused_case("1d", "blowup_G", 1.0, 1.5)  # no spectrum yet
        counts.update(_fftn=0, _ifftn=0, numpy=0)
        (rec,) = propagate(f0, COSMO, [model], cfg, observables=observables)
        n = len(rec.series[TIME_AXIS]) - 1
        built = 1 if observables else n
        assert rec.completed and n > 4
        assert counts == {"_fftn": 1 + n, "_ifftn": n + built, "numpy": 1 + 2 * n + built}


@pytest.mark.parametrize("model, what", [
    (ModelSpec(nonlinearity=NonlinearitySpec(kind="lochak_form", alpha_coeffs=(1.0, 0.0))),
     "the nonlinearity 'lochak_form'"),
    (ModelSpec(potential=PotentialSpec(kind="scalar_bump", amplitude=0.1)), "a potential"),
    (ModelSpec(source=lambda t: np.zeros((4, 32), dtype=complex)), "a source"),
])
def test_split_rejects_a_term_without_an_exact_flow(model, what):
    f0 = gaussian_bump(Grid(dim=1, n=32, box_length=8.0))
    cfg = SolverConfig(t_end=1.1)
    with pytest.raises(ValueError, match=f"a split stack cannot hold a model with {what}"):
        propagate(f0, COSMO, [model], cfg)


def _stack_rows(kind):
    """Rows of one split stack and its settings.  "blowup": the sweep's
    empirical run (1D n = 256, box 16, ell 1/2, E1 = 4, cfl 0.3 to t = 4),
    where the alpha 2 rows blow up within 8 steps, the alpha 1 rows later
    and the alpha 0.3 rows reach t_end.  "cone": a small bump on ell = 0 in
    a box of 8 to t = 6, whose forward cone reaches the torus limit at
    t ~ 3.8 and stops the rows still running; the alpha 2 rows blow up
    first."""
    if kind == "blowup":
        grid, ell, e1, t_end, alphas = Grid(1, 256, 16.0), 0.5, 4.0, 4.0, (2.0, 0.3, 1.0)
    else:
        grid, ell, e1, t_end, alphas = Grid(1, 64, 8.0), 0.0, 0.5, 6.0, (0.3, 2.0)
    probe = compact_bump(grid, 1.0, 1.0, coeffs=(1, 0, 0, 0))
    f0 = probe.with_data(math.sqrt(e1 / l2_norm_sq(probe)) * probe.data)
    models = [ModelSpec(mass=Mass(1j * im), nonlinearity=NonlinearitySpec(
        kind="blowup_G", alpha_exp=alpha, c0=1.0)) for alpha in alphas for im in (0.0, 0.5)]
    cfg = SolverConfig(t_end=t_end, cfl=0.3, on_cone_violation="stop")
    return f0, Cosmology(ell, 1.0), models, cfg


@pytest.mark.parametrize("kind", ["blowup", "cone"])
def test_split_stack_rows_run_as_they_would_alone(kind):
    """Each row of a stack has the times, flags and blow-up time of its
    one-row run exactly.  Its l2 differs by rounding at most: numpy takes the
    exponents 1/2 and -1 of an alpha 1 row as sqrt and 1/x when they are a
    number (a row alone), but not as one entry of the per-row array (the
    largest difference seen is 1.4e-14 relative); the other rows keep every
    bit."""
    f0, cosmo, models, cfg = _stack_rows(kind)
    stack = propagate(f0, cosmo, models, cfg)
    alone = [propagate(f0, cosmo, [m], cfg)[0] for m in models]
    assert len(stack) == len(models)
    for row, rec, model in zip(stack, alone, models):
        assert np.array_equal(row.series[TIME_AXIS], rec.series[TIME_AXIS])
        assert [getattr(row, k) for k in _FLAGS] == [getattr(rec, k) for k in _FLAGS]
        l2 = rec.series["l2"]
        assert np.max(np.abs(row.series["l2"] - l2) / l2) <= 1e-13
        if model.nonlinearity.alpha_exp != 1.0:
            assert np.array_equal(row.series["l2"], l2)
        assert np.max(np.abs(row.final.data - rec.final.data)) <= 1e-13 * np.max(
            np.abs(rec.final.data))
    ends = {(r.blown_up, r.completed, r.cone_violation) for r in stack}
    if kind == "blowup":  # rows leave at different steps, the rest complete
        assert ends == {(True, False, False), (False, True, False)}
        assert sorted({len(r.series[TIME_AXIS]) for r in stack}) == [7, 8, 29, 34, 109]
    else:
        assert ends == {(True, False, False), (False, False, True)}


def test_a_row_leaving_a_stack_records_its_last_state():
    """With record_every 3, each row still records the last state before its
    blow-up, or its end: the sparse record ends where the dense one does,
    and its times are a subset of the dense ones."""
    f0, cosmo, models, cfg = _stack_rows("blowup")
    dense = propagate(f0, cosmo, models, cfg)
    sparse = propagate(f0, cosmo, models, dataclasses.replace(cfg, record_every=3))
    for d, s in zip(dense, sparse):
        assert s.series[TIME_AXIS][-1] == d.series[TIME_AXIS][-1]
        assert s.series["l2"][-1] == d.series["l2"][-1]
        assert set(s.series[TIME_AXIS]) <= set(d.series[TIME_AXIS])
        assert (s.blown_up, s.blowup_time) == (d.blown_up, d.blowup_time)


def test_a_stack_of_one_is_the_run_of_its_model():
    """A list of one free model gives the one record the model gives alone:
    both take Suzuki's step."""
    f0, cosmo, models, cfg = _stack_rows("blowup")
    free = dataclasses.replace(models[1], nonlinearity=NonlinearitySpec())
    (row,) = propagate(f0, cosmo, [free], cfg)
    rec = propagate(f0, cosmo, free, cfg)
    assert row.to_dict() == rec.to_dict()


def test_stack_capture_and_rk4_rows():
    """A stack stores each row's field at a capture time, as the rows alone;
    a nonlinear model alone is an RK4 run of one row, its steps those of
    step over the run's time grid, its capture the state there."""
    f0, model, cfg = _fused_case("1d", "blowup_G", 1.0, 1.4)
    models = [model, dataclasses.replace(model, mass=Mass(0.2))]
    stack = propagate(f0, COSMO, models, cfg, capture_times=(1.2,))
    for row, m in zip(stack, models):
        (rec,) = propagate(f0, COSMO, [m], cfg, capture_times=(1.2,))
        assert row.to_dict()["series"] == rec.to_dict()["series"]
        assert np.array_equal(row.captured[1.2].data, rec.captured[1.2].data)
    rec = propagate(f0, COSMO, model, cfg, capture_times=(1.2,))
    times = list(rec.series[TIME_AXIS])
    f = f0
    for t in times[1:]:
        f = step(f, t - f.time, COSMO, model)
        if t == 1.2:
            assert _rel_max(rec.captured[1.2].data, f.data) < 1e-13
    assert 1.2 in times and _rel_max(rec.final.data, f.data) < 1e-13


@pytest.mark.parametrize("method", ["rk4", "split"])
def test_an_empty_stack_is_rejected(method):
    """An empty list of models is no run: ValueError before any step, for
    the field and config of a run that one model would take by RK4 (a
    blowup_G model) or by the split (a free model)."""
    f0, model, cfg = _fused_case("1d", "blowup_G", 1.0, 1.4)
    if method == "split":
        model = dataclasses.replace(model, nonlinearity=NonlinearitySpec())
    assert model.is_free == (method == "split")
    assert propagate(f0, COSMO, model, cfg, observables=()).completed
    with pytest.raises(ValueError, match="propagate needs a model, got an empty list"):
        propagate(f0, COSMO, [], cfg)


def test_a_3d_split_stack_holds_one_row():
    f0, model, cfg = _fused_case("3d", "blowup_G", 1.0, 1.4)
    with pytest.raises(ValueError, match="a 3D split run holds one row, got 2"):
        propagate(f0, COSMO, [model, model], cfg)


def _observable_run(case):
    """A 1D focusing blowup_G run that blows up, or a 3D massive free run."""
    if case == "1d_blowup":
        f0 = compact_bump(Grid(dim=1, n=64, box_length=8.0), 1.0, 1.0, coeffs=(1, 0, 0, 0))
        model = ModelSpec(mass=Mass(0.5j), nonlinearity=NonlinearitySpec(
            kind="blowup_G", alpha_exp=2.0, c0=1.0))
        cfg = SolverConfig(t_end=4.0, cfl=0.3, on_cone_violation="stop")
        return f0, Cosmology(0.5, 1.0), model, cfg
    f0 = compact_bump(Grid(dim=3, n=16, box_length=16.0), 1.0, 2.0)
    cfg = SolverConfig(t_end=1.5, cfl=0.1, sobolev_order=2)
    return f0, COSMO, ModelSpec(mass=Mass(0.5 + 0.1j)), cfg


@pytest.mark.parametrize("case", ["1d_blowup", "3d_free"])
def test_propagate_records_only_the_named_observables(monkeypatch, case):
    """The named series (and the time axis) equal those of a full run, the
    run itself is unchanged, and the densities are computed only for an
    observable that reads them."""
    import flrw_dirac.solver as solver_module

    f0, cosmo, model, cfg = _observable_run(case)
    full = propagate(f0, cosmo, model, cfg)
    assert full.blown_up == (case == "1d_blowup")
    densities = []
    original = solver_module.bilinear_densities
    monkeypatch.setattr(solver_module, "bilinear_densities",
                        lambda f: densities.append(f.time) or original(f))
    for names in [(), ("l2",), ("times", "rho_int", "cone_leak", "sobolev_k")]:
        del densities[:]
        part = propagate(f0, cosmo, model, cfg, observables=names)
        assert list(part.series) == [n for n in full.series if n == TIME_AXIS or n in names]
        for name, values in part.series.items():
            assert np.array_equal(values, full.series[name])
        for flag in ("completed", "blown_up", "blowup_time", "cone_violation"):
            assert getattr(part, flag) == getattr(full, flag)
        assert part.final.time == full.final.time
        assert np.array_equal(part.final.data, full.final.data)
        assert len(densities) == (len(part.series[TIME_AXIS]) if "rho_int" in names else 0)
    if case == "1d_blowup":
        bcase = BlowupCase(ell=0.5, alpha_exp=2.0, im_m_abs=0.5, e1=l2_norm_sq(f0))
        part = propagate(f0, cosmo, model, cfg, observables=("l2",))
        check = comparison_check(full, bcase)
        assert check["points_checked"] > 10
        assert comparison_check(part, bcase) == check
    with pytest.raises(ValueError, match=r"unknown observables \['energy'\]"):
        propagate(f0, cosmo, model, cfg, observables=("l2", "energy"))


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
    rec = propagate(f0, COSMO, ModelSpec(mass=Mass(m), source=source), cfg)
    expected = manufactured(3.0)
    rel = np.sqrt(
        np.sum(np.abs(rec.final.data - expected) ** 2) / np.sum(np.abs(expected) ** 2)
    )
    assert rel < 1e-6


def test_duhamel_zero_source_reduces_to_propagate():
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = random_smooth(grid, amplitude=0.5, seed=12)
    model = ModelSpec(mass=Mass(0.5))
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.3, track_cone=False)
    zero = dataclasses.replace(model, source=lambda t: np.zeros_like(f0.data))
    b = propagate(f0, COSMO, zero, cfg)
    a = f0
    for t in b.series[TIME_AXIS][1:]:  # RK4 without the source over the same steps
        a = step(a, t - a.time, COSMO, model)
    assert np.allclose(a.data, b.final.data, atol=1e-14)


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
    r1, r2, r12 = (propagate(f0, COSMO, dataclasses.replace(model, source=s), cfg).final
                   for s in (s1, s2, both))
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


@pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("method", ["rk4", "split"])
def test_unbounded_blowup_records_finite_observables(method, alpha):
    """With blowup_factor inf a run blows up at the largest norm whose
    observables are finite, or at a norm that is not finite: every recorded
    value is a finite number either way, and no step warns."""
    grid = Grid(dim=1, n=64, box_length=8.0)
    f0 = compact_bump(grid, amplitude=3.0)
    model = ModelSpec(nonlinearity=NonlinearitySpec(kind="blowup_G", alpha_exp=alpha))
    cfg = SolverConfig(t_start=1.0, t_end=4.0, cfl=0.3, blowup_factor=math.inf,
                       track_cone=False)
    rec = propagate(f0, Cosmology(0.0, 1.0), model if method == "rk4" else [model], cfg)
    rec = rec if method == "rk4" else rec[0]
    assert rec.blown_up
    assert all(np.all(np.isfinite(values)) for values in rec.series.values())
    assert max(rec.series["l2"]) <= _recordable_norm_sq(grid)
    assert rec.final.is_finite()


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


STOP_GRID = Grid(dim=1, n=16, box_length=8.0)
STOP_F0 = random_smooth(STOP_GRID, amplitude=0.3, seed=5)


@settings(max_examples=30, deadline=None)
@given(backward=st.booleans(), fractions=st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=4))
def test_a_capture_is_the_end_state_of_a_run_to_it(backward, fractions):
    """The end time is one stop among the capture times: the state captured
    at tc equals, bit for bit, the final state of the same run ended at tc
    with the capture times it passed on the way."""
    t_start, t_end = (3.0, 1.0) if backward else (1.0, 3.0)
    captures = [t_start + q * (t_end - t_start) for q in fractions]
    f0 = STOP_F0.with_data(STOP_F0.data, time=t_start)
    model = ModelSpec(mass=Mass(0.5 + 0.1j))
    cfg = SolverConfig(t_start=t_start, t_end=t_end, cfl=0.5, record_every=3,
                       track_cone=False)
    rec = propagate(f0, COSMO, model, cfg, capture_times=captures)
    assert rec.completed and set(rec.captured) == set(captures)
    for tc, state in rec.captured.items():
        passed = [c for c in captures if (c - tc) * (t_end - t_start) <= 0]
        ref = propagate(f0, COSMO, model, dataclasses.replace(cfg, t_end=tc),
                        capture_times=passed).final
        assert state.time == ref.time
        assert np.array_equal(state.data, ref.data)


@pytest.mark.parametrize("t_start, t_end, capture", [
    (1.0, 2.0, 0.5),
    (1.0, 2.0, 2.5),
    (1.0, 2.0, math.nan),
    (1.0, 2.0, math.inf),
    (2.0, 1.0, 2.5),
    (2.0, 1.0, 1.0 - 1e-9),
])
def test_capture_time_outside_the_run_is_rejected_before_stepping(
        monkeypatch, t_start, t_end, capture):
    """A capture time before the start, after the end or not finite would
    never be reached; it raises before the first step instead of failing
    after it or being dropped from a run reported as completed."""
    calls = []
    monkeypatch.setattr(solver_module, "step", lambda *args, **kwargs: calls.append(args))
    f0 = STOP_F0.with_data(STOP_F0.data, time=t_start)
    cfg = SolverConfig(t_start=t_start, t_end=t_end, cfl=0.3, track_cone=False)
    with pytest.raises(ValueError, match="capture times must be finite and lie in"):
        propagate(f0, COSMO, ModelSpec(), cfg, capture_times=[1.5, capture])
    assert calls == []


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_captures_at_the_start_and_the_end_are_stored(backward):
    t_start, t_end = (2.0, 1.0) if backward else (1.0, 2.0)
    f0 = STOP_F0.with_data(STOP_F0.data, time=t_start)
    cfg = SolverConfig(t_start=t_start, t_end=t_end, cfl=0.3, track_cone=False)
    rec = propagate(f0, COSMO, ModelSpec(mass=Mass(0.5)), cfg,
                    capture_times=[t_start, t_end])
    assert set(rec.captured) == {t_start, t_end}
    assert np.array_equal(rec.captured[t_start].data, f0.data)
    assert rec.captured[t_start].time == t_start
    assert np.array_equal(rec.captured[t_end].data, rec.final.data)
    assert rec.captured[t_end].time == rec.final.time == t_end


def test_record_fields_are_all_declared():
    """Every RunRecord field is serialised through _META or _FLAGS, has its
    own shape in to_dict, or stays in memory, so a new field cannot be left
    out of record.json unnoticed."""
    shaped = {"series", "cosmology", "mass", "cone_center", "snapshots"}
    in_memory = {"final", "captured"}
    names = [f.name for f in dataclasses.fields(RunRecord)]
    groups = [set(_META), set(_FLAGS), shaped, in_memory]
    assert sorted(names) == sorted(n for g in groups for n in g)
    rec = RunRecord(series={TIME_AXIS: np.array([1.0])}, cosmology=COSMO, mass=0j,
                    potential_kind="none", potential_gamma2_ok=True,
                    nonlinearity_kind="none", sobolev_order=1, support_radius0=0.0,
                    cone_center=(0.0, 0.0, 0.0))
    d = rec.to_dict()
    assert set(d) == {"schema", "flags"} | set(_META) | shaped
    assert d["schema"] == SCHEMA and set(d["flags"]) == set(_FLAGS)


def _roundtrip_runs():
    """A free run with every series, a blow-up run and a cone-stopped run."""
    grid = Grid(dim=1, n=32, box_length=8.0)
    f0 = random_smooth(grid, amplitude=0.3, seed=2)
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.3, record_every=2,
                       track_cone=False, lm_z=1.0 + 0j)
    yield propagate(f0, COSMO, ModelSpec(mass=Mass(0.5 + 0.1j)), cfg)
    grid = Grid(dim=1, n=64, box_length=8.0)
    bump = compact_bump(grid, amplitude=3.0, width=1.0, coeffs=(1, 0, 0, 0))
    nl = NonlinearitySpec(kind="blowup_G", alpha_exp=2.0, c0=1.0)
    cfg = SolverConfig(t_end=4.0, cfl=0.3, sobolev_order=2, on_cone_violation="stop")
    yield propagate(bump, Cosmology(0.0, 1.0), ModelSpec(nonlinearity=nl), cfg)
    bump = compact_bump(grid, amplitude=1.0, width=1.5, coeffs=(1, 0, 0, 0))
    cfg = SolverConfig(t_end=9.0, cfl=0.3, record_every=5, on_cone_violation="stop")
    yield propagate(bump, Cosmology(0.0, 1.0), ModelSpec(), cfg)


def test_record_roundtrip_through_json():
    """to_dict, json and from_dict give back every serialised field exactly."""
    runs = list(_roundtrip_runs())
    assert "lm_defect" in runs[0].series
    assert runs[1].blown_up and runs[1].blowup_time is not None
    assert runs[2].cone_violation and not runs[2].completed
    for rec in runs:
        back = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.series.keys() == rec.series.keys()
        for name, values in rec.series.items():
            assert back.series[name].dtype == values.dtype
            assert np.array_equal(back.series[name], values)
        for f in dataclasses.fields(RunRecord):
            if f.name not in ("series", "final", "captured"):
                assert getattr(back, f.name) == getattr(rec, f.name), f.name
                assert type(getattr(back, f.name)) is type(getattr(rec, f.name)), f.name


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_start=0.5, t_end=2.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl=1.5)
    with pytest.raises(TypeError):
        SolverConfig(method="rk4")  # propagate derives the integrator from the model
    with pytest.raises(ValueError):
        SolverConfig(record_every=0)


@pytest.mark.parametrize("center, stored", [
    ((1.0,), (1.0, 0.0, 0.0)),
    ([0, 0, 1], (0.0, 0.0, 1.0)),
    (np.array([0.5, 0.0, 0.0]), (0.5, 0.0, 0.0)),
], ids=["short", "list", "ndarray"])
def test_config_normalises_the_cone_center(center, stored):
    """cone_center is stored as a zero-padded 3-tuple of builtin floats, as
    PotentialSpec stores its center: a short one runs in 3D, a list or an
    array leaves the frozen config hashable, and the record carries the
    3 coordinates."""
    cfg = SolverConfig(t_end=1.2, cone_center=center)
    assert cfg.cone_center == stored and all(type(c) is float for c in cfg.cone_center)
    assert hash(cfg) == hash(dataclasses.replace(cfg, cone_center=stored))
    f0 = compact_bump(Grid(dim=3, n=16, box_length=8.0), 1.0, 1.0, center=stored)
    rec = propagate(f0, COSMO, ModelSpec(), cfg, observables=("cone_leak",))
    assert rec.completed and rec.support_radius0 > 0
    assert rec.to_dict()["cone_center"] == list(stored)


def test_config_rejects_a_cone_center_of_four_coordinates():
    with pytest.raises(ValueError, match="a center has at most 3 coordinates, got 4"):
        SolverConfig(cone_center=(0, 0, 0, 7))


@pytest.mark.parametrize("field, value, message", [
    ("t_start", math.nan, "t_start must be >= 1"),
    ("t_end", math.nan, "t_end must be >= 1"),
    ("cfl", math.nan, "cfl must lie in"),
    ("dt_max", math.nan, "dt_max must be positive"),
    ("blowup_factor", math.nan, "blowup_factor must be >= 1"),
    ("blowup_factor", 0.5, "blowup_factor must be >= 1"),
    ("lm_z", complex(math.nan, 0.0), "unit circle"),
    ("sobolev_order", 7, "sobolev_order must lie in"),
    ("sobolev_order", -1, "sobolev_order must lie in"),
])
def test_config_rejects_what_the_run_config_rejects(field, value, message):
    """NaN in a float field, a blow-up factor below 1 and a Sobolev order
    outside [0, 6] are rejected, as the CLI's config table rejects them,
    instead of running a wrong experiment (no steps for t_end = nan, a
    blow-up at once for blowup_factor = 0.5) or failing at the first
    recorded sample."""
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["record_every", "sobolev_order"])
@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2.0), True, "2", None],
                         ids=["float", "integral_float", "numpy_float", "bool", "str", "none"])
def test_config_rejects_a_non_integer_count(field, value):
    """record_every = 2.5 would record every third step, and a bool would be
    written to record.json as true."""
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["record_every", "sobolev_order"])
def test_config_normalises_an_integer_count_to_int(field):
    """A numpy integer is stored as a builtin int, so the record serialises."""
    cfg = SolverConfig(t_end=1.1, track_cone=False, **{field: np.int64(2)})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 2
    rec = propagate(STOP_F0, COSMO, ModelSpec(), cfg)
    assert json.loads(json.dumps(rec.to_dict()))["sobolev_order"] == cfg.sobolev_order


def test_config_accepts_an_infinite_blowup_factor():
    assert SolverConfig(blowup_factor=math.inf).blowup_factor == math.inf
    assert SolverConfig(blowup_factor=1.0).blowup_factor == 1.0


def test_config_checks_the_defect_phase():
    """lm_z is stored as a builtin complex and must lie on the unit circle."""
    cfg = SolverConfig(lm_z=np.complex128(1j))
    assert type(cfg.lm_z) is complex and cfg.lm_z == 1j
    assert SolverConfig().lm_z is None
    for z in (2.0, 0.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="unit circle"):
            SolverConfig(lm_z=z)


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


@pytest.mark.parametrize("form", [np.eye(4).tolist(), np.eye(4), tuple(map(tuple, np.eye(4)))],
                         ids=["list", "ndarray", "tuple"])
def test_custom_matrix_in_any_form_gives_one_hashable_spec(form):
    """A custom_matrix potential given as a list, an array or a tuple is
    stored as one nested tuple of complex, so the spec hashes, the cached
    potential field takes it and the run completes."""
    spec = PotentialSpec(kind="custom_matrix", amplitude=0.1, matrix=form)
    reference = PotentialSpec(kind="custom_matrix", amplitude=0.1,
                              matrix=tuple(tuple(complex(i == j) for j in range(4))
                                           for i in range(4)))
    assert spec == reference and hash(spec) == hash(reference)
    grid = Grid(dim=1, n=32, box_length=8.0)
    cfg = SolverConfig(t_start=1.0, t_end=1.1, cfl=0.3, track_cone=False)
    rec = propagate(gaussian_bump(grid), COSMO, ModelSpec(potential=spec), cfg)
    assert rec.completed


@pytest.mark.parametrize("center", [[0.5, 0.0, 0.0], np.array([0.5, 0.0, 0.0]), (0.5,),
                                    (0.5, 0.0, 0.0)],
                         ids=["list", "ndarray", "1-tuple", "3-tuple"])
def test_potential_center_in_any_form_gives_one_hashable_spec(center):
    """A potential center given as a list, an array or a short tuple is
    stored as a 3-tuple of floats padded with zeros, so the spec hashes and
    a 3D run completes (a list was unhashable in the potential-field cache,
    and a 1-tuple ran out of coordinates on a 3D grid)."""
    spec = PotentialSpec(kind="scalar_bump", amplitude=0.1, center=center)
    reference = PotentialSpec(kind="scalar_bump", amplitude=0.1, center=(0.5, 0.0, 0.0))
    assert spec == reference and hash(spec) == hash(reference)
    grid = Grid(dim=3, n=16, box_length=8.0)
    cfg = SolverConfig(t_start=1.0, t_end=1.1, cfl=0.3, track_cone=False)
    rec = propagate(gaussian_bump(grid), COSMO, ModelSpec(potential=spec), cfg)
    assert rec.completed
