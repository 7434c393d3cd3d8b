import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from flrw_dirac import kernels
from flrw_dirac.field import (
    Grid,
    SpinorField,
    _apply_span,
    _derivative_wavenumbers,
    _fftn,
    _ifftn,
    _unique_mode_magnitudes,
    l2_norm_sq,
)
from flrw_dirac.gamma import BASIS
from flrw_dirac.initial_data import gaussian_bump
from flrw_dirac.kernels import (
    Hyp2F1ConvergenceError,
    KernelConsistencyError,
    KernelDomainError,
    KernelEval,
    _cos_integrals,
    _cpow,
    _gl_rule,
    free_mode_multipliers,
    hyp2f1,
    hyp2f1_derivative,
    kernel_E,
    kernel_K1,
    reconstruct_free,
)
from flrw_dirac.models import Mass, ModelSpec
from flrw_dirac.solver import SolverConfig, propagate
from flrw_dirac.spacetime import Cosmology

mpmath.mp.dps = 30


def mp_hyp2f1(a, b, c, z) -> complex:
    return complex(mpmath.hyp2f1(a, b, c, z))


# --- the series engine ----------------------------------------------------


def test_hyp2f1_at_zero_and_zero_parameter():
    assert hyp2f1(0.3j, 0.3j, 1.0, 0.0) == 1.0
    for z in (0.1, 0.5, 0.9):
        assert hyp2f1(0.0, 0.7j, 1.0, z) == 1.0


def test_hyp2f1_against_mpmath_oracle():
    val = hyp2f1(0.3j, 0.3j, 1.0, 0.5)
    ref = mp_hyp2f1(0.3j, 0.3j, 1.0, 0.5)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def test_hyp2f1_vectorized_matches_scalar():
    z = np.linspace(0.0, 0.9, 7)
    vec = hyp2f1(0.5j, 0.5j, 1.0, z)
    for zi, vi in zip(z, vec):
        assert vi == pytest.approx(hyp2f1(0.5j, 0.5j, 1.0, float(zi)), rel=1e-14)


def test_hyp2f1_domain_guards(monkeypatch):
    with pytest.raises(KernelDomainError):
        hyp2f1(0.3j, 0.3j, 1.0, 0.97)
    with pytest.raises(KernelDomainError, match=r"\|z\| = nan exceeds"):
        hyp2f1(0.3j, 0.3j, 1.0, np.array([0.5, math.nan]))
    with pytest.raises(KernelDomainError):
        hyp2f1(0.3j, 0.3j, 0.0, 0.5)
    with pytest.raises(KernelDomainError):
        hyp2f1(0.3j, 0.3j, -2.0, 0.5)
    monkeypatch.setattr(kernels, "HYP2F1_MAX_TERMS", 3)
    with pytest.raises(Hyp2F1ConvergenceError):
        hyp2f1(0.3j, 0.3j, 1.0, 0.9)


@pytest.mark.parametrize("z", [0.1, 0.5, 0.9 * 0.95])
def test_hyp2f1_derivative_identity(z):
    """d/dz F(a, b; 1; z) = a b F(a+1, b+1; 2; z), audited by central
    differences of the series itself."""
    a = b = 0.4j
    analytic = hyp2f1_derivative(a, b, 1.0, z)
    h = 1e-5
    numeric = (hyp2f1(a, b, 1.0, z + h) - hyp2f1(a, b, 1.0, z - h)) / (2 * h)
    assert abs(analytic - numeric) <= 1e-8 * max(1.0, abs(analytic))


# --- kernel values --------------------------------------------------------


def test_kernel_k1_massless_closed_form():
    cos = Cosmology(0.5, 1.0)
    ke = KernelEval(cos, 0.0, 1.0)
    r = np.linspace(0.0, cos.phi(3.0) - cos.phi(1.0), 9)
    vals = kernel_K1(r, 3.0, ke)
    assert np.allclose(vals, 1.0 / cos.phi(1.0), atol=1e-14)


def test_kernel_e_massless_closed_form():
    ell = 0.5
    cos = Cosmology(ell, 1.0)
    ke = KernelEval(cos, 0.0, 1.0)
    expected = 0.5 * (1 - ell) ** (ell / (1 - ell)) * cos.phi(1.5) ** (ell / (1 - ell))
    vals = kernel_E(np.array([0.2]), 3.0, 1.5, ke)
    assert vals[0] == pytest.approx(expected, rel=1e-14)


def test_kernel_cone_edge_drops_hypergeometric_factor():
    cos = Cosmology(0.5, 1.0)
    ke = KernelEval(cos, 0.4, 1.0)
    t = 2.0
    edge = cos.phi(t) - cos.phi(1.0)
    mu = ke.mu
    den = (cos.phi(t) + cos.phi(1.0)) ** 2 - edge**2
    pref = _cpow(2.0, 2j * mu) * _cpow(cos.phi(1.0), 2j * mu - 1.0)
    expected = pref * _cpow(den, -1j * mu)
    assert kernel_K1(np.array([edge]), t, ke)[0] == pytest.approx(expected, rel=1e-12)


def _mp_kernel(kind, r, t, t0, ell, m) -> complex:
    """Independent arbitrary-precision evaluation of the Cauchy kernel K1
    (with t0 = eps) or of the source kernel E."""
    phi = lambda s: mpmath.mpf(s) ** (1 - ell) / (1 - ell)
    mu = mpmath.mpc(m) / (1 - ell)
    num = (phi(t) - phi(t0)) ** 2 - mpmath.mpf(r) ** 2
    den = (phi(t) + phi(t0)) ** 2 - mpmath.mpf(r) ** 2
    z = num / den
    if kind == "K1":
        pref = mpmath.mpf(2) ** (2j * mu) * phi(t0) ** (2j * mu - 1)
    else:
        pref = (mpmath.mpf(2) ** (2j * mu - 1)
                * mpmath.mpf(1 - ell) ** (mpmath.mpf(ell) / (1 - ell))
                * phi(t0) ** ((ell + 2j * mpmath.mpc(m)) / (1 - ell)))
    return complex(pref * den ** (-1j * mu) * mpmath.hyp2f1(1j * mu, 1j * mu, 1, z))


@pytest.mark.parametrize("m", [0.2j, 0.3, 0.5 + 0.1j])
def test_kernel_k1_against_arbitrary_precision(m):
    """K1 from eps = 1, and E from a source time t0 = 1.5 != eps."""
    ell = 0.5
    ke = KernelEval(Cosmology(ell, 1.0), m, 1.0)
    cases = (("K1", 2.0, 1.0, lambda r: kernel_K1(r, 2.0, ke)),
             ("E", 3.0, 1.5, lambda r: kernel_E(r, 3.0, 1.5, ke)))
    for kind, t, t0, kernel in cases:
        for r in (0.0, 0.3, 0.7):
            got = complex(kernel(np.array([r]))[0])
            ref = _mp_kernel(kind, r, t, t0, ell, m)
            assert abs(got - ref) <= 1e-10 * abs(ref)


def test_kernel_domain_guards():
    cos = Cosmology(0.5, 1.0)
    ke = KernelEval(cos, 0.3, 1.0)
    with pytest.raises(KernelDomainError):
        kernel_K1(np.array([10.0]), 2.0, ke)  # outside the cone
    with pytest.raises(KernelDomainError):
        kernel_K1(np.array([0.0]), 60.0, ke)  # time ratio guard
    with pytest.raises(KernelDomainError):
        KernelEval(Cosmology(1.0, 1.0), 0.3, 1.0)
    with pytest.raises(KernelDomainError):
        KernelEval(Cosmology(2.0, 1.0), 0.3, 1.0)
    with pytest.raises(KernelDomainError):
        KernelEval(Cosmology(0.5, 2.0), 0.3, 1.0)
    for m in (complex(math.nan, 0.0), complex(0.3, math.inf)):
        with pytest.raises(KernelDomainError, match="m must be finite"):
            KernelEval(cos, m, 1.0)
    with pytest.raises(KernelDomainError, match="t >= t0"):
        ke.check_time(math.nan)


def test_unimodular_power_for_real_mass():
    vals = _cpow(np.array([0.5, 1.7, 9.3]), -0.7j)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


# --- wave multiplier oracle -------------------------------------------------


def test_flat_wave_action_matches_spherical_mean_derivative():
    """The spectral multiplier cos(r |xi|) agrees with the radial oracle:
    the r-derivative of r times the spherical mean of a plane wave."""
    xi = 2.3

    def sphere_mean(r):
        # average of exp(i xi r cos(theta)) over the unit sphere
        val, _ = quad(lambda u: math.cos(xi * r * u), -1.0, 1.0, epsabs=1e-13)
        return 0.5 * val

    h = 1e-5
    for r in (0.4, 1.1, 2.7):
        numeric = ((r + h) * sphere_mean(r + h) - (r - h) * sphere_mean(r - h)) / (
            2 * h
        )
        assert abs(numeric - math.cos(xi * r)) < 1e-8


# --- mode multipliers and the co-factor assembly ---------------------------


def ode_mode_matrix(ell, m, xi, t_end):
    """Reference: integrate the per-mode linear system with solve_ivp."""
    alph = sum(x * a for x, a in zip(xi, BASIS.alphas))
    m = complex(m)

    def f(t, y):
        u = y.reshape(4, 4)
        du = (
            -1j * t ** (-ell) * (alph @ u)
            - 1.5 * ell / t * u
            - 1j * m / t * (BASIS.g0 @ u)
        )
        return du.ravel()

    sol = solve_ivp(
        f, (1.0, t_end), np.eye(4, dtype=complex).ravel(), rtol=1e-12, atol=1e-14
    )
    return sol.y[:, -1].reshape(4, 4)


PLANE_WAVE_GRID = Grid(3, 8, 2 * np.pi)  # integer wavenumbers


def plane_wave_matrix(ke, t, xi):
    """The 4x4 matrix reconstruct_free applies to the mode xi: column j is
    the flow of exp(i xi.x) e_j, projected back onto the wave."""
    grid = PLANE_WAVE_GRID
    wave = np.exp(1j * sum(k * x for k, x in zip(xi, grid.coordinate_arrays())))
    cols = []
    for j in range(4):
        data = np.zeros((4,) + wave.shape, dtype=complex)
        data[j] = wave
        out = reconstruct_free(SpinorField(grid, data, ke.epsilon), t, ke)
        cols.append(np.mean(np.conj(wave) * out.data, axis=(1, 2, 3)))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "ell,m",
    [(0.5, 0.0), (0.5, 0.3), (2 / 3, 0.5 + 0.1j)],
)
def test_reconstruct_plane_waves_match_ode(ell, m):
    ke = KernelEval(Cosmology(ell, 1.0), m, 1.0)
    for xi in ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, -1.0, 2.0)):
        got = plane_wave_matrix(ke, 2.0, xi)
        ref = ode_mode_matrix(ell, m, xi, 2.0)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_constant_mode_matches_homogeneous_solution():
    ke = KernelEval(Cosmology(0.5, 1.0), 0.5 + 0.1j, 1.0)
    t = 3.0
    got = plane_wave_matrix(ke, t, (0.0, 0.0, 0.0))
    fac = t ** (-0.75)
    m = 0.5 + 0.1j
    expected = np.diag([fac * t ** (-1j * m)] * 2 + [fac * t ** (1j * m)] * 2)
    assert np.max(np.abs(got - expected)) < 1e-8


# --- the cos-weighted quadrature -------------------------------------------


def _recording(fn):
    """fn with the node arrays of its calls kept in .calls."""
    def wrapped(r):
        wrapped.calls.append(r)
        return fn(r)
    wrapped.calls = []
    return wrapped


def _runge_pair(c):
    return lambda r: ((1 + 0.5j) / (1 + c * (r - 1.3) ** 2), np.exp((0.3 + 1j) * r))


@pytest.mark.parametrize(
    "c, xi, min_doublings",
    [
        (10.0, [0.0, 0.7, 3.1, 12.0], 1),  # xi = 0 among others
        (10.0, [2.5], 1),  # a single xi
        (400.0, [0.0, 0.7, 3.1, 12.0], 2),  # needs several doublings
    ],
)
def test_cos_integrals_match_the_direct_sum(c, xi, min_doublings):
    """The factorised sum equals (w f_k) @ cos(outer(r, xi)) on the final rule."""
    upper = 3.0
    xi = np.array(xi)
    fvals = _recording(_runge_pair(c))
    got = _cos_integrals(fvals, upper, xi)
    assert len(fvals.calls) - 1 >= min_doublings
    r = fvals.calls[-1]
    panels = r.size // 16
    _, _, weights = _gl_rule(panels, 16)
    w = upper * np.tile(weights, panels)
    cos_mat = np.cos(np.outer(r, xi))
    for g, fk in zip(got, fvals(r)):
        assert g.shape == xi.shape
        assert np.max(np.abs(g - (w * fk) @ cos_mat)) <= 1e-13


@pytest.mark.parametrize("upper", [0.0, -1.0])
def test_cos_integrals_empty_interval_is_zero(upper):
    xi = np.array([0.0, 1.0, 2.0])
    got = _cos_integrals(_runge_pair(10.0), upper, xi)
    assert len(got) == 2
    for g in got:
        assert g.shape == xi.shape and g.dtype == complex and not np.any(g)


@dataclass(frozen=True)
class _AnyNGrid(Grid):
    """Grid admits only powers of two; the grouping must hold for any n."""

    def __post_init__(self):
        pass


@pytest.mark.parametrize(
    "grid",
    [Grid(3, 8, 8.0), Grid(3, 16, 10.0), _AnyNGrid(3, 9, 7.0), _AnyNGrid(3, 15, 12.0)],
)
def test_unique_mode_magnitudes_group_exactly(grid):
    uniq, inverse = _unique_mode_magnitudes(grid)
    ks = _derivative_wavenumbers(grid)
    mags = np.sqrt(sum(k**2 for k in ks))
    assert inverse.shape == mags.shape
    assert np.all(np.diff(uniq) > 0)
    assert set(np.unique(inverse)) == set(range(uniq.size))
    np.testing.assert_allclose(uniq[inverse], mags, rtol=1e-14, atol=0.0)


def test_unique_mode_magnitudes_are_cached_read_only():
    """A second call on an equal grid returns the same read-only arrays."""
    first = _unique_mode_magnitudes(Grid(3, 8, 8.0))
    second = _unique_mode_magnitudes(Grid(3, 8, 8.0))
    assert all(a is b for a, b in zip(first, second))
    for e in first:
        assert not e.flags.writeable
        with pytest.raises(ValueError):
            e[0] = 0


# --- integral operators -----------------------------------------------------


def test_apply_k1_degenerate_interval_is_zero():
    """The Cauchy-data multipliers kp and km vanish on the interval t = eps."""
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    kp, _, km, _ = free_mode_multipliers(ke, 1.0, np.array([0.0, 0.25 * np.pi, 2.0]))
    assert np.max(np.abs(kp)) == 0.0 and np.max(np.abs(km)) == 0.0


def test_apply_k1_massless_closed_form_multiplier():
    """For m = 0 the Cauchy-data multiplier kp collapses to
    -i eps^(1 + ell/2) / ((1 - ell) phi(eps)) * sin(|xi| U) / |xi|."""
    cos = Cosmology(0.5, 1.0)
    ke = KernelEval(cos, 0.0, 1.0)
    t = 2.0
    upper = cos.phi(t) - cos.phi(1.0)
    q = 2.0 * np.pi / 8.0
    kp, _, _, _ = free_mode_multipliers(ke, t, np.array([q, 0.0]))
    expected_mult = -1j / ((1 - 0.5) * cos.phi(1.0)) * math.sin(q * upper) / q
    assert np.allclose(kp[0], expected_mult, atol=1e-9)
    # zero-frequency mode: plain integral of the kernel
    expected0 = -1j / ((1 - 0.5) * cos.phi(1.0)) * upper
    assert np.allclose(kp[1], expected0, atol=1e-10)


# --- reconstruction ---------------------------------------------------------


def test_reconstruct_identity_at_start_time():
    grid = Grid(dim=3, n=8, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0.5, 0.3j, -0.2))
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    out = reconstruct_free(f0, 1.0, ke)
    assert np.max(np.abs(out.data - f0.data)) < 1e-12


def test_reconstruct_short_time_continuity():
    grid = Grid(dim=3, n=8, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0.5, 0.3j, -0.2))
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    out = reconstruct_free(f0, 1.0 + 1e-3, ke)
    drift = math.sqrt(l2_norm_sq(out.with_data(out.data - f0.data)))
    assert drift < 1e-2 * math.sqrt(l2_norm_sq(f0))


def test_reconstruct_constant_field_matches_homogeneous_solution():
    grid = Grid(dim=3, n=8, box_length=8.0)
    v = np.array([0.4, -0.3j, 0.8, 0.1], dtype=complex)
    data = np.tile(v.reshape(4, 1, 1, 1), (1, 8, 8, 8))
    f0 = SpinorField(grid, data, 1.0)
    m = 0.3
    ke = KernelEval(Cosmology(0.5, 1.0), m, 1.0)
    t = 2.0
    out = reconstruct_free(f0, t, ke)
    fac = t ** (-0.75)
    expected = np.concatenate([fac * t ** (-1j * m) * v[:2], fac * t ** (1j * m) * v[2:]])
    assert np.max(np.abs(out.data - expected.reshape(4, 1, 1, 1))) < 1e-8


def test_reconstruct_agrees_with_solver_small():
    grid = Grid(dim=3, n=16, box_length=10.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=0.9, coeffs=(1, 0.5, 0.3j, -0.2))
    cos = Cosmology(0.5, 1.0)
    ke = KernelEval(cos, 0.3, 1.0)
    rec_field = reconstruct_free(f0, 2.0, ke)
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.15, record_every=1000,
                       track_cone=False)
    run = propagate(f0, cos, ModelSpec(mass=Mass(0.3)), cfg)
    rel = math.sqrt(
        l2_norm_sq(rec_field.with_data(rec_field.data - run.final.data))
        / l2_norm_sq(run.final)
    )
    assert rel < 2e-6  # 9.6e-7 with the free run's 4th-order step


def test_reconstruct_requires_matching_start_time():
    grid = Grid(dim=3, n=8, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, time=2.0)
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    with pytest.raises(KernelDomainError):
        reconstruct_free(f0, 3.0, ke)
    grid1 = Grid(dim=1, n=16, box_length=8.0)
    f1 = gaussian_bump(grid1, amplitude=1.0, width=1.0)
    with pytest.raises(KernelDomainError):
        reconstruct_free(f1, 2.0, ke)


def test_reconstruct_equals_the_pass_into_new_arrays_bit_for_bit(monkeypatch):
    """The one-buffer reconstruction gives _ifftn(_apply_span(_fftn(data)))
    with the same multipliers gathered to full-size arrays, whether or not
    the input carries its spectrum; its pass gets only radial factors, over
    the distinct mode magnitudes, and it caches no spectrum on the input or
    on the result."""
    grid = Grid(dim=3, n=8, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0.5, 0.3j, -0.2))
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    uniq, inverse = _unique_mode_magnitudes(grid)
    calls = []

    def recording_pass(hat, grid, p, q=None, s=1.0, in_place=False):
        calls.append((p, q, s))
        return _apply_span(hat, grid, p, q, s, in_place)

    def gathered(pair):
        assert all(u.shape == uniq.shape for u in pair)
        return tuple(u[inverse] for u in pair)

    monkeypatch.setattr(kernels, "_apply_span", recording_pass)
    plain = f0.with_data(f0.data)
    with_spectrum = f0.with_data(f0.data)
    assert with_spectrum.spectrum is not None
    for psi1 in (plain, with_spectrum):
        calls.clear()
        out = reconstruct_free(psi1, 3.0, ke)
        ((p, q, s),) = calls
        hat = _apply_span(_fftn(f0.data, grid), grid, gathered(p), gathered(q), s)
        assert np.array_equal(out.data, _ifftn(hat, grid))
        assert "spectrum" not in vars(out)
    assert "spectrum" not in vars(plain)


def _reconstruct_peak(peak_allocation, n):
    """The traced peak of one warm 3D reconstruction over the spinor's bytes."""
    grid = Grid(dim=3, n=n, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0.5, 0.3j, -0.2))
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    reconstruct_free(f0.with_data(f0.data), 3.0, ke)
    return peak_allocation(reconstruct_free, f0, 3.0, ke) / f0.data.nbytes


def test_reconstruct_runs_in_one_spectrum_buffer(peak_allocation):
    """With the caches warm, a 3D n=32 reconstruction allocates the
    spectrum buffer it returns, the multipliers over the distinct mode
    magnitudes and the pass's seven slab buffers (a slab is half of one
    component here, so together 0.875 of the spinor): at most 2.2 times the
    spinor's bytes."""
    assert _reconstruct_peak(peak_allocation, 32) <= 2.2


def test_reconstruct_at_n64_allocates_little_beside_its_buffer(peak_allocation):
    """At n=64 a slab is a sixteenth of one component: the same allocations
    stay below 1.25 times the spinor's bytes."""
    assert _reconstruct_peak(peak_allocation, 64) <= 1.25


def _four_kernel_multipliers(ke, t, xi_abs, time_derivative):
    """free_mode_multipliers with every kernel evaluated at its own mass:
    K1 and d/dt K1 at +m and at -m in one _cos_integrals call."""
    minus = ke.with_mass(-complex(ke.m))
    phi = ke.cosmology.phi
    upper = phi(t) - phi(ke.epsilon)
    pref_p, pref_m = kernels._k1_prefactor(ke), kernels._k1_prefactor(minus)
    if not time_derivative:
        i_p, i_m = _cos_integrals(
            lambda r: (kernel_K1(r, t, ke), kernel_K1(r, t, minus)), upper, xi_abs)
        return pref_p * i_p, pref_m * i_m
    i_p, di_p, i_m, di_m = _cos_integrals(
        lambda r: (*kernels._k1_and_time_derivative(r, t, ke),
                   *kernels._k1_and_time_derivative(r, t, minus)), upper, xi_abs)
    if upper > 0.0:
        edge_p, edge_m = (complex(kernel_K1(np.array([upper]), t, c)[0]) for c in (ke, minus))
    else:
        edge_p = edge_m = 1.0 / phi(ke.epsilon)
    cos_edge, dphi = np.cos(upper * xi_abs), ke.cosmology.dphi(t)
    return (pref_p * i_p, pref_p * (edge_p * cos_edge * dphi + di_p),
            pref_m * i_m, pref_m * (edge_m * cos_edge * dphi + di_m))


@pytest.mark.parametrize("m", [0.0, 0.3, -0.7])
@pytest.mark.parametrize("time_derivative", [True, False])
def test_real_mass_multipliers_pair_the_reflected_kernels_bit_for_bit(m, time_derivative):
    """For a real mass the -m kernels are the conjugates of the +m ones, so
    evaluating only +m gives the four-kernel integrals bit for bit, from
    t = eps to t = TIME_RATIO_MAX * eps.  The 32^3 grid's magnitudes are
    enough for conjugated integrals, from a quadrature of half the rows, to
    move bits."""
    uniq, _ = _unique_mode_magnitudes(Grid(3, 32, 8.0))
    for ell in (0.25, 0.5, 0.8):
        ke = KernelEval(Cosmology(ell, 1.0), m, 1.0)
        for t in (1.0, 1.7, 9.0, kernels.TIME_RATIO_MAX):
            got = free_mode_multipliers(ke, t, uniq, time_derivative=time_derivative)
            expected = _four_kernel_multipliers(ke, t, uniq, time_derivative)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))


@pytest.mark.parametrize("m, masses", [(0.3, {0.3}), (0.3 + 0.2j, {0.3 + 0.2j, -0.3 - 0.2j})])
@pytest.mark.parametrize("time_derivative", [True, False])
def test_only_a_complex_mass_evaluates_the_reflected_kernels(monkeypatch, m, masses,
                                                             time_derivative):
    """The integrands are evaluated at +m alone for a real mass and at both
    masses for a complex one (the edge terms evaluate K1 at both masses)."""
    seen = set()

    def spy(exact):
        def evaluate(r, t, ke):
            if r.size > 1:
                seen.add(complex(ke.m))
            return exact(r, t, ke)
        return evaluate

    monkeypatch.setattr(kernels, "_k1_and_time_derivative", spy(kernels._k1_and_time_derivative))
    monkeypatch.setattr(kernels, "kernel_K1", spy(kernels.kernel_K1))
    ke = KernelEval(Cosmology(0.5, 1.0), m, 1.0)
    free_mode_multipliers(ke, 3.0, np.array([0.0, 0.5, 2.0]), time_derivative=time_derivative)
    assert seen == masses


@pytest.mark.parametrize("ell, m, t", [(0.5, 0.3, 3.0), (0.25, 0.5 - 0.2j, 40.0)])
def test_joint_k1_evaluation_gives_kernel_k1_bit_for_bit(ell, m, t):
    """The Cauchy quadrature integrates the K1 of the joint K1 / d/dt K1
    evaluation, and its edge term uses kernel_K1: the two must agree exactly."""
    ke = KernelEval(Cosmology(ell, 1.0), m, 1.0)
    r = np.linspace(0.0, ke.cosmology.phi(t) - ke.cosmology.phi(1.0), 33)
    k1, _ = kernels._k1_and_time_derivative(r, t, ke)
    assert np.array_equal(k1, kernel_K1(r, t, ke))


def _wrong_time_derivative(monkeypatch, scale):
    """Scale the d/dt K1 that reconstruct_free integrates, leaving K1 exact."""
    exact = kernels._k1_and_time_derivative

    def scaled(r, t, ke):
        k1, dk1 = exact(r, t, ke)
        return k1, scale * dk1

    monkeypatch.setattr(kernels, "_k1_and_time_derivative", scaled)


def test_reconstruct_self_check_catches_a_wrong_time_derivative(monkeypatch):
    grid = Grid(dim=3, n=8, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0.5, 0.3j, -0.2))
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    _wrong_time_derivative(monkeypatch, 1.001)
    with pytest.raises(KernelConsistencyError):
        reconstruct_free(f0, 3.0, ke)
    monkeypatch.setattr(kernels, "_self_check_time_derivative", lambda *args: None)
    reconstruct_free(f0, 3.0, ke)


@pytest.mark.parametrize("scale, raises", [(1.0, False), (1.001, True)])
def test_reconstruct_self_check_at_the_supported_time_limit(monkeypatch, scale, raises):
    """At t = TIME_RATIO_MAX * eps the central stencil would step past the
    supported ratio; the audit then runs on the backward stencil."""
    grid = Grid(dim=3, n=8, box_length=8.0)
    f0 = gaussian_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0.5, 0.3j, -0.2))
    ke = KernelEval(Cosmology(0.5, 1.0), 0.3, 1.0)
    t = kernels.TIME_RATIO_MAX * ke.epsilon
    _wrong_time_derivative(monkeypatch, scale)
    if raises:
        with pytest.raises(KernelConsistencyError):
            reconstruct_free(f0, t, ke)
    else:
        out = reconstruct_free(f0, t, ke)
        monkeypatch.setattr(kernels, "_self_check_time_derivative", lambda *args: None)
        assert np.array_equal(out.data, reconstruct_free(f0, t, ke).data)
