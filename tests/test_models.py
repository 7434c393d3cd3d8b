import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flrw_dirac.field import (
    Grid,
    SpinorField,
    bilinear_densities,
    l2_norm_sq,
    sobolev_norm,
)
from flrw_dirac.gamma import BASIS, apply
from flrw_dirac.initial_data import random_smooth
from flrw_dirac.models import (
    Mass,
    NonlinearitySpec,
    PotentialFlagError,
    PotentialSpec,
    hyperbolic_rhs_nonlinearity,
    potential_field,
    power_flow,
)

GRID = Grid(dim=1, n=32, box_length=2 * np.pi)


def constant_field(v, time=1.0):
    data = np.tile(np.asarray(v, dtype=complex)[:, None], (1, GRID.n))
    return SpinorField(GRID, data, time)


def test_mass_validation():
    with pytest.raises(ValueError):
        Mass(complex(np.nan, 0.0))


# --- nonlinearities -------------------------------------------------------


def test_power_abs_on_unit_spinor():
    spec = NonlinearitySpec(kind="power_abs", alpha_exp=2.0)
    f = constant_field((1, 0, 0, 0))
    out = hyperbolic_rhs_nonlinearity(spec, f)
    assert np.allclose(out, f.data)


@pytest.mark.parametrize(
    "spec",
    [
        NonlinearitySpec(kind="power_abs", alpha_exp=2.0),
        NonlinearitySpec(kind="power_abs", alpha_exp=0.5, sign=-1),
        NonlinearitySpec(
            kind="lochak_form",
            alpha_coeffs=(1.0, 0.0),
            beta_coeffs=(0.0, 1.0),
        ),
        NonlinearitySpec(kind="blowup_G", alpha_exp=1.0, c0=2.0),
    ],
)
def test_zero_maps_to_zero(spec):
    out = hyperbolic_rhs_nonlinearity(spec, constant_field((0, 0, 0, 0)))
    assert np.all(out == 0)


def covariant(spec, f):
    """The covariant term i g0 F of the first-order right side F."""
    return apply(1j * BASIS.g0, hyperbolic_rhs_nonlinearity(spec, f))


def test_blowup_g_form():
    spec = NonlinearitySpec(kind="blowup_G", alpha_exp=1.0, c0=1.0)
    out = covariant(spec, constant_field((0, 1, 0, 0)))
    expected = constant_field((0, 1j, 0, 0))
    assert np.allclose(out, expected.data)


def test_lochak_form_is_the_stated_covariant_term():
    """i g0 F = (alpha I + i beta g5) psi, with the coefficients read off the
    bilinear densities."""
    spec = NonlinearitySpec(
        kind="lochak_form",
        alpha_coeffs=(1.3, -0.4),
        beta_coeffs=(0.2, 0.9),
    )
    f = random_smooth(GRID, amplitude=1.0, seed=29)
    dens = bilinear_densities(f)
    alpha, beta = 1.3 * dens.xi - 0.4 * dens.eta, 0.2 * dens.xi + 0.9 * dens.eta
    expected = alpha * f.data + 1j * beta * apply(BASIS.g5, f.data)
    assert np.allclose(covariant(spec, f), expected, rtol=0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(0, 2 * np.pi))
def test_power_abs_phase_equivariance(theta):
    spec = NonlinearitySpec(kind="power_abs", alpha_exp=1.5)
    f = random_smooth(GRID, amplitude=1.0, seed=3)
    phase = np.exp(1j * theta)
    lhs = hyperbolic_rhs_nonlinearity(spec, f.with_data(phase * f.data))
    rhs = phase * hyperbolic_rhs_nonlinearity(spec, f)
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["power_abs", "blowup_G"]), alpha=st.floats(0.2, 3.0),
       c=st.floats(0.1, 1.0), sign=st.sampled_from([1, -1]),
       tau1=st.floats(-0.1, 0.1), tau2=st.floats(-0.1, 0.1), seed=st.integers(0, 20))
def test_nonlinearity_flow_is_a_semigroup_that_keeps_directions(kind, alpha, c, sign,
                                                                 tau1, tau2, seed):
    """power_flow with a spec's exponent and coefficient: flow(tau1 + tau2)
    = flow(tau2) o flow(tau1), and each spinor is scaled by a positive
    factor.  With |psi| <= 1 every base 1 - a c tau |psi|^a on the way is at
    least 0.4, so no point blows up."""
    spec = (NonlinearitySpec(kind="power_abs", alpha_exp=alpha, sign=sign)
            if kind == "power_abs" else NonlinearitySpec(kind="blowup_G", alpha_exp=alpha, c0=c))
    a, c = spec.alpha_exp, spec.power_coefficient
    data = random_smooth(GRID, amplitude=1.0, seed=seed).data
    data = data / np.max(np.linalg.norm(data, axis=0))
    once = power_flow(a, c, data, tau1 + tau2)
    twice = power_flow(a, c, power_flow(a, c, data, tau1), tau2)
    assert np.max(np.abs(twice - once)) <= 1e-13 * np.max(np.abs(once))
    scale = np.linalg.norm(once, axis=0) / np.linalg.norm(data, axis=0)
    assert np.all(scale > 0)
    assert np.max(np.abs(once - scale * data)) <= 1e-13 * np.max(np.abs(once))


@pytest.mark.parametrize("spec", [
    NonlinearitySpec(kind="power_abs", alpha_exp=1.5, sign=-1),
    NonlinearitySpec(kind="blowup_G", alpha_exp=0.5, c0=2.0),
], ids=lambda spec: spec.kind)
def test_nonlinearity_flow_is_generated_by_the_right_side(spec):
    """d/dtau of power_flow, with the spec's exponent and coefficient, at
    tau = 0 is the term's right side; with the semigroup property this makes
    it the term's exact flow."""
    f = random_smooth(GRID, amplitude=1.0, seed=5)
    a, c, h = spec.alpha_exp, spec.power_coefficient, 1e-4
    slope = (power_flow(a, c, f.data, h) - power_flow(a, c, f.data, -h)) / (2 * h)
    rhs = hyperbolic_rhs_nonlinearity(spec, f)
    assert np.max(np.abs(slope - rhs)) < 1e-7 * np.max(np.abs(rhs))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 0.3])
def test_nonlinearity_flow_past_the_blowup_time_is_not_finite(alpha):
    """Past 1 / (a c |psi|^a) the point's value is inf, for every exponent:
    a negative base raised to an integral -1/a would read as a finite value.
    (A term without such a flow: test_split_rejects_a_term_without_an_exact_flow.)"""
    spec = NonlinearitySpec(kind="blowup_G", alpha_exp=alpha, c0=1.0)
    a, c = spec.alpha_exp, spec.power_coefficient
    data = constant_field((2.0, 0, 0, 0)).data
    t_blow = 1.0 / (alpha * 2.0**alpha)
    assert np.all(np.isfinite(power_flow(a, c, data, 0.99 * t_blow)))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * inf on the zero components
        for tau in (1.01 * t_blow, 3.0 * t_blow):
            out = power_flow(a, c, data, tau)
            assert np.all(np.isinf(out[0])) and not np.any(np.isfinite(out))


def test_lochak_form_vanishes_on_lm_states():
    spec = NonlinearitySpec(
        kind="lochak_form",
        alpha_coeffs=(1.0, 0.0),
        beta_coeffs=(0.0, 1.0),
    )
    out = hyperbolic_rhs_nonlinearity(spec, constant_field((1, 0, 1, 0)))
    assert np.max(np.abs(out)) < 1e-14


@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.0, 0.0), (np.nan, 0.0), (0.0, np.inf)],
                         ids=["one", "three", "nan", "inf"])
@pytest.mark.parametrize("name", ["alpha_coeffs", "beta_coeffs"])
def test_lochak_coefficients_must_be_two_finite_numbers(name, coeffs):
    """alpha and beta are linear forms, so they vanish at the origin by
    construction; what is left to check is the two coefficients."""
    with pytest.raises(ValueError, match=f"{name} must be 2 finite numbers"):
        NonlinearitySpec(kind="lochak_form", **{name: coeffs})


def test_induced_potential():
    """On the basis spinor (1, 0, 0, 0), xi = 1 and eta = 0, so the induced
    potential alpha I + i beta g5 with alpha = xi and beta = eta is I."""
    spec = NonlinearitySpec(
        kind="lochak_form",
        alpha_coeffs=(1.0, 0.0),
        beta_coeffs=(0.0, 1.0),
    )
    f = constant_field((1, 0, 0, 0))
    assert np.allclose(covariant(spec, f), f.data)


def test_hyperbolic_form_energy_neutral_for_lochak():
    """The first-order right side of the structured family produces no
    pointwise L2 growth: Re(psi^* r) = 0 identically."""
    spec = NonlinearitySpec(
        kind="lochak_form",
        alpha_coeffs=(1.3, -0.4),
        beta_coeffs=(0.2, 0.9),
    )
    f = random_smooth(GRID, amplitude=1.0, seed=17)
    r = hyperbolic_rhs_nonlinearity(spec, f)
    production = np.sum(np.conj(f.data) * r, axis=0).real
    assert np.max(np.abs(production)) < 1e-13 * np.max(np.abs(f.data)) ** 2


def test_hyperbolic_form_blowup_production():
    """The focusing family produces exactly 2 c0 |psi|^(2+alpha) of growth."""
    c0, a = 1.7, 1.5
    spec = NonlinearitySpec(kind="blowup_G", alpha_exp=a, c0=c0)
    f = random_smooth(GRID, amplitude=1.0, seed=23)
    r = hyperbolic_rhs_nonlinearity(spec, f)
    production = 2.0 * np.sum(np.conj(f.data) * r, axis=0).real
    mag = np.sqrt(np.sum(np.abs(f.data) ** 2, axis=0))
    assert np.allclose(production, 2.0 * c0 * mag ** (2.0 + a), rtol=1e-12)


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="power_abs", alpha_exp=-1.0)
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="nope")
    with pytest.raises(ValueError, match="unknown nonlinearity kind"):
        NonlinearitySpec(kind="power_g0g5")  # power_abs with sign +1
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="blowup_G", c0=0.0)
    with pytest.raises(ValueError):
        hyperbolic_rhs_nonlinearity(
            NonlinearitySpec(kind="none"), constant_field((1, 0, 0, 0))
        )


# --- potentials -----------------------------------------------------------


def test_zero_potential():
    spec = PotentialSpec(kind="zero")
    assert potential_field(spec, GRID) is None
    assert spec.hermitian and spec.gamma2_ok


def test_potential_center_has_at_most_three_coordinates():
    """A 4th coordinate was stored and silently ignored by the torus distance."""
    with pytest.raises(ValueError, match="at most 3 coordinates, got 4"):
        PotentialSpec(kind="scalar_bump", amplitude=0.1, center=(1, 2, 3, 4))


def test_scalar_bump_hermitian_but_not_gamma2():
    spec = PotentialSpec(
        kind="scalar_bump", amplitude=2.0, width=1.0, hermitian_required=True
    )
    vf = potential_field(spec, GRID)
    assert np.allclose(vf[..., GRID.n // 2], 2.0 * np.eye(4))  # the bump centre x = 0
    assert potential_field(spec, GRID) is vf and not vf.flags.writeable  # sampled once
    with pytest.raises(PotentialFlagError):
        PotentialSpec(
            kind="scalar_bump", amplitude=2.0, width=1.0, gamma2_condition_required=True
        )


def test_custom_ig5_satisfies_gamma2_not_hermitian():
    matrix = tuple(tuple(1j * BASIS.g5[i, j] for j in range(4)) for i in range(4))
    ok = PotentialSpec(
        kind="custom_matrix",
        amplitude=0.5,
        width=1.0,
        matrix=matrix,
        gamma2_condition_required=True,
    )
    assert ok.gamma2_ok and not ok.hermitian
    with pytest.raises(PotentialFlagError):
        PotentialSpec(
            kind="custom_matrix",
            amplitude=0.5,
            width=1.0,
            matrix=matrix,
            hermitian_required=True,
        )


@pytest.mark.parametrize("kind", ["zero", "scalar_bump"])
def test_matrix_is_read_only_by_custom_matrix(kind):
    """A matrix another kind would ignore is rejected, not stored."""
    with pytest.raises(ValueError, match="'matrix' is read only by kind 'custom_matrix'"):
        PotentialSpec(kind=kind, amplitude=0.1, matrix=np.eye(4).tolist())


# --- Lipschitz probe ------------------------------------------------------


def lipschitz_estimate(spec, grid, k, trials, seed):
    """Empirical Lipschitz constant of the nonlinearity in H_k: the largest
    ||F(psi1) - F(psi2)||_k / (||psi1 - psi2||_k (||psi1||_k^a + ||psi2||_k^a))
    over random smooth pairs."""
    best = 0.0
    for trial in range(trials):
        f1, f2 = (random_smooth(grid, amplitude=0.5, seed=seed * 1000 + 2 * trial + i)
                  for i in (0, 1))
        num = sobolev_norm(f1.with_data(hyperbolic_rhs_nonlinearity(spec, f1)
                                        - hyperbolic_rhs_nonlinearity(spec, f2)), k)
        den = sobolev_norm(f1.with_data(f1.data - f2.data), k) * (
            sobolev_norm(f1, k) ** spec.alpha_exp + sobolev_norm(f2, k) ** spec.alpha_exp)
        best = max(best, num / den)
    return best


def test_lipschitz_probe_power_abs_stable_under_refinement():
    spec = NonlinearitySpec(kind="power_abs", alpha_exp=2.0)
    c_coarse, c_fine = (
        lipschitz_estimate(spec, Grid(dim=1, n=n, box_length=2 * np.pi), k=2, trials=12, seed=1)
        for n in (64, 128)
    )
    assert 0 < c_coarse < np.inf
    assert abs(c_fine - c_coarse) <= 0.2 * max(c_coarse, c_fine)
