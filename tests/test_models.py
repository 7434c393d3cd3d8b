import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flrw_dirac.field import Grid, SpinorField, l2_norm_sq
from flrw_dirac.gamma import BASIS
from flrw_dirac.initial_data import random_smooth
from flrw_dirac.models import (
    Mass,
    NonlinearitySpec,
    PotentialFlagError,
    PotentialSpec,
    eval_nonlinearity,
    hyperbolic_rhs_nonlinearity,
    induced_potential,
    linear_form,
    lipschitz_probe,
    potential_field,
)

GRID = Grid(dim=1, n=32, box_length=2 * np.pi)


def constant_field(v, time=1.0):
    data = np.tile(np.asarray(v, dtype=complex)[:, None], (1, GRID.n))
    return SpinorField(GRID, data, time)


def test_mass_validation():
    assert Mass(0.5 + 0.25j).im_abs == 0.25
    with pytest.raises(ValueError):
        Mass(complex(np.nan, 0.0))


# --- nonlinearities -------------------------------------------------------


def test_power_abs_on_unit_spinor():
    spec = NonlinearitySpec(kind="power_abs", alpha_exp=2.0)
    f = constant_field((1, 0, 0, 0))
    out = eval_nonlinearity(spec, f)
    assert np.allclose(out.data, f.data)


@pytest.mark.parametrize(
    "spec",
    [
        NonlinearitySpec(kind="power_abs", alpha_exp=2.0),
        NonlinearitySpec(kind="power_abs", alpha_exp=0.5, sign=-1),
        NonlinearitySpec(kind="power_g0g5", alpha_exp=1.0),
        NonlinearitySpec(
            kind="lochak_form",
            alpha_fn=linear_form(1.0, 0.0),
            beta_fn=linear_form(0.0, 1.0),
        ),
        NonlinearitySpec(kind="blowup_G", alpha_exp=1.0, c0=2.0),
    ],
)
def test_zero_maps_to_zero(spec):
    out = eval_nonlinearity(spec, constant_field((0, 0, 0, 0)))
    assert np.all(out.data == 0)


def test_blowup_g_form():
    spec = NonlinearitySpec(kind="blowup_G", alpha_exp=1.0, c0=1.0)
    out = eval_nonlinearity(spec, constant_field((0, 1, 0, 0)))
    expected = constant_field((0, 1j, 0, 0))
    assert np.allclose(out.data, expected.data)


def test_power_g0g5_on_basis_spinor():
    spec = NonlinearitySpec(kind="power_g0g5", alpha_exp=3.0)
    f = constant_field((2, 0, 0, 0))
    out = eval_nonlinearity(spec, f)
    assert np.allclose(out.data, 8.0 * f.data)


@settings(max_examples=30, deadline=None)
@given(st.floats(0, 2 * np.pi))
def test_power_abs_phase_equivariance(theta):
    spec = NonlinearitySpec(kind="power_abs", alpha_exp=1.5)
    f = random_smooth(GRID, amplitude=1.0, seed=3)
    phase = np.exp(1j * theta)
    lhs = eval_nonlinearity(spec, f.with_data(phase * f.data)).data
    rhs = phase * eval_nonlinearity(spec, f).data
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_lochak_form_vanishes_on_lm_states():
    spec = NonlinearitySpec(
        kind="lochak_form",
        alpha_fn=linear_form(1.0, 0.0),
        beta_fn=linear_form(0.0, 1.0),
    )
    out = eval_nonlinearity(spec, constant_field((1, 0, 1, 0)))
    assert np.max(np.abs(out.data)) < 1e-14


def test_lochak_requires_vanishing_coefficients():
    with pytest.raises(ValueError):
        NonlinearitySpec(
            kind="lochak_form",
            alpha_fn=lambda xi, eta: xi + 1.0,
            beta_fn=linear_form(0.0, 1.0),
        )


def test_induced_potential():
    spec = NonlinearitySpec(
        kind="lochak_form",
        alpha_fn=linear_form(1.0, 0.0),
        beta_fn=linear_form(0.0, 1.0),
    )
    zero = induced_potential(spec, constant_field((0, 0, 0, 0)))
    assert np.all(zero.alpha_field == 0) and np.all(zero.beta_field == 0)
    lm = induced_potential(spec, constant_field((1, 0, 1, 0)))
    assert np.max(np.abs(lm.alpha_field)) < 1e-14
    basis = induced_potential(spec, constant_field((1, 0, 0, 0)))
    assert np.allclose(basis.alpha_field, 1.0)
    assert np.allclose(basis.beta_field, 0.0)
    with pytest.raises(ValueError):
        induced_potential(NonlinearitySpec(kind="power_abs"), constant_field((1, 0, 0, 0)))


def test_hyperbolic_form_energy_neutral_for_lochak():
    """The first-order right side of the structured family produces no
    pointwise L2 growth: Re(psi^* r) = 0 identically."""
    spec = NonlinearitySpec(
        kind="lochak_form",
        alpha_fn=linear_form(1.3, -0.4),
        beta_fn=linear_form(0.2, 0.9),
    )
    f = random_smooth(GRID, amplitude=1.0, seed=17)
    r = hyperbolic_rhs_nonlinearity(spec, f)
    production = np.sum(np.conj(f.data) * r.data, axis=0).real
    assert np.max(np.abs(production)) < 1e-13 * np.max(np.abs(f.data)) ** 2


def test_hyperbolic_form_blowup_production():
    """The focusing family produces exactly 2 c0 |psi|^(2+alpha) of growth."""
    c0, a = 1.7, 1.5
    spec = NonlinearitySpec(kind="blowup_G", alpha_exp=a, c0=c0)
    f = random_smooth(GRID, amplitude=1.0, seed=23)
    r = hyperbolic_rhs_nonlinearity(spec, f)
    production = 2.0 * np.sum(np.conj(f.data) * r.data, axis=0).real
    mag = np.sqrt(np.sum(np.abs(f.data) ** 2, axis=0))
    assert np.allclose(production, 2.0 * c0 * mag ** (2.0 + a), rtol=1e-12)


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="power_abs", alpha_exp=-1.0)
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="nope")
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="blowup_G", c0=0.0)
    with pytest.raises(ValueError):
        eval_nonlinearity(NonlinearitySpec(kind="none"), constant_field((1, 0, 0, 0)))


# --- potentials -----------------------------------------------------------


def test_zero_potential():
    spec = PotentialSpec(kind="zero")
    assert potential_field(spec, GRID) is None
    assert spec.hermitian and spec.gamma2_ok


def test_scalar_bump_hermitian_but_not_gamma2():
    spec = PotentialSpec(
        kind="scalar_bump", amplitude=2.0, width=1.0, hermitian_required=True
    )
    v = potential_field(spec, GRID)[..., GRID.n // 2]  # the bump centre x = 0
    assert np.allclose(v, 2.0 * np.eye(4))
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


# --- Lipschitz probe ------------------------------------------------------


def test_lipschitz_probe_power_abs_stable_under_refinement():
    spec = NonlinearitySpec(kind="power_abs", alpha_exp=2.0)
    c_coarse = lipschitz_probe(spec, k=2, trials=12, seed=1)
    c_fine = lipschitz_probe(
        spec, k=2, trials=12, seed=1, grid=Grid(dim=1, n=128, box_length=2 * np.pi)
    )
    assert 0 < c_coarse < np.inf
    assert abs(c_fine - c_coarse) <= 0.2 * max(c_coarse, c_fine)


def test_lipschitz_probe_validation():
    spec = NonlinearitySpec(kind="power_abs", alpha_exp=2.0)
    with pytest.raises(ValueError):
        lipschitz_probe(spec, k=1)
    with pytest.raises(ValueError):
        lipschitz_probe(NonlinearitySpec(kind="none"), k=2)
