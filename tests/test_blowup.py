import math

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from flrw_dirac.blowup import (
    ANY_SIZE,
    LARGE_DATA,
    BlowupCase,
    classify,
    differential_inequality_check,
    empirical_blowup,
    j_integral,
    lifespan,
    solvability_threshold,
    total_j_mass,
)
from flrw_dirac.field import Grid, l2_norm_sq
from flrw_dirac.initial_data import compact_bump
from flrw_dirac.models import ModelSpec
from flrw_dirac.solver import SolverConfig, propagate
from flrw_dirac.spacetime import Cosmology


def test_classify_examples():
    v = classify(BlowupCase(ell=2 / 3, alpha_exp=2 / 3))
    assert v.regime == ANY_SIZE and v.threshold_value == pytest.approx(1.0)
    v = classify(BlowupCase(ell=2 / 3, alpha_exp=2.0))
    assert v.regime == LARGE_DATA and v.threshold_value == pytest.approx(3.0)
    v = classify(BlowupCase(ell=2.0, alpha_exp=1.0))
    assert v.regime == LARGE_DATA and v.threshold_value == pytest.approx(3.0)
    assert v.branch == "ell>1:large_data"
    v = classify(BlowupCase(ell=1.0, alpha_exp=0.5))
    assert v.branch == "ell=1:any_size"


@pytest.mark.parametrize("im", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
def test_classify_depends_only_on_im_magnitude(ell, im):
    a = classify(BlowupCase(ell=ell, alpha_exp=1.3, im_m_abs=im))
    b = classify(BlowupCase(ell=ell, alpha_exp=1.3, im_m_abs=abs(-im)))
    assert a == b


def test_case_validation():
    with pytest.raises(ValueError):
        BlowupCase(ell=0.5, alpha_exp=0.0)
    with pytest.raises(ValueError):
        BlowupCase(ell=0.5, alpha_exp=1.0, c0=-1.0)
    with pytest.raises(ValueError):
        BlowupCase(ell=0.5, alpha_exp=1.0, e1=0.0)


def test_lifespan_closed_form_case():
    """Static background, quadratic focusing: the balance integral is
    (1 - T^-2)/2 so energy 4 forces T = sqrt(2)."""
    case = BlowupCase(ell=0.0, alpha_exp=2.0, im_m_abs=0.0, c0=1.0,
                      r_support=1.0, e1=4.0)
    assert lifespan(case) == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_lifespan_monotone_in_energy_and_limit():
    base = dict(ell=0.0, alpha_exp=2.0, im_m_abs=0.0, c0=1.0, r_support=1.0)
    energies = [2.5, 4.0, 10.0, 100.0, 1e6]
    spans = [lifespan(BlowupCase(e1=e, **base)) for e in energies]
    assert all(s2 < s1 for s1, s2 in zip(spans, spans[1:]))
    assert spans[-1] < 1.0 + 1e-2  # enormous data blows up immediately


def test_lifespan_inconclusive_below_threshold():
    base = dict(ell=0.0, alpha_exp=2.0, im_m_abs=0.0, c0=1.0, r_support=1.0)
    thresh = solvability_threshold(BlowupCase(e1=1.0, **base))
    # the integrand is t^-3 with total mass 1/2, so the threshold is
    # (alpha/2 * c0 * 1/2)^(-2/alpha) = (1/2)^-1 = 2; the closed-form case
    # (E1 = 4 -> T = sqrt(2)) gives the same value
    assert thresh == pytest.approx(2.0)
    assert math.isinf(lifespan(BlowupCase(e1=0.9 * thresh, **base)))
    assert math.isfinite(lifespan(BlowupCase(e1=1.1 * thresh, **base)))


def test_j_integral_properties():
    case = BlowupCase(ell=2 / 3, alpha_exp=2 / 3)
    assert j_integral(case, 1.0) == 0.0
    # strictly increasing right side
    samples = [j_integral(case, t) for t in (2.0, 5.0, 20.0, 100.0)]
    assert all(b > a for a, b in zip(samples, samples[1:]))


def test_j_integral_critical_logarithmic_growth():
    """At the critical exponent the integrand s^(-2/3) / (3 s^(1/3) - 2)
    behaves like 1/(3 s): J(T) = log(3 T^(1/3) - 2) grows logarithmically
    and J(10 T) - J(T) tends to log(10)/3, up to an O(T^(-1/3)) correction
    that is still about 0.037 on [1e3, 1e4]."""
    case = BlowupCase(ell=2 / 3, alpha_exp=2 / 3)
    growth = j_integral(case, 1e4) - j_integral(case, 1e3)
    exact = math.log((3.0 * 1e4 ** (1 / 3) - 2.0) / (3.0 * 1e3 ** (1 / 3) - 2.0))
    assert growth == pytest.approx(exact, rel=2e-3)
    assert j_integral(case, 1e3) / math.log(1e3) > 0.1


def test_j_integral_supercritical_bounded():
    case = BlowupCase(ell=2 / 3, alpha_exp=2.0)
    j3 = j_integral(case, 1e3)
    assert j_integral(case, 1e4) - j3 < 1e-2 * j3
    assert math.isfinite(total_j_mass(case))


def test_j_integral_against_independent_quadrature():
    """Cross-check with a dense trapezoid on a log grid."""
    case = BlowupCase(ell=0.5, alpha_exp=1.5, im_m_abs=0.25, c0=2.0, r_support=0.7)
    t = 37.0
    s = np.geomspace(1.0, t, 200001)
    cosmo = Cosmology(0.5, 1.0)
    vals = (case.r_support + cosmo.travel_distance(s)) ** (-1.5 * 1.5) * s ** (
        -1.5 * 1.5 * 0.5 - 1.5 * 0.25
    )
    ref = trapezoid(vals, s)
    assert j_integral(case, t) == pytest.approx(ref, rel=1e-6)


def test_lifespan_ell_one_uses_log_distance():
    case = BlowupCase(ell=1.0, alpha_exp=2.0, e1=50.0, r_support=1.0)
    t = lifespan(case)
    assert math.isfinite(t) and t > 1.0
    # independent check: the balance at the root reproduces the target
    target = case.e1 ** (-1.0) / (1.0 * case.c0)
    assert j_integral(case, t) == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize(
    "ell, alpha, im_m, t_bu",
    [(0.5, 0.3, 0.0, 16.05), (2.0, 0.3, 0.0, 212.4), (1.0, 0.5, 0.0, 39.07)],
)
def test_any_size_lifespan_is_finite(ell, alpha, im_m, t_bu):
    """Any-size points of the sweep grid (c0 = R = 1, E1 = 4): the lifespan
    integrand is not integrable, so the bound always gives a finite time."""
    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, e1=4.0)
    assert classify(case).regime == ANY_SIZE
    assert math.isinf(total_j_mass(case))
    assert lifespan(case) == pytest.approx(t_bu, rel=1e-3)


# lifespan doubles its bracket from 2 while J stays below the target and
# gives up (returns inf) once the bracket passes 1e12; 2**39 is its last
# bracket end
_LAST_BRACKET = 2.0**39


@settings(max_examples=30, deadline=None)
@given(
    ell=st.one_of(st.just(1.0), st.floats(0.0, 3.0)),
    alpha=st.floats(0.05, 2.0),
    im_m=st.floats(0.0, 2.0),
    c0=st.floats(0.1, 10.0),
    r_support=st.floats(0.1, 10.0),
    e1=st.floats(1e-3, 1e3),
)
def test_any_size_regime_has_no_energy_threshold(ell, alpha, im_m, c0, r_support, e1):
    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, c0=c0,
                      r_support=r_support, e1=e1)
    assume(classify(case).regime == ANY_SIZE)
    assert math.isinf(total_j_mass(case))
    assert solvability_threshold(case) == 0.0
    target = e1 ** (-0.5 * alpha) / (0.5 * alpha * c0)
    t_bu = lifespan(case)
    assert math.isfinite(t_bu) == (j_integral(case, _LAST_BRACKET) >= target)
    if math.isfinite(t_bu):
        assert j_integral(case, t_bu) == pytest.approx(target, rel=1e-6)


def _blowup_setup(e_target=4.0):
    grid = Grid(dim=1, n=256, box_length=8.0)
    probe = compact_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0, 0, 0))
    amp = math.sqrt(e_target / l2_norm_sq(probe))
    return grid, compact_bump(grid, amplitude=amp, width=1.0, coeffs=(1, 0, 0, 0))


def test_empirical_blowup_matches_bound():
    _, f0 = _blowup_setup(4.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.3, record_every=1,
                       on_cone_violation="stop")
    rep = empirical_blowup(f0, Cosmology(0.0, 1.0), alpha_exp=2.0, c0=1.0, cfg=cfg)
    assert rep["t_numerical"] is not None
    assert rep["satisfied"] is True
    assert rep["t_numerical"] <= math.sqrt(2.0) * 1.1
    assert rep["differential_inequality"]["holds"]


def test_empirical_blowup_zero_data():
    grid = Grid(dim=1, n=64, box_length=8.0)
    f0 = compact_bump(grid, amplitude=0.0, width=1.0)
    cfg = SolverConfig(t_start=1.0, t_end=2.0, cfl=0.3, record_every=1,
                       track_cone=False)
    with pytest.raises(ValueError):
        # zero energy is not an admissible case for the bound
        empirical_blowup(f0, Cosmology(0.0, 1.0), alpha_exp=2.0, c0=1.0, cfg=cfg)


def test_linear_run_never_flags_blowup():
    grid, f0 = _blowup_setup(4.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.3, record_every=1,
                       on_cone_violation="stop")
    rec = propagate(f0, Cosmology(0.0, 1.0), ModelSpec(), cfg)
    assert not rec.blown_up


def test_differential_inequality_on_blowup_run():
    _, f0 = _blowup_setup(4.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.2, record_every=1,
                       on_cone_violation="stop")
    rep = empirical_blowup(f0, Cosmology(0.0, 1.0), alpha_exp=2.0, c0=1.0, cfg=cfg)
    ineq = rep["differential_inequality"]
    assert ineq["holds"] and ineq["points_checked"] > 10


def test_blowup_detection_emits_no_overflow_warning():
    """A focusing run that blows up overflows its squared norm; the detector
    reads that as blow-up without a RuntimeWarning."""
    grid = Grid(dim=1, n=64, box_length=8.0)
    f0 = compact_bump(grid, amplitude=3.0, width=1.0, coeffs=(1, 0, 0, 0))
    cfg = SolverConfig(t_start=1.0, t_end=4.0, cfl=0.3, record_every=1,
                       on_cone_violation="stop")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = empirical_blowup(f0, Cosmology(0.5, 1.0), alpha_exp=2.0, c0=1.0, cfg=cfg)
    assert rep["t_numerical"] is not None
