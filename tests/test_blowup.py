import dataclasses
import math

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import flrw_dirac.blowup as blowup_module
from flrw_dirac.blowup import (
    ANY_SIZE,
    COMPARISON_RTOL,
    LARGE_DATA,
    BlowupCase,
    classify,
    comparison_check,
    empirical_blowup,
    j_integral,
    lifespan,
    solvability_threshold,
    total_j_mass,
)
from flrw_dirac.field import Grid, l2_norm_sq
from flrw_dirac.initial_data import compact_bump
from flrw_dirac.models import ModelSpec, NonlinearitySpec
from flrw_dirac.solver import RunRecord, SolverConfig, propagate
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


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["ell", "alpha_exp", "im_m_abs", "c0", "r_support", "e1"])
def test_case_rejects_non_finite_parameters(field, value):
    params = {"ell": 0.5, "alpha_exp": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BlowupCase(**params)


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


def test_quad_is_the_module_attribute_every_quadrature_calls(monkeypatch):
    """Tools that wrap flrw_dirac.blowup.quad (the benchmark tracer counts
    IntegrationWarnings this way) see every call, and results are unchanged.
    comparison_check reads J from its Gauss ladder and makes no quad."""
    import flrw_dirac.blowup as bup

    case = BlowupCase(ell=0.5, alpha_exp=1.0, e1=4.0)
    rec, rec_case = _blowup_record()
    expected = (j_integral(case, 50.0), total_j_mass(case), lifespan(case),
                comparison_check(rec, rec_case))
    calls, inside, outside = [], [], []  # outside: quads made outside j_integral
    original_quad, original_j = bup.quad, bup.j_integral

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        if not inside:
            outside.append(args[1:3])
        return original_quad(*args, **kwargs)

    def traced_j(*args, **kwargs):
        inside.append(True)
        try:
            return original_j(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(bup, "quad", counted)
    monkeypatch.setattr(bup, "j_integral", traced_j)
    assert j_integral(case, 50.0) == expected[0]
    assert calls == [(1.0, 10.0), (10.0, 50.0)]
    assert total_j_mass(case) == expected[1]
    assert calls[2:] == [(1.0, 200.0), (200.0, np.inf)]
    del calls[:]
    assert lifespan(case) == expected[2]
    assert calls[:2] == [(1.0, 200.0), (200.0, np.inf)] and len(calls) > 2
    assert math.isfinite(expected[2])
    del calls[:], outside[:]
    assert comparison_check(rec, rec_case) == expected[3]
    assert calls == [] and outside == []


# (ell, alpha, im_m) at the sweep's E1 = 4: T_bu is about 6710 (four decade
# pieces) and about 1795
MEMO_CASES = [(2.0, 0.3, 0.5), (1.0, 0.5, 0.5)]


@pytest.mark.parametrize("ell, alpha, im_m", MEMO_CASES)
def test_lifespan_integrates_each_complete_decade_once(monkeypatch, ell, alpha, im_m):
    import flrw_dirac.blowup as bup

    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, e1=4.0)
    calls = []
    original = bup.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(bup, "quad", counted)
    t_bu = lifespan(case)
    decades = [(a, b) for a, b in calls if b == 10.0 * a]
    below = {(10.0**k, 10.0 ** (k + 1)) for k in range(int(math.log10(t_bu)))}
    assert len(below) >= 3
    assert len(decades) == len(set(decades)) and below <= set(decades)


def _travel_distance_integrand(case):
    """The lifespan integrand written with Cosmology.travel_distance."""
    travel_distance = case.cosmology.travel_distance
    q = -1.5 * case.alpha_exp
    p = -1.5 * case.alpha_exp * case.ell - case.alpha_exp * case.im_m_abs
    return lambda s: (case.r_support + travel_distance(s)) ** q * s**p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    ell=st.one_of(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 - 1e-13]), st.floats(-1.0, 3.0)),
    alpha=st.floats(0.1, 3.0),
    im_m=st.floats(0.0, 2.0),
    r_support=st.floats(0.1, 10.0),
    s=st.one_of(st.just(1.0), st.floats(1.0, 1e8)),
)
def test_integrand_is_the_travel_distance_formula_bit_for_bit(ell, alpha, im_m, r_support, s):
    """The integrand restates travel_distance from t0 = 1 without its checks;
    the restatement keeps every bit of (R + A(s))^q s^p."""
    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, r_support=r_support)
    assert blowup_module._integrand(case)(s) == _travel_distance_integrand(case)(s)


@pytest.mark.parametrize("ell, alpha, im_m", MEMO_CASES)
def test_lifespan_and_total_mass_keep_their_bits_with_the_travel_distance_integrand(
        monkeypatch, ell, alpha, im_m):
    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, e1=4.0)
    expected = (lifespan(case), total_j_mass(case))
    monkeypatch.setattr(blowup_module, "_integrand", _travel_distance_integrand)
    assert (lifespan(case), total_j_mass(case)) == expected


@pytest.mark.parametrize("ell, alpha, im_m", MEMO_CASES)
def test_lifespan_memo_leaves_the_root_bit_identical(monkeypatch, ell, alpha, im_m):
    """The root equals, bit for bit, the one found with every J(t)
    integrated afresh."""
    import flrw_dirac.blowup as bup

    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, e1=4.0)
    memoized = lifespan(case)
    plain = bup.j_integral
    monkeypatch.setattr(bup, "j_integral",
                        lambda case, t, decades=None: plain(case, t))
    assert lifespan(case) == memoized


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
    """Cross-check with a dense trapezoid on a log grid, with the travel
    distance A(s) = 2 (sqrt(s) - 1) of ell = 1/2 written out."""
    case = BlowupCase(ell=0.5, alpha_exp=1.5, im_m_abs=0.25, c0=2.0, r_support=0.7)
    t = 37.0
    s = np.geomspace(1.0, t, 200001)
    distance = 2.0 * (np.sqrt(s) - 1.0)
    vals = (case.r_support + distance) ** (-1.5 * 1.5) * s ** (
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


def _mpmath_j(ell, alpha, im_m, r_support, t, log_distance=None):
    """The lifespan integral in 30-digit arithmetic, written out from the
    bound: (R + A(s))^(-3 alpha / 2) s^(-3 alpha ell / 2 - alpha |Im m|) over
    [1, t], A the comoving distance from time 1, split at every decade.
    A is log s when log_distance is true, by default when ell = 1."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    if log_distance is None:
        log_distance = ell == 1
    ell, alpha, im_m, r_support = map(mp.mpf, (ell, alpha, im_m, r_support))

    def distance(s):
        return mp.log(s) if log_distance else (s ** (1 - ell) - 1) / (1 - ell)

    def f(s):
        return (r_support + distance(s)) ** (-3 * alpha / 2) * s ** (
            -3 * alpha * ell / 2 - alpha * im_m)

    edges = [1] + [10**k for k in range(1, 13) if 10**k < t] + [mp.mpf(t)]
    return mp.quad(f, edges)


@pytest.mark.parametrize("t", [100.0, 4321.0])
@pytest.mark.parametrize("im_m", [0.0, 0.5])
@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
def test_j_integral_matches_mpmath(ell, im_m, t):
    case = BlowupCase(ell=ell, alpha_exp=0.5, im_m_abs=im_m, r_support=0.7)
    expected = float(_mpmath_j(ell, 0.5, im_m, 0.7, t))
    assert j_integral(case, t) == pytest.approx(expected, rel=1e-10)


def test_lifespan_balance_at_the_root_off_ell_one():
    """ell = 2, any-size point of the sweep grid: J at the computed lifespan
    (about 212, two decades out) reproduces the target E1^(-alpha/2)/(alpha c0/2)."""
    case = BlowupCase(ell=2.0, alpha_exp=0.3, e1=4.0, r_support=1.0)
    t = lifespan(case)
    assert math.isfinite(t) and t > 100.0
    target = case.e1 ** (-0.15) / (0.15 * case.c0)
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
# gives up (returns inf) once the bracket leaves the float range; 2**1023
# is its last bracket end
_LAST_BRACKET = 2.0**1023


@settings(max_examples=30, deadline=None)
@given(
    ell=st.one_of(st.just(1.0), st.floats(0.0, 3.0)),
    v=st.floats(0.0, 1.0),
    im_m=st.floats(0.0, 2.0),
    c0=st.floats(0.1, 10.0),
    r_support=st.floats(0.1, 10.0),
    e1=st.floats(1e-3, 1e3),
)
def test_any_size_regime_has_no_energy_threshold(ell, v, im_m, c0, r_support, e1):
    # any-size means alpha (1.5 max(ell, 1) + |Im m|) <= 1; alpha is drawn
    # from that part of [0.05, 2] (its upper end is at most 1/1.5)
    alpha = 0.05 + v * (1.0 / (1.5 * max(ell, 1.0) + im_m) - 0.05)
    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, c0=c0,
                      r_support=r_support, e1=e1)
    assume(classify(case).regime == ANY_SIZE)  # rounding at q = 1
    assert math.isinf(total_j_mass(case))
    assert solvability_threshold(case) == 0.0
    target = e1 ** (-0.5 * alpha) / (0.5 * alpha * c0)
    t_bu = lifespan(case)
    if math.isfinite(t_bu):
        assert j_integral(case, t_bu) == pytest.approx(target, rel=1e-6)
    else:
        assert j_integral(case, _LAST_BRACKET) < target


def test_lifespan_is_finite_far_beyond_1e12():
    """Any-size data at the log-growth edge (J ~ log(t) / 2) with a small
    energy: the root lies near e^600, and lifespan finds it instead of giving
    up at a fixed bracket end."""
    case = BlowupCase(0.5, 2 / 3, 0.0, 1.0, 1.0, 1e-6)
    assert classify(case).regime == ANY_SIZE
    target = case.e1 ** (-0.5 * case.alpha_exp) / (0.5 * case.alpha_exp * case.c0)
    t_bu = lifespan(case)
    assert 1e250 < t_bu < math.inf
    assert j_integral(case, t_bu) == pytest.approx(target, rel=1e-9)


def _doubling_lifespan(case):
    """lifespan with its bracket found as it was before the decade walk: the
    end doubles from 2, one J per doubling (same memo, same Brent call)."""
    from scipy.optimize import brentq

    target = case.e1 ** (-0.5 * case.alpha_exp) / (0.5 * case.alpha_exp * case.c0)
    total = total_j_mass(case)
    if math.isfinite(total) and total <= target * (1.0 + 1e-12):
        return math.inf
    decades = {}
    hi = 2.0
    while j_integral(case, hi, decades=decades) < target:
        hi *= 2.0
        if math.isinf(hi):
            return math.inf
    return float(brentq(lambda t: j_integral(case, t, decades=decades) - target,
                        max(1.0, hi / 2.0), hi, xtol=blowup_module.LIFESPAN_XTOL, rtol=8.9e-16))


def _bracket_cases():
    """The 32 points of the benchmark's sweep (E1 = 4), the far root of
    test_lifespan_is_finite_far_beyond_1e12 and 60 random cases."""
    rng = np.random.default_rng(29)
    grid = [BlowupCase(ell, alpha, im_m, 1.0, 1.0, 4.0) for ell in (0.5, 0.667, 1.0, 2.0)
            for alpha in (0.3, 0.5, 1.0, 2.0) for im_m in (0.0, 0.5)]
    random = [BlowupCase(ell=rng.uniform(0.0, 3.0), alpha_exp=rng.uniform(0.05, 2.0),
                         im_m_abs=rng.uniform(0.0, 2.0), c0=10 ** rng.uniform(-1, 1),
                         r_support=10 ** rng.uniform(-1, 1), e1=10 ** rng.uniform(-3, 3))
              for _ in range(60)]
    return grid + [BlowupCase(0.5, 2 / 3, 0.0, 1.0, 1.0, 1e-6)] + random


def test_lifespan_walks_the_decades_to_the_doubling_bracket(monkeypatch):
    """The decade walk finds the bracket the doubling from 2 finds, so every
    T_bu keeps its bits, with fewer quadratures in all: on the far root
    (T_bu near e^600) it skips about 860 doublings, one J each.  (A case can
    take one more: the walk integrates the whole decade where J reaches the
    target.)"""
    counts = {"walk": [], "doubling": []}
    original = blowup_module.quad

    def counted(*args, **kwargs):
        counts[method][-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(blowup_module, "quad", counted)
    for case in _bracket_cases():
        for method in counts:
            counts[method].append(0)
        method = "walk"
        t_bu = lifespan(case)
        method = "doubling"
        assert t_bu == _doubling_lifespan(case)
    walk, doubling = (np.array(counts[m]) for m in ("walk", "doubling"))
    assert walk[:32].sum() < doubling[:32].sum()  # the benchmark's sweep
    assert walk[32] < 0.3 * doubling[32]  # the far root
    assert walk.sum() < 0.6 * doubling.sum()


def _blowup_setup(e_target=4.0):
    grid = Grid(dim=1, n=256, box_length=8.0)
    probe = compact_bump(grid, amplitude=1.0, width=1.0, coeffs=(1, 0, 0, 0))
    amp = math.sqrt(e_target / l2_norm_sq(probe))
    return grid, compact_bump(grid, amplitude=amp, width=1.0, coeffs=(1, 0, 0, 0))


def test_empirical_blowup_matches_bound():
    grid, _ = _blowup_setup(4.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.3, record_every=1,
                       on_cone_violation="stop")
    case = BlowupCase(ell=0.0, alpha_exp=2.0, c0=1.0, r_support=1.0, e1=4.0)
    rep = empirical_blowup([case], grid, cfg)[0]
    assert rep["t_bound"] == lifespan(case)
    assert rep["t_numerical"] is not None
    assert rep["satisfied"] is True
    assert rep["t_numerical"] <= math.sqrt(2.0) * 1.1
    assert rep["comparison"]["holds"]


def test_empirical_blowup_of_a_stack_reports_each_case():
    """Cases of one cosmology run as one stack: each report has the bound,
    blow-up time and verdict of the case run alone, and a comparison check
    within rounding of it (see test_split_stack_rows_run_as_they_would_alone)."""
    grid = Grid(dim=1, n=256, box_length=16.0)
    cfg = SolverConfig(t_end=4.0, cfl=0.3, on_cone_violation="stop")
    cases = [BlowupCase(ell=0.5, alpha_exp=a, im_m_abs=i, e1=4.0)
             for a in (0.3, 1.0, 2.0) for i in (0.0, 0.5)]
    for rep, case in zip(empirical_blowup(cases, grid, cfg), cases):
        alone = empirical_blowup([case], grid, cfg)[0]
        for key in ("t_bound", "t_numerical", "satisfied"):
            assert rep[key] == alone[key]
        ineq, ineq_alone = rep["comparison"], alone["comparison"]
        assert (ineq["holds"], ineq["points_checked"]) == (
            ineq_alone["holds"], ineq_alone["points_checked"])
        assert ineq["worst_violation"] == pytest.approx(ineq_alone["worst_violation"], abs=1e-13)
    with pytest.raises(ValueError, match="must share ell, r_support, e1"):
        empirical_blowup([cases[0], BlowupCase(ell=1.0, alpha_exp=2.0, e1=4.0)], grid, cfg)
    with pytest.raises(ValueError, match="empirical_blowup needs a case, got an empty list"):
        empirical_blowup([], grid, cfg)


def test_empirical_blowup_zero_data():
    with pytest.raises(ValueError):
        # zero energy is not an admissible case for the bound, nor data to scale
        BlowupCase(ell=0.0, alpha_exp=2.0, c0=1.0, e1=0.0)


def test_linear_run_never_flags_blowup():
    grid, f0 = _blowup_setup(4.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.3, record_every=1,
                       on_cone_violation="stop")
    rec = propagate(f0, Cosmology(0.0, 1.0), ModelSpec(), cfg)
    assert not rec.blown_up


def test_differential_inequality_on_blowup_run():
    """The run obeys the integrated inequality E >= Y at every recorded time
    after the start (it blows up before T_bu, so each one is checked)."""
    grid, _ = _blowup_setup(4.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.2, record_every=1,
                       on_cone_violation="stop")
    case = BlowupCase(ell=0.0, alpha_exp=2.0, c0=1.0, r_support=1.0, e1=4.0)
    rep = empirical_blowup([case], grid, cfg)[0]
    ineq = rep["comparison"]
    assert ineq["holds"] and ineq["points_checked"] > 10
    assert ineq["worst_violation"] <= 0.0


def _blowup_record(record_every=1):
    grid, f0 = _blowup_setup(4.0)
    cfg = SolverConfig(t_start=1.0, t_end=3.0, cfl=0.2, record_every=record_every,
                       on_cone_violation="stop")
    model = ModelSpec(nonlinearity=NonlinearitySpec(kind="blowup_G", alpha_exp=2.0, c0=1.0))
    case = BlowupCase(ell=0.0, alpha_exp=2.0, c0=1.0, r_support=1.0, e1=l2_norm_sq(f0))
    (rec,) = propagate(f0, Cosmology(0.0, 1.0), [model], cfg, observables=("l2",))
    return rec, case


def test_comparison_check_fails_a_tampered_record():
    """Halving E after the first step puts it below Y: the bound fails."""
    rec, case = _blowup_record()
    assert comparison_check(rec, case)["holds"]
    rec.series["l2"][1:] *= 0.5
    tampered = comparison_check(rec, case)
    assert not tampered["holds"] and tampered["worst_violation"] > 0.5


def test_comparison_check_verdict_is_independent_of_the_record_cadence():
    """J, and so Y, depends on the recorded time only, so thinning the record
    drops points but changes no verdict: the sparse record's times are a
    subset of the dense record's, with the same E and Y there."""
    dense, case = _blowup_record(record_every=1)
    sparse, _ = _blowup_record(record_every=4)
    assert set(sparse.series["times"]) <= set(dense.series["times"])
    d, s = comparison_check(dense, case), comparison_check(sparse, case)
    assert d["holds"] and s["holds"]
    assert d["points_checked"] > s["points_checked"] > 0
    assert s["worst_violation"] <= d["worst_violation"]


def test_comparison_check_builds_the_integrand_once(monkeypatch):
    """J at each recorded time reads one integrand per case: comparison_check
    on a record builds it (and its Cosmology) once, however many times it
    checks, and a second check on an equal case builds none."""
    rec, case = _blowup_record()
    builds = []
    monkeypatch.setattr(blowup_module, "Cosmology",
                        lambda *args: builds.append(args) or Cosmology(*args))
    blowup_module._integrand.cache_clear()
    first = comparison_check(rec, case)
    assert first["points_checked"] > 10 and builds == [(case.ell, 1.0)]
    assert comparison_check(rec, dataclasses.replace(case)) == first
    assert len(builds) == 1


def test_comparison_check_rejects_a_record_not_starting_at_one():
    rec, case = _blowup_record()
    rec.series["times"] = rec.series["times"] + 0.5
    with pytest.raises(ValueError, match="starts at t = 1"):
        comparison_check(rec, case)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    alpha=st.one_of(st.floats(0.1, 0.55), st.floats(0.8, 3.0)),
    r_support=st.floats(0.2, 5.0),
    e1=st.floats(0.1, 10.0),
)
def test_comparison_check_against_the_closed_form(alpha, r_support, e1):
    """ell = 0 and Im m = 0: A(t) = t - 1, D = 0 and
    J(t) = [(R + t - 1)^(1 - 3 alpha/2) - R^(1 - 3 alpha/2)] / (1 - 3 alpha/2).
    A record with E = Y from that closed form sits on the bound: its gap
    (Y - E) / E = (worst + COMPARISON_RTOL) / (1 - COMPARISON_RTOL) is round-off."""
    case = BlowupCase(ell=0.0, alpha_exp=alpha, r_support=r_support, e1=e1)
    k = 1.0 - 1.5 * alpha
    target = e1 ** (-0.5 * alpha) / (0.5 * alpha)
    reach = target if k > 0 else min(target, r_support**k / -k)  # J's total if k < 0
    j = np.linspace(0.0, 0.9 * reach, 12)  # J at the recorded times
    times = (r_support**k + k * j) ** (1.0 / k) - r_support + 1.0
    times[0] = 1.0
    j_exact = ((r_support + times - 1.0) ** k - r_support**k) / k
    energy = (0.5 * alpha * (target - j_exact)) ** (-2.0 / alpha)
    rec = RunRecord(series={"times": times, "l2": energy}, cosmology=case.cosmology,
                    mass=0j, potential_kind="none", potential_gamma2_ok=True,
                    nonlinearity_kind="blowup_G", sobolev_order=1, support_radius0=r_support,
                    cone_center=(0.0, 0.0, 0.0))
    check = comparison_check(rec, case)
    assert check["holds"] and check["points_checked"] == 11
    assert abs(check["worst_violation"] + COMPARISON_RTOL) <= 1e-10


def test_ladder_nodes_and_weights_are_leggauss():
    x, w = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(blowup_module._GAUSS_NODES - x)) <= 2e-16
    assert np.max(np.abs(blowup_module._GAUSS_WEIGHTS - w)) <= 2e-16


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ell=st.one_of(st.floats(0.0, 0.999), st.floats(1.001, 2.5)),
    alpha=st.floats(0.1, 3.0),
    im_m=st.floats(0.0, 1.0),
    r_support=st.floats(0.2, 5.0),
    t=st.floats(1.0, 1e6),
)
@example(ell=1.001, alpha=3.0, im_m=1.0, r_support=0.2, t=2.0)  # cancellation in s^k - 1
@example(ell=2.5, alpha=3.0, im_m=1.0, r_support=0.2, t=1.1)  # R + A vanishes near s = 1
@example(ell=1.0, alpha=3.0, im_m=1.0, r_support=0.2, t=1e6)
@example(ell=1.0 + 1e-13, alpha=0.1, im_m=0.0, r_support=5.0, t=3.7e5)
@example(ell=1.0 - 1e-13, alpha=1.5, im_m=0.5, r_support=1.0, t=2.0)
def test_ladder_j_matches_mpmath_and_j_integral(ell, alpha, im_m, r_support, t):
    """The Gauss ladder's J against a 30-digit reference (its distance is
    log s where Cosmology treats ell as 1) and against j_integral.  The
    first examples are the corners that set the ladder's form and its
    LADDER_STEPS.  ell within 1e-3 of 1 but not within 1e-12 is left out:
    there the scalar integrand's s^k - 1 cancels, and j_integral with it."""
    case = BlowupCase(ell=ell, alpha_exp=alpha, im_m_abs=im_m, r_support=r_support)
    j = blowup_module._ladder_j(case, np.array([1.0, t]))[-1]
    reference = float(_mpmath_j(ell, alpha, im_m, r_support, t,
                                log_distance=case.cosmology.ell_is_one))
    assert j == pytest.approx(reference, rel=1e-14, abs=0.0)
    assert j == pytest.approx(j_integral(case, t), rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ell=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    times=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=40),
    keep=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_ladder_j_at_a_time_ignores_the_other_times(ell, times, keep):
    """J at a time is bit-identical whatever other times come with it: in a
    record, in any subset of it, or alone."""
    case = BlowupCase(ell=ell, alpha_exp=0.5, im_m_abs=0.5)
    times = np.sort(np.array(times))
    every = blowup_module._ladder_j(case, times)
    some = np.array(keep[:len(times)])
    assume(some.any())
    assert np.array_equal(blowup_module._ladder_j(case, times[some]), every[some])
    alone = [blowup_module._ladder_j(case, times[i:i + 1])[0] for i in range(len(times))]
    assert np.array_equal(alone, every)


def test_comparison_check_stops_at_a_closed_bracket():
    """A record that runs past T_bu, with an E that fails the bound at every
    point after T_bu.  The ladder's bracket is positive exactly before T_bu
    on these times, and no point whose bracket is <= 0 is checked.  Y is
    evaluated on the checked points only, so no RuntimeWarning."""
    case = BlowupCase(ell=0.5, alpha_exp=0.5, e1=4.0)
    t_bu = lifespan(case)
    target = case.e1 ** -0.25 / 0.25
    assert math.isfinite(t_bu)
    times = np.geomspace(1.0, 4.0 * t_bu, 40)
    before = times < t_bu
    assert np.array_equal(target - blowup_module._ladder_j(case, times) > 0.0, before)
    assert 0 < before.sum() < len(times)
    rec = RunRecord(series={"times": times, "l2": np.where(before, 1e300, 1e-300)},
                    cosmology=case.cosmology, mass=0j, potential_kind="none",
                    potential_gamma2_ok=True, nonlinearity_kind="blowup_G",
                    sobolev_order=1, support_radius0=case.r_support,
                    cone_center=(0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert comparison_check(rec, case) == {
            "holds": True, "points_checked": int(before.sum()) - 1,  # t = 1 is not
            "worst_violation": -1.0}


def _force_method(monkeypatch, method):
    """Make empirical_blowup step its one row with RK4, by passing
    propagate that row's model alone, for method "rk4"; "split" leaves its
    stack as it is."""
    if method == "rk4":
        monkeypatch.setattr(blowup_module, "propagate", lambda f0, cosmo, models, *args, **kwargs:
                            [propagate(f0, cosmo, *models, *args, **kwargs)])


def test_blowup_detection_emits_no_overflow_warning(monkeypatch):
    """A focusing RK4 run that blows up overflows its squared norm; the
    detector reads that as blow-up without a RuntimeWarning.  (Split runs:
    test_split_blowup_detection_emits_no_warning.)"""
    _force_method(monkeypatch, "rk4")
    grid = Grid(dim=1, n=64, box_length=8.0)
    e1 = l2_norm_sq(compact_bump(grid, amplitude=3.0, width=1.0, coeffs=(1, 0, 0, 0)))
    cfg = SolverConfig(t_start=1.0, t_end=4.0, cfl=0.3, record_every=1,
                       on_cone_violation="stop")
    case = BlowupCase(ell=0.5, alpha_exp=2.0, c0=1.0, r_support=1.0, e1=e1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = empirical_blowup([case], grid, cfg)[0]
    assert rep["t_numerical"] is not None


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_split_blowup_detection_emits_no_warning(alpha):
    """A split run crosses the pointwise blow-up inside a step; the step
    returns non-finite data, which the detector reads as blow-up, without a
    RuntimeWarning on the way."""
    grid = Grid(dim=1, n=256, box_length=16.0)
    cfg = SolverConfig(t_start=1.0, t_end=4.0, cfl=0.3, on_cone_violation="stop")
    case = BlowupCase(ell=0.5, alpha_exp=alpha, c0=1.0, r_support=1.0, e1=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = empirical_blowup([case], grid, cfg)[0]
    assert rep["t_numerical"] is not None and rep["satisfied"] is True


@pytest.mark.parametrize("method, t_numerical", [
    ("rk4", 1.17109875154531), ("split", 1.1495447867929423),
])
def test_empirical_blowup_on_the_sweep_settings(monkeypatch, method, t_numerical):
    """The sweep's case (ell 1, alpha 2, Im m 0) on the benchmark's empirical
    settings.  empirical_blowup runs split; RK4, forced here through its
    propagate, is the regression oracle and reads the time the sweep gave
    before split.  Split detects the blow-up one step earlier, nearer the
    time a dt_max 2e-3 RK4 run gives (about 1.157)."""
    _force_method(monkeypatch, method)
    grid = Grid(dim=1, n=256, box_length=16.0)
    cfg = SolverConfig(t_end=4.0, cfl=0.3, on_cone_violation="stop")
    case = BlowupCase(ell=1.0, alpha_exp=2.0, im_m_abs=0.0, c0=1.0, r_support=1.0, e1=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = empirical_blowup([case], grid, cfg)[0]
    assert rep["t_numerical"] == t_numerical
