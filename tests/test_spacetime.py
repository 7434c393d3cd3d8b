import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flrw_dirac.spacetime import Cosmology

# ell in [0, 3], with the logarithmic branch ell = 1 drawn on its own
ELLS = st.one_of(st.just(1.0), st.floats(0.0, 3.0))


def test_scale_examples():
    assert Cosmology(2 / 3, 1.0).scale(8.0) == pytest.approx(4.0)
    assert Cosmology(0.0, 1.0).scale(5.0) == pytest.approx(1.0)
    assert Cosmology(0.5, 2.0).scale(4.0) == pytest.approx(4.0)


def test_phi_examples():
    assert Cosmology(2 / 3).phi(8.0) == pytest.approx(6.0)
    assert Cosmology(1.0).phi(math.e) == pytest.approx(1.0)
    assert Cosmology(2.0).phi(2.0) == pytest.approx(-0.5)


def test_travel_distance_examples():
    assert Cosmology(0.0, 1.0).travel_distance(3.0) == pytest.approx(2.0)
    assert Cosmology(1.0, 1.0).travel_distance(math.e**2) == pytest.approx(2.0)
    assert Cosmology(2 / 3, 1.0).travel_distance(8.0) == pytest.approx(3.0)


def test_domain_errors():
    c = Cosmology(0.5)
    with pytest.raises(ValueError):
        c.scale(0.0)
    with pytest.raises(ValueError):
        c.phi(-1.0)
    with pytest.raises(ValueError):
        c.travel_distance(0.5)
    with pytest.raises(ValueError):
        c.travel_distance(np.array([2.0, 0.5]))
    with pytest.raises(ValueError):
        Cosmology(0.5, a0=-1.0)
    with pytest.raises(ValueError):
        Cosmology(math.nan)


def test_cone_radius_examples():
    """The cone radius between t0 and t is travel_distance(t, t0), whichever
    end is the apex: the backward cone with apex 8 has radius 3 at t = 1."""
    c = Cosmology(2 / 3, 1.0)
    assert c.travel_distance(8.0, 1.0) == pytest.approx(3.0)
    assert c.travel_distance(27.0, 8.0) == pytest.approx(3.0)
    assert Cosmology(0.0, 1.0).travel_distance(4.0, 1.0) == pytest.approx(3.0)
    assert c.travel_distance(1.0, 1.0) == 0.0
    assert Cosmology(1.0).travel_distance(2.0 * math.e, 2.0) == pytest.approx(1.0)


def test_cone_wrong_side_rejected():
    c = Cosmology(0.5)
    with pytest.raises(ValueError):
        c.travel_distance(1.0, 2.0)
    with pytest.raises(ValueError):
        c.travel_distance(1.0, 0.0)
    with pytest.raises(ValueError):
        c.travel_distance(1.0, -1.0)


@pytest.mark.parametrize("ell", [-0.5, 0.0, 0.5, 1.0, 2.0])
def test_travel_distance_equals_unit_apex_cone_radius(ell):
    c = Cosmology(ell, 1.0)
    for t in (1.0, 1.7, 3.0, 9.0):
        assert c.travel_distance(t) == c.travel_distance(t, 1.0)
        assert c.travel_distance(t) == pytest.approx((c.phi(t) - c.phi(1.0)) / c.a0)


@settings(max_examples=300, deadline=None)
@given(ELLS, st.lists(st.floats(0.05, 1e3), min_size=3, max_size=3))
def test_travel_distance_is_additive(ell, times):
    t0, t1, t2 = sorted(times)
    c = Cosmology(ell, 1.0)
    whole = c.travel_distance(t2, t0)
    parts = c.travel_distance(t1, t0) + c.travel_distance(t2, t1)
    assert math.isclose(whole, parts, rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=300, deadline=None)
@given(ELLS, st.lists(st.floats(1.0, 1e4), min_size=1, max_size=5),
       st.floats(0.1, 10.0))
def test_unit_apex_travel_distance_is_the_one_sided_formula(ell, times, a0):
    """With t0 = 1 the distance is bit-equal to the closed form without the
    t0 terms, (t**(1-ell) - 1)/(a0 (1-ell)) or log(t)/a0, for scalars and
    arrays."""
    c = Cosmology(ell, a0)
    for t in (np.asarray(times[0]), np.asarray(times)):
        if c.ell_is_one:
            expected = np.log(t) / a0
        else:
            expected = (t ** (1.0 - ell) - 1.0) / (a0 * (1.0 - ell))
        assert np.array_equal(c.travel_distance(t), expected)
        assert np.array_equal(c.travel_distance(t, 1.0), expected)


def _ulps_apart(x, y, *terms):
    """|x - y| in units of the last place of the largest of the terms."""
    return abs(x - y) / math.ulp(max(abs(v) for v in terms))


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@settings(max_examples=300, deadline=None)
@given(ELLS, st.floats(1.0, 1e3), st.floats(0.05, 1.0), st.floats(0.1, 10.0),
       st.sampled_from([float, np.float64]))
def test_float_times_take_the_float_path(ell, t, frac, a0, kind):
    """A float time, builtin or np.float64, gives a builtin float that agrees
    with the array path to a few ulp of the terms it subtracts, and is
    rejected outside the domain with the array path's error."""
    c = Cosmology(ell, a0)
    t0 = max(frac * t, 0.05)
    ft, ft0 = kind(t), kind(t0)
    p = 1.0 - c.ell

    def on_array(method, *args):
        return method(np.array([t]), *args)[0]

    values = {
        "scale": (c.scale(ft), on_array(c.scale), [c.scale(ft)]),
        "phi": (c.phi(ft), on_array(c.phi), [c.phi(ft)]),
        "dphi": (c.dphi(ft), on_array(c.dphi), [c.dphi(ft)]),
    }
    if c.ell_is_one:
        terms = [math.log(t) / a0, math.log(t0) / a0]
    else:
        terms = [t**p / (a0 * p), t0**p / (a0 * p)]
    distance = c.travel_distance(ft, ft0)
    values["travel_distance"] = (distance, on_array(c.travel_distance, t0),
                                 terms + [distance])
    for name, (scalar, array, scale) in values.items():
        assert type(scalar) is float, name
        assert _ulps_apart(scalar, array, *scale) <= 4.0, name
    assert type(c.travel_distance(ft)) is float
    assert c.travel_distance(ft) == c.travel_distance(ft, 1.0)

    for name in ("scale", "phi", "dphi", "travel_distance"):
        method = getattr(c, name)
        for bad in (kind(0.0), kind(-t)):
            assert _error(lambda: method(bad)) == _error(lambda: method(np.array([bad])))
    if t0 < t:
        assert _error(lambda: c.travel_distance(ft0, ft)) == _error(
            lambda: c.travel_distance(np.array([t0]), t))
    for bad in (kind(0.0), kind(-t0)):
        assert _error(lambda: c.travel_distance(ft, bad)) == _error(
            lambda: c.travel_distance(np.array([t]), bad))


@pytest.mark.parametrize("call, expected", [
    (lambda: Cosmology(2.0).scale(1e200), math.inf),
    (lambda: Cosmology(2.0).dphi(1e-200), math.inf),
    (lambda: Cosmology(3.0).phi(1e-200), -math.inf),
    (lambda: Cosmology(-1.0).travel_distance(1e200), math.inf),
])
def test_float_overflow_gives_the_array_path_infinity(call, expected):
    """A float power past the float range is inf, with numpy's overflow
    warning, as on the array path; it does not raise OverflowError."""
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert call() == expected


@pytest.mark.parametrize("ell", [-1.0, 0.0, 0.5, 1.0, 1.5, 3.0])
def test_phi_strictly_increasing(ell):
    c = Cosmology(ell)
    t = np.linspace(0.2, 30.0, 400)
    assert np.all(np.diff(c.phi(t)) > 0)


def test_travel_distance_asymptotics():
    # expanding slower than light cones: unbounded travel distance
    assert Cosmology(0.5, 1.0).travel_distance(1e6) > 1e2
    # accelerating expansion: travel distance converges to 1/(a0 (ell-1))
    c = Cosmology(2.0, 3.0)
    assert c.travel_distance(1e6) == pytest.approx(
        1.0 / (3.0 * (2.0 - 1.0)), rel=1e-5
    )


def test_a0_scaling_of_cones():
    c = Cosmology(0.0, a0=2.0)
    assert c.travel_distance(3.0) == pytest.approx(1.0)
    assert c.travel_distance(5.0, 3.0) == pytest.approx(1.0)
