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
    for t in (2.0, 0.5):
        if t < 1.0:
            with pytest.raises(ValueError):
                c.travel_distance(t)
        else:
            assert c.travel_distance(t) > 0.0
    for method in (c.scale, c.phi, c.dphi, c.travel_distance):
        with pytest.raises(ValueError):
            method(math.nan)
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
    t0 terms, (t**(1-ell) - 1)/(a0 (1-ell)) or log(t)/a0, at every time."""
    c = Cosmology(ell, a0)
    for t in times:
        if c.ell_is_one:
            expected = math.log(t) / a0
        else:
            expected = (t ** (1.0 - ell) - 1.0) / (a0 * (1.0 - ell))
        assert c.travel_distance(t) == expected
        assert c.travel_distance(t, 1.0) == expected


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


SCALAR_KINDS = (float, np.float64, int, np.array)


@settings(max_examples=300, deadline=None)
@given(ELLS, st.integers(1, 1000), st.integers(1, 1000), st.floats(0.1, 10.0))
def test_every_scalar_kind_gives_the_same_float(ell, n, n0, a0):
    """A time given as a builtin float, np.float64, int or 0-d array gives the
    same builtin float, and is rejected outside the domain with the same
    ValueError; an array with ndim > 0 raises TypeError."""
    c = Cosmology(ell, a0)
    t, t0 = max(n, n0), min(n, n0)
    calls = {
        "scale": lambda kind, s: c.scale(kind(s)),
        "phi": lambda kind, s: c.phi(kind(s)),
        "dphi": lambda kind, s: c.dphi(kind(s)),
        "travel_distance": lambda kind, s: c.travel_distance(kind(s)),
        "travel_distance from t0": lambda kind, s: c.travel_distance(kind(s), kind(t0)),
    }
    for name, call in calls.items():
        values = [call(kind, t) for kind in SCALAR_KINDS]
        assert all(type(v) is float for v in values), name
        assert len(set(values)) == 1, name
        errors = {_error(lambda: call(kind, bad)) for kind in SCALAR_KINDS for bad in (0, -t)}
        assert len(errors) == 1, name
        with pytest.raises(TypeError):
            call(lambda s: np.array([float(s)]), t)
    assert c.travel_distance(float(t)) == c.travel_distance(float(t), 1.0)
    bad_pairs = [(t, 0), (t, -t0)] + ([(t0, t)] if t0 < t else [])
    errors = {_error(lambda: c.travel_distance(kind(a), kind(b)))
              for kind in SCALAR_KINDS for a, b in bad_pairs}
    assert errors == {"travel_distance requires t >= t0 > 0"}


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
    values = [c.phi(t) for t in np.linspace(0.2, 30.0, 400)]
    assert np.all(np.diff(values) > 0)


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
