"""Cosmological background: power-law scale factor and causal reach.

The scale factor is a(t) = a0 * t**ell with a general real exponent.  The
comoving travel distance carries the whole causal structure: a signal
emitted at (x0, t0) reaches at time t >= t0 the sphere
|x - x0| = travel_distance(t, t0) = (phi(t) - phi(t0)) / a0.

There is one evaluation path, for scalar times: quadratures, step rules
and cone checks call the methods once per scalar time.  Every method
converts its times with float(), so builtin floats, np.float64, ints and
0-d arrays all work, and an array with ndim > 0 raises numpy's TypeError.
The closed forms are evaluated with ``**`` and ``math.log`` and give
builtin floats; a power past the float range is inf with a RuntimeWarning.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

__all__ = ["Cosmology"]

# below this distance from 1 the exponent is treated as exactly 1
# (logarithmic branch of phi)
_ELL_ONE_TOL = 1e-12


def _time(t, what: str) -> float:
    """t as a builtin float, checked to be > 0 (which rejects NaN)."""
    t = float(t)
    if not t > 0:
        raise ValueError(f"{what} requires t > 0")
    return t


def _pow(x: float, p: float) -> float:
    """x**p for x > 0; inf, with a RuntimeWarning, past the float range."""
    try:
        return x**p
    except OverflowError:
        warnings.warn("overflow encountered in power", RuntimeWarning, stacklevel=3)
        return math.inf


@dataclass(frozen=True)
class Cosmology:
    """Spatially flat background with scale factor a(t) = a0 * t**ell, for
    scalar times t > 0 (see the module docstring).  ell and a0 are stored
    as builtin floats."""

    ell: float
    a0: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.ell):
            raise ValueError("ell must be finite")
        if not (self.a0 > 0 and math.isfinite(self.a0)):
            raise ValueError("a0 must be positive and finite")
        object.__setattr__(self, "ell", float(self.ell))
        object.__setattr__(self, "a0", float(self.a0))

    @cached_property
    def ell_is_one(self) -> bool:
        return abs(self.ell - 1.0) < _ELL_ONE_TOL

    def scale(self, t) -> float:
        """a(t) = a0 * t**ell for t > 0."""
        return self.a0 * _pow(_time(t, "scale factor"), self.ell)

    def phi(self, t) -> float:
        """t**(1-ell)/(1-ell), or log(t) when ell = 1 (a0 = 1 convention)."""
        t = _time(t, "phi")
        if self.ell_is_one:
            return math.log(t)
        return _pow(t, 1.0 - self.ell) / (1.0 - self.ell)

    def dphi(self, t) -> float:
        """d phi / dt = t**(-ell)."""
        return _pow(_time(t, "dphi"), -self.ell)

    def travel_distance(self, t, t0=1.0) -> float:
        """Comoving distance crossed by a null ray between times t0 and t.

        Closed form of the integral of 1/a over [t0, t]:
        (t**(1-ell) - t0**(1-ell))/(a0*(1-ell)) for ell != 1, and
        (log(t) - log(t0))/a0 for ell = 1; requires t >= t0 > 0.  Data
        supported within R of a point at t0 stay within R + this distance
        of it at t.  The t0 terms are exactly 0 for the default t0 = 1, and t
        and t0 go through the same arithmetic, so the distance is additive
        over consecutive intervals up to rounding of the differences.
        """
        t, t0 = _time(t, "travel_distance"), float(t0)
        if not (t0 > 0 and t >= t0):
            raise ValueError("travel_distance requires t >= t0 > 0")
        if self.ell_is_one:
            return (math.log(t) - math.log(t0)) / self.a0
        p = 1.0 - self.ell
        return (_pow(t, p) - _pow(t0, p)) / (self.a0 * p)
