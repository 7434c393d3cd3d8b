"""Cosmological background: power-law scale factor and causal reach.

The scale factor is a(t) = a0 * t**ell with a general real exponent.  The
comoving travel distance carries the whole causal structure: a signal
emitted at (x0, t0) reaches at time t >= t0 the sphere
|x - x0| = travel_distance(t, t0) = (phi(t) - phi(t0)) / a0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Cosmology"]

# below this distance from 1 the exponent is treated as exactly 1
# (logarithmic branch of phi)
_ELL_ONE_TOL = 1e-12


def _positive_times(t, what: str) -> np.ndarray:
    """t as a float array (0-d for a scalar), checked to be > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError(f"{what} requires t > 0")
    return t


@dataclass(frozen=True)
class Cosmology:
    """Spatially flat background with scale factor a(t) = a0 * t**ell.

    Every method takes a scalar or an array of times.  A float time
    (np.float64 included) is evaluated in builtin float arithmetic, with
    ``**`` and ``math.log``, and gives a builtin float: quadratures, step
    rules and cone checks call these once per scalar, where numpy's per-call
    overhead would dominate.  Any other input (an array, a 0-d array, an
    int) goes through numpy, and a 0-d result comes back as a float.  Both
    paths evaluate the same closed form and agree to rounding (libm's pow
    and log against numpy's ufuncs, about 1 ulp).  A float power that
    overflows is handed to the numpy path, which gives inf with numpy's
    overflow warning.  ell and a0 are stored as builtin floats.
    """

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

    def scale(self, t):
        """a(t) = a0 * t**ell for t > 0."""
        if isinstance(t, float):
            if t <= 0:
                raise ValueError("scale factor requires t > 0")
            try:
                return self.a0 * float(t) ** self.ell
            except OverflowError:
                pass
        t = _positive_times(t, "scale factor")
        out = self.a0 * t**self.ell
        return float(out) if out.ndim == 0 else out

    def phi(self, t):
        """t**(1-ell)/(1-ell), or log(t) when ell = 1 (a0 = 1 convention)."""
        if isinstance(t, float):
            if t <= 0:
                raise ValueError("phi requires t > 0")
            if self.ell_is_one:
                return math.log(t)
            try:
                return float(t) ** (1.0 - self.ell) / (1.0 - self.ell)
            except OverflowError:
                pass
        t = _positive_times(t, "phi")
        if self.ell_is_one:
            out = np.log(t)
        else:
            out = t ** (1.0 - self.ell) / (1.0 - self.ell)
        return float(out) if out.ndim == 0 else out

    def dphi(self, t):
        """d phi / dt = t**(-ell)."""
        if isinstance(t, float):
            if t <= 0:
                raise ValueError("dphi requires t > 0")
            try:
                return float(t) ** -self.ell
            except OverflowError:
                pass
        t = _positive_times(t, "dphi")
        out = t ** (-self.ell)
        return float(out) if out.ndim == 0 else out

    def travel_distance(self, t, t0: float = 1.0):
        """Comoving distance crossed by a null ray between times t0 and t.

        Closed form of the integral of 1/a over [t0, t]:
        (t**(1-ell) - t0**(1-ell))/(a0*(1-ell)) for ell != 1, and
        (log(t) - log(t0))/a0 for ell = 1; requires t >= t0 > 0.  Data
        supported within R of a point at t0 stay within R + this distance
        of it at t.  The t0 terms are exactly 0 for the default t0 = 1, and t
        and t0 go through the same arithmetic, so the distance is additive
        over consecutive intervals up to rounding of the differences.  The
        float path is taken when both t and t0 are floats.
        """
        if isinstance(t, float) and isinstance(t0, float):
            if t <= 0:
                raise ValueError("travel_distance requires t > 0")
            if not t0 > 0 or t < t0:
                raise ValueError("travel_distance requires t >= t0 > 0")
            if self.ell_is_one:
                return (math.log(t) - math.log(t0)) / self.a0
            p = 1.0 - self.ell
            try:
                return (float(t) ** p - float(t0) ** p) / (self.a0 * p)
            except OverflowError:
                pass
        t = _positive_times(t, "travel_distance")
        if not t0 > 0 or (t < t0 if t.ndim == 0 else np.any(t < t0)):
            raise ValueError("travel_distance requires t >= t0 > 0")
        t0 = np.asarray(t0, dtype=float)
        if self.ell_is_one:
            out = (np.log(t) - np.log(t0)) / self.a0
        else:
            p = 1.0 - self.ell
            out = (t**p - t0**p) / (self.a0 * p)
        return float(out) if out.ndim == 0 else out
