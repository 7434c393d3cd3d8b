"""Cosmological background: power-law scale factor and causal reach.

The scale factor is a(t) = a0 * t**ell with a general real exponent.  The
comoving travel distance carries the whole causal structure: a signal
emitted at (x0, t0) reaches at time t >= t0 the sphere
|x - x0| = travel_distance(t, t0) = (phi(t) - phi(t0)) / a0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Cosmology"]

# below this distance from 1 the exponent is treated as exactly 1
# (logarithmic branch of phi)
_ELL_ONE_TOL = 1e-12


def _positive_times(t, what: str) -> np.ndarray:
    """t as a float array (0-d for a scalar), checked to be > 0.

    A plain float skips the array-wide np.any test, which dominates the
    cost of a scalar call; the arithmetic after it is the same numpy
    arithmetic either way, so results stay bit-identical.
    """
    if isinstance(t, float):
        if t <= 0:
            raise ValueError(f"{what} requires t > 0")
        return np.asarray(t)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError(f"{what} requires t > 0")
    return t


@dataclass(frozen=True)
class Cosmology:
    """Spatially flat background with scale factor a(t) = a0 * t**ell."""

    ell: float
    a0: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.ell):
            raise ValueError("ell must be finite")
        if not (self.a0 > 0 and math.isfinite(self.a0)):
            raise ValueError("a0 must be positive and finite")

    @property
    def ell_is_one(self) -> bool:
        return abs(self.ell - 1.0) < _ELL_ONE_TOL

    def scale(self, t):
        """a(t) = a0 * t**ell for t > 0."""
        t = _positive_times(t, "scale factor")
        out = self.a0 * t**self.ell
        return float(out) if out.ndim == 0 else out

    def phi(self, t):
        """t**(1-ell)/(1-ell), or log(t) when ell = 1 (a0 = 1 convention)."""
        t = _positive_times(t, "phi")
        if self.ell_is_one:
            out = np.log(t)
        else:
            out = t ** (1.0 - self.ell) / (1.0 - self.ell)
        return float(out) if out.ndim == 0 else out

    def dphi(self, t):
        """d phi / dt = t**(-ell)."""
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
        over consecutive intervals up to rounding of the differences.
        """
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
