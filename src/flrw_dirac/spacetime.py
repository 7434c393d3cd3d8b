"""Cosmological background: power-law scale factor and null-cone geometry.

The scale factor is a(t) = a0 * t**ell with a general real exponent.  The
conformal-distance function phi and the comoving travel distance carry the
whole causal structure: a signal emitted at (x0, t0) reaches at time t the
sphere |x - x0| = |phi(t) - phi(t0)| / a0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Cosmology", "Cone", "cone_radius"]

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

    def travel_distance(self, t):
        """Comoving distance crossed by a null ray between times 1 and t.

        Closed form of the integral of 1/a over [1, t]:
        (t**(1-ell) - 1)/(a0*(1-ell)) for ell != 1, log(t)/a0 for ell = 1.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 1):
            raise ValueError("travel_distance requires t >= 1")
        if self.ell_is_one:
            out = np.log(t) / self.a0
        else:
            out = (t ** (1.0 - self.ell) - 1.0) / (self.a0 * (1.0 - self.ell))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Cone:
    """Null cone with apex (x0, t0), opening forward or backward in time."""

    apex_x: tuple[float, float, float]
    apex_t: float
    direction: str = "forward"  # "forward" | "backward"

    def __post_init__(self):
        if self.apex_t <= 0:
            raise ValueError("cone apex time must be positive")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if len(self.apex_x) != 3:
            raise ValueError("apex_x must be a 3-vector")


def cone_radius(cone: Cone, cosmo: Cosmology, t: float) -> float:
    """Radius of the cone's slice at time t: |phi(t) - phi(t0)| / a0.

    Forward cones require t >= t0, backward cones t <= t0.
    """
    if t <= 0:
        raise ValueError("cone_radius requires t > 0")
    if cone.direction == "forward" and t < cone.apex_t:
        raise ValueError("forward cone evaluated before its apex")
    if cone.direction == "backward" and t > cone.apex_t:
        raise ValueError("backward cone evaluated after its apex")
    return abs(cosmo.phi(t) - cosmo.phi(cone.apex_t)) / cosmo.a0
