"""Shipped initial-data families.

All constructors return a SpinorField at the requested start time.  Random
coefficients come from a counter-based Philox stream keyed by the seed, so
identical configurations reproduce identical fields on any platform.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .field import Grid, SpinorField

__all__ = [
    "gaussian_bump",
    "lm_constrained_bump",
    "compact_bump",
    "random_smooth",
    "make_initial_data",
]

DEFAULT_COEFFS = (1.0, 0.6, 0.4j, 0.8)


def _envelope_gaussian(grid: Grid, width: float, center) -> np.ndarray:
    from .field import _torus_distance_sq

    return np.exp(-_torus_distance_sq(grid, center) / width**2)


def _envelope_compact(grid: Grid, width: float, center) -> np.ndarray:
    """Smooth mollifier profile: exactly zero outside radius `width`."""
    from .field import _torus_distance_sq

    r2 = _torus_distance_sq(grid, center) / width**2
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def _center3(center) -> tuple[float, float, float]:
    if center is None:
        return (0.0, 0.0, 0.0)
    if np.isscalar(center):
        return (float(center), 0.0, 0.0)
    c = tuple(float(v) for v in center)
    return c + (0.0,) * (3 - len(c))


def gaussian_bump(
    grid: Grid,
    amplitude: float = 1.0,
    width: float = 1.0,
    center=None,
    coeffs=DEFAULT_COEFFS,
    wavenumber: float = 0.0,
    time: float = 1.0,
) -> SpinorField:
    """Gaussian envelope times fixed complex component coefficients."""
    env = _envelope_gaussian(grid, width, _center3(center))
    if wavenumber:
        x = grid.coordinate_arrays()[0]
        env = env * np.exp(1j * wavenumber * x)
    data = amplitude * np.array(coeffs, dtype=complex).reshape((4,) + (1,) * grid.dim) * env
    return SpinorField(grid, data.astype(complex), time)


def lm_constrained_bump(
    grid: Grid,
    amplitude: float = 1.0,
    width: float = 1.0,
    center=None,
    second_amplitude: float = 0.0,
    time: float = 1.0,
) -> SpinorField:
    """Charge-conjugation fixed point (-i g1, i g2, g2, g1), real envelopes.

    These states have identically zero scalar and pseudoscalar densities
    (rho^2 = 0) and zero Majorana defect at unit phase z = 1, and both
    properties are preserved by the real-mass evolution.
    """
    g1 = amplitude * _envelope_gaussian(grid, width, _center3(center))
    g2 = second_amplitude * _envelope_gaussian(grid, 0.7 * width, _center3(center))
    data = np.stack([-1j * g1, 1j * g2, g2 + 0j, g1 + 0j])
    return SpinorField(grid, data.astype(complex), time)


def compact_bump(
    grid: Grid,
    amplitude: float = 1.0,
    width: float = 1.0,
    center=None,
    coeffs=DEFAULT_COEFFS,
    time: float = 1.0,
) -> SpinorField:
    """Compactly supported mollifier bump (support radius = width)."""
    env = _envelope_compact(grid, width, _center3(center))
    data = amplitude * np.array(coeffs, dtype=complex).reshape((4,) + (1,) * grid.dim) * env
    return SpinorField(grid, data.astype(complex), time)


def random_smooth(
    grid: Grid,
    amplitude: float = 1.0,
    seed: int = 0,
    corr_modes: float = 4.0,
    time: float = 1.0,
) -> SpinorField:
    """Random band-limited field from a Philox stream.

    Fourier coefficients are complex Gaussians damped by
    exp(-(|k| h_mode / corr_modes)^2) with |k| in integer mode units.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    shape = (4,) + (grid.n,) * grid.dim
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    modes = np.fft.fftfreq(grid.n) * grid.n
    m2 = np.zeros((grid.n,) * grid.dim)
    if grid.dim == 1:
        m2 = modes**2
    else:
        m2 = (
            modes[:, None, None] ** 2
            + modes[None, :, None] ** 2
            + modes[None, None, :] ** 2
        )
    coeff *= np.exp(-m2 / corr_modes**2)
    data = np.fft.ifftn(coeff, axes=grid.spatial_axes)
    scale = amplitude / max(np.max(np.abs(data)), 1e-300)
    return SpinorField(grid, (scale * data).astype(complex), time)


_FAMILIES = {
    "gaussian": gaussian_bump,
    "lm_gaussian": lm_constrained_bump,
    "compact_bump": compact_bump,
    "plane_wave": partial(gaussian_bump, wavenumber=1.0, coeffs=(1.0, 0.0, 0.0, 0.0)),
    "random_smooth": random_smooth,
}


def make_initial_data(grid: Grid, family: str, time: float = 1.0, **kwargs) -> SpinorField:
    """Dispatch on the configured family name."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown initial data family {family!r}; options: {sorted(_FAMILIES)}"
        ) from None
    return builder(grid, time=time, **kwargs)
