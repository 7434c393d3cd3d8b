"""Model terms: complex mass, matrix potentials, nonlinearities and a
forcing, all declared by ModelSpec, the one place the solver reads them from.

Nonlinearities come in two flavours.  The Lipschitz family (power_abs) is
stated directly as the right side of the first-order symmetric hyperbolic
system.  The structured families are stated in the covariant form instead:
lochak_form multiplies psi by the induced potential
alpha(xi, eta) I + i beta(xi, eta) g5 and blowup_G contributes
G(psi) i g0 psi, both on the i-g0-d/dt side of the equation.
hyperbolic_rhs_nonlinearity returns every family as a first-order right
side, with the left factor -i g0 of the covariant ones written out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .field import Grid, SpinorField, _torus_distance_sq, bilinear_densities
from .gamma import BASIS

__all__ = [
    "Mass",
    "PotentialSpec",
    "NonlinearitySpec",
    "ModelSpec",
    "PotentialFlagError",
    "linear_form",
    "potential_field",
    "hyperbolic_rhs_nonlinearity",
]


@dataclass(frozen=True)
class Mass:
    """Complex mass parameter; enters the equation as m / t."""

    m: complex

    def __post_init__(self):
        if not (math.isfinite(self.m.real) and math.isfinite(self.m.imag)):
            raise ValueError("mass must be finite")


class PotentialFlagError(ValueError):
    """A declared structural property of the potential does not hold."""


@dataclass(frozen=True)
class PotentialSpec:
    """Static matrix potential V(x) = env(x) * amplitude * M.

    kinds:
      zero          -- V = 0
      scalar_bump   -- env(x) = exp(-|x - center|^2 / width^2) on the torus,
                       M = I4
      custom_matrix -- the same envelope times a fixed 4x4 matrix M

    The envelope is a positive real scalar, so V(x) is self-adjoint, or
    satisfies V^T g2 + g2 V = 0, at every x exactly when amplitude * M
    does.  Construction raises PotentialFlagError when a required flag
    fails.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    width: float = 1.0
    matrix: tuple | None = None  # custom_matrix: 4x4, stored as a nested tuple of complex
    hermitian_required: bool = False
    gamma2_condition_required: bool = False

    def __post_init__(self):
        if self.kind not in ("zero", "scalar_bump", "custom_matrix"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom_matrix":
            if self.matrix is None:
                raise ValueError("custom_matrix potential needs a matrix")
            try:
                m = np.asarray(self.matrix, dtype=complex)
            except (TypeError, ValueError):  # ragged rows or non-numbers
                m = None
            if m is None or m.shape != (4, 4):
                raise ValueError("'matrix' must be a 4x4 matrix of numbers")
            # a nested tuple of complex, so every form gives one hashable spec
            object.__setattr__(self, "matrix", tuple(map(tuple, m.tolist())))
        if self.kind != "zero" and self.width <= 0:
            raise ValueError("potential width must be positive")
        if self.hermitian_required and not self.hermitian:
            raise PotentialFlagError("V is not self-adjoint")
        if self.gamma2_condition_required and not self.gamma2_ok:
            raise PotentialFlagError("V^T g2 + g2 V != 0")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def constant_matrix(self) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros((4, 4), dtype=complex)
        if self.kind == "scalar_bump":
            return np.eye(4, dtype=complex)
        return np.asarray(self.matrix, dtype=complex)

    @property
    def hermitian(self) -> bool:
        """V = V^dagger at every point."""
        v = self.amplitude * self.constant_matrix()
        return bool(np.allclose(v, v.conj().T, atol=1e-12))

    @property
    def gamma2_ok(self) -> bool:
        """V^T g2 + g2 V = 0 at every point."""
        v = self.amplitude * self.constant_matrix()
        return bool(np.allclose(v.T @ BASIS.g2 + BASIS.g2 @ v, 0.0, atol=1e-12))


@lru_cache(maxsize=32)
def potential_field(spec: PotentialSpec, grid: Grid) -> np.ndarray | None:
    """V sampled on the whole grid, shape (4, 4, *spatial), once per (spec,
    grid) since every family is static, read-only; None when V = 0."""
    if spec.is_zero:
        return None
    env = spec.amplitude * np.exp(
        -_torus_distance_sq(grid, spec.center) / spec.width**2
    )
    m = spec.constant_matrix()
    vf = m.reshape((4, 4) + (1,) * grid.dim) * env
    vf.setflags(write=False)
    return vf


@dataclass(frozen=True)
class NonlinearitySpec:
    """Selected nonlinear term.

    kinds: none, power_abs (sign * |psi|^alpha psi), lochak_form
    ((alpha_fn I + i beta_fn g5) psi with real alpha_fn(xi, eta),
    beta_fn(xi, eta)), blowup_G (c0 |psi|^alpha I as G, contributing
    G(psi) i g0 psi).
    """

    kind: str = "none"
    alpha_exp: float = 1.0
    sign: int = 1
    c0: float = 1.0
    alpha_fn: Callable | None = None
    beta_fn: Callable | None = None

    def __post_init__(self):
        kinds = ("none", "power_abs", "lochak_form", "blowup_G")
        if self.kind not in kinds:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind != "none" and not self.alpha_exp > 0:
            raise ValueError("alpha_exp must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.kind == "blowup_G" and not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if self.kind == "lochak_form":
            if self.alpha_fn is None or self.beta_fn is None:
                raise ValueError("lochak_form needs alpha_fn and beta_fn")
            _check_vanishing_at_origin(self.alpha_fn, "alpha_fn")
            _check_vanishing_at_origin(self.beta_fn, "beta_fn")

    @property
    def is_none(self) -> bool:
        return self.kind == "none"


def _check_vanishing_at_origin(fn: Callable, name: str) -> None:
    """Numerical check that fn(xi, eta) = O(|xi| + |eta|) near the origin."""
    z = np.array(0.0)
    if abs(float(fn(z, z))) > 1e-14:
        raise ValueError(f"{name}(0, 0) must vanish")
    for s in (1e-3, 1e-6, 1e-9):
        for xi, eta in ((s, 0.0), (0.0, s), (s, s), (-s, s)):
            val = float(fn(np.array(xi), np.array(eta)))
            if abs(val) > 1e3 * (abs(xi) + abs(eta)):
                raise ValueError(f"{name} does not vanish linearly at the origin")


def linear_form(c_xi: float, c_eta: float) -> Callable:
    """Real linear form c_xi * xi + c_eta * eta (vanishes at the origin)."""

    def fn(xi, eta):
        return c_xi * xi + c_eta * eta

    return fn


@dataclass(frozen=True)
class ModelSpec:
    """Everything entering the equation besides the background geometry: the
    mass and the x-dependent terms i V psi + F(psi) + source(t)."""

    mass: Mass = Mass(0.0 + 0.0j)
    potential: PotentialSpec = PotentialSpec()
    nonlinearity: NonlinearitySpec = NonlinearitySpec()
    source: Callable[[float], np.ndarray] | None = None  # t -> forcing shaped like f.data

    @property
    def is_free(self) -> bool:
        """True when the right side has no x-dependent term."""
        return self.potential.is_zero and self.nonlinearity.is_none and self.source is None


def hyperbolic_rhs_nonlinearity(spec: NonlinearitySpec, f: SpinorField) -> np.ndarray:
    """Nonlinear term as the right side of the first-order system (an array).

    The covariant families carry the left factor -i g0 written out:
    -i g0 (alpha I + i beta g5) psi = -i alpha g0 psi + beta g0 g5 psi for
    lochak_form, and -i g0 (c0 |psi|^a i g0 psi) = c0 |psi|^a psi for
    blowup_G, which is power_abs (sign |psi|^a psi) with c0 for the sign.
    Zero input always maps to zero output.
    """
    if spec.is_none:
        raise ValueError("hyperbolic_rhs_nonlinearity requires kind != 'none'")
    p = f.data
    if spec.kind == "lochak_form":
        dens = bilinear_densities(f)
        ia = 1j * np.asarray(spec.alpha_fn(dens.xi, dens.eta), dtype=float)
        b = np.asarray(spec.beta_fn(dens.xi, dens.eta), dtype=float)
        # g0 = diag(1, 1, -1, -1); g0 g5 maps (u, l) to (-l, u)
        up, lo = p[:2], p[2:]
        out = np.concatenate((-ia * up - b * lo, ia * lo + b * up))
    else:  # power_abs, blowup_G: c |psi|^a psi
        c = spec.sign if spec.kind == "power_abs" else spec.c0
        mag = np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
        out = c * mag**spec.alpha_exp * p
    return out.astype(complex, copy=False)

