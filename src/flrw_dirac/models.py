"""Model terms: complex mass, matrix potentials and nonlinearity families.

Nonlinearities come in two flavours.  The Lipschitz family (power_abs,
power_g0g5) is stated directly as the right side of the first-order
symmetric hyperbolic system.  The structured families are stated in the
covariant form instead: lochak_form multiplies psi by
alpha(xi, eta) I + i beta(xi, eta) g5 and blowup_G contributes
G(psi) i g0 psi, both on the i-g0-d/dt side of the equation; the solver
converts them with a left multiplication by -i g0
(see hyperbolic_rhs_nonlinearity).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .field import Grid, SpinorField, bilinear_densities, sobolev_norm
from .gamma import BASIS, apply
from .initial_data import random_smooth

__all__ = [
    "Mass",
    "PotentialSpec",
    "NonlinearitySpec",
    "InducedPotential",
    "ModelSpec",
    "PotentialFlagError",
    "linear_form",
    "potential_field",
    "eval_nonlinearity",
    "hyperbolic_rhs_nonlinearity",
    "induced_potential",
    "lipschitz_probe",
]


@dataclass(frozen=True)
class Mass:
    """Complex mass parameter; enters the equation as m / t."""

    m: complex

    def __post_init__(self):
        if not (math.isfinite(self.m.real) and math.isfinite(self.m.imag)):
            raise ValueError("mass must be finite")

    @property
    def im_abs(self) -> float:
        return abs(self.m.imag)


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
    matrix: tuple | None = None  # nested 4x4 tuple for custom_matrix
    hermitian_required: bool = False
    gamma2_condition_required: bool = False

    def __post_init__(self):
        if self.kind not in ("zero", "scalar_bump", "custom_matrix"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom_matrix" and self.matrix is None:
            raise ValueError("custom_matrix potential needs a matrix")
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
        return np.asarray(self.matrix, dtype=complex).reshape(4, 4)

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


def potential_field(spec: PotentialSpec, grid: Grid) -> np.ndarray | None:
    """V sampled on the whole grid, shape (4, 4, *spatial); None when V = 0."""
    if spec.is_zero:
        return None
    from .field import _torus_distance_sq

    env = spec.amplitude * np.exp(
        -_torus_distance_sq(grid, spec.center) / spec.width**2
    )
    m = spec.constant_matrix()
    return m.reshape((4, 4) + (1,) * grid.dim) * env


@dataclass(frozen=True)
class NonlinearitySpec:
    """Selected nonlinear term.

    kinds: none, power_abs (sign * |psi|^alpha psi), power_g0g5
    (|g0 g5 psi|^alpha psi), lochak_form ((alpha_fn I + i beta_fn g5) psi
    with real alpha_fn(xi, eta), beta_fn(xi, eta)), blowup_G
    (c0 |psi|^alpha I as G, contributing G(psi) i g0 psi).
    """

    kind: str = "none"
    alpha_exp: float = 1.0
    sign: int = 1
    c0: float = 1.0
    alpha_fn: Callable | None = None
    beta_fn: Callable | None = None

    def __post_init__(self):
        kinds = ("none", "power_abs", "power_g0g5", "lochak_form", "blowup_G")
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
class InducedPotential:
    """Pointwise coefficient fields of alpha I + i beta g5 induced by a state."""

    alpha_field: np.ndarray
    beta_field: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    """Everything entering the equation besides the background geometry."""

    mass: Mass = Mass(0.0 + 0.0j)
    potential: PotentialSpec = PotentialSpec()
    nonlinearity: NonlinearitySpec = NonlinearitySpec()


def eval_nonlinearity(spec: NonlinearitySpec, f: SpinorField) -> SpinorField:
    """The selected nonlinear term in its stated (covariant) form.

    Returns sign*|psi|^a psi, |g0 g5 psi|^a psi,
    (alpha I + i beta g5) psi, or G(psi) i g0 psi for blowup_G.
    Zero input always maps to zero output.
    """
    if spec.is_none:
        raise ValueError("eval_nonlinearity requires kind != 'none'")
    p = f.data
    if spec.kind == "power_abs":
        mag = np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
        out = spec.sign * mag**spec.alpha_exp * p
    elif spec.kind == "power_g0g5":
        w = apply(BASIS.g0 @ BASIS.g5, p)
        mag = np.sqrt(np.sum(np.abs(w) ** 2, axis=0))
        out = mag**spec.alpha_exp * p
    elif spec.kind == "lochak_form":
        dens = bilinear_densities(f)
        a = np.asarray(spec.alpha_fn(dens.xi, dens.eta), dtype=float)
        b = np.asarray(spec.beta_fn(dens.xi, dens.eta), dtype=float)
        out = a * p + 1j * b * apply(BASIS.g5, p)
    else:  # blowup_G
        mag = np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
        out = 1j * spec.c0 * mag**spec.alpha_exp * apply(BASIS.g0, p)
    return f.with_data(out.astype(complex))


_MINUS_I_G0 = (-1j * BASIS.g0).copy()
_MINUS_I_G0.setflags(write=False)


def hyperbolic_rhs_nonlinearity(spec: NonlinearitySpec, f: SpinorField) -> SpinorField:
    """Nonlinear term as the right side of the first-order system.

    The covariantly stated families (lochak_form, blowup_G) are converted
    with a left factor -i g0; the Lipschitz families already are first-order
    right sides and pass through unchanged.
    """
    out = eval_nonlinearity(spec, f)
    if spec.kind in ("lochak_form", "blowup_G"):
        return out.with_data(apply(_MINUS_I_G0, out.data))
    return out


def induced_potential(spec: NonlinearitySpec, f: SpinorField) -> InducedPotential:
    if spec.kind != "lochak_form":
        raise ValueError("induced_potential requires kind 'lochak_form'")
    dens = bilinear_densities(f)
    return InducedPotential(
        alpha_field=np.asarray(spec.alpha_fn(dens.xi, dens.eta), dtype=float),
        beta_field=np.asarray(spec.beta_fn(dens.xi, dens.eta), dtype=float),
    )


def lipschitz_probe(
    spec: NonlinearitySpec,
    k: int,
    trials: int = 16,
    seed: int = 0,
    grid: Grid | None = None,
    amplitude: float = 0.5,
) -> float:
    """Empirical Lipschitz constant of the nonlinearity in H_k.

    Maximizes ||F(psi1) - F(psi2)||_k over random smooth pairs, normalized by
    ||psi1 - psi2||_k (||psi1||_k^a + ||psi2||_k^a).  Coincident pairs are
    skipped.
    """
    if spec.is_none:
        raise ValueError("lipschitz_probe requires kind != 'none'")
    if k < 2:
        raise ValueError("k must be >= 2")
    if grid is None:
        grid = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    best = 0.0
    for trial in range(trials):
        f1 = random_smooth(grid, amplitude=amplitude, seed=seed * 1000 + 2 * trial)
        f2 = random_smooth(grid, amplitude=amplitude, seed=seed * 1000 + 2 * trial + 1)
        diff_norm = sobolev_norm(f1.with_data(f1.data - f2.data), k)
        if diff_norm == 0.0:
            continue
        num = sobolev_norm(
            f1.with_data(
                eval_nonlinearity(spec, f1).data - eval_nonlinearity(spec, f2).data
            ),
            k,
        )
        den = diff_norm * (
            sobolev_norm(f1, k) ** spec.alpha_exp + sobolev_norm(f2, k) ** spec.alpha_exp
        )
        best = max(best, num / den)
    return best
