"""Model terms: complex mass, matrix potentials, nonlinearities and a
forcing, all declared by ModelSpec, the one place the solver reads them from.
Every term but the forcing is a plain, hashable value that normalises its
inputs where declared, and a run config maps onto its fields key for key.

Nonlinearities come in two flavours.  The Lipschitz family (power_abs) is
stated directly as the right side of the first-order symmetric hyperbolic
system.  The structured families are stated in the covariant form instead:
lochak_form multiplies psi by the induced potential
alpha(xi, eta) I + i beta(xi, eta) g5 and blowup_G contributes
G(psi) i g0 psi, both on the i-g0-d/dt side of the equation.
hyperbolic_rhs_nonlinearity returns every family as a first-order right
side, with the left factor -i g0 of the covariant ones written out.
power_flow is the exact flow of that right side alone for the two families
of the form c |psi|^alpha psi (power_abs and blowup_G; alpha_exp and
power_coefficient of their spec), the pointwise piece of the solver's split
step, with one exponent and coefficient or one of each per row of a stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .field import Grid, SpinorField, _center3, _envelope_gaussian, bilinear_densities
from .gamma import BASIS

__all__ = [
    "Mass",
    "PotentialSpec",
    "NonlinearitySpec",
    "ModelSpec",
    "PotentialFlagError",
    "potential_field",
    "hyperbolic_rhs_nonlinearity",
    "power_flow",
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
    fails, and ValueError on an unknown kind, a width <= 0 (but for zero),
    a custom_matrix without a 4x4 matrix or a matrix for another kind.
    center (at most 3 coordinates) is stored as a zero-padded 3-tuple of
    floats and matrix as a nested tuple of complex: one hashable spec per V.
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
        object.__setattr__(self, "center", _center3(self.center))
        if self.matrix is not None and self.kind != "custom_matrix":
            raise ValueError(f"'matrix' is read only by kind 'custom_matrix', not {self.kind!r}")
        if self.kind == "custom_matrix":
            if self.matrix is None:
                raise ValueError("custom_matrix potential needs a matrix")
            try:
                m = np.asarray(self.matrix, dtype=complex)
            except (TypeError, ValueError):  # ragged rows or non-numbers
                m = None
            if m is None or m.shape != (4, 4):
                raise ValueError("'matrix' must be a 4x4 matrix of numbers")
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
    with np.errstate(over="ignore"):  # a numpy power: inf past the float range, the flat limit
        env = spec.amplitude * _envelope_gaussian(grid, spec.width, spec.center)
    m = spec.constant_matrix()
    vf = m.reshape((4, 4) + (1,) * grid.dim) * env
    vf.setflags(write=False)
    return vf


@dataclass(frozen=True)
class NonlinearitySpec:
    """Selected nonlinear term.

    kinds: none, power_abs (sign * |psi|^alpha psi), lochak_form
    ((alpha I + i beta g5) psi with alpha = a_xi xi + a_eta eta from
    alpha_coeffs = (a_xi, a_eta) and beta likewise from beta_coeffs),
    blowup_G (c0 |psi|^alpha I as G, contributing G(psi) i g0 psi).
    Coefficients are stored as 2-tuples of floats, so alpha and beta vanish
    at the origin by construction; other than 2 finite numbers they raise
    ValueError, as do an unknown kind and an out-of-range alpha_exp, c0 or sign.
    """

    kind: str = "none"
    alpha_exp: float = 1.0
    sign: int = 1
    c0: float = 1.0
    alpha_coeffs: tuple[float, float] = (0.0, 0.0)
    beta_coeffs: tuple[float, float] = (0.0, 0.0)

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
        for name in ("alpha_coeffs", "beta_coeffs"):
            coeffs = tuple(float(c) for c in getattr(self, name))
            if len(coeffs) != 2 or not all(map(math.isfinite, coeffs)):
                raise ValueError(f"{name} must be 2 finite numbers, got {coeffs}")
            object.__setattr__(self, name, coeffs)

    @property
    def is_none(self) -> bool:
        return self.kind == "none"

    @property
    def power_coefficient(self) -> float | None:
        """c of the families whose right side is c |psi|^alpha psi: sign for
        power_abs, c0 for blowup_G; None for none and lochak_form."""
        return {"power_abs": self.sign, "blowup_G": self.c0}.get(self.kind)


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
        (a_xi, a_eta), (b_xi, b_eta) = spec.alpha_coeffs, spec.beta_coeffs
        ia = 1j * (a_xi * dens.xi + a_eta * dens.eta)
        b = b_xi * dens.xi + b_eta * dens.eta
        # g0 = diag(1, 1, -1, -1); g0 g5 maps (u, l) to (-l, u)
        up, lo = p[:2], p[2:]
        out = np.concatenate((-ia * up - b * lo, ia * lo + b * up))
    else:  # power_abs, blowup_G: c |psi|^a psi
        c = spec.power_coefficient
        mag = np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
        out = c * mag**spec.alpha_exp * p
    return out.astype(complex, copy=False)


def power_flow(a, c, data: np.ndarray, tau: float) -> np.ndarray:
    """The flow of d/dt psi = c |psi|^a psi over time tau, on a field's data
    (4, ...) with numbers a and c, or on a stack of rows (rows, 4, ...) with
    arrays a and c of shape (rows, 1, ...), one exponent and coefficient per
    row.  |psi|^(-a) falls at the constant rate a c, so psi(tau) =
    psi (1 - a c tau |psi|^a)^(-1/a): each spinor keeps its direction.
    Where the base is <= 0, at or past the pointwise blow-up time, it is
    taken as 0 and the value is not finite (numpy warns of the division by
    zero unless the caller silences it); a negative base would give a
    finite power for an integral 1/a.  numpy takes a number exponent 1/2,
    -1 or 2 as sqrt, 1/x or x*x, and an array entry as pow, so a row whose
    a/2 or -1/a is one of these (a = 1 or 4) flows within rounding of, not
    bit for bit as, its field alone."""
    components = 1 if np.ndim(a) else 0
    mag_sq = np.sum(data.real**2 + data.imag**2, axis=components, keepdims=True)
    return data * np.maximum(1.0 - a * c * tau * mag_sq ** (0.5 * a), 0.0) ** (-1.0 / a)
