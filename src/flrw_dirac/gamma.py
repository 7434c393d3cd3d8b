"""Dirac matrix algebra in the standard (Pauli-Dirac) representation.

All matrices are built from integer and +/-i literals so that the algebraic
identities (Clifford relations, projector idempotence, transpose identities)
hold bit-exactly in floating point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaBasis",
    "build_basis",
    "apply",
]

_I2 = np.eye(2, dtype=complex)
_O2 = np.zeros((2, 2), dtype=complex)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _block(a, b, c, d) -> np.ndarray:
    return np.block([[a, b], [c, d]]).astype(complex)


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GammaBasis:
    """The fixed 4x4 matrix basis used throughout the package.

    g0..g3 are the curved-index-free Dirac matrices, g5 = -i g0 g1 g2 g3,
    alpha1..alpha3 = g0 gk are the Hermitian transport matrices and
    gamma_u / gamma_l = (I +/- g0)/2 project onto the upper/lower spinor pair.
    """

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g5: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    gamma_u: np.ndarray
    gamma_l: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma3: np.ndarray

    @property
    def gammas(self) -> tuple[np.ndarray, ...]:
        return (self.g0, self.g1, self.g2, self.g3)

    @property
    def alphas(self) -> tuple[np.ndarray, ...]:
        return (self.alpha1, self.alpha2, self.alpha3)


def build_basis() -> GammaBasis:
    """Construct the basis from exact literals."""
    g0 = _block(_I2, _O2, _O2, -_I2)
    g1 = _block(_O2, SIGMA1, -SIGMA1, _O2)
    g2 = _block(_O2, SIGMA2, -SIGMA2, _O2)
    g3 = _block(_O2, SIGMA3, -SIGMA3, _O2)
    g5 = _block(_O2, -_I2, -_I2, _O2)
    alphas = tuple(g0 @ gk for gk in (g1, g2, g3))
    gamma_u = _block(_I2, _O2, _O2, _O2)
    gamma_l = _block(_O2, _O2, _O2, _I2)
    return GammaBasis(
        g0=_frozen(g0),
        g1=_frozen(g1),
        g2=_frozen(g2),
        g3=_frozen(g3),
        g5=_frozen(g5),
        alpha1=_frozen(alphas[0]),
        alpha2=_frozen(alphas[1]),
        alpha3=_frozen(alphas[2]),
        gamma_u=_frozen(gamma_u),
        gamma_l=_frozen(gamma_l),
        sigma1=_frozen(SIGMA1),
        sigma2=_frozen(SIGMA2),
        sigma3=_frozen(SIGMA3),
    )


BASIS = build_basis()


def apply(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply a 4x4 matrix to a spinor or a spinor field.

    `s` has the component index first, i.e. shape (4,) or (4, ...).
    """
    if s.shape[0] != 4:
        raise ValueError("spinor data must have the component axis first")
    return np.einsum("ab,b...->a...", a, s)
