"""Closed-form free propagation via hypergeometric cone kernels.

The free solution admits an explicit representation: Fourier modes are
weighted by r-integrals of cone kernels against the flat-space wave
multiplier cos(r |xi|), and the result is assembled by a first-order
co-factor operator, applied through field._apply_span, the symbol pass the
solver's free and split steps use too.  Writing mu = m / (1 - ell), phi(t) = t^(1-ell)/(1-ell),
D = phi(t) - phi(t0), S = phi(t) + phi(t0), w = S^2 - r^2 and
z = (D^2 - r^2) / w, the two kernels are

    E(r, t; t0; m)  = 2^(2 i mu - 1) (1-ell)^(ell/(1-ell))
                      phi(t0)^((ell + 2 i m)/(1-ell)) w^(-i mu)
                      F(i mu, i mu; 1; z)
    K1(r, t; m; eps) = 2^(2 i mu) phi(eps)^(2 i mu - 1) w^(-i mu)
                      F(i mu, i mu; 1; z)        (with t0 = eps)

with F the Gauss hypergeometric series.  K1 carries the Cauchy data and
E a source; the program reaches K1 through reconstruct_free and the kernel
tables, and E through the tables only.  In the usage domain z lies in
[0, 1) and every power has a positive real base, so the principal branch
is inert.  The module restricts itself to 0 < ell < 1, a0 = 1 and
t / eps <= 50, which keeps z safely below the series guard.  K1 and its
time derivative are evaluated together at each node and share one cone
geometry, one w^(-i mu) and one F series; the derivative adds only the F'
series.

The r-integrals run on a composite Gauss-Legendre rule with P uniform
panels of Q nodes, refined by doubling P.  Every node is a panel midpoint
plus a shared Gauss offset, r = M_p + d_q, so cos(r xi) factors as
cos(M_p xi) cos(d_q xi) - sin(M_p xi) sin(d_q xi): each doubling costs
one real GEMM pair against P x U cosine and sine tables (U distinct
|xi|) and 2 P U + 2 Q U trig evaluations instead of Q P U.  Modes are
grouped by the exact integer |k|^2 L^2 / (2 pi)^2, so each distinct |xi|
is integrated once, and the multipliers reach the symbol pass in that
radial form, arrays over the distinct |xi| that the pass gathers per
slab.

For a real mass, phi, w and z are real and positive, so the -m kernels
are the complex conjugates of the +m kernels at every node, bit for bit:
only the +m series are summed, and the -m samples are their conjugates.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import SpinorField, _apply_span, _fftn, _ifftn, _unique_mode_magnitudes
from .spacetime import Cosmology

__all__ = [
    "Hyp2F1ConvergenceError",
    "KernelDomainError",
    "QuadratureConvergenceError",
    "KernelConsistencyError",
    "hyp2f1",
    "hyp2f1_derivative",
    "KernelEval",
    "kernel_E",
    "kernel_K1",
    "kernel_K1_time_derivative",
    "free_mode_multipliers",
    "reconstruct_free",
]

TIME_RATIO_MAX = 50.0
Z_MAX = 0.95  # the largest |z| hyp2f1 sums
SERIES_RTOL = 1e-12  # the relative tail hyp2f1's series must reach
HYP2F1_MAX_TERMS = 200_000  # the most terms hyp2f1 sums before it gives up
GL_ORDER = 16  # Gauss nodes per panel of every composite rule
MAX_PANELS = 1 << 14  # panel cap of one r-integral
MULTIPLIER_ABS_TOL = 1e-10  # absolute tolerance of the Cauchy multipliers
SELF_CHECK_REL_TOL = 1e-6  # relative tolerance of their time-derivative audit
SELF_CHECK_SAMPLES = 5  # number of |xi| the audit samples


class Hyp2F1ConvergenceError(ArithmeticError):
    pass


class KernelDomainError(ValueError):
    pass


class QuadratureConvergenceError(ArithmeticError):
    pass


class KernelConsistencyError(ArithmeticError):
    pass


def _cpow(base, exponent) -> np.ndarray:
    """base**exponent for positive real base and complex exponent."""
    base = np.asarray(base, dtype=float)
    if np.any(base <= 0):
        raise KernelDomainError("complex power requires a positive real base")
    return np.exp(np.asarray(exponent, dtype=complex) * np.log(base))


def hyp2f1(a, b, c, z):
    """Gauss series sum_n (a)_n (b)_n / ((c)_n n!) z^n, vectorized over z.

    Valid for |z| <= Z_MAX < 1; raises outside that disc, for a NaN z, or
    when the series does not reach the relative tail SERIES_RTOL within
    HYP2F1_MAX_TERMS terms.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if c.imag == 0.0 and c.real <= 0.0 and c.real == int(c.real):
        raise KernelDomainError("c must not be a nonpositive integer")
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    q = float(np.max(np.abs(z))) if z.size else 0.0
    if not q <= Z_MAX:  # a NaN z fails too
        raise KernelDomainError(
            f"|z| = {q:.4f} exceeds the series guard z_max = {Z_MAX}"
        )
    total = np.ones_like(z)
    term = np.ones_like(z)
    tail_factor = q / (1.0 - q) if q > 0 else 0.0
    for n in range(HYP2F1_MAX_TERMS):
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        term = term * ratio * z
        total = total + term
        if np.all(np.abs(term) * max(tail_factor, 1.0) <= SERIES_RTOL * np.abs(total)):
            break
    else:
        raise Hyp2F1ConvergenceError(
            f"series did not reach rtol={SERIES_RTOL} within {HYP2F1_MAX_TERMS} terms "
            f"(max |z| = {q:.4f})"
        )
    return complex(total[0]) if scalar else total


def hyp2f1_derivative(a, b, c, z):
    """d/dz F(a, b; c; z) = (a b / c) F(a+1, b+1; c+1; z)."""
    return (a * b / c) * hyp2f1(a + 1, b + 1, c + 1, z)


@dataclass(frozen=True)
class KernelEval:
    """Kernel evaluation context: background, mass and initial time."""

    cosmology: Cosmology
    m: complex
    epsilon: float = 1.0

    def __post_init__(self):
        ell = self.cosmology.ell
        if not 0.0 < ell < 1.0:
            raise KernelDomainError("kernel formulas require 0 < ell < 1")
        if abs(self.cosmology.a0 - 1.0) > 1e-12:
            raise KernelDomainError("kernel formulas require a0 = 1")
        if not 0.0 < self.epsilon < math.inf:
            raise KernelDomainError("epsilon must be positive and finite")
        if not cmath.isfinite(self.m):
            raise KernelDomainError("m must be finite")

    @property
    def mu(self) -> complex:
        return complex(self.m) / (1.0 - self.cosmology.ell)

    def with_mass(self, m: complex) -> "KernelEval":
        return KernelEval(self.cosmology, m, self.epsilon)

    def check_time(self, t: float, t0: float | None = None) -> None:
        t0 = self.epsilon if t0 is None else t0
        if not t >= t0 > 0:
            raise KernelDomainError("kernels require t >= t0 > 0")
        if not t / t0 <= TIME_RATIO_MAX * (1.0 + 1e-12):  # NaN (t = t0 = inf) fails
            raise KernelDomainError(
                f"t/t0 = {t / t0:.1f} exceeds the supported ratio "
                f"{TIME_RATIO_MAX} (series argument too close to 1)"
            )


def _cone_geometry(ke: KernelEval, r, t: float, t0: float):
    phi = ke.cosmology.phi
    pt, p0 = phi(t), phi(t0)
    r = np.asarray(r, dtype=float)
    upper = pt - p0
    if np.any(r < -1e-14) or np.any(r > upper * (1.0 + 1e-12) + 1e-14):
        raise KernelDomainError("r must lie in [0, phi(t) - phi(t0)]")
    num = (pt - p0) ** 2 - r**2
    den = (pt + p0) ** 2 - r**2
    z = np.clip(num / den, 0.0, None)
    return pt, p0, num, den, z


def kernel_E(r, t: float, t0: float, ke: KernelEval):
    """Source-propagator kernel E(r, t; t0; m); vectorized over r."""
    ke.check_time(t, t0)
    ell = ke.cosmology.ell
    mu = ke.mu
    _, p0, _, den, z = _cone_geometry(ke, r, t, t0)
    pref = (
        _cpow(2.0, 2j * mu - 1.0)
        * _cpow(1.0 - ell, ell / (1.0 - ell))
        * _cpow(p0, (ell + 2j * complex(ke.m)) / (1.0 - ell))
    )
    return pref * _cpow(den, -1j * mu) * hyp2f1(1j * mu, 1j * mu, 1.0, z)


def kernel_K1(r, t: float, ke: KernelEval):
    """Cauchy-data kernel K1(r, t; m; eps); vectorized over r."""
    ke.check_time(t)
    mu = ke.mu
    _, p0, _, den, z = _cone_geometry(ke, r, t, ke.epsilon)
    pref = _cpow(2.0, 2j * mu) * _cpow(p0, 2j * mu - 1.0)
    return pref * _cpow(den, -1j * mu) * hyp2f1(1j * mu, 1j * mu, 1.0, z)


def kernel_K1_time_derivative(r, t: float, ke: KernelEval):
    """Partial derivative of K1 with respect to t at fixed r."""
    return _k1_and_time_derivative(r, t, ke)[1]


def _k1_and_time_derivative(r, t: float, ke: KernelEval):
    """(K1, d/dt K1) at the nodes r: two series (F and F') where separate
    kernel_K1 and kernel_K1_time_derivative calls take three.  The K1 value
    is bit for bit kernel_K1's."""
    ke.check_time(t)
    mu = ke.mu
    pt, p0, num, den, z = _cone_geometry(ke, r, t, ke.epsilon)
    dphi = ke.cosmology.dphi(t)
    pref_w = _cpow(2.0, 2j * mu) * _cpow(p0, 2j * mu - 1.0) * _cpow(den, -1j * mu)
    f = hyp2f1(1j * mu, 1j * mu, 1.0, z)
    fp = hyp2f1_derivative(1j * mu, 1j * mu, 1.0, z)
    dden = 2.0 * (pt + p0) * dphi
    dz = 2.0 * dphi * ((pt - p0) * den - num * (pt + p0)) / den**2
    return pref_w * f, pref_w * ((-1j * mu) * dden / den * f + fp * dz)


@lru_cache(maxsize=64)
def _gl_rule(panels: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1] in panel form.

    Returns (mids, offsets, weights): node p*order + q is mids[p] +
    offsets[q] and has weight weights[q], since the panels are uniform.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 / panels
    return (np.arange(panels) + 0.5) / panels, half * x, half * w


def _cos_integrals(fvals_fn, upper: float, xi_abs: np.ndarray):
    """Integrals of f_k(r) cos(r xi) over [0, upper] for each xi.

    `fvals_fn(r)` returns a tuple of complex arrays sampled at the nodes.
    Panels double until two successive rules agree to MULTIPLIER_ABS_TOL.

    The rule has P uniform panels of Q = GL_ORDER Gauss nodes each, so every
    node is r = M_p + d_q: a panel midpoint plus a Gauss offset shared by
    all panels.  The sum uses cos(r xi) = cos(M_p xi) cos(d_q xi) -
    sin(M_p xi) sin(d_q xi).  The weighted samples of all n_f functions,
    real and imaginary parts stacked as rows of one real (2 n_f Q, P)
    matrix, take one real GEMM pair against the P x U tables cos(M xi)
    and sin(M xi); a contraction over q with the Q x U tables cos(d xi)
    and sin(d xi) finishes the sum.  Each doubling so evaluates
    2 P U + 2 Q U trig values instead of the Q P U of cos(outer(r, xi)),
    and no complex copy of a table is made.
    """
    if upper <= 0.0:
        probe = fvals_fn(np.array([0.0]))
        return tuple(np.zeros(xi_abs.shape, dtype=complex) for _ in probe)
    xi_max = float(np.max(xi_abs)) if xi_abs.size else 0.0
    panels = max(4, int(np.ceil(upper * xi_max / (2.0 * np.pi))))
    prev = None
    while panels <= MAX_PANELS:
        mids01, offsets01, weights01 = _gl_rule(panels, GL_ORDER)
        mids = upper * mids01
        offsets = upper * offsets01
        fvals = np.stack(fvals_fn((mids[:, None] + offsets).ravel()))
        fw = fvals.reshape(-1, panels, GL_ORDER) * (upper * weights01)
        # rows (k, re/im, q), columns p
        rows = np.stack((fw.real, fw.imag), axis=1).transpose(0, 1, 3, 2)
        rows = rows.reshape(-1, panels)
        m_phase = np.outer(mids, xi_abs)
        d_phase = np.outer(offsets, xi_abs)
        shape = (len(fw), 2, GL_ORDER, xi_abs.size)
        c = (rows @ np.cos(m_phase)).reshape(shape)
        s = (rows @ np.sin(m_phase)).reshape(shape)
        parts = (np.einsum("kcqu,qu->kcu", c, np.cos(d_phase))
                 - np.einsum("kcqu,qu->kcu", s, np.sin(d_phase)))
        out = tuple(parts[:, 0] + 1j * parts[:, 1])
        if prev is not None:
            change = max(
                float(np.max(np.abs(o - p))) if o.size else 0.0
                for o, p in zip(out, prev)
            )
            if change <= MULTIPLIER_ABS_TOL:
                return out
        prev = out
        panels *= 2
    raise QuadratureConvergenceError(
        f"cos-integral did not converge to {MULTIPLIER_ABS_TOL} within "
        f"{MAX_PANELS} panels"
    )


def _k1_prefactor(ke: KernelEval) -> complex:
    ell = ke.cosmology.ell
    eps = ke.epsilon
    return complex(
        -1j * _cpow(eps, 1.0 + 0.5 * ell - 1j * complex(ke.m)) / (1.0 - ell)
    )


def free_mode_multipliers(ke: KernelEval, t: float, xi_abs: np.ndarray,
                          time_derivative: bool = True):
    """Per-|xi| Cauchy multipliers and their time derivatives for +/-m.

    Returns (kp, kdp, km, kdm): the mode multiplier kappa(t; m, |xi|), its
    d/dt (boundary term plus differentiated integrand), and the same pair
    for the reflected mass -m.  Without time_derivative only K1(+/-m) is
    integrated and (kp, km) returned.

    For a real mass only the +m kernels are evaluated: phi, w and z are real
    and positive, so K1(r, t; -m) = conj K1(r, t; m), and likewise d/dt K1,
    bit for bit at every node.  The -m samples are those conjugates, and
    they still enter the one quadrature as rows of their own: conjugating
    the +m integrals instead would halve the GEMM, which sums in another
    order and moves the last bits.  The prefactors and edge terms stay per
    mass.  A complex mass evaluates all four kernels.
    """
    ke.check_time(t)
    xi_abs = np.asarray(xi_abs, dtype=float)
    phi = ke.cosmology.phi
    upper = phi(t) - phi(ke.epsilon)
    kp_ctx = ke
    km_ctx = ke.with_mass(-complex(ke.m))
    pref_p = _k1_prefactor(kp_ctx)
    pref_m = _k1_prefactor(km_ctx)
    real_mass = complex(ke.m).imag == 0.0

    def samples(r, ctx):
        if time_derivative:
            return _k1_and_time_derivative(r, t, ctx)
        return (kernel_K1(r, t, ctx),)

    def fvals(r):
        """The +m samples, then the -m ones: for a real mass their conjugates."""
        plus = samples(r, kp_ctx)
        minus = tuple(np.conj(v) for v in plus) if real_mass else samples(r, km_ctx)
        return plus + minus

    if not time_derivative:
        i_k_p, i_k_m = _cos_integrals(fvals, upper, xi_abs)
        return pref_p * i_k_p, pref_m * i_k_m

    i_k_p, i_dk_p, i_k_m, i_dk_m = _cos_integrals(fvals, upper, xi_abs)
    dphi = ke.cosmology.dphi(t)
    if upper > 0.0:
        edge_p = complex(kernel_K1(np.array([upper]), t, kp_ctx)[0])
        edge_m = complex(kernel_K1(np.array([upper]), t, km_ctx)[0])
    else:
        # degenerate interval: K1(0, eps) = phi(eps)^(-1)
        edge_p = edge_m = 1.0 / phi(ke.epsilon)
    cos_edge = np.cos(upper * xi_abs)
    kp = pref_p * i_k_p
    km = pref_m * i_k_m
    kdp = pref_p * (edge_p * cos_edge * dphi + i_dk_p)
    kdm = pref_m * (edge_m * cos_edge * dphi + i_dk_m)
    return kp, kdp, km, kdm


def reconstruct_free(psi1: SpinorField, t: float, ke: KernelEval) -> SpinorField:
    """Evaluate the free solution at time t from its data at time eps.

    Every Fourier mode is propagated by the co-factor operator
    diag(a_up, a_lo) + diag(b_up, b_lo) sigma.k built from the Cauchy
    multipliers, applied to the spectrum in one field._apply_span pass;
    the time derivative under the integral sign is analytic.  Each of the
    four factors is radial, a multiplier over the distinct mode magnitudes
    scaled by a time-dependent scalar, which the pass gathers per slab: no
    full-size multiplier is built.

    The work runs in one spectrum buffer: psi1.data is transformed into it,
    the pass overwrites it, and each component is inverse-transformed in
    place.  The returned field holds that buffer as its data and carries no
    spectrum, and no spectrum is cached on psi1.

    Whenever t lies more than 2 dt above eps, the analytic time derivative
    is audited against a 4th-order difference on a subsample of mode
    magnitudes: the stencil integrates only K1(+/-m), through
    free_mode_multipliers without time_derivative, never the
    time-derivative kernel it audits, at t +/- dt and t +/- 2 dt
    (dt = 1e-4 t), or at t - dt, ..., t - 4 dt where t + 2 dt is past the
    supported ratio TIME_RATIO_MAX.
    """
    grid = psi1.grid
    if grid.dim != 3:
        raise KernelDomainError("reconstruction requires a dim = 3 grid")
    if abs(psi1.time - ke.epsilon) > 1e-9:
        raise KernelDomainError(
            f"psi1.time = {psi1.time!r} must equal the kernel epsilon {ke.epsilon!r}")
    ke.check_time(t)
    uniq, _ = _unique_mode_magnitudes(grid)
    kp, kdp, km, kdm = free_mode_multipliers(ke, t, uniq)
    # the difference stencil needs room below t
    if t - 2.0 * 1e-4 * t > ke.epsilon:
        _self_check_time_derivative(ke, t, uniq, kp, kdp, km, kdm)

    ell = ke.cosmology.ell
    m = complex(ke.m)
    tp = complex(_cpow(t, 1j * m))
    tm = complex(_cpow(t, -1j * m))
    # radial factors, gathered per slab by the pass; u * c scales with the
    # array as the left operand, as numpy's in-place product on a full-size
    # temporary c * u[inverse] does (c * u rounds differently)
    a_up = kdp * (1j * t ** (-0.5 * ell) * tp)
    a_lo = kdm * (1j * t ** (-0.5 * ell) * tm)
    b_up = km * (t ** (-1.5 * ell) * tm)
    b_lo = kp * (t ** (-1.5 * ell) * tp)
    # one buffer: the spectrum, then the propagated spectrum, then the field
    hat = _fftn(psi1.data, grid)
    # s = -i turns B = i sigma.k into sigma.k
    _apply_span(hat, grid, (a_up, a_lo), (b_lo, b_up), s=-1j, in_place=True)
    return psi1.with_data(_ifftn(hat, grid, out=hat), time=t)


def _self_check_time_derivative(ke, t, uniq, kp, kdp, km, kdm):
    """Audit the analytic d/dt multipliers with a 4th-order difference:
    central where t + 2 dt is a supported time, else backward from t, whose
    K1 values are kp and km."""
    idx = np.unique(np.linspace(0, len(uniq) - 1, SELF_CHECK_SAMPLES).astype(int))
    sub = uniq[idx]
    dt = 1e-4 * t
    if (t + 2.0 * dt) / ke.epsilon <= TIME_RATIO_MAX * (1.0 + 1e-12):
        at_t, shifts, coeffs = 0.0, (-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)
    else:
        at_t, shifts, coeffs = 25 / 12, (-1, -2, -3, -4), (-4.0, 3.0, -4 / 3, 1 / 4)
    stencil = [
        free_mode_multipliers(ke, t + shift * dt, sub, time_derivative=False)
        for shift in shifts
    ]
    num_p = (at_t * kp[idx] + sum(c * kp_s for (kp_s, _), c in zip(stencil, coeffs))) / dt
    num_m = (at_t * km[idx] + sum(c * km_s for (_, km_s), c in zip(stencil, coeffs))) / dt
    scale = max(float(np.max(np.abs(kdp[idx]))), float(np.max(np.abs(kdm[idx]))), 1e-30)
    err = max(
        float(np.max(np.abs(num_p - kdp[idx]))),
        float(np.max(np.abs(num_m - kdm[idx]))),
    )
    if err > SELF_CHECK_REL_TOL * scale:
        raise KernelConsistencyError(
            f"analytic time derivative disagrees with finite difference: "
            f"relative error {err / scale:.3e}"
        )
