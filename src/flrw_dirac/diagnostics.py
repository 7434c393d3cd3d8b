"""Verification of recorded runs: exact identities, decay fits, bounds,
and the scattering construction.

All identity checks are pure post-processing of a RunRecord; only
scattering_profile runs the solver (it needs the backward-propagated
Duhamel integrand).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .field import SpinorField, l2_norm_sq, support_radius
from .models import ModelSpec, hyperbolic_rhs_nonlinearity
from .solver import RunRecord, SolverConfig, guard_cone, propagate
from .spacetime import Cosmology

__all__ = [
    "DecayFit",
    "CheckReport",
    "ScatterResult",
    "IncompatibleRunError",
    "CHECKS",
    "fit_decay",
    "check_decay",
    "check_energy_identity",
    "check_gamma2_conservation",
    "check_lm_evolution",
    "check_cone_containment",
    "check_forward_bound",
    "scattering_profile",
]

# nonlinearity kinds whose right side preserves the L2 energy identity
_A_FORM_KINDS = ("none", "lochak_form")

NODES_PER_PANEL = 8  # Gauss nodes per checkpoint panel of scattering_profile


class IncompatibleRunError(ValueError):
    """The requested check does not apply to how the run was produced."""


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    intercept: float
    residual: float
    window: tuple[float, float]


@dataclass
class CheckReport:
    check: str
    status: str  # "pass" | "fail"
    max_mismatch: float
    fitted_constants: dict = dc_field(default_factory=dict)
    window: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "max_mismatch": self.max_mismatch,
            "fitted_constants": dict(self.fitted_constants),
            "window": list(self.window) if self.window is not None else None,
        }


# for each of the 4 stencil samples, the other 3
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
# where an interval's stencil may start, relative to it, and the weight of
# its smallest gap in the choice: the centred stencil is preferred
_STARTS = np.array([-1, 0, -2])
_PREFERENCE = np.array([2.0, 1.0, 1.0])


def _cumulative_integral(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Integral of the samples y(x) from x[0] to each x, 4th order on any
    spacing: over each interval, the integral of the cubic through 4
    consecutive samples around it.  Each interval takes the centred stencil
    unless another has a smallest gap more than twice as large, so a short
    step (a run's landing on a stop) is in no other interval's stencil,
    where its two samples would act as a difference quotient.  Below 4
    samples it is the trapezoid.

    The weights are those of the Lagrange basis: with the stencil abscissae
    d shifted to the interval start and h its width, the basis polynomial of
    sample k integrates to (h^4/4 - e1 h^3/3 + e2 h^2/2 - e3 h) /
    prod_(m != k) (d_k - d_m), e1, e2, e3 the elementary symmetric
    polynomials of the other three d_m."""
    n = len(x)
    out = np.zeros(n)
    if n < 4:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * (x[1:] - x[:-1]))
        return out
    gaps = np.abs(x[1:] - x[:-1])
    smallest = np.minimum(np.minimum(gaps[:-2], gaps[1:-1]), gaps[2:])  # per stencil start
    start = np.arange(n - 1)
    options = start[:, None] + _STARTS
    valid = (options >= 0) & (options <= n - 4)
    score = np.where(valid, smallest[np.clip(options, 0, n - 4)] * _PREFERENCE, -1.0)
    stencil = options[start, np.argmax(score, axis=1)][:, None] + np.arange(4)
    d = x[stencil] - x[start, None]
    a, b, c = np.moveaxis(d[:, _OTHERS], -1, 0)  # each (n-1, 4)
    h = (x[1:] - x[:-1])[:, None]
    e1, e2, e3 = a + b + c, a * b + b * c + c * a, a * b * c
    poly = h * (h * (h * (0.25 * h - e1 / 3.0) + 0.5 * e2) - e3)
    weights = poly / np.prod(d[:, :, None] - d[:, _OTHERS], axis=-1)
    out[1:] = np.cumsum(np.sum(weights * y[stencil], axis=1))
    return out


def fit_decay(times, values, window) -> DecayFit:
    """Least-squares slope of log(value) against log(t) inside the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    mask = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(mask) < 2:
        raise ValueError("window contains fewer than two samples")
    if np.any(values[mask] <= 0):
        raise ValueError("decay fit requires positive values in the window")
    lt = np.log(times[mask])
    lv = np.log(values[mask])
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = float(np.sqrt(np.mean((lv - (slope * lt + intercept)) ** 2)))
    return DecayFit(
        exponent=float(slope),
        intercept=float(intercept),
        residual=resid,
        window=(float(t_lo), float(t_hi)),
    )


def _series(rec: RunRecord, name: str) -> np.ndarray:
    """The recorded series `name`; IncompatibleRunError when the run lacks it."""
    try:
        return rec.series[name]
    except KeyError:
        raise IncompatibleRunError(f"run has no recorded series {name!r}") from None


def _require_a_form(rec: RunRecord, check: str) -> None:
    if rec.nonlinearity_kind not in _A_FORM_KINDS:
        raise IncompatibleRunError(
            f"{check} requires an energy-compatible right side, "
            f"got nonlinearity {rec.nonlinearity_kind!r}"
        )


def check_energy_identity(rec: RunRecord, tol: float) -> CheckReport:
    """Two-sided evaluation of the exact L2 balance law.

    The squared norm must equal t^(-3 ell) times (its initial value, plus
    2 Im(m) times the accumulated s^(3 ell - 1)-weighted scalar-density
    integral, minus twice the accumulated s^(3 ell)-weighted Im(V) term),
    with the time integrals taken on the recorded cadence by a 4th-order
    rule (_cumulative_integral), the order of the free step and of RK4.
    Needs the series times, l2, xi_int and imv_int.
    """
    _require_a_form(rec, "energy identity")
    ell = rec.cosmology.ell
    tt = _series(rec, "times")
    e = _series(rec, "l2")
    i_xi = _cumulative_integral(tt, tt ** (3.0 * ell - 1.0) * _series(rec, "xi_int"))
    i_v = _cumulative_integral(tt, tt ** (3.0 * ell) * _series(rec, "imv_int"))
    rhs = tt ** (-3.0 * ell) * (e[0] + 2.0 * rec.mass.imag * i_xi - 2.0 * i_v)
    scale = np.where(e > 0, e, 1.0)
    mismatch = float(np.max(np.abs(rhs - e) / scale))
    return CheckReport(
        check="energy_identity",
        status="pass" if mismatch < tol else "fail",
        max_mismatch=mismatch,
        window=(float(tt[0]), float(tt[-1])),
    )


def check_gamma2_conservation(rec: RunRecord, tol: float) -> CheckReport:
    """Constancy of t^(3 ell) times the transpose bilinear integral.

    Needs the series times, gamma2 and l2.
    """
    if not rec.potential_gamma2_ok:
        raise IncompatibleRunError(
            "gamma2 conservation requires V^T g2 + g2 V = 0"
        )
    _require_a_form(rec, "gamma2 conservation")
    ell = rec.cosmology.ell
    q = _series(rec, "gamma2") * _series(rec, "times") ** (3.0 * ell)
    q0 = q[0]
    if abs(q0) == 0.0:
        e = _series(rec, "l2")
        mismatch = float(np.max(np.abs(q))) / (float(e[0]) if e[0] > 0 else 1.0)
    else:
        mismatch = float(np.max(np.abs(q - q0)) / abs(q0))
    return CheckReport(
        check="gamma2_conservation",
        status="pass" if mismatch < tol else "fail",
        max_mismatch=mismatch,
    )


def check_lm_evolution(rec: RunRecord, tol: float) -> CheckReport:
    """Evolution law of the recorded Majorana defect.

    Real mass: t^(3 ell) * defect is constant (relative to its start, or to
    the initial energy when the start is zero).  Complex mass with
    defect-free data: the defect is bounded by 4 |Im m| t^(-3 ell) times the
    accumulated s^(3 ell - 1)-weighted integral of the pointwise density
    rho = sqrt(rho^2).  Needs the series times, lm_defect (recorded only
    with a defect phase z), l2 and rho_int.
    """
    d = _series(rec, "lm_defect")
    if not rec.potential_gamma2_ok:
        raise IncompatibleRunError("defect evolution requires V^T g2 + g2 V = 0")
    _require_a_form(rec, "defect evolution")
    ell = rec.cosmology.ell
    tt = _series(rec, "times")
    e = _series(rec, "l2")
    e0 = float(e[0]) if e[0] > 0 else 1.0
    if rec.mass.imag == 0.0:
        q = d * tt ** (3.0 * ell)
        scale = max(float(q[0]), tol * e0)
        mismatch = float(np.max(np.abs(q - q[0]))) / scale
        label = "constant"
    else:
        if d[0] > 1e-10 * e0:
            raise IncompatibleRunError(
                "complex-mass defect bound applies to defect-free initial data"
            )
        bound = (
            4.0
            * abs(rec.mass.imag)
            * tt ** (-3.0 * ell)
            * _cumulative_integral(tt, tt ** (3.0 * ell - 1.0) * _series(rec, "rho_int"))
        )
        mismatch = float(np.max((d - bound) / e0))
        label = "bounded"
    return CheckReport(
        check="lm_evolution",
        status="pass" if mismatch < tol else "fail",
        max_mismatch=mismatch,
        fitted_constants={"mode": label},
    )


def check_cone_containment(rec: RunRecord, tol: float) -> CheckReport:
    """Recorded mass outside the forward support cone stays below tol * E(1).

    Needs the series l2 and cone_leak.
    """
    e = _series(rec, "l2")
    e0 = float(e[0]) if e[0] > 0 else 1.0
    mismatch = float(np.max(_series(rec, "cone_leak"))) / e0
    return CheckReport(
        check="cone_containment",
        status="pass" if mismatch < tol else "fail",
        max_mismatch=mismatch,
    )


def check_forward_bound(rec: RunRecord) -> CheckReport:
    """Minimal admissible constant in the weighted forward estimate.

    For every recorded pair s <= t the estimate reads
    N(t) <= c [ (s/t)^q N(s) + t^(-q) Int_s^t tau^q src(tau) dtau ] with
    q = 3 ell / 2 - |Im m|; the report carries the maximal required c.
    N is the series sobolev_k and src the series source_k; also needs times.
    """
    ell = rec.cosmology.ell
    q = 1.5 * ell - abs(rec.mass.imag)
    tt = _series(rec, "times")
    norms = _series(rec, "sobolev_k")
    wt = tt**q
    src_pref = _cumulative_integral(tt, wt * _series(rec, "source_k"))
    c_min = 0.0
    for j in range(len(tt)):
        denom = (wt / wt[j]) * norms + (src_pref[j] - src_pref) / wt[j]
        denom = denom[: j + 1]
        good = denom > 0
        if np.any(good):
            c_min = max(c_min, float(np.max(norms[j] / denom[good])))
    finite = math.isfinite(c_min) and c_min > 0
    return CheckReport(
        check="forward_bound",
        status="pass" if finite else "fail",
        max_mismatch=0.0,
        fitted_constants={"c_min": c_min},
    )


def check_decay(rec: RunRecord, tol: float, window=None, expected=None) -> CheckReport:
    """Decay exponent of sqrt(E(t)) fitted inside window (default: the whole
    run), compared with expected when given.  Needs the series times and l2.
    """
    tt = _series(rec, "times")
    window = tuple(window if window is not None else (tt[0], tt[-1]))
    fit = fit_decay(tt, np.sqrt(_series(rec, "l2")), window)
    mismatch = abs(fit.exponent - expected) if expected is not None else 0.0
    return CheckReport(
        check="decay",
        status="pass" if mismatch <= tol else "fail",
        max_mismatch=mismatch,
        fitted_constants={"exponent": fit.exponent, "residual": fit.residual},
        window=window,
    )


# verification-suite check names -> check(rec[, tol], **params); a check
# that takes a parameter named tol receives the suite's tolerance there
CHECKS = {
    "energy_identity": check_energy_identity,
    "gamma2": check_gamma2_conservation,
    "lm": check_lm_evolution,
    "cone": check_cone_containment,
    "forward_bound": check_forward_bound,
    "decay": check_decay,
}


@dataclass
class ScatterResult:
    """Outcome of the modified-datum construction."""

    psi_plus: SpinorField
    tail_times: np.ndarray
    tail_norms: np.ndarray
    increments: np.ndarray
    converged: bool


def scattering_profile(
    f0: SpinorField,
    cosmo: Cosmology,
    model: ModelSpec,
    cfg: SolverConfig,
    checkpoints,
    tol: float = 1e-6,
) -> ScatterResult:
    """Build the modified free datum and measure the approach to free flow.

    The tail integral of backward-transported nonlinear outputs, the Duhamel
    sum, is held as arrays: Gauss-Legendre nodes and weights (panels,
    NODES_PER_PANEL) over the checkpoint partition, and one zero-filled
    (panels, *shape) array, to whose row each node adds, in node order, its
    weighted nonlinear output run back to the start time by the linear
    solver.  A panel's increment is the L2 norm of its row, and convergence
    is declared when the last one falls below tol.  The modified datum, f0
    plus the rows' sum, then seeds a
    free run whose distance to the nonlinear run is recorded at the
    checkpoints.  The construction covers the nonlinear forcing only, so a
    model with a source raises ValueError.  A model without a nonlinearity
    adds nothing to the datum, and its run captures the checkpoints only:
    capture times are step stops, so it steps as the free run does, and the
    tails are exactly 0.

    Torus wraparound of the free comparison run is guarded once, up front:
    by finite propagation speed that run stays inside
    r0 + 2 cosmo.travel_distance(t_last, t_start), with r0 the support
    radius of f0 at field.SUPPORT_MASS_FRACTION.  With cfg.track_cone,
    solver.ConeSafetyError is raised when this reaches the torus limit.
    The free run itself does not track the cone: the modified datum carries
    far-field spectral noise that a support estimate at a tiny mass
    fraction reads as the whole box.
    """
    if model.source is not None:
        raise ValueError("scattering_profile covers the nonlinear forcing only, not a source")
    checkpoints = sorted(float(c) for c in checkpoints)
    if not checkpoints or checkpoints[0] <= cfg.t_start:
        raise ValueError("checkpoints must be strictly after t_start")
    t_last = checkpoints[-1]
    if cfg.track_cone:
        r0 = support_radius(f0, cfg.cone_center)
        reach = r0 + 2.0 * cosmo.travel_distance(t_last, cfg.t_start)
        guard_cone(reach, f0.grid, t_last, "free comparison")

    x_gl, w_gl = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    edges = np.array([cfg.t_start] + checkpoints)
    a, b = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x_gl  # (panels, NODES_PER_PANEL)
    weights = 0.5 * (b - a) * w_gl

    run_cfg = replace(cfg, t_end=t_last, on_cone_violation="error")
    forced = not model.nonlinearity.is_none
    capture = (list(nodes.flat) if forced else []) + checkpoints
    nonlinear = propagate(f0, cosmo, model, run_cfg, capture_times=capture, observables=())

    linear_model = ModelSpec(mass=model.mass, potential=model.potential)
    panel_sums = np.zeros((len(nodes), *f0.data.shape), dtype=complex)
    if forced:
        for (p, j), tau in np.ndenumerate(nodes):  # in node order
            state = nonlinear.captured[tau]
            g = state.with_data(hyperbolic_rhs_nonlinearity(model.nonlinearity, state))
            back_cfg = replace(cfg, t_start=tau, t_end=cfg.t_start, track_cone=False,
                               blowup_factor=math.inf)
            back = propagate(g, cosmo, linear_model, back_cfg, observables=())
            panel_sums[p] += weights[p, j] * back.final.data
    increments = np.array([math.sqrt(l2_norm_sq(f0.with_data(s))) for s in panel_sums])

    psi_plus = f0.with_data(f0.data + panel_sums.sum(axis=0))
    free_cfg = replace(run_cfg, track_cone=False)
    free = propagate(psi_plus, cosmo, linear_model, free_cfg,
                     capture_times=checkpoints, observables=())

    tails = [math.sqrt(l2_norm_sq(f0.with_data(nonlinear.captured[c].data - free.captured[c].data)))
             for c in checkpoints]
    return ScatterResult(psi_plus=psi_plus, tail_times=np.array(checkpoints),
                         tail_norms=np.array(tails), increments=increments,
                         converged=bool(increments[-1] < tol))
