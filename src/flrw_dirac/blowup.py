"""Nonexistence machinery: regime classification, lifespan bound, and
empirical blow-up experiments.

The lifespan bound solves

    E(1)^(-alpha/2) = (alpha/2) c0 * J(T)
    J(T) = integral over [1, T] of (R + A(t))^(-3 alpha / 2)
           * t^(-3 alpha ell / 2 - alpha |Im m|) dt

for T, where A(t) is the comoving travel distance (log t for ell = 1).
The right side is strictly increasing in T; when its improper total mass
stays below the left side the bound is inconclusive for this energy and
infinity is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .field import SpinorField, l2_norm_sq, support_radius
from .models import Mass, ModelSpec, NonlinearitySpec
from .solver import RunRecord, SolverConfig, propagate
from .spacetime import Cosmology

__all__ = [
    "BlowupCase",
    "RegimeVerdict",
    "classify",
    "j_integral",
    "total_j_mass",
    "solvability_threshold",
    "lifespan",
    "differential_inequality_check",
    "empirical_blowup",
]

ANY_SIZE = "no_global_any_size"
LARGE_DATA = "no_global_large_data"


@dataclass(frozen=True)
class BlowupCase:
    """Parameters of one nonexistence scenario."""

    ell: float
    alpha_exp: float
    im_m_abs: float = 0.0
    c0: float = 1.0
    r_support: float = 1.0
    e1: float = 1.0

    def __post_init__(self):
        if not self.alpha_exp > 0:
            raise ValueError("alpha_exp must be positive")
        if self.im_m_abs < 0:
            raise ValueError("im_m_abs must be nonnegative")
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if not self.r_support > 0:
            raise ValueError("r_support must be positive")
        if not self.e1 > 0:
            raise ValueError("e1 must be positive")

    @property
    def cosmology(self) -> Cosmology:
        return Cosmology(self.ell, 1.0)


@dataclass(frozen=True)
class RegimeVerdict:
    regime: str  # ANY_SIZE | LARGE_DATA
    branch: str  # "ell<1" | "ell=1" | "ell>1" plus the regime tag
    threshold_value: float  # the quantity compared against 1


def _ell_class(ell: float) -> str:
    if abs(ell - 1.0) < 1e-12:
        return "ell=1"
    return "ell<1" if ell < 1.0 else "ell>1"


def classify(case: BlowupCase) -> RegimeVerdict:
    """Which nonexistence branch fires for these parameters.

    The branch quantity is 3 alpha/2 + alpha |Im m| for ell <= 1 and
    3 alpha ell / 2 + alpha |Im m| for ell > 1; values <= 1 give blow-up
    for data of arbitrary size, values > 1 only for large data.
    """
    a = case.alpha_exp
    cls = _ell_class(case.ell)
    if cls == "ell>1":
        q = 1.5 * a * case.ell + a * case.im_m_abs
    else:
        q = 1.5 * a + a * case.im_m_abs
    regime = ANY_SIZE if 1.0 >= q else LARGE_DATA
    tag = "any_size" if regime == ANY_SIZE else "large_data"
    return RegimeVerdict(regime=regime, branch=f"{cls}:{tag}", threshold_value=q)


def _integrand(case: BlowupCase):
    cosmo = case.cosmology
    p = -1.5 * case.alpha_exp * case.ell - case.alpha_exp * case.im_m_abs

    def f(t: float) -> float:
        return (case.r_support + cosmo.travel_distance(t)) ** (
            -1.5 * case.alpha_exp
        ) * t**p

    return f


def _split_points(t: float) -> list[float]:
    pts = []
    decade = 10.0
    while decade < t:
        pts.append(decade)
        decade *= 10.0
    return pts


def j_integral(case: BlowupCase, t: float, abs_tol: float = 1e-10) -> float:
    """Adaptive quadrature of the lifespan integrand over [1, t]."""
    if t < 1.0:
        raise ValueError("j_integral requires t >= 1")
    if t == 1.0:
        return 0.0
    f = _integrand(case)
    total = 0.0
    edges = [1.0] + _split_points(t) + [t]
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(f, a, b, epsabs=abs_tol, epsrel=1e-12, limit=400)
        total += val
    return total


def total_j_mass(case: BlowupCase, abs_tol: float = 1e-12) -> float:
    """Improper total of the lifespan integrand over [1, infinity).

    The integrand decays like t^(-q), q the classify threshold value (for
    ell = 1 with an extra factor log(t)^(-3 alpha / 2), and 3 alpha / 2 <= q),
    so the total is infinite exactly in the any-size regime q <= 1.
    """
    if classify(case).regime == ANY_SIZE:
        return math.inf
    f = _integrand(case)
    total, _ = quad(f, 1.0, 200.0, epsabs=abs_tol, epsrel=1e-12, limit=800)
    tail, _ = quad(f, 200.0, np.inf, epsabs=abs_tol, epsrel=1e-10, limit=800)
    return total + tail


def solvability_threshold(case: BlowupCase) -> float:
    """Smallest initial energy for which the lifespan equation has a root."""
    mass = total_j_mass(case)
    if not math.isfinite(mass) or mass <= 0.0:
        return 0.0
    return (0.5 * case.alpha_exp * case.c0 * mass) ** (-2.0 / case.alpha_exp)


def lifespan(case: BlowupCase, xtol: float = 1e-12) -> float:
    """Latest possible blow-up time, or infinity when inconclusive.

    Solves the lifespan equation by bracketing plus Brent root finding on
    the strictly increasing right side.
    """
    target = case.e1 ** (-0.5 * case.alpha_exp) / (0.5 * case.alpha_exp * case.c0)
    total = total_j_mass(case)
    if math.isfinite(total) and total <= target * (1.0 + 1e-12):
        return math.inf

    hi = 2.0
    while j_integral(case, hi) < target:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    lo = max(1.0, hi / 2.0)

    def g(t: float) -> float:
        return j_integral(case, t) - target

    if g(lo) > 0.0:
        lo = 1.0
    return float(brentq(g, lo, hi, xtol=xtol, rtol=8.9e-16))


def differential_inequality_check(
    rec: RunRecord,
    case: BlowupCase,
    slack: float = 1e-2,
    energy_cap_factor: float = 1e2,
) -> dict:
    """Discrete check of the energy growth inequality on a recorded run.

    Centered differences of the recorded squared norm must dominate
    c0 (R + A(t))^(-3 alpha/2) E^((2+alpha)/2) - (3 ell + 2 |Im m|) E / t
    up to the stated relative slack.  Points where the energy exceeds
    energy_cap_factor times its initial value are excluded (detector
    granularity near the singular time).
    """
    tt = rec.series["times"]
    e = rec.series["l2"]
    cosmo = case.cosmology
    cap = energy_cap_factor * e[0]
    ok = True
    worst = -math.inf
    checked = 0
    for i in range(1, len(tt) - 1):
        if e[i] > cap or e[i + 1] > cap:
            continue
        de = (e[i + 1] - e[i - 1]) / (tt[i + 1] - tt[i - 1])
        growth = (
            case.c0
            * (case.r_support + cosmo.travel_distance(tt[i]))
            ** (-1.5 * case.alpha_exp)
            * e[i] ** (1.0 + 0.5 * case.alpha_exp)
        )
        damp = (3.0 * case.ell + 2.0 * case.im_m_abs) * e[i] / tt[i]
        rhs = growth - damp
        margin = slack * (abs(de) + abs(rhs)) + 1e-30
        violation = rhs - de - margin
        worst = max(worst, violation)
        if violation > 0:
            ok = False
        checked += 1
    return {
        "holds": ok,
        "points_checked": checked,
        "worst_violation": worst if checked else None,
    }


def empirical_blowup(
    f0: SpinorField,
    cosmo: Cosmology,
    alpha_exp: float,
    c0: float,
    cfg: SolverConfig,
    mass: complex = 0.0,
    slack: float = 0.1,
) -> dict:
    """Run the focusing model on given data and compare against the bound.

    The measured initial energy and support radius feed the lifespan
    equation; the run continues until numerical blow-up (norm threshold or
    non-finite values) or cfg.t_end.  Ending without blow-up in an
    any-size regime is reported as inconclusive (budget), not failure.
    """
    e1 = l2_norm_sq(f0)
    r_meas = support_radius(f0, cfg.cone_center, mass_fraction=1e-5)
    case = BlowupCase(
        ell=cosmo.ell,
        alpha_exp=alpha_exp,
        im_m_abs=abs(complex(mass).imag),
        c0=c0,
        r_support=max(r_meas, 1e-6),
        e1=e1,
    )
    verdict = classify(case)
    t_bound = lifespan(case)

    model = ModelSpec(
        mass=Mass(complex(mass)),
        nonlinearity=NonlinearitySpec(kind="blowup_G", alpha_exp=alpha_exp, c0=c0),
    )
    rec = propagate(f0, cosmo, model, cfg)

    t_numerical = rec.blowup_time if rec.blown_up else None
    if rec.blown_up and math.isfinite(t_bound):
        satisfied = t_numerical <= t_bound * (1.0 + slack)
    else:
        satisfied = None
    inconclusive = (not rec.blown_up) and verdict.regime == ANY_SIZE
    ineq = differential_inequality_check(rec, case)
    return {
        "case": {
            "ell": case.ell,
            "alpha": case.alpha_exp,
            "im_m": case.im_m_abs,
            "c0": case.c0,
            "r_measured": case.r_support,
            "e1_measured": case.e1,
        },
        "regime": verdict.regime,
        "branch": verdict.branch,
        "threshold_value": verdict.threshold_value,
        "t_bound": t_bound,
        "t_numerical": t_numerical,
        "satisfied": satisfied,
        "inconclusive_budget": inconclusive,
        "differential_inequality": ineq,
        "record": rec,
    }
