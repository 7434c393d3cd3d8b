"""Nonexistence machinery: regime classification, lifespan bound, and
empirical blow-up experiments.

The energy inequality dE/dt >= c0 (R + A)^(-3 alpha/2) E^(1 + alpha/2) - D E / t,
D = 3 ell + 2 |Im m|, integrates (with F = E t^D) to the comparison bound

    E(t) >= Y(t) = t^(-D) [E(1)^(-alpha/2) - (alpha/2) c0 J(t)]^(-2/alpha)
    J(t) = integral over [1, t] of (R + A(s))^(-3 alpha / 2)
           * s^(-3 alpha ell / 2 - alpha |Im m|) ds

where A(s) is the comoving travel distance (log s for ell = 1).  J is strictly
increasing, and the lifespan bound T_bu is the time the bracket vanishes; when
J's improper total mass stays below E(1)^(-alpha/2) / ((alpha/2) c0) the bound
is inconclusive for this energy and infinity is returned.  lifespan's J is
adaptive quadrature (j_integral).  comparison_check tests a run against Y
with J from one fixed Gauss ladder (_ladder_j), evaluated in numpy arrays
and depending on t only; it checks the times whose bracket is positive.

empirical_blowup runs the data a BlowupCase states (support radius R,
energy E(1)) and tests the run against lifespan(case), the bound a sweep row
reports.  No radius is measured back: an estimate reads below R, and the
theorem states no bound for that radius with these data.

scipy is loaded on the first quadrature, not at import: the simulate,
verify and kernel paths never integrate and should not pay for it.
`quad` stays a module attribute that forwards to scipy's, so callers and
tools that wrap `flrw_dirac.blowup.quad` see every quad: `total_j_mass`'s and
`j_integral`'s, which `lifespan` calls.  comparison_check makes none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .field import Grid, l2_norm_sq
from .initial_data import compact_bump
from .models import Mass, ModelSpec, NonlinearitySpec
from .solver import RunRecord, SolverConfig, propagate
from .spacetime import Cosmology, _pow

__all__ = [
    "BlowupCase",
    "RegimeVerdict",
    "classify",
    "j_integral",
    "total_j_mass",
    "solvability_threshold",
    "lifespan",
    "comparison_check",
    "empirical_blowup",
]

ANY_SIZE = "no_global_any_size"
LARGE_DATA = "no_global_large_data"

J_QUAD = {"epsabs": 1e-10, "epsrel": 1e-12, "limit": 400}  # quad settings of each piece of J
TOTAL_J_ABS_TOL = 1e-12  # absolute quadrature tolerance of J over [1, infinity)
LIFESPAN_XTOL = 1e-12  # root tolerance of the lifespan time
COMPARISON_RTOL = 1e-6  # relative round-off allowance of E >= Y in comparison_check
BOUND_SLACK = 0.1  # relative slack of a numerical blow-up time against the bound
LADDER_STEPS = 64  # edges 10^(j / LADDER_STEPS) per decade of comparison_check's J
# numpy.polynomial.legendre.leggauss(8), written out: the sweep builds no Gauss rule
_GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GAUSS_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


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
        for name in ("ell", "alpha_exp", "im_m_abs", "c0", "r_support", "e1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def _ell_class(case: BlowupCase) -> str:
    if case.cosmology.ell_is_one:
        return "ell=1"
    return "ell<1" if case.ell < 1.0 else "ell>1"


def classify(case: BlowupCase) -> RegimeVerdict:
    """Which nonexistence branch fires for these parameters.

    The branch quantity is 3 alpha/2 + alpha |Im m| for ell <= 1 and
    3 alpha ell / 2 + alpha |Im m| for ell > 1; values <= 1 give blow-up
    for data of arbitrary size, values > 1 only for large data.
    """
    a = case.alpha_exp
    cls = _ell_class(case)
    if cls == "ell>1":
        q = 1.5 * a * case.ell + a * case.im_m_abs
    else:
        q = 1.5 * a + a * case.im_m_abs
    regime = ANY_SIZE if 1.0 >= q else LARGE_DATA
    tag = "any_size" if regime == ANY_SIZE else "large_data"
    return RegimeVerdict(regime=regime, branch=f"{cls}:{tag}", threshold_value=q)


class _Integrand(NamedTuple):
    """The lifespan integrand (R + A(s))^q s^p in its two forms.  Calling it
    calls `scalar`, the form lifespan, j_integral and total_j_mass integrate."""

    scalar: Callable[[float], float]  # A = (s^k - 1) / k, k = 1 - ell (log s at ell = 1)
    array: Callable[[np.ndarray], np.ndarray]  # A = expm1(k log s) / k, for _ladder_j

    def __call__(self, s: float) -> float:
        return self.scalar(s)


@lru_cache(maxsize=256)
def _integrand(case: BlowupCase) -> _Integrand:
    """s -> (R + A(s))^q s^p, A the travel distance from t0 = 1, without its
    checks: every node is in [1, t].  The scalar form computes A in
    travel_distance's own arithmetic, so T_bu keeps its bits.  The array
    form computes A as expm1(k log s) / k, which keeps its relative accuracy
    as ell nears 1 where s^k - 1 cancels; so lifespan's J and the ladder's J
    comparison_check reads differ near ell = 1 (up to about 1e-16 / |ell - 1|
    relative) until the scalar form takes expm1 too.  Built once per case:
    lifespan, j_integral and every check of a run with that case share it."""
    r = case.r_support
    q = -1.5 * case.alpha_exp
    p = -1.5 * case.alpha_exp * case.ell - case.alpha_exp * case.im_m_abs
    if case.cosmology.ell_is_one:
        return _Integrand(lambda s: (r + math.log(s)) ** q * s**p,
                          lambda s: (r + np.log(s)) ** q * s**p)
    k = 1.0 - case.ell
    return _Integrand(lambda s: (r + (_pow(s, k) - 1.0) / k) ** q * s**p,
                      lambda s: (r + np.expm1(k * np.log(s)) / k) ** q * s**p)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call (lifespan's J via j_integral)."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _pieces(t: float) -> list[tuple[float, float]]:
    """[1, t] split at the powers of ten: the complete decades
    [10^k, 10^(k+1)] below t, then the last, partial piece ending at t."""
    edges = [1.0]
    while edges[-1] * 10.0 < t:
        edges.append(edges[-1] * 10.0)
    edges.append(t)
    return list(zip(edges[:-1], edges[1:]))


def j_integral(case: BlowupCase, t: float, *, decades: dict | None = None) -> float:
    """Adaptive quadrature of the lifespan integrand over [1, t], one quad
    per _pieces piece, summed in order.  `decades` memoizes the complete
    decades by left edge, for calls with the same case."""
    if t < 1.0:
        raise ValueError("j_integral requires t >= 1")
    if t == 1.0:
        return 0.0
    f = _integrand(case)
    memo = {} if decades is None else decades
    *complete, (a, b) = _pieces(t)
    total = 0.0
    for lo, hi in complete:
        if lo not in memo:
            memo[lo] = quad(f, lo, hi, **J_QUAD)[0]
        total += memo[lo]
    return total + quad(f, a, b, **J_QUAD)[0]


def total_j_mass(case: BlowupCase) -> float:
    """Improper total of the lifespan integrand over [1, infinity).

    The integrand decays like t^(-q), q the classify threshold value (for
    ell = 1 with an extra factor log(t)^(-3 alpha / 2), and 3 alpha / 2 <= q),
    so the total is infinite exactly in the any-size regime q <= 1.
    """
    if classify(case).regime == ANY_SIZE:
        return math.inf
    f = _integrand(case)
    total, _ = quad(f, 1.0, 200.0, epsabs=TOTAL_J_ABS_TOL, epsrel=1e-12, limit=800)
    tail, _ = quad(f, 200.0, np.inf, epsabs=TOTAL_J_ABS_TOL, epsrel=1e-10, limit=800)
    return total + tail


def solvability_threshold(case: BlowupCase) -> float:
    """Smallest initial energy for which the lifespan equation has a root."""
    mass = total_j_mass(case)
    if not math.isfinite(mass) or mass <= 0.0:
        return 0.0
    return (0.5 * case.alpha_exp * case.c0 * mass) ** (-2.0 / case.alpha_exp)


def lifespan(case: BlowupCase) -> float:
    """Latest possible blow-up time, or infinity when inconclusive.

    Brent root finding of J(T) = E(1)^(-alpha/2) / ((alpha/2) c0) in
    [hi/2, hi], hi the first power of 2 from 2 on with J(hi) at or above that
    target; it is inconclusive only if hi would leave the float range (past
    2^1023).  Every J(t) of one call shares one memo of the complete decades
    of _pieces, so each decade is integrated once; the sums, and so the root,
    are the same as without it.  The memo is walked first: the decades are
    summed, in j_integral's order, while J stays below the target at their
    right edge, and the doubling starts from the largest power of 2 at or
    below the last edge reached.  J is increasing, so every power of 2 the
    walk passes has J below the target, and hi is the one the doubling from
    2 finds, with one J per decade instead of one per doubling.
    """
    from scipy.optimize import brentq

    target = case.e1 ** (-0.5 * case.alpha_exp) / (0.5 * case.alpha_exp * case.c0)
    total = total_j_mass(case)
    if math.isfinite(total) and total <= target * (1.0 + 1e-12):
        return math.inf

    f = _integrand(case)
    decades: dict[float, float] = {}
    edge, j_edge = 1.0, 0.0  # J(edge) = j_edge < target
    while edge * 10.0 < math.inf:
        decades[edge] = quad(f, edge, edge * 10.0, **J_QUAD)[0]
        if not j_edge + decades[edge] < target:
            break
        edge, j_edge = edge * 10.0, j_edge + decades[edge]
    hi = 2.0 * math.ldexp(1.0, math.frexp(edge)[1] - 1)  # twice the power of 2 at or below edge
    while not math.isinf(hi) and j_integral(case, hi, decades=decades) < target:
        hi *= 2.0
    if math.isinf(hi):
        return math.inf
    lo = max(1.0, hi / 2.0)  # 1, where J = 0, or a power of 2 with J < target

    def g(t: float) -> float:
        return j_integral(case, t, decades=decades) - target

    return float(brentq(g, lo, hi, xtol=LIFESPAN_XTOL, rtol=8.9e-16))


def _ladder_j(case: BlowupCase, times: np.ndarray) -> np.ndarray:
    """J at each of the times (all >= 1) from a fixed Gauss ladder: the
    8-node Gauss-Legendre panels between the edges 10^(j / LADDER_STEPS) at
    or below t, summed in order, plus one 8-node panel from the last such
    edge to t.  The edges do not depend on the times, so J at a time depends
    on that time only.  The integrand is evaluated once, as one array over
    the nodes of every panel."""
    n = int(LADDER_STEPS * math.log10(times.max())) + 2  # the last edge is past every time
    edges = 10.0 ** (np.arange(n) / LADDER_STEPS)
    below = np.searchsorted(edges, times, side="right") - 1  # the last edge at or below t
    lo = np.concatenate([edges[:-1], edges[below]])
    half = 0.5 * (np.concatenate([edges[1:], times]) - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _GAUSS_NODES
    panels = half * (_integrand(case).array(nodes) * _GAUSS_WEIGHTS).sum(axis=-1)
    at_edges = np.concatenate([[0.0], np.cumsum(panels[:n - 1])])
    return at_edges[below] + panels[n - 1:]


def comparison_check(rec: RunRecord, case: BlowupCase) -> dict:
    """The comparison bound E >= Y (module docstring) on a recorded run that
    starts at t = 1, with E(1) = case.e1.

    J at each recorded time t is _ladder_j's: it depends on t only.  A
    recorded time t > 1 is checked when its bracket (the target of lifespan
    less J) is positive, that is before T_bu, to E >= Y (1 - COMPARISON_RTOL);
    worst_violation is the largest (Y (1 - COMPARISON_RTOL) - E) / E, so the
    bound holds when it is <= 0.
    """
    tt = rec.series["times"]
    if tt[0] != 1.0:
        raise ValueError(f"the comparison bound starts at t = 1, the record at {tt[0]}")
    half = 0.5 * case.alpha_exp
    damping = 3.0 * case.ell + 2.0 * case.im_m_abs
    target = case.e1 ** (-half) / (half * case.c0)  # lifespan's
    bracket = target - _ladder_j(case, tt)
    checked = (tt > 1.0) & (bracket > 0.0)
    t, e = tt[checked], rec.series["l2"][checked]
    y = t ** (-damping) * (half * case.c0 * bracket[checked]) ** (-1.0 / half)
    worst = float(np.max(y * (1.0 - COMPARISON_RTOL) / e - 1.0)) if t.size else None
    return {
        "holds": worst is None or worst <= 0.0,
        "points_checked": int(t.size),
        "worst_violation": worst,
    }


def empirical_blowup(cases: list[BlowupCase], grid: Grid, cfg: SolverConfig) -> list[dict]:
    """Run blowup_G (each case's alpha and c0, mass i |Im m|) on the data the
    cases state, to numerical blow-up or cfg.t_end, and test each run against
    lifespan(case); satisfied is None unless it blew up under a finite bound.

    The cases share ell, r_support and e1 (ValueError otherwise, and for an
    empty list), as the rows of one sweep cosmology do: they start from the
    same data, run as one stack of rows (solver.propagate) and give a list
    of reports, one per case, in order.  Each row's run is the one it would
    make alone, to rounding (models.power_flow).

    A stack steps with the split's Strang step: every term of blowup_G has
    an exact flow, and a step costs 2 FFTs to RK4's 8 (it records l2 alone,
    read off the data, so the only field it builds is the final one).
    t_numerical is the midpoint of the step in which the run blew up, so it
    is known only to dt/2.

    The data are a compact bump of radius r_support around cfg.cone_center,
    coefficients (1, 0, 0, 0), scaled to energy e1 at t = 1 = cfg.t_start.
    Their support is r_support by construction, so no radius is measured:
    an estimate reads below it.
    """
    if not cases:
        raise ValueError("empirical_blowup needs a case, got an empty list")
    first = cases[0]
    shared = ("ell", "r_support", "e1")
    if any(getattr(c, k) != getattr(first, k) for c in cases for k in shared):
        raise ValueError(f"the cases of a stack must share {', '.join(shared)}")
    coeffs = (1, 0, 0, 0)
    probe = compact_bump(grid, 1.0, first.r_support, cfg.cone_center, coeffs)
    f0 = probe.with_data(math.sqrt(first.e1 / l2_norm_sq(probe)) * probe.data)
    models = [ModelSpec(
        mass=Mass(1j * c.im_m_abs),
        nonlinearity=NonlinearitySpec(kind="blowup_G", alpha_exp=c.alpha_exp, c0=c.c0),
    ) for c in cases]
    recs = propagate(f0, first.cosmology, models, cfg, observables=("l2",))
    reports = []
    for c, rec in zip(cases, recs):
        t_bound = lifespan(c)
        t_numerical = rec.blowup_time if rec.blown_up else None
        if rec.blown_up and math.isfinite(t_bound):
            satisfied = t_numerical <= t_bound * (1.0 + BOUND_SLACK)
        else:
            satisfied = None
        reports.append({
            "t_bound": t_bound,
            "t_numerical": t_numerical,
            "satisfied": satisfied,
            "comparison": comparison_check(rec, c),
        })
    return reports
