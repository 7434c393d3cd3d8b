"""Time integration of the first-order Dirac system on the expanding grid.

The evolved system is

    d/dt psi = -(1/a(t)) sum_j alpha^j d_j psi - (3 ell / 2 t) psi
               - i (m / t) g0 psi + i V psi + F(psi) + source(t)

stepped with dt = min(dt_max, cfl * h * a(t)): the transport speed is
1/a(t), so this keeps the Courant number fixed.  Spatial derivatives are
spectral, so the semi-discrete flow conserves the quadratic invariants
exactly; the recorded drift is pure time-stepping error.

The free operator (the first three terms) has exact flows on the Fourier
coefficients: from ta to tb the transport, damping included, is
(ta/tb)^(3 ell/2) [cos(c|k|) I - (sin(c|k|)/|k|) B], with B = i sigma.k on
the off-diagonal 2x2 blocks and c the signed comoving travel distance, and
the mass is exp(-i m log(tb/ta) g0).  B^2 = -|k|^2 and B g0 = -g0 B, so a
product of these pieces is one element P + s B Q of a span with P and Q
diagonal on the two spinor pairs and radial in k (_compose), applied in one
pass, field._apply_span, as the closed-form propagator of kernels is.

A Strang step (Strang 1968, SINUM 5) is transport dt/2, mass dt/2, the
pointwise flow of c |psi|^alpha psi (models.power_flow) for dt, mass dt/2
and transport dt/2.  Exact transports compose, so a run fuses each step's
closing half with the next one's opening half into one pass from mid-step
to mid-step (_split_factors; McLachlan & Quispel 2002, Acta Numerica 11),
carries the spectrum after the pointwise map, reads the squared L2 norm
off it, and builds the field at a boundary only when something reads it:
a step is 2 FFTs, 1 pass and 1 pointwise map.  Without a pointwise flow a
step is Suzuki's composition of five Strang steps (_SUZUKI), 4th order,
multiplied out into one pass that ends at the step boundary: a free run
makes one pass a step and one inverse FFT per built field, and a massless
one is exact at any step.

propagate derives the integrator from the models.  A free model, and a
stack of models whose every term has an exact flow (no potential, no
source, a nonlinearity that is none, power_abs or blowup_G), split; any
other single model runs classical RK4 (step), its x-dependent terms
evaluated in physical space and transformed stage by stage (8 FFTs a
step; rhs returns the stage derivative).

A split stack holds rows that start from one field on one cosmology and
share every step; they differ in mass and pointwise flow.  In 1D the stack
is one array (rows, 4, n), and each pass, transform and pointwise map acts
on all rows in one call.  A row whose norm fails the blow-up test leaves
the stack with its own record.  A 3D split run, and an RK4 run, hold one
row.  The recorder samples only the OBSERVABLES propagate's caller names,
and computes the bilinear densities only when one of them reads them.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

from .field import (
    MAX_SOBOLEV_ORDER,
    BilinearDensities,
    Grid,
    SpinorField,
    _apply_span,
    _center3,
    _derivative_wavenumbers,
    _fftn,
    _ifftn,
    _recordable_norm_sq,
    _unique_mode_magnitudes,
    bilinear_densities,
    cone_mass,
    gamma2_bilinear,
    l2_norm_sq,
    majorana_defect,
    sobolev_norm,
    support_radius,
)
from .models import ModelSpec, hyperbolic_rhs_nonlinearity, potential_field, power_flow
from .schema import INF, NULLABLE, REQUIRED, ConfigError, _table, _value, _walk
from .spacetime import Cosmology

__all__ = [
    "SolverConfig",
    "RunRecord",
    "SCHEMA",
    "OBSERVABLES",
    "TIME_AXIS",
    "ConeSafetyError",
    "rhs",
    "step",
    "propagate",
    "cone_limit_radius",
    "guard_cone",
]


class ConeSafetyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    A run blows up when its squared L2 norm is not finite or exceeds
    blowup_factor (>= 1) times E(1), the initial one, or the largest norm
    whose observables are finite (field._recordable_norm_sq), whichever is
    smaller.  NaN is rejected in every float field.  t_start and t_end are
    normalised to builtin float, so numpy scalar times (quadrature nodes,
    say) behave like plain numbers downstream; record_every and
    sobolev_order to builtin int (any other type, bool and float included,
    raises TypeError); lm_z, the phase of the recorded Majorana defect, to
    builtin complex on the unit circle; and cone_center, as field._center3
    does, to a zero-padded 3-tuple of floats.
    """

    t_start: float = 1.0
    t_end: float = 10.0
    cfl: float = 0.25
    dt_max: float = math.inf
    blowup_factor: float = 1e6
    record_every: int = 1
    sobolev_order: int = 1
    lm_z: complex | None = None
    track_cone: bool = True
    cone_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    on_cone_violation: str = "error"  # "error" | "stop"

    def __post_init__(self):
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "cone_center", _center3(self.cone_center))
        for name in ("record_every", "sobolev_order"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        # each test is written so that NaN fails it
        if not self.t_start >= 1.0:
            raise ValueError("t_start must be >= 1")
        if not self.t_end >= 1.0:
            raise ValueError("t_end must be >= 1")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        if not self.blowup_factor >= 1.0:
            raise ValueError("blowup_factor must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not 0 <= self.sobolev_order <= MAX_SOBOLEV_ORDER:
            raise ValueError(f"sobolev_order must lie in [0, {MAX_SOBOLEV_ORDER}]")
        if self.on_cone_violation not in ("error", "stop"):
            raise ValueError("on_cone_violation must be 'error' or 'stop'")
        if self.lm_z is not None:
            object.__setattr__(self, "lm_z", complex(self.lm_z))
            if not abs(abs(self.lm_z) - 1.0) <= 1e-12:
                raise ValueError("lm_z must lie on the unit circle")


SCHEMA = "flrw-dirac-run/1"
TIME_AXIS = "times"

# RunRecord fields serialised as they are, _META at the top level and _FLAGS under
# "flags"; cosmology, mass, cone_center, series and snapshots have their own shape.
_META = ("potential_kind", "potential_gamma2_ok", "nonlinearity_kind", "sobolev_order",
         "support_radius0")
_FLAGS = ("completed", "blown_up", "blowup_time", "cone_violation")


@dataclass
class RunRecord:
    """Recorded series plus the metadata of the run that produced them.

    series maps the name of each OBSERVABLES entry that applies to the run
    to its values (float or complex), one per entry of the TIME_AXIS series.
    """

    series: dict[str, np.ndarray]
    cosmology: Cosmology
    mass: complex
    potential_kind: str
    potential_gamma2_ok: bool
    nonlinearity_kind: str
    sobolev_order: int
    support_radius0: float
    cone_center: tuple[float, float, float]
    completed: bool = False
    blown_up: bool = False
    blowup_time: float | None = None
    cone_violation: bool = False
    final: SpinorField | None = None
    captured: dict = dc_field(default_factory=dict)
    snapshots: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        series = {}
        for name, values in self.series.items():
            if np.iscomplexobj(values):
                series[f"{name}_re"] = values.real.tolist()
                series[f"{name}_im"] = values.imag.tolist()
            else:
                series[name] = values.tolist()
        return {
            "schema": SCHEMA,
            "cosmology": {"ell": self.cosmology.ell, "a0": self.cosmology.a0},
            "mass": {"re": self.mass.real, "im": self.mass.imag},
            **{key: getattr(self, key) for key in _META},
            "flags": {key: getattr(self, key) for key in _FLAGS},
            "cone_center": list(self.cone_center),
            "series": series,
            "snapshots": list(self.snapshots),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Inverse of to_dict.  A record of another schema, or one that does not
        hold what to_dict writes (_RECORD; both halves of a complex series, every
        series as long as the times), raises ValueError naming the field."""
        schema = d.get("schema") if isinstance(d, dict) else None
        if schema != SCHEMA:
            raise ValueError(f"record schema {schema!r} is not {SCHEMA!r}")
        v = _walk(d, _RECORD, root="the record")
        raw = {key: _value(values, "list", ("number", None, 0, INF), f"series.{key}")
               for key, values in v["series"].items()}
        if TIME_AXIS not in raw:
            raise ConfigError(f"missing required field 'series.{TIME_AXIS}'")
        n = len(raw[TIME_AXIS])
        for key, values in raw.items():
            if len(values) != n:
                raise ConfigError(f"series {key!r} has {len(values)} values, "
                                  f"but {TIME_AXIS!r} has {n}")
        series = {}
        for name in OBSERVABLES:
            re, im = f"{name}_re", f"{name}_im"
            if name in raw:
                series[name] = np.array(raw[name])
            elif re in raw or im in raw:
                if not (re in raw and im in raw):
                    raise ConfigError(f"series {name!r} needs both {re!r} and {im!r}")
                series[name] = np.array(raw[re]) + 1j * np.array(raw[im])
        return cls(
            series=series,
            cosmology=Cosmology(v["cosmology"]["ell"], v["cosmology"]["a0"]),
            mass=complex(v["mass"]["re"], v["mass"]["im"]),
            cone_center=v["cone_center"],
            snapshots=list(v.get("snapshots", [])),
            **{key: v[key] for key in _META},
            **{key: v["flags"][key] for key in _FLAGS},
        )


# What a serialised record holds, for from_dict; every series is a list of numbers.
_RECORD = _table(
    ("schema", "string", (SCHEMA,), REQUIRED),
    ("cosmology.ell", "number", None, REQUIRED),
    ("cosmology.a0", "number", None, REQUIRED),
    ("mass.re", "number", None, REQUIRED),
    ("mass.im", "number", None, REQUIRED),
    ("potential_kind", "string", None, REQUIRED),
    ("potential_gamma2_ok", "bool", None, REQUIRED),
    ("nonlinearity_kind", "string", None, REQUIRED),
    ("sobolev_order", "integer", None, REQUIRED),
    ("support_radius0", "number", None, REQUIRED),
    ("flags.completed", "bool", None, REQUIRED),
    ("flags.blown_up", "bool", None, REQUIRED),
    ("flags.blowup_time", "number", None, NULLABLE),
    ("flags.cone_violation", "bool", None, REQUIRED),
    ("cone_center", "list", ("number", None, 3, 3), REQUIRED),
    ("series", "section", None, REQUIRED),
    ("snapshots", "list", ("string", None, 0, INF), None),
)


@lru_cache(maxsize=32)
def _mode_magnitudes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """|k| of the derivative wavenumbers, the wavenumbers of the symbol B,
    and 1/|k| (0 at |k| = 0, where B vanishes), read-only: over the modes
    in 1D and over the distinct mode magnitudes in 3D, the radial factors
    _apply_span takes."""
    if grid.dim == 3:
        k = _unique_mode_magnitudes(grid)[0]
    else:
        k = np.abs(_derivative_wavenumbers(grid)[0])
    inv = np.divide(1.0, k, out=np.zeros_like(k), where=k > 0)
    for e in (k, inv):
        e.setflags(write=False)
    return k, inv


def _per_row(values: list):
    """values, one per row of a split run's stack, shaped to broadcast over
    its hat (_SplitState): (rows, 1, 1), or the one value of a stack of one."""
    return values[0] if len(values) == 1 else np.reshape(values, (-1, 1, 1))


def _split_factors(t0: float, tb: float, t1: float, cosmo: Cosmology, masses: list,
                   grid: Grid) -> tuple:
    """The factors (p, q, s) of _apply_span for the exact mass flow from t0
    to tb, then the exact transport from t0 to t1, then the mass flow from
    tb to t1 (either way in time), per row of a stack with these masses.
    The transport is T = dil [cos(c|k|) I - (sin(c|k|)/|k|) B], dil =
    (t0/t1)^(3 ell/2); the mass flow scales the upper pair by u and the
    lower by 1/u, here ua and ub.  M B = B M^-1, so P = dil cos (ua ub,
    1/(ua ub)), Q = (sin(c|k|)/|k|) (ua/ub, ub/ua) and s = -dil, the phases
    in scalar arithmetic per row, as for a row alone.  A Strang step opens
    with tb = t0 and closes with tb = t1; a run passes from one mid-step to
    the next through the step boundary tb."""
    lo, hi = sorted((t0, t1))
    c = math.copysign(cosmo.travel_distance(hi, lo), t1 - t0)
    k, inv_k = _mode_magnitudes(grid)
    dil = (t0 / t1) ** (1.5 * cosmo.ell)
    log_a, log_b = math.log(tb / t0), math.log(t1 / tb)
    pu, pl, v = [], [], []
    for m in masses:
        ua, ub = cmath.exp(-1j * m * log_a), cmath.exp(-1j * m * log_b)
        u = ua * ub
        pu.append(dil * u)
        pl.append(dil / u)
        v.append(ua / ub)
    pu, pl, v = (_per_row(x) for x in (pu, pl, v))
    ck = c * k
    cos = np.cos(ck)
    sin_k = np.sin(ck) * inv_k  # sin(c|k|)/|k|, its limit c immaterial where B = 0
    return (pu * cos, pl * cos), (v * sin_k, sin_k / v), -dil


def _compose(x2: tuple, x1: tuple, k_sq) -> tuple:
    """The product x2 x1 of two span elements P + s B Q as their factors
    (p, q, s), q not None: P = P2 P1 - s1 s2 K Q2^sw Q1, Q = s1 P2^sw Q1 +
    s2 Q2 P1 and s = 1, where ^sw swaps the upper and lower pair factors
    (D B = B D^sw) and B^2 = -K, K = |k|^2 on the factors' entries."""
    (p2u, p2l), (q2u, q2l), s2 = x2
    (p1u, p1l), (q1u, q1l), s1 = x1
    sk = s1 * s2 * k_sq
    return ((p2u * p1u - sk * q2l * q1u, p2l * p1l - sk * q2u * q1l),
            (s1 * p2l * q1u + s2 * q2u * p1u, s1 * p2u * q1l + s2 * q2l * p1l), 1.0)


# Suzuki's fractal composition (Suzuki 1990, Phys. Lett. A 146, 319): Strang steps of p, p,
# 1 - 4p, p and p times dt, p = 1/(4 - 4^(1/3)), make a 4th-order step whose every substep
# time lies in [t, t + dt].  Its substep boundaries but the last, as fractions of dt:
_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_SUZUKI = (0.0, _P, 2.0 * _P, 1.0 - 2.0 * _P, 1.0 - _P)


class _Rk4State:
    """An RK4 run at a step boundary: its one row's field there."""

    def __init__(self, f: SpinorField, cosmo: Cosmology, model: ModelSpec):
        self.fields, self.time, self.cosmo, self.model = [f], f.time, cosmo, model

    def advance(self, dt: float) -> tuple["_Rk4State", np.ndarray]:
        """The state one step of dt later, and the row's squared L2 norm."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as the split's
            f = step(self.fields[0], dt, self.cosmo, self.model)
            return _Rk4State(f, self.cosmo, self.model), np.array([l2_norm_sq(f)])


class _SplitRun:
    """The fixed inputs of a split run of a stack of rows: the start field
    `like` (its grid and shape), the cosmology, the model of each row, and
    what a step reads of them: each row's mass and, unless no row has a
    nonlinearity, the per-row exponent and coefficient of power_flow (a
    row without one flows with coefficient 0, which leaves it as it is)."""

    def __init__(self, like: SpinorField, cosmo: Cosmology, models: list):
        self.like, self.cosmo, self.models = like, cosmo, models
        self.masses = [complex(m.mass.m) for m in models]
        nls = [m.nonlinearity for m in models]
        self.flow = None if all(nl.is_none for nl in nls) else (
            _per_row([nl.alpha_exp for nl in nls]),
            _per_row([0.0 if nl.is_none else nl.power_coefficient for nl in nls]))


class _SplitState:
    """A split run of a stack of rows (_SplitRun) at the step boundary
    `time`.  hat holds, per row, the Fourier coefficients of the data at
    the time mid: at mid-step after the last pointwise map, or at the
    boundary (mid = time) at the start and after a free step: (rows, 4, n),
    or for a stack of one that row's array, shaped like its field's data.
    The fields at `time` are built on first read, from hat or from its
    closing pass, and building them never changes the run."""

    def __init__(self, time: float, mid: float, hat: np.ndarray, run: _SplitRun):
        self.time, self.mid, self.hat, self.run = time, mid, hat, run

    @classmethod
    def start(cls, f: SpinorField, cosmo: Cosmology, models: list) -> "_SplitState":
        rows = len(models)
        hat = f.spectrum if rows == 1 else np.tile(f.spectrum, (rows, 1, 1))
        state = cls(f.time, f.time, hat, _SplitRun(f, cosmo, models))
        state.__dict__["fields"] = [f] * rows
        return state

    def advance(self, dt: float) -> tuple["_SplitState", np.ndarray]:
        """The state one step of dt later: Suzuki's step without a pointwise
        map, else a Strang step.  Also the squared L2 norm of each row's field
        there, read off hat: the closing pass is the diagonal mass flow, then
        dil times a unitary per mode.  A pointwise blow-up leaves non-finite
        data and norm; numpy's warnings on the way are silenced."""
        t, run = self.time, self.run
        grid = run.like.grid
        mid, t1 = t + 0.5 * dt, t + dt
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if run.flow is None:  # the passes of Suzuki's five Strang steps, multiplied out
                bounds = [t + c * dt for c in _SUZUKI] + [t1]
                mids = [self.mid] + [0.5 * (a + b) for a, b in zip(bounds, bounds[1:])] + [t1]
                k_sq = _mode_magnitudes(grid)[0] ** 2
                x = reduce(lambda x, y: _compose(y, x, k_sq), (
                    _split_factors(*ts, run.cosmo, run.masses, grid)
                    for ts in zip(mids, bounds, mids[1:])))
                hat, mid = _apply_span(self.hat, grid, *x), t1
            else:
                hat = _apply_span(self.hat, grid,
                                  *_split_factors(self.mid, t, mid, run.cosmo, run.masses, grid))
                hat = _fftn(power_flow(*run.flow, _ifftn(hat, grid, out=hat), dt), grid)
            # |u|^2 of each row's mass flow mid -> t1
            u_sq = np.array([(t1 / mid) ** (2.0 * m.imag) for m in run.masses])
            dil_sq = (mid / t1) ** (3.0 * run.cosmo.ell)
            pairs = hat.reshape(-1, 2, 2 * grid.n**grid.dim)  # per row: upper, lower pair
            upper, lower = np.vecdot(pairs, pairs).real.T
            e = dil_sq * (u_sq * upper + lower / u_sq)
        return _SplitState(t1, mid, hat, run), e * grid.cell_volume / grid.n**grid.dim  # Parseval

    def take(self, keep: np.ndarray) -> "_SplitState":
        """The state of the rows where keep is true (a 1D stack)."""
        run = self.run
        models = [m for m, k in zip(run.models, keep) if k]
        hat = self.hat[keep]
        return _SplitState(self.time, self.mid, hat[0] if len(models) == 1 else hat,
                           _SplitRun(run.like, run.cosmo, models))

    @cached_property
    def fields(self) -> list[SpinorField]:
        run, hat = self.run, self.hat
        with np.errstate(over="ignore", invalid="ignore"):  # as in advance
            if self.mid != self.time:  # the closing pass
                hat = _apply_span(hat, run.like.grid, *_split_factors(
                    self.mid, self.time, self.time, run.cosmo, run.masses, run.like.grid))
            return [run.like.with_spectrum(h, time=self.time)
                    for h in hat.reshape(-1, *run.like.data.shape)]


def _local_terms(f: SpinorField, t: float, model: ModelSpec) -> np.ndarray:
    """The x-dependent part of the right side, i V psi + F(psi) + source(t),
    in physical space, for a model that has some of these terms."""
    out = None
    vf = potential_field(model.potential, f.grid)
    if vf is not None:
        out = 1j * np.einsum("ab...,b...->a...", vf, f.data)
    if not model.nonlinearity.is_none:
        nl = hyperbolic_rhs_nonlinearity(model.nonlinearity, f)
        out = nl if out is None else out + nl
    if model.source is not None:
        out = model.source(t) if out is None else out + model.source(t)
    return out


def _rhs_hat(f: SpinorField, t: float, cosmo: Cosmology, model: ModelSpec) -> np.ndarray:
    """Fourier coefficients of the right side at time t: the free operator
    d I + s B + mu g0, with d = -3 ell/2t, s = -1/a(t) and mu = -i m/t, on
    f.spectrum, plus the transformed x-dependent terms.  The scale factor
    raises ValueError for t <= 0 before anything divides by t."""
    s = -1.0 / cosmo.scale(t)
    d, mu = -1.5 * cosmo.ell / t, -1j * complex(model.mass.m) / t
    out = _apply_span(f.spectrum, f.grid, (d + mu, d - mu), s=s)  # g0 = diag(1, 1, -1, -1)
    if not model.is_free:
        out += _fftn(_local_terms(f, t, model), f.grid)
    return out


def rhs(f: SpinorField, t: float, cosmo: Cosmology, model: ModelSpec) -> SpinorField:
    """Right side of the semi-discrete system at time t: the stage
    derivative that step integrates, as a field carrying its spectrum."""
    return f.with_spectrum(_rhs_hat(f, t, cosmo, model), time=t)


def step(f: SpinorField, dt: float, cosmo: Cosmology, model: ModelSpec) -> SpinorField:
    """One classical RK4 step of size dt (dt < 0 integrates backward), each
    stage derivative _rhs_hat, the right side of rhs.  The field returned
    carries its spectrum.  propagate steps a single model with x-dependent
    terms with it; a free run and a split stack take the split's exact
    pieces (_SplitState)."""
    t = f.time
    hat = f.spectrum
    k = [_rhs_hat(f, t, cosmo, model)]
    for frac in (0.5, 0.5, 1.0):
        stage = f.with_spectrum(hat + frac * dt * k[-1])
        k.append(_rhs_hat(stage, t + frac * dt, cosmo, model))
    new = hat + (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
    return f.with_spectrum(new, time=t + dt)


def cone_limit_radius(grid: Grid) -> float:
    """Largest admissible forward-cone radius before torus wraparound."""
    return 0.5 * grid.box_length - 2.0 * grid.h


def guard_cone(radius: float, grid: Grid, t: float, what: str) -> None:
    """Raise ConeSafetyError when `radius`, the reach of the run named by
    `what` at time t, reaches cone_limit_radius(grid)."""
    limit = cone_limit_radius(grid)
    if radius >= limit:
        raise ConeSafetyError(
            f"{what} radius {radius:.3f} at t={t:.4f} reaches the torus limit "
            f"{limit:.3f}; enlarge the box or lower the end time"
        )


class _Sample:
    """What an observable reads of one row at one recorded time: the time,
    the squared L2 norm l2, the field f (the row's in the state, which a
    split run builds on first read), its cell volume vol, its bilinear
    densities dens (computed on first read) and the row's fixed inputs (cfg,
    cosmo, model and r0, as attributes of run)."""

    def __init__(self, state: "_Rk4State | _SplitState", row: int, l2: float, run: "_Recorder"):
        self.state, self.row, self.time, self.l2, self.run = state, row, state.time, l2, run

    @property
    def f(self) -> SpinorField:
        return self.state.fields[self.row]

    @property
    def vol(self) -> float:
        return self.f.grid.cell_volume

    @cached_property
    def dens(self) -> BilinearDensities:
        return bilinear_densities(self.f)


def _cone_leak(s: _Sample) -> float:
    run = s.run
    if run.cfg.track_cone and s.time >= run.cfg.t_start:
        return cone_mass(s.f, run.cfg.cone_center, run.reach(s.time))
    return 0.0


def _imv_int(s: _Sample) -> float:
    potential = s.run.model.potential
    if potential.is_zero or potential.hermitian:
        return 0.0
    # psi^dag V psi = psi^dag Re(V) psi + i psi^dag Im(V) psi, both forms real
    vf = potential_field(potential, s.f.grid)
    v = np.einsum("a...,ab...,b...->...", np.conj(s.f.data), vf, s.f.data)
    return float(np.sum(v).imag) * s.vol


def _source_k(s: _Sample) -> float:
    if s.run.model.source is None:
        return 0.0
    sf = s.f.with_data(np.asarray(s.run.model.source(s.time), dtype=complex))
    return sobolev_norm(sf, s.run.cfg.sobolev_order)



# The recorded series, in order: name -> value at one sample, or None where
# the observable does not apply to the run (the series is then absent).
# Entries look the field functions up by their module-global names on each
# call, so wrapping those names (as the tracer does) sees every call.
OBSERVABLES: dict[str, Callable[[_Sample], float | complex | None]] = {
    # t, the time of the sample
    TIME_AXIS: lambda s: s.time,
    # E(t), the squared L2 norm
    "l2": lambda s: s.l2,
    # H_k norm at cfg.sobolev_order
    "sobolev_k": lambda s: sobolev_norm(s.f, s.run.cfg.sobolev_order),
    # integral of the scalar density xi = psi^dagger g0 psi
    "xi_int": lambda s: float(np.sum(s.dens.xi)) * s.vol,
    # integral of the pseudoscalar density eta
    "eta_int": lambda s: float(np.sum(s.dens.eta)) * s.vol,
    # complex transpose bilinear integral of psi^T g2 psi
    "gamma2": lambda s: gamma2_bilinear(s.f),
    # integral of rho^2 = xi^2 + eta^2
    "rho2_int": lambda s: float(np.sum(s.dens.rho2)) * s.vol,
    # integral of the pointwise density rho = sqrt(rho^2)
    "rho_int": lambda s: float(np.sum(np.sqrt(s.dens.rho2))) * s.vol,
    # L2 mass outside the forward cone widened by r0 (0 when not tracked)
    "cone_leak": _cone_leak,
    # integral of psi^dagger Im(V) psi (0 for a Hermitian potential)
    "imv_int": _imv_int,
    # H_k norm of the source at the sample time (0 without a source)
    "source_k": _source_k,
    # Majorana defect at the phase cfg.lm_z; only with lm_z set
    "lm_defect": lambda s: (
        None if s.run.cfg.lm_z is None else majorana_defect(s.f, s.run.cfg.lm_z)
    ),
}


class _Recorder:
    """Samples OBSERVABLES along one row of a run, holds the row's fixed
    inputs, and gathers the rest of its record: the _FLAGS entries the run
    sets, the final field and the captured states."""

    def __init__(self, cosmo, model, cfg, r0, observables=None):
        unknown = set(observables or ()) - OBSERVABLES.keys()
        if unknown:
            raise ValueError(
                f"unknown observables {sorted(unknown)}; options: {list(OBSERVABLES)}")
        self.observe = {name: fn for name, fn in OBSERVABLES.items()
                        if observables is None or name == TIME_AXIS or name in observables}
        self.cosmo, self.model, self.cfg, self.r0 = cosmo, model, cfg, r0
        self.rows: dict[str, list] = {}
        self.flags, self.final, self.captured = {}, None, {}

    def reach(self, t: float) -> float:
        """Forward-cone radius at t >= cfg.t_start: r0 plus the comoving
        distance light travels from cfg.t_start."""
        return self.r0 + self.cosmo.travel_distance(t, self.cfg.t_start)

    def record(self, state, row: int, l2: float) -> None:
        """Sample the run at state's boundary, on its row `row`; l2 is the
        squared L2 norm there, which propagate has already."""
        sample = _Sample(state, row, l2, self)
        for name, observe in self.observe.items():
            value = observe(sample)
            if value is not None:
                self.rows.setdefault(name, []).append(value)

    def build(self) -> RunRecord:
        return RunRecord(
            series={name: np.array(values) for name, values in self.rows.items()},
            cosmology=self.cosmo,
            mass=complex(self.model.mass.m),
            potential_kind=self.model.potential.kind,
            potential_gamma2_ok=self.model.potential.gamma2_ok,
            nonlinearity_kind=self.model.nonlinearity.kind,
            sobolev_order=self.cfg.sobolev_order,
            support_radius0=self.r0,
            cone_center=self.cfg.cone_center,
            final=self.final,
            captured=self.captured,
            **self.flags,
        )


def propagate(
    f0: SpinorField,
    cosmo: Cosmology,
    model: ModelSpec | list[ModelSpec],
    cfg: SolverConfig,
    capture_times=(),
    observables=None,
) -> RunRecord | list[RunRecord]:
    """Integrate from cfg.t_start to cfg.t_end, recording diagnostics.

    For a model with no nonlinearity and no source this realizes the linear
    solution operator between the two times (backward runs are allowed).
    The run stops early on blow-up: a squared L2 norm above blowup_factor
    times E(1), or the largest norm whose observables are finite, or one
    that is not finite (SolverConfig).

    The model decides the integrator (module docstring): a free model
    splits, any other single model runs RK4.  A list of models is the rows
    of a split stack, stepped as one array (_SplitState): they start from f0
    and share the grid, the cosmology, cfg, every step and the cone stop,
    and the call returns one record per row, in order.  A row that blows up
    leaves with its own flags, final field and record; the others go on.
    An empty list, more than one model in 3D, and a model without exact
    flows in a list raise ValueError before the first step.

    The run steps through one ordered list of stops, the capture times and
    cfg.t_end: dt = min(dt_max, cfl h a(t), |next stop - t|), so it lands on
    each stop, and `captured` maps each capture time it reached to the state
    there.  A capture time that is not finite or lies outside [t_start,
    t_end] (either order) raises ValueError before the first step.

    observables names the OBSERVABLES entries recorded besides TIME_AXIS
    (an unknown name raises ValueError); None records all, as `simulate`
    does.  empirical_blowup records ("l2",), and scattering_profile, which
    reads only `captured` and `final`, records ().

    A forward run with cfg.track_cone reaches the forward-cone radius
    r0 + cosmo.travel_distance(t, t_start), with r0 the support radius of f0.
    When that radius would reach cone_limit_radius by cfg.t_end,
    on_cone_violation="error" raises ConeSafetyError before the first step
    and "stop" ends the run at the first step that reaches it.

    RK4's state is the field at its step boundary; a split run builds that
    field only for a recorded observable that reads it, a capture and the
    final state, so it does not depend on record_every or on the capture
    times, and reads its norm, the recorded l2, off its spectrum.
    """
    models = [model] if isinstance(model, ModelSpec) else list(model)
    if not models:
        raise ValueError("propagate needs a model, got an empty list")
    if abs(f0.time - cfg.t_start) > 1e-9 * max(1.0, cfg.t_start):
        raise ValueError("f0.time must equal cfg.t_start")
    split = not isinstance(model, ModelSpec) or model.is_free
    if split:
        for m in models:
            nl = m.nonlinearity
            why = ("a potential" if not m.potential.is_zero
                   else "a source" if m.source is not None
                   else None if nl.is_none or nl.power_coefficient is not None
                   else f"the nonlinearity {nl.kind!r}")
            if why:
                raise ValueError(f"a split stack cannot hold a model with {why}")
    if len(models) > 1 and f0.grid.dim == 3:
        raise ValueError(f"a 3D split run holds one row, got {len(models)}")
    lo, hi = sorted((cfg.t_start, cfg.t_end))
    captures = {float(tc) for tc in capture_times}
    outside = sorted(tc for tc in captures if not lo <= tc <= hi)  # NaN is outside
    if outside:
        raise ValueError(f"capture times must be finite and lie in [{lo}, {hi}]; got {outside}")
    grid = f0.grid
    backward = cfg.t_end < cfg.t_start
    direction = -1.0 if backward else 1.0

    e0 = l2_norm_sq(f0)
    # finite, so that an infinite norm fails `e <= threshold` as NaN does, and recordable
    threshold = min(cfg.blowup_factor * e0 if e0 > 0 else math.inf, _recordable_norm_sq(grid))

    r0 = support_radius(f0, cfg.cone_center) if cfg.track_cone else 0.0
    recorders = [_Recorder(cosmo, m, cfg, r0, observables) for m in models]
    tracked = cfg.track_cone and not backward
    if tracked and cfg.on_cone_violation == "error":
        guard_cone(recorders[0].reach(cfg.t_end), grid, cfg.t_end, "forward cone")
    limit = cone_limit_radius(grid)

    stops = sorted(captures | {cfg.t_end}, reverse=backward)
    live = recorders  # those of the state's rows, in order

    def arrive(state) -> None:
        """Pop the stops state has reached (to 1e-12 relative; every time is
        >= 1), storing its fields at the requested ones."""
        while stops and direction * (stops[0] - state.time) <= 1e-12 * stops[0]:
            tc = stops.pop(0)
            if tc in captures:
                for rec, f in zip(live, state.fields):  # without its spectrum: half the memory
                    rec.captured[tc] = f.with_data(f.data)

    def record(state, e, rows) -> None:
        """Record the rows `rows` of the state (its squared L2 norms e)."""
        for j in rows:
            live[j].record(state, j, e[j])

    state = _SplitState.start(f0, cosmo, models) if split else _Rk4State(f0, cosmo, model)
    e = np.full(len(models), e0)
    record(state, e, range(len(live)))
    arrive(state)
    steps_since_record = 0
    while stops:
        t = state.time
        dt = min(cfg.dt_max, cfg.cfl * grid.h * cosmo.scale(t), abs(stops[0] - t))
        new, e_new = state.advance(direction * dt)
        blown = ~(e_new <= threshold)
        if blown.any():  # those rows leave with the last state before the blow-up
            out = np.flatnonzero(blown)
            if steps_since_record:
                record(state, e, out)
            for j in out:
                live[j].flags.update(blown_up=True, blowup_time=t + 0.5 * direction * dt)
                live[j].final = state.fields[j]
            live = [rec for rec, b in zip(live, blown) if not b]
            if not live:
                break
            new, e_new = new.take(~blown), e_new[~blown]

        state, e = new, e_new
        arrive(state)
        steps_since_record += 1
        if tracked and recorders[0].reach(state.time) >= limit:
            for rec in live:
                rec.flags["cone_violation"] = True
            break
        if steps_since_record == cfg.record_every:
            record(state, e, range(len(live)))
            steps_since_record = 0
    if steps_since_record and live:  # the end, or the last state before the cone limit
        record(state, e, range(len(live)))

    for rec, f in zip(live, state.fields):  # a row that blew up did not complete
        rec.flags["completed"] = not stops
        rec.final = f
    records = [rec.build() for rec in recorders]
    return records[0] if isinstance(model, ModelSpec) else records
