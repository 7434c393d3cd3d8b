"""Time integration of the first-order Dirac system on the expanding grid.

The evolved system is

    d/dt psi = -(1/a(t)) sum_j alpha^j d_j psi - (3 ell / 2 t) psi
               - i (m / t) g0 psi + i V psi + F(psi) + source(t)

integrated by classical RK4 with dt = min(dt_max, cfl * h * a(t)): the
transport speed is 1/a(t), so this keeps the Courant number fixed.  Spatial
derivatives are spectral, which makes the semi-discrete flow conserve the
quadratic invariants exactly; the recorded drift is pure time-stepping error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .field import (
    BilinearDensities,
    Grid,
    SpinorField,
    _derivative_wavenumbers,
    bilinear_densities,
    cone_mass,
    gamma2_bilinear,
    l2_norm_sq,
    majorana_defect,
    sobolev_norm,
    support_radius,
)
from .gamma import BASIS, apply
from .models import ModelSpec, hyperbolic_rhs_nonlinearity, potential_field
from .spacetime import Cone, Cosmology

__all__ = [
    "SolverConfig",
    "RunRecord",
    "OBSERVABLES",
    "TIME_AXIS",
    "CFLViolationError",
    "ConeSafetyError",
    "rhs",
    "step",
    "propagate",
    "cone_limit_radius",
]


class CFLViolationError(ValueError):
    pass


class ConeSafetyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    A run blows up when its squared L2 norm exceeds blowup_factor times the
    initial one (with math.inf, or zero data, only non-finite data count).
    t_start and t_end are normalised to builtin float, so numpy scalar
    times (quadrature nodes, say) behave like plain numbers downstream.
    """

    t_start: float = 1.0
    t_end: float = 10.0
    cfl: float = 0.25
    method: str = "rk4"
    dt_max: float = math.inf
    blowup_factor: float = 1e6
    record_every: int = 1
    sobolev_order: int = 1
    lm_z: complex | None = None
    track_cone: bool = True
    cone_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    cone_mass_fraction: float = 1e-12
    on_cone_violation: str = "error"  # "error" | "stop"

    def __post_init__(self):
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        if self.t_start < 1.0:
            raise ValueError("t_start must be >= 1")
        if self.t_end < 1.0:
            raise ValueError("t_end must be >= 1")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if self.method != "rk4":
            raise ValueError("only the rk4 method is provided")
        if self.dt_max <= 0:
            raise ValueError("dt_max must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.on_cone_violation not in ("error", "stop"):
            raise ValueError("on_cone_violation must be 'error' or 'stop'")


@dataclass
class RunRecord:
    """Recorded series plus the metadata of the run that produced them.

    series maps the name of each OBSERVABLES entry that applies to the run
    to its values (float or complex), one per entry of the TIME_AXIS series.
    """

    series: dict[str, np.ndarray]
    sobolev_order: int
    cosmology: Cosmology
    mass: complex
    potential_kind: str
    nonlinearity_kind: str
    completed: bool
    blown_up: bool
    blowup_time: float | None
    cone_violation: bool
    potential_gamma2_ok: bool
    support_radius0: float
    cone_center: tuple[float, float, float]
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
            "schema": "flrw-dirac-run/1",
            "cosmology": {"ell": self.cosmology.ell, "a0": self.cosmology.a0},
            "mass": {"re": self.mass.real, "im": self.mass.imag},
            "potential_kind": self.potential_kind,
            "potential_gamma2_ok": self.potential_gamma2_ok,
            "nonlinearity_kind": self.nonlinearity_kind,
            "sobolev_order": self.sobolev_order,
            "flags": {
                "completed": self.completed,
                "blown_up": self.blown_up,
                "blowup_time": self.blowup_time,
                "cone_violation": self.cone_violation,
            },
            "support_radius0": self.support_radius0,
            "cone_center": list(self.cone_center),
            "series": series,
            "snapshots": list(self.snapshots),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Inverse of to_dict.  Raises ValueError when a series has a
        different number of values than the time axis."""
        raw = d["series"]
        n = len(raw[TIME_AXIS])
        for key, values in raw.items():
            if len(values) != n:
                raise ValueError(
                    f"series {key!r} has {len(values)} values, but {TIME_AXIS!r} has {n}"
                )
        series = {}
        for name in OBSERVABLES:
            if name in raw:
                series[name] = np.array(raw[name])
            elif f"{name}_re" in raw:
                real, imag = np.array(raw[f"{name}_re"]), np.array(raw[f"{name}_im"])
                series[name] = real + 1j * imag
        flags = d["flags"]
        return cls(
            series=series,
            sobolev_order=d["sobolev_order"],
            cosmology=Cosmology(d["cosmology"]["ell"], d["cosmology"]["a0"]),
            mass=complex(d["mass"]["re"], d["mass"]["im"]),
            potential_kind=d["potential_kind"],
            nonlinearity_kind=d["nonlinearity_kind"],
            completed=flags["completed"],
            blown_up=flags["blown_up"],
            blowup_time=flags["blowup_time"],
            cone_violation=flags["cone_violation"],
            potential_gamma2_ok=d["potential_gamma2_ok"],
            support_radius0=d["support_radius0"],
            cone_center=tuple(d["cone_center"]),
            snapshots=list(d.get("snapshots", [])),
        )


def rhs(
    f: SpinorField,
    t: float,
    cosmo: Cosmology,
    model: ModelSpec,
    source: Callable[[float], np.ndarray] | None = None,
) -> SpinorField:
    """Right side of the method-of-lines system at time t."""
    if t <= 0:
        raise ValueError("rhs requires t > 0")
    grid = f.grid
    hat = np.fft.fftn(f.data, axes=grid.spatial_axes)
    ks = _derivative_wavenumbers(grid)
    acc = np.zeros_like(hat)
    for j in range(grid.dim):
        acc += (1j * ks[j]) * apply(BASIS.alphas[j], hat)
    transport = np.fft.ifftn(acc, axes=grid.spatial_axes)

    out = (-1.0 / cosmo.scale(t)) * transport
    out -= (1.5 * cosmo.ell / t) * f.data
    m = complex(model.mass.m)
    if m != 0:
        out -= (1j * m / t) * apply(BASIS.g0, f.data)
    vf = _static_potential_field(model.potential, grid)
    if vf is not None:
        out += 1j * np.einsum("ab...,b...->a...", vf, f.data)
    if not model.nonlinearity.is_none:
        out += hyperbolic_rhs_nonlinearity(model.nonlinearity, f).data
    if source is not None:
        out += source(t)
    return f.with_data(out, time=t)


@lru_cache(maxsize=32)
def _static_potential_field(spec, grid):
    # shipped potential families are time independent; sample once per grid
    return potential_field(spec, grid)


@lru_cache(maxsize=32)
def _static_im_potential_field(spec, grid):
    vf = _static_potential_field(spec, grid)
    if vf is None:
        return None
    imv = (vf - np.conj(np.swapaxes(vf, 0, 1))) / 2j
    if np.max(np.abs(imv)) == 0.0:
        return None
    return imv


def step(
    f: SpinorField,
    dt: float,
    cosmo: Cosmology,
    model: ModelSpec,
    source: Callable[[float], np.ndarray] | None = None,
    cfl: float | None = None,
) -> SpinorField:
    """One classical RK4 step of size dt (dt < 0 integrates backward)."""
    t = f.time
    if cfl is not None:
        bound = cfl * f.grid.h * min(cosmo.scale(t), cosmo.scale(t + dt))
        if abs(dt) > bound * (1.0 + 1e-9):
            raise CFLViolationError(
                f"|dt|={abs(dt):.3e} exceeds cfl*h*a(t)={bound:.3e} at t={t:.6f}"
            )
    k1 = rhs(f, t, cosmo, model, source).data
    f2 = f.with_data(f.data + 0.5 * dt * k1)
    k2 = rhs(f2, t + 0.5 * dt, cosmo, model, source).data
    f3 = f.with_data(f.data + 0.5 * dt * k2)
    k3 = rhs(f3, t + 0.5 * dt, cosmo, model, source).data
    f4 = f.with_data(f.data + dt * k3)
    k4 = rhs(f4, t + dt, cosmo, model, source).data
    new = f.data + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return f.with_data(new, time=t + dt)


def cone_limit_radius(grid: Grid) -> float:
    """Largest admissible forward-cone radius before torus wraparound."""
    return 0.5 * grid.box_length - 2.0 * grid.h


class _Sample(NamedTuple):
    """What an observable reads at one recorded time: the field, its
    bilinear densities and cell volume, and the run's fixed inputs (cfg,
    cosmo, cone, r0, source and imv = Im V, as attributes of run)."""

    f: SpinorField
    dens: BilinearDensities
    vol: float
    run: "_Recorder"


def _cone_leak(s: _Sample) -> float:
    run = s.run
    if run.cfg.track_cone and s.f.time >= run.cfg.t_start:
        return cone_mass(s.f, run.cone, run.cosmo, margin=run.r0)
    return 0.0


def _imv_int(s: _Sample) -> float:
    if s.run.imv is None:
        return 0.0
    v = np.einsum("a...,ab...,b...->...", np.conj(s.f.data), s.run.imv, s.f.data)
    return float(np.sum(v.real)) * s.vol


def _source_k(s: _Sample) -> float:
    if s.run.source is None:
        return 0.0
    sf = s.f.with_data(np.asarray(s.run.source(s.f.time), dtype=complex))
    return sobolev_norm(sf, s.run.cfg.sobolev_order)


TIME_AXIS = "times"

# The recorded series, in order: name -> value at one sample, or None where
# the observable does not apply to the run (the series is then absent).
# Entries look the field functions up by their module-global names on each
# call, so wrapping those names (as the tracer does) sees every call.
OBSERVABLES: dict[str, Callable[[_Sample], float | complex | None]] = {
    # t, the time of the sample
    TIME_AXIS: lambda s: s.f.time,
    # E(t), the squared L2 norm
    "l2": lambda s: l2_norm_sq(s.f),
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
    """Samples OBSERVABLES along a run and holds the run's fixed inputs."""

    def __init__(self, cosmo, model, cfg, grid, source, r0):
        self.cosmo = cosmo
        self.cfg = cfg
        self.source = source
        self.r0 = r0
        self.cone = Cone(cfg.cone_center, cfg.t_start, "forward")
        self.imv = _static_im_potential_field(model.potential, grid)
        self.rows: dict[str, list] = {}
        self.last_time = None

    def record(self, f: SpinorField) -> None:
        if f.time == self.last_time:
            return
        self.last_time = f.time
        sample = _Sample(f, bilinear_densities(f), f.grid.cell_volume, self)
        for name, observe in OBSERVABLES.items():
            value = observe(sample)
            if value is not None:
                self.rows.setdefault(name, []).append(value)

    def build(self, cfg, cosmo, model, flags, final, captured) -> RunRecord:
        return RunRecord(
            series={name: np.array(values) for name, values in self.rows.items()},
            sobolev_order=cfg.sobolev_order,
            cosmology=cosmo,
            mass=complex(model.mass.m),
            potential_kind=model.potential.kind,
            nonlinearity_kind=model.nonlinearity.kind,
            completed=flags["completed"],
            blown_up=flags["blown_up"],
            blowup_time=flags["blowup_time"],
            cone_violation=flags["cone_violation"],
            potential_gamma2_ok=model.potential.gamma2_ok,
            support_radius0=self.r0,
            cone_center=cfg.cone_center,
            final=final,
            captured=captured,
        )


def propagate(
    f0: SpinorField,
    cosmo: Cosmology,
    model: ModelSpec,
    cfg: SolverConfig,
    source: Callable[[float], np.ndarray] | None = None,
    capture_times=(),
) -> RunRecord:
    """Integrate from cfg.t_start to cfg.t_end, recording diagnostics.

    With no nonlinearity and no source this realizes the linear solution
    operator between the two times (backward runs are allowed).  The run
    stops early on blow-up (norm threshold or non-finite data).

    A forward run with cfg.track_cone reaches the forward-cone radius
    r0 + |phi(t) - phi(t_start)| / a0, with r0 the support radius of f0.
    When that radius would reach cone_limit_radius by cfg.t_end,
    on_cone_violation="error" raises ConeSafetyError before the first step
    and "stop" ends the run at the first step that reaches it.
    """
    if abs(f0.time - cfg.t_start) > 1e-9 * max(1.0, cfg.t_start):
        raise ValueError("f0.time must equal cfg.t_start")
    grid = f0.grid
    backward = cfg.t_end < cfg.t_start
    direction = -1.0 if backward else 1.0

    e0 = l2_norm_sq(f0)
    threshold = cfg.blowup_factor * e0 if e0 > 0 else math.inf

    r0 = 0.0
    if cfg.track_cone:
        r0 = support_radius(f0, cfg.cone_center, cfg.cone_mass_fraction)
    limit = cone_limit_radius(grid)

    def cone_radius(t):
        return r0 + abs(cosmo.phi(t) - cosmo.phi(cfg.t_start)) / cosmo.a0

    if cfg.track_cone and not backward and cfg.on_cone_violation == "error":
        radius = cone_radius(cfg.t_end)
        if radius >= limit:
            raise ConeSafetyError(
                f"forward cone radius {radius:.3f} at t_end={cfg.t_end:.4f} reaches "
                f"the torus limit {limit:.3f}; enlarge the box or lower t_end"
            )

    recorder = _Recorder(cosmo, model, cfg, grid, source, r0)
    flags = {
        "completed": False,
        "blown_up": False,
        "blowup_time": None,
        "cone_violation": False,
    }
    pending = sorted(set(float(tc) for tc in capture_times), reverse=backward)
    captured: dict[float, SpinorField] = {}

    def want_capture(t_now, t_next):
        if not pending:
            return None
        tc = pending[0]
        lo, hi = sorted((t_now, t_next))
        if lo - 1e-12 <= tc <= hi + 1e-12:
            return tc
        return None

    f = f0
    recorder.record(f)
    if pending and abs(pending[0] - f.time) <= 1e-12 * max(1.0, f.time):
        captured[pending.pop(0)] = f

    steps_since_record = 0
    tiny = 1e-12 * max(1.0, abs(cfg.t_end))
    while direction * (cfg.t_end - f.time) > tiny:
        dt = min(cfg.dt_max, cfg.cfl * grid.h * cosmo.scale(f.time))
        dt = min(dt, abs(cfg.t_end - f.time))
        tc = want_capture(f.time, f.time + direction * dt)
        if tc is not None and abs(tc - f.time) > tiny:
            dt = abs(tc - f.time)
        f_new = step(f, direction * dt, cosmo, model, source)

        with np.errstate(over="ignore"):  # an overflowing norm is inf: blown up
            blown_up = not f_new.is_finite() or l2_norm_sq(f_new) > threshold
        if blown_up:
            flags["blown_up"] = True
            flags["blowup_time"] = f.time + 0.5 * direction * dt
            recorder.record(f)  # last sub-threshold state
            break

        f = f_new
        steps_since_record += 1
        if pending and direction * (f.time - pending[0]) > 1e-9:
            raise RuntimeError(f"stepped past capture time {pending[0]}")
        if tc is not None and abs(f.time - tc) <= 1e-9:
            captured[tc] = f
            pending.pop(0)

        if cfg.track_cone and not backward and cone_radius(f.time) >= limit:
            flags["cone_violation"] = True
            recorder.record(f)
            break

        at_end = direction * (cfg.t_end - f.time) <= tiny
        if steps_since_record >= cfg.record_every or at_end:
            recorder.record(f)
            steps_since_record = 0

    if direction * (cfg.t_end - f.time) <= tiny:
        flags["completed"] = True

    return recorder.build(cfg, cosmo, model, flags, f, captured)
