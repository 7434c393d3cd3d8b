"""Command-line front end: config-driven runs, verification, kernel tables
and blow-up sweeps.

A config is a single JSON tree.  Each config type (a run, a sweep, a
verification suite) is declared here by one table of (dotted path, kind,
bounds, default) entries; schema's walker, which reads run records too,
checks a tree before anything is built, and every error names the offending
dotted path.  Exit codes: 0 success (including a detected blow-up),
1 config/validation error (an unknown key at any level, reported with the
nearest valid key; a value of the wrong kind or out of its bounds; a
missing required field; a required potential flag that fails, an lm_z off
the unit circle, a forward cone that would wrap around the torus by t_end,
or a kernel argument out of range, among others), 2 runtime error,
3 verification failure.  simulate runs forward: a solver.t_end before
solver.t_start is a config error.  It steps a free model with the split's
exact pieces composed to 4th order and any other model with RK4
(solver.propagate); a sweep's empirical blow-up runs take Strang split
steps (blowup.empirical_blowup), the points of one ell as one stack.
FLRW_DIRAC_THREADS caps sweep parallelism (0 or unset: the CPUs in the
process's affinity); the pool maps over the stacks, with at most one worker
per stack, and with more than one worker the parent loads scipy before it
forks the pool, so the workers inherit it instead of each importing it
again.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import blowup as bup
from . import diagnostics as diag
from .field import MAX_SOBOLEV_ORDER, Grid, _center3, load_snapshot, save_snapshot
from .initial_data import make_initial_data
from .kernels import (
    TIME_RATIO_MAX,
    KernelDomainError,
    KernelEval,
    kernel_E,
    kernel_K1,
    reconstruct_free,
)
from .models import Mass, ModelSpec, NonlinearitySpec, PotentialSpec
from .schema import INF, REQUIRED, ConfigError, _table, _walk
from .solver import ConeSafetyError, RunRecord, SolverConfig, propagate
from .spacetime import Cosmology

__all__ = ["main", "ConfigError", "load_run_config", "run_simulation"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


# the keys each kind of a model section reads; a given key its kind does not read is an error
_BUMP_KEYS = ("amplitude", "center", "width", "hermitian_required", "gamma2_condition_required")
_KIND_KEYS = {
    "potential": {"zero": (), "scalar_bump": _BUMP_KEYS, "custom_matrix": (*_BUMP_KEYS, "matrix")},
    "nonlinearity": {"none": (), "power_abs": ("alpha_exp", "sign"), "blowup_G": ("alpha_exp", "c0"),
                     "lochak_form": ("alpha_coeffs", "beta_coeffs")},
}

_RUN = _table(
    ("cosmology.ell", "number", None, REQUIRED),
    ("cosmology.a0", "number", (1e-300, None), None),
    ("mass", "complex", None, 0.0),
    ("grid.dim", "integer", None, REQUIRED),
    ("grid.n", "integer", None, REQUIRED),
    ("grid.box_length", "number", (1e-12, None), REQUIRED),
    ("potential.kind", "string", tuple(_KIND_KEYS["potential"]), "zero"),
    ("potential.amplitude", "number", None, None),
    ("potential.center", "list", ("number", None, 0, 3), None),
    ("potential.width", "number", None, None),
    ("potential.matrix", "list", ("list", ("complex", None, 0, INF), 0, INF), None),
    ("potential.hermitian_required", "bool", None, None),
    ("potential.gamma2_condition_required", "bool", None, None),
    ("nonlinearity.kind", "string", tuple(_KIND_KEYS["nonlinearity"]), "none"),
    ("nonlinearity.alpha_exp", "number", None, None),
    ("nonlinearity.sign", "integer", None, None),
    ("nonlinearity.c0", "number", None, None),
    ("nonlinearity.alpha_coeffs", "list", ("number", None, 2, 2), None),
    ("nonlinearity.beta_coeffs", "list", ("number", None, 2, 2), None),
    ("solver.t_start", "number", (1.0, None), None),
    ("solver.t_end", "number", (1.0, None), REQUIRED),
    ("solver.cfl", "number", (0.0, 1.0, "open"), None),
    ("solver.dt_max", "number", (0.0, INF), None),
    ("solver.record_every", "integer", (1, None), None),
    ("solver.sobolev_order", "integer", (0, MAX_SOBOLEV_ORDER), None),
    ("solver.blowup_factor", "number", (1.0, INF), None),
    ("solver.track_cone", "bool", None, None),
    ("solver.on_cone_violation", "string", ("error", "stop"), None),
    ("solver.lm_z", "complex", None, None),
    ("initial_data", "section", None, REQUIRED),
    ("initial_data.family", "string", None, "gaussian"),
    ("initial_data.lm_constrained", "bool", None, False),
    ("initial_data.amplitude", "number", None, None),
    ("initial_data.width", "number", None, None),
    ("initial_data.wavenumber", "number", None, None),
    ("initial_data.second_amplitude", "number", None, None),
    ("initial_data.seed", "integer", None, None),
    ("initial_data.coeffs", "list", ("complex", None, 0, INF), None),
    ("initial_data.center", "list", ("number", None, 0, 3), None),
    ("outputs.dir", "string", None, "."),
    ("outputs.snapshots", "bool", None, False),
)

_SWEEP = _table(
    ("ell", "list", ("number", None, 1, INF), REQUIRED),
    ("alpha", "list", ("number", (0.0, INF, "open"), 1, INF), REQUIRED),
    ("im_m", "list", ("number", (0.0, None), 1, INF), (0.0,)),
    ("c0", "number", (0.0, INF, "open"), 1.0),
    ("R", "number", (0.0, INF, "open"), 1.0),
    ("E1", "number", (0.0, INF, "open"), 1.0),
    ("empirical.enabled", "bool", None, False),
    ("empirical.dim", "integer", None, 1),
    ("empirical.n", "integer", (8, None), 256),
    ("empirical.box_length", "number", (1e-12, None), 8.0),
    ("empirical.t_end", "number", (1.0, None), 4.0),
    ("empirical.cfl", "number", (0.0, 1.0, "open"), 0.3),
)

# A suite's checks are walked one by one against _CHECK, so an error can
# name the check as well as the path.
_SUITE = _table(("checks", "list", ("section", None, 1, INF), REQUIRED))
_CHECK = _table(
    ("name", "string", tuple(diag.CHECKS), REQUIRED),
    ("tolerance", "number", (0.0, None), 1e-6),
    # every check parameter; the ones given are bound to the check's signature
    ("params.window", "list", ("number", None, 2, 2), None),
    ("params.expected", "number", None, None),
)


def _build(path: str | None, fn, *args, **kwargs):
    """fn(*args, **kwargs), its ValueError or TypeError a ConfigError naming
    path (with path None, the error's own message names the argument)."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {path!r}: {exc}" if path else str(exc)) from None


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def load_run_config(tree: dict):
    """Validate the config tree; returns (cosmo, model, grid, f0, cfg, outputs)."""
    v = _walk(tree, _RUN)
    cosmo = _build("cosmology", Cosmology, **v["cosmology"])
    grid = _build("grid", Grid, **v["grid"])
    for section, kinds in _KIND_KEYS.items():
        kind = v[section]["kind"]
        unread = sorted(tree.get(section, {}).keys() - {"kind", *kinds[kind]})
        if unread:
            raise ConfigError(f"field '{section}.{unread[0]}' is not read by kind {kind!r}")
    model = ModelSpec(
        mass=_build("mass", Mass, v["mass"]),
        potential=_build("potential", PotentialSpec, **v["potential"]),
        nonlinearity=_build("nonlinearity", NonlinearitySpec, **v["nonlinearity"]),
    )
    ini = v["initial_data"]
    family = ini.pop("family")
    if ini.pop("lm_constrained"):
        if family not in ("gaussian", "lm_gaussian"):
            raise ConfigError("field 'initial_data.lm_constrained' needs family "
                              f"'gaussian' or 'lm_gaussian', not {family!r}")
        family = "lm_gaussian"
    if "center" in ini:
        ini["center"] = v["solver"]["cone_center"] = _center3(ini["center"])
    cfg = _build("solver", SolverConfig, **v["solver"])
    if cfg.t_end < cfg.t_start:
        raise ConfigError(f"field 'solver.t_end' ({cfg.t_end}) lies before solver.t_start "
                          f"({cfg.t_start}); simulate runs forward")
    if family == "random_smooth":  # its center is the cone centre only
        ini.pop("center", None)
    f0 = _build("initial_data", make_initial_data, grid, family, time=cfg.t_start, **ini)
    return cosmo, model, grid, f0, cfg, v["outputs"]


def run_simulation(tree: dict, out_dir: Path | None = None) -> tuple[RunRecord, Path]:
    """Run the configured simulation and write its outputs to out_dir
    (default: the config's outputs.dir)."""
    cosmo, model, grid, f0, cfg, outputs = load_run_config(tree)
    if out_dir is None:
        out_dir = Path(outputs["dir"])
    record = propagate(f0, cosmo, model, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    if outputs["snapshots"]:
        first = out_dir / "snapshot_start.fdrc"
        last = out_dir / "snapshot_end.fdrc"
        save_snapshot(f0, first)
        record.snapshots.append(first.name)
        if record.final is not None:
            save_snapshot(record.final, last)
            record.snapshots.append(last.name)
    record_path = out_dir / "record.json"
    record_path.write_text(json.dumps(record.to_dict(), indent=1, sort_keys=True, allow_nan=False))
    return record, record_path


def cmd_simulate(args) -> int:
    tree = _read_json(args.config)
    try:
        record, path = run_simulation(tree, Path(args.out) if args.out else None)
    except (ConfigError, ConeSafetyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    status = "blow-up" if record.blown_up else "completed"
    print(f"{status}: wrote {path}")
    if record.blown_up:
        print(f"numerical blow-up time: {record.blowup_time}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        rec = RunRecord.from_dict(json.loads(Path(args.record).read_text()))
        suite = json.loads(Path(args.suite).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    calls = []  # every spec is checked before the first check runs
    for i, spec in enumerate(_walk(suite, _SUITE)["checks"]):
        path = f"checks[{i}]"
        try:
            spec = _walk(spec, _CHECK, path)
            window = spec["params"].get("window")
            if window is not None and not window[0] < window[1]:
                raise ConfigError(f"field '{path}.params.window' must satisfy t_lo < t_hi, "
                                  f"got {list(window)}")
            check = diag.CHECKS[spec["name"]]
            signature = inspect.signature(check)
            positional = [rec, spec["tolerance"]] if "tol" in signature.parameters else [rec]
            calls.append((check, _build(f"{path}.params", signature.bind,
                                        *positional, **spec["params"])))
        except ConfigError as exc:
            name = spec.get("name")
            raise ConfigError(f"check {name!r}: {exc}" if isinstance(name, str) else exc) from None
    reports = []
    status_ok = True
    for check, bound in calls:
        try:
            rep = check(*bound.args, **bound.kwargs)
        except diag.IncompatibleRunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        reports.append(rep.to_dict())
        status_ok &= rep.passed
        print(f"{rep.check}: {rep.status} (max mismatch {rep.max_mismatch:.3e})")
    out = {"status": "pass" if status_ok else "fail", "reports": reports}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK if status_ok else EXIT_VERIFY


def cmd_kernel(args) -> int:
    if args.mode == "reconstruct" and args.snapshot is None:
        raise ConfigError("--mode reconstruct needs --snapshot")
    if args.nr < 1:
        raise ConfigError(f"--nr must be >= 1, got {args.nr}")
    if args.t0 is not None and (args.mode == "reconstruct" or args.kernel != "E"):
        raise ConfigError("--t0 applies only to --kernel E in table mode; "
                          "K1 and reconstruct start at --eps")
    cosmo = _build(None, Cosmology, args.ell, 1.0)
    ke = _build(None, KernelEval, cosmo, complex(args.m_re, args.m_im), args.eps)
    t0 = args.t0 if args.t0 is not None else args.eps
    try:
        ke.check_time(args.t, t0)
    except KernelDomainError as exc:
        raise ConfigError(
            f"t must be >= t0 > 0 and t/t0 <= {TIME_RATIO_MAX:g}: {exc}") from None
    if args.mode == "reconstruct":
        try:
            f0 = load_snapshot(args.snapshot)
            out = reconstruct_free(f0, args.t, ke)
        except (OSError, ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        save_snapshot(out, args.out)
        print(f"wrote reconstructed field to {args.out}")
        return EXIT_OK
    r = np.linspace(0.0, cosmo.phi(args.t) - cosmo.phi(t0), args.nr)
    try:
        if args.kernel == "K1":
            vals = kernel_K1(r, args.t, ke)
        else:
            vals = kernel_E(r, args.t, t0, ke)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "t", "t0_or_eps", "re", "im"])
        for ri, vi in zip(r, vals):
            writer.writerow([repr(float(ri)), repr(args.t), repr(t0),
                             repr(float(vi.real)), repr(float(vi.imag))])
    print(f"wrote {args.nr} kernel values to {args.out}")
    return EXIT_OK


def _sweep_stack(cases: list[bup.BlowupCase],
                 empirical: tuple[Grid, SolverConfig] | None) -> list[dict]:
    """The CSV rows of cases that share a cosmology, R and E1; empirical
    holds the grid and solver settings of the blow-up runs, or is None when
    the runs are not enabled.  Enabled, the cases run as one stack of rows
    (blowup.empirical_blowup), and an error there is each row's error."""
    reports, error = [None] * len(cases), ""
    if empirical is not None:
        try:
            reports = bup.empirical_blowup(cases, *empirical)
        except Exception as exc:  # keep the sweep going, record the failure
            error = f"{type(exc).__name__}: {exc}"
    return [_sweep_row(case, rep, error) for case, rep in zip(cases, reports)]


def _sweep_row(case: bup.BlowupCase, rep: dict | None, error: str) -> dict:
    """One CSV row, from the case's report of empirical_blowup (None when
    the runs are not enabled) or the error of its stack.  satisfied and the
    ineq_* columns (blowup.comparison_check: E >= Y before T_bu, with J from
    a fixed Gauss ladder, so J depends on t only) test the run against the
    row's T_bu."""
    verdict = bup.classify(case)
    row = {
        "ell": case.ell,
        "alpha": case.alpha_exp,
        "im_m": case.im_m_abs,
        "c0": case.c0,
        "R": case.r_support,
        "E1": case.e1,
        "regime": verdict.regime,
        "branch": verdict.branch,
        "T_bu": "",
        "t_numerical": "",
        "satisfied": "",
        "ineq_holds": "",
        "ineq_worst": "",
        "ineq_points": "",
        "error": error,
    }
    if error:
        return row
    try:
        if rep is None:
            t_bu = bup.lifespan(case)
        else:
            t_bu = rep["t_bound"]
            if rep["t_numerical"] is not None:
                row["t_numerical"] = repr(rep["t_numerical"])
            if rep["satisfied"] is not None:
                row["satisfied"] = str(rep["satisfied"]).lower()
            ineq = rep["comparison"]
            row["ineq_points"] = str(ineq["points_checked"])
            if ineq["points_checked"]:  # a check of no point decides nothing
                row["ineq_holds"] = str(ineq["holds"]).lower()
                row["ineq_worst"] = repr(float(ineq["worst_violation"]))
        row["T_bu"] = repr(t_bu) if math.isfinite(t_bu) else "inf"
    except Exception as exc:  # keep the sweep going, record the failure
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _sweep_workers() -> int:
    """FLRW_DIRAC_THREADS as a worker count; 0 or unset means every CPU the
    process may run on (its affinity, where the platform reports it)."""
    raw = os.environ.get("FLRW_DIRAC_THREADS", "0")
    if not raw.strip().isdecimal():
        raise ConfigError(
            f"FLRW_DIRAC_THREADS must be a nonnegative integer, got {raw!r}")
    if int(raw):
        return int(raw)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args) -> int:
    """Write the sweep's CSV, one row per (ell, alpha, im_m) point.  The
    points of one ell form a stack (_sweep_stack), whose blow-up runs step
    as one array; a 3D row is a stack of one.  A process pool of
    min(_sweep_workers(), stacks) workers maps over the stacks when that is
    more than one."""
    v = _walk(_read_json(args.config), _SWEEP)
    emp = v["empirical"]
    grid = _build("empirical", Grid, emp["dim"], emp["n"], emp["box_length"])
    empirical = None
    if emp["enabled"]:
        empirical = grid, SolverConfig(t_end=emp["t_end"], cfl=emp["cfl"],
                                       on_cone_violation="stop")
    stacks = [
        [_build(None, bup.BlowupCase, e, a, i, v["c0"], v["R"], v["E1"])
         for a in sorted(v["alpha"])
         for i in sorted(v["im_m"])]
        for e in sorted(v["ell"])
    ]
    if grid.dim == 3:  # a 3D split run holds one row
        stacks = [[case] for stack in stacks for case in stack]
    workers = min(_sweep_workers(), len(stacks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        import scipy.integrate  # noqa: F401 -- loaded once, inherited by the forks
        import scipy.optimize  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_stack, stacks, [empirical] * len(stacks)))
    else:
        done = [_sweep_stack(stack, empirical) for stack in stacks]
    rows = sorted((row for stack in done for row in stack),
                  key=lambda r: (r["ell"], r["alpha"], r["im_m"]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0])  # the grid lists are non-empty
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_lifespan(args) -> int:
    case = _build(None, bup.BlowupCase, args.ell, args.alpha, args.im_m,
                  args.c0, args.R, args.E1)
    t_bu = bup.lifespan(case)
    out = {
        "T_bu": t_bu if math.isfinite(t_bu) else "inf",
        "solvability_threshold_E1": bup.solvability_threshold(case),
        "regime": bup.classify(case).regime,
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_classify(args) -> int:
    case = _build(None, bup.BlowupCase, args.ell, args.alpha, args.im_m)
    v = bup.classify(case)
    print(json.dumps(
        {"regime": v.regime, "branch": v.branch, "threshold_value": v.threshold_value},
        indent=1, sort_keys=True,
    ))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flrw-dirac",
        description="Dirac fields on power-law FLRW backgrounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation forward in time")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite on a record")
    p.add_argument("record")
    p.add_argument("suite")
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("kernel", help="tabulate kernels or reconstruct a field")
    p.add_argument("--mode", choices=("table", "reconstruct"), default="table")
    p.add_argument("--kernel", choices=("K1", "E"), default="K1")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--m-re", type=float, default=0.0)
    p.add_argument("--m-im", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--nr", type=int, default=64)
    p.add_argument("--snapshot", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("sweep", help="blow-up parameter sweep to CSV")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("lifespan", help="solve the lifespan equation")
    for name, req in (("--ell", True), ("--alpha", True)):
        p.add_argument(name, type=float, required=req)
    p.add_argument("--im-m", type=float, default=0.0)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--E1", type=float, default=1.0)
    p.set_defaults(fn=cmd_lifespan)

    p = sub.add_parser("classify", help="nonexistence regime of a parameter point")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--im-m", type=float, default=0.0)
    p.set_defaults(fn=cmd_classify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
