"""Command-line front end: config-driven runs, verification, kernel tables
and blow-up sweeps.

Configuration is a single JSON tree; every validation error names the
offending dotted path.  Exit codes: 0 success (including a detected
blow-up), 1 config/validation error (a required potential flag that
fails, a forward cone that would wrap around the torus by t_end, or an
unknown key in a verification suite, among others), 2 runtime error,
3 verification failure.  FLRW_DIRAC_THREADS caps sweep parallelism.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import blowup as bup
from . import diagnostics as diag
from .field import Grid, load_snapshot, save_snapshot
from .initial_data import make_initial_data
from .kernels import KernelEval, kernel_E, kernel_K1, reconstruct_free
from .models import Mass, ModelSpec, NonlinearitySpec, PotentialSpec, linear_form
from .solver import ConeSafetyError, RunRecord, SolverConfig, propagate
from .spacetime import Cosmology

__all__ = ["main", "ConfigError", "load_run_config", "run_simulation"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _get(tree: dict, path: str, default=None, required: bool = False):
    node = tree
    parts = path.split(".")
    for p in parts:
        if not isinstance(node, dict) or p not in node:
            if required:
                raise ConfigError(f"missing required field {path!r}")
            return default
        node = node[p]
    return node


def _expect_number(tree, path, lo=None, hi=None, required=False, default=None):
    val = _get(tree, path, default=default, required=required)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"field {path!r} must be a number")
    if lo is not None and not val >= lo:
        raise ConfigError(f"field {path!r} must be >= {lo}")
    if hi is not None and not val <= hi:
        raise ConfigError(f"field {path!r} must be <= {hi}")
    return float(val)


def _expect_open_interval(tree, path, lo, hi, default):
    val = _expect_number(tree, path, default=default)
    if not lo < val < hi:
        raise ConfigError(f"field {path!r} must lie in ({lo}, {hi})")
    return val


def _complex_from(node, path) -> complex:
    if isinstance(node, (int, float)):
        return complex(node)
    if isinstance(node, (list, tuple)) and len(node) == 2:
        return complex(node[0], node[1])
    if isinstance(node, dict):
        return complex(node.get("re", 0.0), node.get("im", 0.0))
    raise ConfigError(f"field {path!r} must be a number, [re, im] or {{re, im}}")


def _potential_from(tree) -> PotentialSpec:
    node = _get(tree, "potential", default={"kind": "zero"})
    kind = node.get("kind", "zero")
    matrix = node.get("matrix")
    if matrix is not None:
        try:
            matrix = tuple(
                tuple(complex(c[0], c[1]) for c in row) for row in matrix
            )
        except (TypeError, IndexError):
            raise ConfigError(
                "field 'potential.matrix' must be a 4x4 array of [re, im] pairs"
            ) from None
    try:
        return PotentialSpec(
            kind=kind,
            amplitude=float(node.get("amplitude", 0.0)),
            center=tuple(node.get("center", (0.0, 0.0, 0.0))),
            width=float(node.get("width", 1.0)),
            matrix=matrix,
            hermitian_required=bool(node.get("hermitian_required", False)),
            gamma2_condition_required=bool(
                node.get("gamma2_condition_required", False)
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"field 'potential': {exc}") from None


def _nonlinearity_from(tree) -> NonlinearitySpec:
    node = _get(tree, "nonlinearity", default={"kind": "none"})
    kind = node.get("kind", "none")
    kwargs = {}
    if kind == "lochak_form":
        ac = node.get("alpha_coeffs", [0.0, 0.0])
        bc = node.get("beta_coeffs", [0.0, 0.0])
        kwargs["alpha_fn"] = linear_form(float(ac[0]), float(ac[1]))
        kwargs["beta_fn"] = linear_form(float(bc[0]), float(bc[1]))
    try:
        return NonlinearitySpec(
            kind=kind,
            alpha_exp=float(node.get("alpha_exp", 1.0)),
            sign=int(node.get("sign", 1)),
            c0=float(node.get("c0", 1.0)),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"field 'nonlinearity': {exc}") from None


def load_run_config(tree: dict):
    """Validate the config tree; returns (cosmo, model, grid, f0, cfg, outputs)."""
    ell = _expect_number(tree, "cosmology.ell", required=True)
    a0 = _expect_number(tree, "cosmology.a0", lo=1e-300, default=1.0)
    cosmo = Cosmology(ell=ell, a0=a0)

    mass = Mass(_complex_from(_get(tree, "mass", default=0.0), "mass"))

    dim = int(_expect_number(tree, "grid.dim", required=True))
    n = int(_expect_number(tree, "grid.n", required=True))
    box = _expect_number(tree, "grid.box_length", lo=1e-12, required=True)
    try:
        grid = Grid(dim=dim, n=n, box_length=box)
    except ValueError as exc:
        raise ConfigError(f"field 'grid': {exc}") from None

    potential = _potential_from(tree)
    nonlinearity = _nonlinearity_from(tree)
    model = ModelSpec(mass=mass, potential=potential, nonlinearity=nonlinearity)

    t_start = _expect_number(tree, "solver.t_start", lo=1.0, default=1.0)
    t_end = _expect_number(tree, "solver.t_end", lo=1.0, required=True)
    cfl = _expect_open_interval(tree, "solver.cfl", 0.0, 1.0, default=0.25)
    dt_max = _expect_number(tree, "solver.dt_max", lo=0.0, default=None)
    lm_z = _get(tree, "solver.lm_z")
    cfg_kwargs = dict(
        t_start=t_start,
        t_end=t_end,
        cfl=cfl,
        record_every=int(_expect_number(tree, "solver.record_every", lo=1, default=1)),
        sobolev_order=int(
            _expect_number(tree, "solver.sobolev_order", lo=0, hi=6, default=1)
        ),
        blowup_factor=_expect_number(tree, "solver.blowup_factor", lo=1.0, default=1e6),
        track_cone=bool(_get(tree, "solver.track_cone", default=True)),
        on_cone_violation=_get(tree, "solver.on_cone_violation", default="error"),
    )
    if dt_max is not None:
        cfg_kwargs["dt_max"] = dt_max
    if lm_z is not None:
        cfg_kwargs["lm_z"] = _complex_from(lm_z, "solver.lm_z")
    center = tuple(_get(tree, "initial_data.center", default=(0.0, 0.0, 0.0)))
    center = (tuple(center) + (0.0, 0.0, 0.0))[:3]
    cfg_kwargs["cone_center"] = center
    try:
        cfg = SolverConfig(**cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(f"field 'solver': {exc}") from None

    ini = _get(tree, "initial_data", default={}, required=True)
    family = ini.get("family", "gaussian")
    if ini.get("lm_constrained", False):
        family = "lm_gaussian"
    data_kwargs = {}
    for key in ("amplitude", "width", "wavenumber", "second_amplitude"):
        if key in ini:
            data_kwargs[key] = float(ini[key])
    if "seed" in ini:
        data_kwargs["seed"] = int(ini["seed"])
    if "coeffs" in ini:
        data_kwargs["coeffs"] = tuple(
            _complex_from(c, "initial_data.coeffs") for c in ini["coeffs"]
        )
    if family != "random_smooth":
        data_kwargs.setdefault("center", center)
        data_kwargs.pop("seed", None)
    else:
        data_kwargs.pop("center", None)
        data_kwargs.pop("coeffs", None)
    try:
        f0 = make_initial_data(grid, family, time=t_start, **data_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field 'initial_data': {exc}") from None

    outputs = {
        "dir": _get(tree, "outputs.dir", default="."),
        "snapshots": bool(_get(tree, "outputs.snapshots", default=False)),
    }
    return cosmo, model, grid, f0, cfg, outputs


def run_simulation(tree: dict, out_dir: Path) -> tuple[RunRecord, Path]:
    cosmo, model, grid, f0, cfg, outputs = load_run_config(tree)
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
    record_path.write_text(json.dumps(record.to_dict(), indent=1, sort_keys=True))
    return record, record_path


def cmd_simulate(args) -> int:
    try:
        tree = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else Path(tree.get("outputs", {}).get("dir", "."))
    try:
        record, path = run_simulation(tree, out_dir)
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    reports = []
    status_ok = True
    for spec in suite.get("checks", []):
        name = spec.get("name")
        if name not in diag.CHECKS:
            print(f"config error: unknown check name {name!r}", file=sys.stderr)
            return EXIT_CONFIG
        unknown = sorted(set(spec) - {"name", "tolerance", "params"})
        if unknown:
            keys = ", ".join(map(repr, unknown))
            print(f"config error: check {name!r}: unknown key {keys}", file=sys.stderr)
            return EXIT_CONFIG
        check = diag.CHECKS[name]
        signature = inspect.signature(check)
        positional = [rec]
        if "tol" in signature.parameters:
            positional.append(float(spec.get("tolerance", 1e-6)))
        try:
            bound = signature.bind(*positional, **spec.get("params", {}))
        except TypeError as exc:
            print(f"config error: check {name!r} params: {exc}", file=sys.stderr)
            return EXIT_CONFIG
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
    try:
        cosmo = Cosmology(args.ell, 1.0)
        ke = KernelEval(cosmo, complex(args.m_re, args.m_im), args.eps)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    t0 = args.t0 if args.t0 is not None else args.eps
    upper = cosmo.phi(args.t) - cosmo.phi(t0)
    if upper < 0:
        print("config error: t must be >= t0", file=sys.stderr)
        return EXIT_CONFIG
    r = np.linspace(0.0, upper, args.nr)
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


def _sweep_case(params: dict) -> dict:
    case = bup.BlowupCase(
        ell=params["ell"],
        alpha_exp=params["alpha"],
        im_m_abs=params["im_m"],
        c0=params["c0"],
        r_support=params["R"],
        e1=params["E1"],
    )
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
        "error": "",
    }
    try:
        t_bu = bup.lifespan(case)
        row["T_bu"] = repr(t_bu) if math.isfinite(t_bu) else "inf"
        emp = params.get("empirical")
        if emp and emp.get("enabled"):
            from .initial_data import compact_bump
            from .field import l2_norm_sq

            grid = Grid(
                dim=int(emp.get("dim", 1)),
                n=int(emp.get("n", 256)),
                box_length=float(emp.get("box_length", 8.0)),
            )
            probe = compact_bump(grid, 1.0, case.r_support, coeffs=(1, 0, 0, 0))
            amp = math.sqrt(case.e1 / l2_norm_sq(probe))
            f0 = compact_bump(grid, amp, case.r_support, coeffs=(1, 0, 0, 0))
            cfg = SolverConfig(
                t_start=1.0,
                t_end=float(emp.get("t_end", 4.0)),
                cfl=float(emp.get("cfl", 0.3)),
                record_every=1,
                on_cone_violation="stop",
            )
            rep = bup.empirical_blowup(
                f0, Cosmology(case.ell, 1.0), case.alpha_exp, case.c0, cfg,
                mass=1j * case.im_m_abs,
            )
            if rep["t_numerical"] is not None:
                row["t_numerical"] = repr(rep["t_numerical"])
            if rep["satisfied"] is not None:
                row["satisfied"] = str(rep["satisfied"]).lower()
    except Exception as exc:  # keep the sweep going, record the failure
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(args) -> int:
    try:
        tree = json.loads(Path(args.config).read_text())
        ells = [float(v) for v in tree["ell"]]
        alphas = [float(v) for v in tree["alpha"]]
        im_ms = [float(v) for v in tree.get("im_m", [0.0])]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: sweep grid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    base = {
        "c0": float(tree.get("c0", 1.0)),
        "R": float(tree.get("R", 1.0)),
        "E1": float(tree.get("E1", 1.0)),
        "empirical": tree.get("empirical"),
    }
    cases = [
        dict(base, ell=e, alpha=a, im_m=i)
        for e in sorted(ells)
        for a in sorted(alphas)
        for i in sorted(im_ms)
    ]
    workers = int(os.environ.get("FLRW_DIRAC_THREADS", "0")) or os.cpu_count() or 1
    workers = min(workers, max(len(cases), 1))
    if workers > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_case, cases))
    else:
        rows = [_sweep_case(c) for c in cases]
    rows.sort(key=lambda r: (r["ell"], r["alpha"], r["im_m"]))
    fields = [
        "ell", "alpha", "im_m", "c0", "R", "E1",
        "regime", "branch", "T_bu", "t_numerical", "satisfied", "error",
    ]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_lifespan(args) -> int:
    try:
        case = bup.BlowupCase(
            ell=args.ell, alpha_exp=args.alpha, im_m_abs=args.im_m,
            c0=args.c0, r_support=args.R, e1=args.E1,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    t_bu = bup.lifespan(case)
    out = {
        "T_bu": t_bu if math.isfinite(t_bu) else "inf",
        "solvability_threshold_E1": bup.solvability_threshold(case),
        "regime": bup.classify(case).regime,
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_classify(args) -> int:
    try:
        case = bup.BlowupCase(ell=args.ell, alpha_exp=args.alpha, im_m_abs=args.im_m)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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

    p = sub.add_parser("simulate", help="run a configured simulation")
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
