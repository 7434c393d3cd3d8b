"""The three benchmark workloads, driven through ``flrw_dirac.cli.main``.

Each workload writes its inputs from the seed, runs one operation per call
of ``op`` (the CLI calls only are timed) and checks every output with
``checks``.  A wrong or missing answer is a failed operation;
``OpResult.checked`` turns false only when an output does not match the
input it came from (sweep rows for other grid points) or a repeat of the
same input gave a different answer.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

BOX = 12.0
BUMP_WIDTH = 1.5
COEFFS = (1.0, 0.6, 0.4j, 0.8)


@dataclass
class OpResult:
    wall_s: float  # wall time of the CLI calls of this operation
    rate: float  # units of work per second (the workload's ops_per_s sample)
    attempted: int
    failed: int
    checked: bool  # false when outputs do not match their input or do not repeat
    values: dict = field(default_factory=dict)


def sub_cell_offset(seed: int, h: float) -> list[float]:
    """Bump centre moved by a seed-chosen offset inside one grid cell."""
    rng = random.Random(seed)
    return [rng.uniform(0.0, h) for _ in range(3)]


def compact_bump_3d(n: int, center) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - r²/w²)) inside radius w, torus metric."""
    x = -0.5 * BOX + (BOX / n) * np.arange(n)
    r2 = np.zeros((n, n, n))
    for axis, c in enumerate(center):
        d = np.mod(x - c + 0.5 * BOX, BOX) - 0.5 * BOX
        r2 = r2 + (d**2).reshape([-1 if a == axis else 1 for a in range(3)])
    r2 /= BUMP_WIDTH**2
    env = np.zeros_like(r2)
    inside = r2 < 1.0
    env[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return np.array(COEFFS, dtype=complex).reshape(4, 1, 1, 1) * env


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _call(main, argv) -> tuple[int, float]:
    """Run one CLI command with its stdout silenced; returns (code, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        code = main([str(a) for a in argv])
        return code, perf_counter() - start


class Sim3dFree:
    """simulate then verify, 3D n=32 free flow with real mass, t 1 -> 6."""

    name = "sim3d_free"
    rate_name = "sim_steps_per_s"
    ell, mass, t_end = 0.5, 0.5, 6.0

    def __init__(self, work: Path, seed: int):
        self.config = work / "sim3d.json"
        self.suite = work / "suite.json"
        self.out = work / "sim_out"
        self.report = work / "verify.json"
        center = sub_cell_offset(seed, BOX / 32)
        self.config.write_text(json.dumps({
            "cosmology": {"ell": self.ell},
            "mass": self.mass,
            "grid": {"dim": 3, "n": 32, "box_length": BOX},
            "initial_data": {"family": "compact_bump", "width": BUMP_WIDTH, "center": center},
            "solver": {"t_start": 1.0, "t_end": self.t_end, "cfl": 0.25, "record_every": 1},
            "outputs": {"snapshots": True},
        }, indent=1))
        self.suite.write_text(json.dumps({"checks": [
            {"name": "energy_identity", "tolerance": checks.ENERGY_GAMMA2_TOL},
            {"name": "gamma2", "tolerance": checks.ENERGY_GAMMA2_TOL},
        ]}))
        self.input_hash = _sha256(self.config, self.suite)
        self.setup_input = self.config
        self.reference = None
        self.steps = None

    def prepare(self, main) -> None:
        """One untimed run; its start state gives the closed-form reference."""
        self.op(main)
        from flrw_dirac.field import Grid, SpinorField
        from flrw_dirac.kernels import KernelEval, reconstruct_free
        from flrw_dirac.spacetime import Cosmology

        data, box, time = checks.read_snapshot(self.out / "snapshot_start.fdrc")
        start = SpinorField(Grid(3, data.shape[1], box), data.copy(), time)
        ke = KernelEval(Cosmology(self.ell, 1.0), self.mass, 1.0)
        self.reference = reconstruct_free(start, self.t_end, ke).data

    def op(self, main) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)
        self.report.unlink(missing_ok=True)
        code_sim, sim_s = _call(main, ["simulate", self.config, "--out", self.out])
        code_ver, ver_s = _call(
            main, ["verify", self.out / "record.json", self.suite, "--out", self.report])
        values, ok = {}, code_sim == 0 and code_ver == 0
        try:
            record = json.loads((self.out / "record.json").read_text())
            steps = len(record["series"]["times"]) - 1
            reports = {r["check"]: r for r in json.loads(self.report.read_text())["reports"]}
            values["energy_residual"] = reports["energy_identity"]["max_mismatch"]
            if self.reference is not None:
                end, _, _ = checks.read_snapshot(self.out / "snapshot_end.fdrc")
                values["free_flow_err"] = checks.relative_l2(end, self.reference)
                ok = ok and values["free_flow_err"] <= checks.FREE_FLOW_ERR_MAX
        except (OSError, ValueError, KeyError):
            steps, ok = 0, False
        if self.steps is None:
            self.steps = steps
        checked = steps == self.steps
        return OpResult(sim_s + ver_s, steps / sim_s, 1, 0 if ok else 1, checked, values)


class SweepBlowup:
    """One sweep over 32 (ell, alpha, im_m) points with empirical 1D runs."""

    name = "sweep_blowup"
    rate_name = "sweep_cases_per_s"
    ells, alphas, im_ms = (0.5, 0.667, 1.0, 2.0), (0.3, 0.5, 1.0, 2.0), (0.0, 0.5)

    def __init__(self, work: Path, seed: int):
        self.config = work / "sweep.json"
        self.csv = work / "sweep.csv"
        self.config.write_text(json.dumps({
            "ell": self.ells, "alpha": self.alphas, "im_m": self.im_ms,
            "c0": 1.0, "R": 1.0, "E1": 4.0,
            "empirical": {"enabled": True, "dim": 1, "n": 256, "box_length": 16.0,
                          "t_end": 4.0, "cfl": 0.3},
        }, indent=1))
        self.input_hash = _sha256(self.config)
        self.setup_input = self.config
        self.expected = {(e, a, i) for e in self.ells for a in self.alphas for i in self.im_ms}
        self.failing = None

    def prepare(self, main) -> None:
        self.op(main)

    def op(self, main) -> OpResult:
        self.csv.unlink(missing_ok=True)
        code, seconds = _call(main, ["sweep", self.config, "--out", self.csv])
        try:
            with open(self.csv, newline="") as fh:
                rows = list(csv.DictReader(fh))
            keys = [(float(r["ell"]), float(r["alpha"]), float(r["im_m"])) for r in rows]
        except (OSError, KeyError, ValueError):
            rows, keys = [], []
        failing = sorted(k for k, r in zip(keys, rows) if checks.sweep_row_failed(r))
        if self.failing is None:
            self.failing = failing
        checked = failing == self.failing and (not rows or set(keys) == self.expected)
        failed = len(self.expected) - len(rows) + len(failing)
        return OpResult(seconds, len(rows) / seconds, len(self.expected), failed, checked,
                        {"failing_rows": failing})


class KernelReconstruct:
    """Ten ``kernel --mode reconstruct`` calls on one 3D n=64 snapshot."""

    name = "kernel_reconstruct"
    rate_name = "reconstructs_per_s"
    pairs = ((0.5, 0.5), (0.25, 0.3))  # (ell, real mass)
    times = (2.0, 5.0, 10.0, 20.0, 40.0)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.snapshot = work / "start.fdrc"
        self.psi1 = compact_bump_3d(64, sub_cell_offset(seed, BOX / 64))
        checks.write_snapshot(self.snapshot, self.psi1, BOX, 1.0)
        self.setup_input = work / "calls.json"
        self.setup_input.write_text(json.dumps({
            "snapshot": self.snapshot.name, "pairs": self.pairs, "times": self.times}))
        self.input_hash = _sha256(self.snapshot, self.setup_input)

    def prepare(self, main) -> None:
        self.op(main)

    def op(self, main) -> OpResult:
        seconds, failed, worst = 0.0, 0, 0.0
        for ell, m in self.pairs:
            for t in self.times:
                out = self.work / "out.fdrc"
                out.unlink(missing_ok=True)
                code, dt = _call(main, [
                    "kernel", "--mode", "reconstruct", "--ell", ell, "--m-re", m,
                    "--t", t, "--snapshot", self.snapshot, "--out", out])
                seconds += dt
                try:
                    psi_t, _, _ = checks.read_snapshot(out)
                    residual = checks.l2_law_residual(psi_t, self.psi1, t, ell)
                except (OSError, ValueError):
                    residual = float("inf")
                worst = max(worst, residual)
                failed += code != 0 or not residual <= checks.L2_LAW_TOL
        calls = len(self.pairs) * len(self.times)
        return OpResult(seconds, calls / seconds, calls, failed, True,
                        {"l2_law_residual": worst})


WORKLOADS = {w.name: w for w in (Sim3dFree, SweepBlowup, KernelReconstruct)}
