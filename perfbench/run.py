"""Benchmark of the flrw_dirac command-line program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

With ``--trace 0`` one workload is timed with tracing off and the last line
of stdout is a JSON object with the end-to-end metrics; ``ops_per_s`` is
scaled to a reference speed by the kernel in reference.py.  With ``--trace 1``
the first half of the time runs untraced and the second half with a span
on every call into the traced layers (see spans.py); the JSON then holds
per-layer metrics per operation plus the tracing overhead.  ``--summary``
runs every workload untraced and prints each end-to-end metric by name.

The program is imported from ``src/`` of the checkout; inputs are written
under ``.perfbench_work/`` and removed at exit, traces go to
``.perfbench_out/``.  Workloads and metrics are described in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import REFERENCE_S, ReferenceKernel
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_ENV = ("FLRW_DIRAC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
SETUP_REPEATS = 5


def import_program():
    if not (SRC / "flrw_dirac" / "cli.py").is_file():
        sys.exit(f"error: no program at {SRC / 'flrw_dirac'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import flrw_dirac.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: imported flrw_dirac from {cli.__file__}, not from {SRC}")
    return cli


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process
    (a child process would count in peak_rss_mb)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure_setup(workload: str, input_path: Path) -> float:
    """Median over fresh interpreters.  This process has already imported
    the program, so bytecode is written and the file cache is warm."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(input_path)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (ru_maxrss, KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_loop(workload, main, seconds: float, reference=None) -> tuple[list, list]:
    """Operations back to back (a closed loop, one client) for `seconds`.

    With a reference kernel, it is also timed before the first operation
    and after each one; returns (operations, kernel times)."""
    ops, refs = [], []
    if reference:
        refs.append(reference.seconds())
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        ops.append(workload.op(main))
        if reference:
            refs.append(reference.seconds())
    return ops, refs


def result_line(ops, metrics: dict) -> str:
    return json.dumps({
        "correct": all(op.checked for op in ops),
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(workload, name: str, value, unit: str) -> None:
    print(f"{workload.name:20s} {name:20s} {value} {unit}")


def run_untraced(workload, main, seconds: int) -> str:
    ops, refs = timed_loop(workload, main, seconds, ReferenceKernel())
    rss = peak_rss_mb()
    setup = measure_setup(workload.name, workload.setup_input)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    rate = statistics.median(op.rate for op in ops)
    # each rate scaled to the reference speed by the kernel times around it
    scaled = statistics.median(
        op.rate * (before + after) / (2.0 * REFERENCE_S)
        for op, before, after in zip(ops, refs, refs[1:]))
    report(workload, "setup_s", setup, "s")
    report(workload, workload.rate_name, rate, "1/s (as measured)")
    report(workload, "reference_s", statistics.median(refs), f"s (nominal {REFERENCE_S})")
    report(workload, "ops_per_s", scaled, "1/s (at reference speed)")
    report(workload, "peak_rss_mb", rss, "MB")
    for key, value in ops[-1].values.items():
        report(workload, key, value, "")
    report(workload, "failed_frac", failed / attempted, f"({failed}/{attempted})")
    report(workload, "operations", len(ops), " ".join(f"{op.rate:.4g}" for op in ops))
    return result_line(ops, {
        "setup_s": (setup, "s"),
        "ops_per_s": (scaled, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    })


def run_traced(workload, main, seconds: int) -> str:
    from spans import Tracer, layer_metrics

    base, _ = timed_loop(workload, main, seconds / 2)
    tracer = Tracer()
    tracer.install()
    tracer.on = True
    try:
        traced, _ = timed_loop(workload, main, seconds / 2)
    finally:
        tracer.on = False
        tracer.uninstall()
    wall = sum(op.wall_s for op in traced)
    metrics = layer_metrics(tracer, len(traced), wall)
    overhead = (statistics.median(op.wall_s for op in traced)
                - statistics.median(op.wall_s for op in base))
    metrics["trace_overhead_s"] = (overhead, "s")
    tracer.write(ROOT / ".perfbench_out" / f"trace-{workload.name}.csv")
    for name, (value, unit) in metrics.items():
        report(workload, name, value, unit)
    report(workload, "operations", f"{len(base)} untraced, {len(traced)} traced", "")
    return result_line(base + traced, metrics)


def summary(args) -> int:
    """Every end-to-end metric of every workload, untraced."""
    code = 0
    for name in WORKLOADS:
        code |= subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ]).returncode
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    cli = import_program()
    if args.summary:
        return summary(args)
    if args.workload is None:
        ap.error("--workload is required")

    if args.trace:
        # one process runs every sweep case, so that all spans land here
        os.environ["FLRW_DIRAC_THREADS"] = "1"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        print("env", json.dumps(environment(), sort_keys=True))
        print("inputs", args.workload, "seed", args.seed, "sha256", workload.input_hash)
        if args.trace:
            print("traced run: FLRW_DIRAC_THREADS=1, so sweep cases run in this process")
        workload.prepare(cli.main)
        run = run_traced if args.trace else run_untraced
        line = run(workload, cli.main, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
