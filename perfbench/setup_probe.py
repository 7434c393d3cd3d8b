"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <input file>

Times the import of ``flrw_dirac.cli`` plus the workload's config-to-input
step and prints the seconds on stdout.  The program must be importable
(run.py puts the checkout's ``src`` on PYTHONPATH).
"""
import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
import flrw_dirac.cli as cli  # noqa: E402  (the import is what is timed)

workload, path = sys.argv[1], sys.argv[2]
with open(path) as fh:
    tree = json.load(fh)
if workload == "sim3d_free":
    cli.load_run_config(tree)
elif workload == "sweep_blowup":
    from flrw_dirac.blowup import BlowupCase

    cases = [
        BlowupCase(ell=float(e), alpha_exp=float(a), im_m_abs=float(i), c0=float(tree["c0"]),
                   r_support=float(tree["R"]), e1=float(tree["E1"]))
        for e in tree["ell"] for a in tree["alpha"] for i in tree["im_m"]
    ]
elif workload == "kernel_reconstruct":
    from flrw_dirac.field import load_snapshot
    from flrw_dirac.kernels import KernelEval
    from flrw_dirac.spacetime import Cosmology

    load_snapshot(Path(path).parent / tree["snapshot"])
    for ell, m in tree["pairs"]:
        KernelEval(Cosmology(ell, 1.0), complex(m, 0.0), 1.0)
else:
    sys.exit(f"unknown workload {workload!r}")
print(repr(perf_counter() - start))
