"""A fixed numpy kernel that measures how fast the machine runs right now.

The machines this benchmark runs on share their cores with other tenants,
and a fixed numpy loop on them can run up to 2x slower for minutes at a
time.  The kernel below is timed next to every measurement.  Its time
scales the measured figures to a fixed reference speed (REFERENCE_S per
kernel run).  The kernel is a frozen copy of the spectral right-hand side
at the first benchmarked commit (FFT, three 4x4 transport applies, inverse
FFT, mass term) on a 3D n=32 field.  It does not import the program, so a
change to the program never changes the kernel.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.1  # nominal seconds of one kernel run; sets the scale only
_N = 32
_EVALUATIONS = 4


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (4,) + (_N,) * 3
        self.psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        k = 2.0 * np.pi * np.fft.fftfreq(_N, d=12.0 / _N)
        self.ks = (k[:, None, None], k[None, :, None], k[None, None, :])
        self.mats = [rng.standard_normal((4, 4)).astype(complex) for _ in range(4)]

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        start = perf_counter()
        for _ in range(_EVALUATIONS):
            hat = np.fft.fftn(self.psi, axes=(1, 2, 3))
            acc = np.zeros_like(hat)
            for k, mat in zip(self.ks, self.mats):
                acc += (1j * k) * np.einsum("ab,b...->a...", mat, hat)
            out = np.fft.ifftn(acc, axes=(1, 2, 3))
            out -= 0.1 * self.psi
            out -= 0.5j * np.einsum("ab,b...->a...", self.mats[3], self.psi)
        return perf_counter() - start
