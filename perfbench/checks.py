"""Output checks of the benchmark, independent of the program under test.

Each check returns whether one operation failed; a failed operation is
counted, never raised, so that one run reports the share of wrong answers.
The snapshot reader follows the documented snapshot layout (32-byte header,
then complex128 values, component-major) without importing the program.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SNAPSHOT_HEADER = struct.Struct("<4sIII dd")
ANY_SIZE = "no_global_any_size"

# thresholds of the output checks
ENERGY_GAMMA2_TOL = 1e-3
FREE_FLOW_ERR_MAX = 2e-2
L2_LAW_TOL = 1e-9


def write_snapshot(path: Path, data: np.ndarray, box_length: float, time: float) -> None:
    dim = data.ndim - 1
    header = SNAPSHOT_HEADER.pack(b"FDRC", 1, dim, data.shape[1], box_length, time)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes())


def read_snapshot(path: Path) -> tuple[np.ndarray, float, float]:
    """Returns (data, box_length, time); raises ValueError on a bad file."""
    raw = Path(path).read_bytes()
    if len(raw) < SNAPSHOT_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, _version, dim, n, box, time = SNAPSHOT_HEADER.unpack_from(raw)
    shape = (4,) + (n,) * dim
    count = int(np.prod(shape))
    if magic != b"FDRC" or len(raw) != SNAPSHOT_HEADER.size + 16 * count:
        raise ValueError(f"{path}: not a complete snapshot")
    data = np.frombuffer(raw, dtype="<c16", offset=SNAPSHOT_HEADER.size)
    return data.reshape(shape), box, time


def sweep_row_failed(row: dict) -> bool:
    """A sweep row is wrong if it errored, if an any-size point got an
    infinite lifespan (any-size data always have a finite one), or if the
    empirical blow-up time broke the bound."""
    return bool(
        row.get("error")
        or (row.get("regime") == ANY_SIZE and row.get("T_bu") == "inf")
        or row.get("satisfied") == "false"
    )


def l2_law_residual(psi_t: np.ndarray, psi_1: np.ndarray, t: float, ell: float) -> float:
    """|‖ψ(t)‖² t^(3ℓ) / ‖ψ(1)‖² − 1|: the free flow with real mass keeps
    t^(3ℓ) times the squared L2 norm constant."""
    ratio = np.sum(np.abs(psi_t) ** 2) * t ** (3.0 * ell) / np.sum(np.abs(psi_1) ** 2)
    return float(abs(ratio - 1.0))


def relative_l2(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm((a - ref).ravel()) / np.linalg.norm(ref.ravel()))
