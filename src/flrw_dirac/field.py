"""Discrete 4-spinor fields on a periodic grid.

Fields live on a uniform torus of period L (1 or 3 spatial dimensions) with
the component axis first: data.shape == (4, n) or (4, n, n, n).  Derivatives
are spectral; the odd-derivative multiplier zeroes the unpaired Nyquist mode
so that differentiation commutes with complex conjugation and is exactly
antisymmetric on the grid.  Every per-axis table (coordinates,
wavenumbers, integer modes) is one axis array viewed along each axis by
_along_axes, and the torus envelopes of the initial data and the potential
(_radius_sq, _envelope_gaussian) are built on the one torus metric here.

The module also holds the Dirac symbol of alpha.grad: i sigma.k on the
off-diagonal 2x2 blocks (_dirac_symbol), and the one pass that applies an
operator P + s B Q of its span to Fourier coefficients (_apply_span).  The
solver's exact free and split steps and the closed-form propagator of
kernels all end with it.

Full-size arrays are allocated once per pass.  A 3D transform runs per
spinor component into one preallocated output.  The 3D symbol pass runs
slab by slab along the first spatial axis, and its scratch is sized to a
slab (_SLAB_BYTES per component), not to the grid.  Its factors may be
radial, arrays over the distinct mode magnitudes (_unique_mode_magnitudes)
gathered per slab, so neither the solver's free step nor the closed-form
propagator of kernels builds a full-size multiplier.  The
symbol pass (in_place=True) and the inverse transform (out=a) also run in
place, so kernels.reconstruct_free goes from spectrum to field in one
buffer.  The in-place pass gives the same bits as the pass into a new
array, and refuses a read-only hat, such as a field's cached spectrum.
Snapshots are written from and read into the field's own buffer.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SpinorField",
    "BilinearDensities",
    "l2_norm_sq",
    "sobolev_norm",
    "bilinear_densities",
    "gamma2_bilinear",
    "majorana_defect",
    "cone_mass",
    "support_radius",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_MAGIC = b"FDRC"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIII dd")

MAX_SOBOLEV_ORDER = 6
SUPPORT_MASS_FRACTION = 1e-12  # share of the L2 mass support_radius leaves outside


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points per axis on [-L/2, L/2)."""

    dim: int
    n: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError("dim must be 1 or 3")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two >= 8")
        if not 0 < self.box_length < math.inf:
            raise ValueError("box_length must be positive and finite")

    @property
    def h(self) -> float:
        return self.box_length / self.n

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(1, self.dim + 1))

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Grid coordinates along one axis, centered on 0."""
        return -0.5 * self.box_length + self.h * np.arange(self.n)

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Coordinates broadcastable against the spatial part of the data."""
        return _along_axes(self.axis_coordinates(), self.dim)


def _along_axes(v: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """The axis array v viewed along each spatial axis, to broadcast over the data."""
    if dim == 1:
        return (v,)
    return (v[:, None, None], v[None, :, None], v[None, None, :])


def _fftn(a: np.ndarray, grid: Grid) -> np.ndarray:
    """FFT of a 4-spinor array over the spatial axes.  In 1D, np.fft.fft
    along the last axis gives fftn's values without its per-call argument
    handling, a large share of a transform of a few hundred points.  In 3D
    each component is transformed into its plane of one preallocated
    output, so every axis pass writes in place; fftn over the spatial axes
    of the whole array makes a new full-size array per pass."""
    return np.fft.fft(a) if grid.dim == 1 else _per_component(np.fft.fftn, a)


def _ifftn(a: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _fftn, into `out` when given (out=a transforms in place)."""
    return np.fft.ifft(a, out=out) if grid.dim == 1 else _per_component(np.fft.ifftn, a, out)


def _per_component(transform, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a.dtype, 1j))
    for c in range(len(a)):
        transform(a[c], out=out[c])
    return out


@lru_cache(maxsize=32)
def _wavenumbers(grid: Grid) -> tuple[np.ndarray, ...]:
    """Angular wavenumbers per axis, shaped to broadcast over the data."""
    return _along_axes(2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h), grid.dim)


@lru_cache(maxsize=32)
def _derivative_wavenumbers(grid: Grid) -> tuple[np.ndarray, ...]:
    """Wavenumbers with the Nyquist mode removed (odd-derivative symbol)."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    k[grid.n // 2] = 0.0
    return _along_axes(k, grid.dim)


@lru_cache(maxsize=32)
def _dirac_symbol(grid: Grid) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Entries (i k3, i k1 + k2, i k1 - k2) of i sigma.k, the Fourier symbol
    of sum_j alpha^j d_j on each off-diagonal 2x2 block; shapes (1, 1, n)
    and (n, n, 1) in 3D, and i k3 is None in 1D."""
    ks = _derivative_wavenumbers(grid)
    if grid.dim == 1:
        entries = None, 1j * ks[0], 1j * ks[0]
    else:
        k1, k2, k3 = ks
        entries = 1j * k3, 1j * k1 + k2, 1j * k1 - k2
    for e in entries:
        if e is not None:
            e.setflags(write=False)
    return entries


@lru_cache(maxsize=32)
def _unique_mode_magnitudes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |k| of the derivative wavenumbers, and each mode's index.

    Every wavenumber is (2 pi / L) times an integer, so modes are grouped
    exactly by q = i^2 + j^2 + l^2 and the magnitudes are (2 pi / L) sqrt(q).
    Returns (uniq, inverse) with uniq[inverse] = |k| on the grid (read-only).
    """
    ks = _derivative_wavenumbers(grid)
    unit = 2.0 * np.pi / grid.box_length
    q = sum(np.rint(k / unit).astype(np.int64) ** 2 for k in ks)
    present = np.bincount(q.ravel()) > 0
    out = unit * np.sqrt(np.flatnonzero(present)), (np.cumsum(present) - 1)[q]
    for e in out:
        e.setflags(write=False)
    return out


_SLAB_BYTES = 1 << 18  # bytes of one component's slab in the 3D symbol pass


def _slab_entry(e, grid: Grid, sl: slice, buf):
    """The factor e of the 3D symbol pass on the modes of the slab sl: a
    scalar or None as it is, a full-size array sliced, and a radial factor
    (1-D, over the distinct mode magnitudes) gathered into buf through the
    magnitude index."""
    if np.ndim(e) == 1:
        idx = _unique_mode_magnitudes(grid)[1][sl]  # in range by construction
        return np.take(e, idx, out=buf[:len(idx)], mode="clip")
    return e[sl] if np.ndim(e) else e


def _apply_span(hat: np.ndarray, grid: Grid, p, q=None, s: complex = 1.0,
                in_place: bool = False) -> np.ndarray:
    """(P + s B Q) hat, per Fourier mode, for B = i sigma.k on the
    off-diagonal 2x2 blocks.  P and Q lie in the span of I and g0: p = (p_u,
    p_l) holds the factors on the upper and lower spinor pair, and likewise
    q, with q None for Q = I.  A factor is a scalar or an array over the
    modes; in 3D it may also be radial, a 1-D array u over the distinct
    mode magnitudes of _unique_mode_magnitudes, which stands for u[inverse].

    Each output component is p h, then plus the k+- term, then plus or
    minus the k3 term, in that order, with the symbol as the left operand of
    every symbol product; the upper output pair reads the lower input pair,
    and vice versa.  In 1D, where i k3 is absent and the k+ and k- entries
    are equal, the four symbol terms are one product with the components of
    Q hat reversed.  There hat may also be a stack of rows (rows, 4, n),
    with factors that broadcast over it: (rows, 1, 1) per row, say.

    In 3D the pass runs slab by slab along the first spatial axis, each slab
    _SLAB_BYTES per component (at least one plane).  Every step acts on each
    mode alone, so the slab size changes no bit.  Per slab, a radial factor
    is gathered into a slab buffer; the lower input pair, Q-weighted, is
    saved in a 2-slab buffer (a copy for q None when in place); the lower
    output pair is written next, each q_u-weighted upper component formed
    in one scratch slab, and the upper output pair last, from the saved
    pair.  So the pass allocates, besides its output, a few slabs and no
    full-size array.  With in_place it writes its output over hat, which
    must be writable (ValueError otherwise), with the same bits."""
    if in_place and not hat.flags.writeable:
        raise ValueError("the in-place symbol pass needs a writable hat")
    ik3, ikp, ikm = _dirac_symbol(grid)
    out = hat if in_place else np.empty_like(hat)
    if ik3 is None:  # components on axis -2, after the rows of a stack
        if q is None:
            term = np.multiply(s * ikp, hat[..., ::-1, :])
        else:  # the components (q_l h3, q_l h2, q_u h1, q_u h0)
            qu, ql = q
            term = np.empty_like(hat)
            np.multiply(ql, hat[..., :1:-1, :], out=term[..., :2, :])
            np.multiply(qu, hat[..., 1::-1, :], out=term[..., 2:, :])
            np.multiply(s * ikp, term, out=term)
        np.multiply(p[0], hat[..., :2, :], out=out[..., :2, :])
        np.multiply(p[1], hat[..., 2:, :], out=out[..., 2:, :])
        out += term
        return out
    ik3, ikp, ikm = s * ik3, s * ikp, s * ikm
    factors = (*p, *((None, None) if q is None else q))
    n = grid.n
    planes = min(n, max(1, _SLAB_BYTES // (n * n * hat.itemsize)))
    bufs = [np.empty((planes, n, n), e.dtype) if np.ndim(e) == 1 else None
            for e in factors]
    term_buf = np.empty((planes, n, n), hat.dtype)
    saved_buf = None if q is None and not in_place else np.empty((2, planes, n, n), hat.dtype)

    def add_symbol_terms(dst, pair, qf, sl, term):
        def w(j):
            return pair[j] if qf is None else np.multiply(qf, pair[j], out=term)

        dst[0] += np.multiply(ikp[sl], w(1), out=term)
        dst[1] += np.multiply(ikm[sl], w(0), out=term)
        dst[0] += np.multiply(ik3, w(0), out=term)
        dst[1] -= np.multiply(ik3, w(1), out=term)

    for start in range(0, n, planes):
        sl = slice(start, start + planes)
        pu, pl, qu, ql = (_slab_entry(e, grid, sl, b) for e, b in zip(factors, bufs))
        hu, hl = hat[:2, sl], hat[2:, sl]
        term = term_buf[:len(hu[0])]
        if saved_buf is None:
            wl = hl
        else:
            wl = saved_buf[:, :len(term)]
            if ql is None:
                wl[...] = hl
            else:
                np.multiply(ql, hl, out=wl)
        np.multiply(pl, hl, out=out[2:, sl])
        add_symbol_terms(out[2:, sl], hu, qu, sl, term)
        np.multiply(pu, hu, out=out[:2, sl])
        add_symbol_terms(out[:2, sl], wl, None, sl, term)
    return out


@lru_cache(maxsize=32)
def _k_squared(grid: Grid) -> np.ndarray:
    return sum(k**2 for k in _wavenumbers(grid))


@lru_cache(maxsize=32)
def _sobolev_weight(grid: Grid, k: int) -> np.ndarray:
    """The H_k symbol (1 + |xi|^2)**k on the grid (read-only)."""
    out = (1.0 + _k_squared(grid)) ** k
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpinorField:
    """A 4-spinor field sampled on a grid at one instant.

    `data` is never mutated after construction: the cached `spectrum`
    depends on it.  Build a changed field with `with_data`.
    """

    grid: Grid
    data: np.ndarray
    time: float

    def __post_init__(self):
        expected = (4,) + (self.grid.n,) * self.grid.dim
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != {expected}")
        if not 0 < self.time < math.inf:
            raise ValueError(f"field time must be positive and finite, got {self.time!r}")

    def with_data(self, data: np.ndarray, time: float | None = None) -> "SpinorField":
        return SpinorField(self.grid, data, self.time if time is None else time)

    def with_spectrum(self, hat: np.ndarray, time: float | None = None) -> "SpinorField":
        """The field whose Fourier coefficients are `hat`: one inverse FFT,
        and `hat` (made read-only) becomes the new field's spectrum."""
        out = self.with_data(_ifftn(hat, self.grid), time)
        hat.setflags(write=False)
        out.__dict__["spectrum"] = hat
        return out

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Fourier coefficients of `data` over the spatial axes (read-only),
        computed once per field."""
        hat = _fftn(self.data, self.grid)
        hat.setflags(write=False)
        return hat

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data.view(float))))


@dataclass(frozen=True)
class BilinearDensities:
    """Pointwise real densities built from the field."""

    xi: np.ndarray  # |psi1|^2 + |psi2|^2 - |psi3|^2 - |psi4|^2
    eta: np.ndarray  # 2 Im(psi1 conj(psi3)) + 2 Im(psi2 conj(psi4))
    rho2: np.ndarray  # xi^2 + eta^2


def l2_norm_sq(f: SpinorField) -> float:
    """Grid quadrature of the squared L2 norm."""
    return float(np.sum(np.abs(f.data) ** 2)) * f.grid.cell_volume


def _recordable_norm_sq(grid: Grid) -> float:
    """The largest squared L2 norm E at which each recorded observable of a field
    on grid is finite.  Pointwise |psi|^2 <= E / vol, so the quartic density rho^2
    and its grid sum are at most 2 (E / vol)^2, and its integral 2 E^2 / vol."""
    vol = grid.cell_volume
    return math.sqrt(np.finfo(float).max / 4) * min(vol, math.sqrt(vol))


def sobolev_norm(f: SpinorField, k: int) -> float:
    """H_k norm via the exact Fourier symbol (1 + |xi|^2)**k.

    Normalized so that k = 0 reproduces sqrt(l2_norm_sq).
    """
    if not 0 <= k <= MAX_SOBOLEV_ORDER:
        raise ValueError(f"k must be in [0, {MAX_SOBOLEV_ORDER}]")
    total = np.sum(_sobolev_weight(f.grid, k) * np.abs(f.spectrum) ** 2)
    norm_sq = total * f.grid.cell_volume / f.grid.n**f.grid.dim
    return float(np.sqrt(norm_sq))


def bilinear_densities(f: SpinorField) -> BilinearDensities:
    p = f.data
    xi = (
        np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2 - np.abs(p[2]) ** 2 - np.abs(p[3]) ** 2
    )
    eta = 2.0 * np.imag(p[0] * np.conj(p[2])) + 2.0 * np.imag(p[1] * np.conj(p[3]))
    return BilinearDensities(xi=xi, eta=eta, rho2=xi**2 + eta**2)


def gamma2_bilinear(f: SpinorField) -> complex:
    """Grid quadrature of the transpose bilinear sum(psi^T g2 psi) dx.

    Note the plain transpose (no conjugation); the result is complex.
    """
    p = f.data  # g2 psi = (-i psi3, i psi2, i psi1, -i psi0)
    return complex(2j * np.sum(p[1] * p[2] - p[0] * p[3]) * f.grid.cell_volume)


def majorana_defect(f: SpinorField, z: complex) -> float:
    """Integral of |psi - z g2 conj(psi)|^2 for a unit phase z."""
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValueError("z must lie on the unit circle")
    c = np.conj(f.data)  # g2 conj(psi) = (-i c3, i c2, i c1, -i c0)
    w = f.data - z * np.stack((-1j * c[3], 1j * c[2], 1j * c[1], -1j * c[0]))
    return float(np.sum(np.abs(w) ** 2)) * f.grid.cell_volume


def _center3(center) -> tuple[float, float, float]:
    """At most 3 coordinates as a 3D point padded with zeros; None is the
    origin, and more than 3 coordinates raise ValueError."""
    if center is None:
        return (0.0, 0.0, 0.0)
    c = tuple(float(v) for v in center)
    if len(c) > 3:
        raise ValueError(f"a center has at most 3 coordinates, got {len(c)}")
    return c + (0.0,) * (3 - len(c))


def _torus_distance_sq(grid: Grid, center) -> np.ndarray:
    """Squared distance to `center` in the torus metric (read-only, cached)."""
    center = tuple(float(center[j]) for j in range(grid.dim))
    return _cached_torus_distance_sq(grid, center)


@lru_cache(maxsize=16)
def _cached_torus_distance_sq(grid: Grid, center: tuple[float, ...]) -> np.ndarray:
    L = grid.box_length
    out = sum((np.mod(x - c + 0.5 * L, L) - 0.5 * L) ** 2
              for x, c in zip(grid.coordinate_arrays(), center))
    out.setflags(write=False)
    return out


def _radius_sq(grid: Grid, width: float, center) -> np.ndarray:
    """|x - center|^2 / width^2 on the torus; a width <= 0 raises (the envelopes
    would run the |width| profile).  width^2 is a numpy power: inf, not OverflowError."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width!r}")
    return _torus_distance_sq(grid, center) / np.float64(width) ** 2


def _envelope_gaussian(grid: Grid, width: float, center) -> np.ndarray:
    """exp(-|x - center|^2 / width^2) on the torus."""
    return np.exp(-_radius_sq(grid, width, center))


def cone_mass(f: SpinorField, center, radius: float) -> float:
    """L2 mass outside the ball of `radius` around `center`.

    Distances are taken in the torus metric; once the radius reaches half
    the box the outside set is empty.
    """
    dist_sq = _torus_distance_sq(f.grid, center)
    outside = dist_sq > radius**2
    dens = np.sum(np.abs(f.data) ** 2, axis=0)
    return float(np.sum(dens[outside])) * f.grid.cell_volume


def support_radius(f: SpinorField, center) -> float:
    """Smallest torus radius around `center` holding all but
    SUPPORT_MASS_FRACTION of the L2 mass."""
    dist_sq = _torus_distance_sq(f.grid, center)
    dens = (np.sum(np.abs(f.data) ** 2, axis=0)).ravel()
    order = np.argsort(dist_sq.ravel())
    cum = np.cumsum(dens[order])
    total = cum[-1]
    if total == 0.0:
        return 0.0
    idx = np.searchsorted(cum, (1.0 - SUPPORT_MASS_FRACTION) * total)
    idx = min(idx, len(cum) - 1)
    return float(np.sqrt(dist_sq.ravel()[order[idx]]))


def save_snapshot(f: SpinorField, path) -> None:
    """Write the field in the binary snapshot format.

    Layout (little endian): magic "FDRC", u32 version, u32 dim, u32 n,
    f64 box length, f64 time, then 4*n**dim complex values as (re, im)
    f64 pairs, component-major.
    """
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        f.grid.dim,
        f.grid.n,
        f.grid.box_length,
        f.time,
    )
    # the array's own buffer is written; only a non-contiguous or
    # non-complex128 field is copied
    payload = np.ascontiguousarray(f.data, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_snapshot(path) -> SpinorField:
    """Read a field written by save_snapshot.  A bad magic or version, a
    grid or time the header gives that is not valid, or a file that is not
    exactly as long as its header says raises ValueError naming the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(
                f"{path}: snapshot header needs {_HEADER.size} bytes, file has {size}")
        magic, version, dim, n, L, time = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a spinor snapshot file")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if not 0 < time < math.inf:
            raise ValueError(f"{path}: snapshot time {time!r} is not positive and finite")
        try:
            grid = Grid(dim=dim, n=n, box_length=L)
        except ValueError as exc:
            raise ValueError(f"{path}: snapshot header: {exc}") from None
        count = 4 * n**dim
        expected = _HEADER.size + 16 * count
        if size != expected:
            raise ValueError(
                f"{path}: snapshot with dim {dim}, n {n} needs {expected} bytes, "
                f"file has {size}")
        data = np.empty((4,) + (n,) * dim, dtype="<c16")
        got = fh.readinto(data)
        if got != data.nbytes:
            raise ValueError(f"{path}: read {got} of {data.nbytes} payload bytes")
    # a no-op on little-endian hosts, where "<c16" is native complex128
    data = data.astype(complex, copy=False)
    return SpinorField(grid=grid, data=data, time=time)
