import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flrw_dirac import field
from flrw_dirac.field import (
    Grid,
    SpinorField,
    _apply_span,
    _derivative_wavenumbers,
    _dirac_symbol,
    _fftn,
    _ifftn,
    _unique_mode_magnitudes,
    bilinear_densities,
    cone_mass,
    gamma2_bilinear,
    l2_norm_sq,
    load_snapshot,
    majorana_defect,
    save_snapshot,
    sobolev_norm,
    support_radius,
)
from flrw_dirac.gamma import BASIS
from flrw_dirac.initial_data import (
    compact_bump,
    gaussian_bump,
    lm_constrained_bump,
    random_smooth,
)
from flrw_dirac.models import ModelSpec
from flrw_dirac.solver import rhs
from flrw_dirac.spacetime import Cosmology

TWO_PI = 2.0 * np.pi
ORIGIN = (0.0, 0.0, 0.0)


def free_transport(f):
    """-alpha^j d_j f: the right side with ell = 0 (a = 1) and m = 0, whose
    symbol is built from the odd-derivative wavenumbers."""
    return rhs(f, 1.0, Cosmology(0.0, 1.0), ModelSpec()).data


def constant_field(grid, v, time=1.0):
    data = np.tile(
        np.asarray(v, dtype=complex).reshape((4,) + (1,) * grid.dim),
        (1,) + (grid.n,) * grid.dim,
    )
    return SpinorField(grid, data, time)


@pytest.fixture
def grid1d():
    return Grid(dim=1, n=64, box_length=TWO_PI)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=2, n=16, box_length=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, n=12, box_length=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, n=4, box_length=1.0)
    for box in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="box_length must be positive and finite"):
            Grid(dim=1, n=16, box_length=box)


@pytest.mark.parametrize("time", [0.0, -1.0, float("nan"), float("inf")])
def test_field_time_must_be_positive_and_finite(grid1d, time):
    with pytest.raises(ValueError, match="field time must be positive and finite"):
        SpinorField(grid1d, np.zeros((4, grid1d.n), dtype=complex), time)


def test_l2_examples(grid1d):
    f = constant_field(grid1d, (1, 0, 0, 0))
    assert l2_norm_sq(f) == pytest.approx(TWO_PI)
    assert l2_norm_sq(constant_field(grid1d, (0, 0, 0, 0))) == 0.0
    x = grid1d.axis_coordinates()
    wave = np.zeros((4, grid1d.n), dtype=complex)
    wave[1] = np.exp(1j * x)
    assert l2_norm_sq(SpinorField(grid1d, wave, 1.0)) == pytest.approx(TWO_PI)


def test_sobolev_k0_matches_l2(grid1d):
    f = random_smooth(grid1d, amplitude=0.7, seed=3)
    assert sobolev_norm(f, 0) == pytest.approx(np.sqrt(l2_norm_sq(f)), rel=1e-12)


def _dft_sobolev_oracle(f, k):
    """Direct-summation H_k norm: explicit DFT matrix, no FFT."""
    g = f.grid
    n = g.n
    x = g.axis_coordinates()
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=g.h)
    dft = np.exp(-1j * np.outer(freqs, x))
    hat = f.data @ dft.T  # (4, n) coefficients
    weight = (1.0 + freqs**2) ** k
    total = np.sum(weight * np.abs(hat) ** 2)
    return np.sqrt(total * g.h / n)


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_sobolev_single_mode_closed_form(grid1d, k):
    q = 3.0 * (TWO_PI / grid1d.box_length)  # integer mode 3
    x = grid1d.axis_coordinates()
    v = np.array([0.5, -0.25j, 1.0, 0.0])
    data = v[:, None] * np.exp(1j * q * x)[None, :]
    f = SpinorField(grid1d, data.astype(complex), 1.0)
    expected = np.sqrt((1.0 + q**2) ** k) * np.linalg.norm(v) * np.sqrt(
        grid1d.box_length
    )
    assert sobolev_norm(f, k) == pytest.approx(expected, rel=1e-12)
    assert sobolev_norm(f, k) == pytest.approx(_dft_sobolev_oracle(f, k), rel=1e-10)


def test_sobolev_zero_field_and_bounds(grid1d):
    zero = constant_field(grid1d, (0, 0, 0, 0))
    assert sobolev_norm(zero, 3) == 0.0
    with pytest.raises(ValueError):
        sobolev_norm(zero, 7)
    with pytest.raises(ValueError):
        sobolev_norm(zero, -1)


def test_derivative_constant_is_zero(grid1d):
    f = constant_field(grid1d, (1, 2, 3, 4))
    assert np.max(np.abs(free_transport(f))) < 1e-13


def test_derivative_sin_to_cos(grid1d):
    x = grid1d.axis_coordinates()
    v = np.array([1.0, 0.5, -0.25, 2.0])
    f = SpinorField(grid1d, (v[:, None] * np.sin(x)).astype(complex), 1.0)
    expected = -(BASIS.alpha1 @ v)[:, None] * np.cos(x)
    assert np.max(np.abs(free_transport(f) - expected)) < 1e-12


def test_derivative_axes_commute_3d():
    """(alpha . grad)^2 is the Laplacian: the cross terms
    {alpha^i, alpha^j} d_i d_j cancel because the alphas anticommute and the
    derivatives along different axes commute."""
    g = Grid(dim=3, n=8, box_length=TWO_PI)
    f = random_smooth(g, amplitude=1.0, seed=11)
    twice = free_transport(f.with_data(free_transport(f)))
    k_sq = sum(k**2 for k in _derivative_wavenumbers(g))
    laplacian = np.fft.ifftn(-k_sq * np.fft.fftn(f.data, axes=(1, 2, 3)), axes=(1, 2, 3))
    assert np.max(np.abs(twice - laplacian)) < 1e-12


def test_derivative_antisymmetric(grid1d):
    """The free transport is skew-adjoint: Re <-alpha^j d_j f, f> = 0."""
    f = random_smooth(grid1d, amplitude=1.0, seed=5)
    inner = np.sum(np.conj(free_transport(f)) * f.data) * grid1d.h
    assert abs(inner.real) < 1e-12 * l2_norm_sq(f)


def test_bilinear_examples(grid1d):
    d = bilinear_densities(constant_field(grid1d, (1, 0, 1, 0)))
    assert np.allclose(d.xi, 0) and np.allclose(d.eta, 0) and np.allclose(d.rho2, 0)
    d = bilinear_densities(constant_field(grid1d, (1, 0, 0, 0)))
    assert np.allclose(d.xi, 1) and np.allclose(d.eta, 0) and np.allclose(d.rho2, 1)
    d = bilinear_densities(constant_field(grid1d, (1, 0, 1j, 0)))
    assert np.allclose(d.xi, 0)
    assert np.allclose(d.eta, -2.0)
    assert np.allclose(d.rho2, 4.0)


@pytest.mark.parametrize("dim, n, box", [(1, 64, 8.0), (1, 8, 64.0), (3, 8, 1.0), (3, 8, 40.0)])
def test_a_field_at_the_recordable_norm_has_finite_observables(dim, n, box):
    """The whole recordable norm on one grid point, the worst case for the
    quartic densities, on cells smaller and larger than 1: each density
    integral, the top Sobolev norm, the gamma2 bilinear and the Majorana
    defect are finite (pyproject makes an overflow warning an error)."""
    grid = Grid(dim=dim, n=n, box_length=box)
    e = field._recordable_norm_sq(grid)
    data = np.zeros((4,) + (n,) * dim, dtype=complex)
    data[(0,) * (dim + 1)] = np.sqrt(e / grid.cell_volume)
    f = SpinorField(grid, data, 1.0)
    assert l2_norm_sq(f) == pytest.approx(e, rel=1e-12)
    d = bilinear_densities(f)
    values = [float(np.sum(x)) * grid.cell_volume for x in (d.xi, d.eta, d.rho2, np.sqrt(d.rho2))]
    values += [sobolev_norm(f, field.MAX_SOBOLEV_ORDER), abs(gamma2_bilinear(f)),
               majorana_defect(f, 1.0)]
    assert np.all(np.isfinite(values))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=4, max_size=4))
def test_bilinear_densities_consistency(parts):
    """xi and eta reproduce the matrix bilinears; rho2 = xi^2 + eta^2."""
    v = np.array([complex(a, b) for a, b in parts])
    grid = Grid(dim=1, n=8, box_length=1.0)
    f = constant_field(grid, v)
    d = bilinear_densities(f)
    xi_matrix = (np.conj(v) @ BASIS.g0 @ v).real
    eta_matrix = np.conj(v) @ (BASIS.g0 @ BASIS.g5) @ v  # purely imaginary
    assert d.xi[0] == pytest.approx(xi_matrix, abs=1e-12)
    assert abs(eta_matrix.real) < 1e-12
    assert d.eta[0] == pytest.approx(eta_matrix.imag, abs=1e-12)
    assert d.rho2[0] == pytest.approx(d.xi[0] ** 2 + d.eta[0] ** 2, abs=1e-10)
    assert d.rho2[0] >= 0


def test_gamma2_examples(grid1d):
    assert gamma2_bilinear(constant_field(grid1d, (1, 0, 0, 0))) == 0
    assert gamma2_bilinear(constant_field(grid1d, (0, 0, 0, 0))) == 0
    f = random_smooth(grid1d, amplitude=1.0, seed=9)
    c = 1.7
    scaled = f.with_data(c * f.data)
    assert gamma2_bilinear(scaled) == pytest.approx(c**2 * gamma2_bilinear(f))


def test_gamma2_matches_direct_product(grid1d):
    f = random_smooth(grid1d, amplitude=1.0, seed=13)
    direct = 0.0 + 0.0j
    for i in range(grid1d.n):
        v = f.data[:, i]
        direct += v @ BASIS.g2 @ v
    direct *= grid1d.h
    assert gamma2_bilinear(f) == pytest.approx(direct)


def test_majorana_defect_identity(grid1d):
    """Defect equals 2 E + 2 Re(conj(z) * transpose bilinear)."""
    f = random_smooth(grid1d, amplitude=0.8, seed=21)
    for z in (1.0, -1.0, 1j, np.exp(0.3j)):
        expected = 2.0 * l2_norm_sq(f) + 2.0 * np.real(
            np.conj(z) * gamma2_bilinear(f)
        )
        assert majorana_defect(f, z) == pytest.approx(expected, rel=1e-10)


def test_majorana_defect_zero_field_and_unit_circle(grid1d):
    zero = constant_field(grid1d, (0, 0, 0, 0))
    assert majorana_defect(zero, 1.0) == 0.0
    with pytest.raises(ValueError):
        majorana_defect(zero, 0.5)


def test_majorana_state_has_zero_defect(grid1d):
    """A charge-conjugation fixed point reaches defect zero at some unit z."""
    f = constant_field(grid1d, (-1j, 0, 0, 1))
    zs = np.exp(2j * np.pi * np.linspace(0, 1, 720, endpoint=False))
    defects = [majorana_defect(f, z) for z in zs]
    assert min(defects) < 1e-12 * l2_norm_sq(f)
    # and such states sit inside the rho^2 = 0 family
    assert np.max(bilinear_densities(f).rho2) < 1e-14


def test_rho2_zero_state_with_nonzero_defect(grid1d):
    """rho^2 = 0 is necessary but not sufficient for a vanishing defect:
    the (g, 0, g, 0) pattern has rho^2 = 0 yet its defect is 2 E for all z."""
    f = constant_field(grid1d, (1, 0, 1, 0))
    assert np.max(bilinear_densities(f).rho2) < 1e-14
    zs = np.exp(2j * np.pi * np.linspace(0, 1, 360, endpoint=False))
    defects = np.array([majorana_defect(f, z) for z in zs])
    assert np.min(defects) == pytest.approx(2.0 * l2_norm_sq(f), rel=1e-12)


def test_cone_mass(grid1d):
    zero = constant_field(grid1d, (0, 0, 0, 0))
    assert cone_mass(zero, ORIGIN, 0.0) == 0.0

    bump = compact_bump(grid1d, amplitude=1.0, width=0.5)
    # radius 1.0 > support radius 0.5
    assert cone_mass(bump, ORIGIN, 1.0) < 1e-30

    uniform = constant_field(grid1d, (1, 0, 0, 0))
    # a radius of a quarter box covers half of it
    got = cone_mass(uniform, ORIGIN, grid1d.box_length / 4)
    assert got == pytest.approx(0.5 * l2_norm_sq(uniform), rel=4.0 / grid1d.n)
    assert cone_mass(uniform, ORIGIN, grid1d.box_length / 2) == 0.0


@pytest.mark.parametrize("builder", [gaussian_bump, compact_bump, lm_constrained_bump])
@pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
def test_initial_data_width_must_be_positive(grid1d, builder, width):
    """Every envelope squares the width, so a negative one would run the
    |width| profile; the builders reject it before sampling."""
    with pytest.raises(ValueError, match="width must be positive"):
        builder(grid1d, width=width)


@pytest.mark.parametrize("builder", [gaussian_bump, compact_bump, lm_constrained_bump])
def test_initial_data_center_has_at_most_three_coordinates(grid1d, builder):
    """A 4th coordinate was kept and silently ignored by the torus distance."""
    with pytest.raises(ValueError, match="at most 3 coordinates, got 4"):
        builder(grid1d, center=(1.0, 2.0, 3.0, 4.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 8), (1, 256), (3, 8)]))
def test_transform_pair_equals_fftn_over_the_spatial_axes(seed, shape):
    """_fftn and _ifftn give numpy's fftn / ifftn over the spatial axes,
    bit for bit, on random complex data; so does _ifftn in place."""
    dim, n = shape
    grid = Grid(dim=dim, n=n, box_length=1.0)
    rng = np.random.default_rng(seed)
    size = (4,) + (n,) * dim
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    axes = grid.spatial_axes
    assert np.array_equal(_fftn(a, grid), np.fft.fftn(a, axes=axes))
    assert np.array_equal(_ifftn(a, grid), np.fft.ifftn(a, axes=axes))
    work = a.copy()
    assert _ifftn(work, grid, out=work) is work
    assert np.array_equal(work, np.fft.ifftn(a, axes=axes))
    if dim == 3:  # a field's data or spectrum is read-only
        frozen = a.copy()
        frozen.setflags(write=False)
        assert np.array_equal(_fftn(frozen, grid), np.fft.fftn(a, axes=axes))
        assert np.array_equal(_ifftn(frozen, grid), np.fft.ifftn(a, axes=axes))
        assert np.array_equal(frozen, a)


def _apply_span_reference(hat, grid, p, q=None, s=1.0):
    """The symbol pass written out term by term, each product a fresh array:
    the symbol is the left operand, and every output component adds its
    k+- term before its k3 term."""
    ik3, ikp, ikm = (None if e is None else s * e for e in _dirac_symbol(grid))
    hu, hl = hat[:2], hat[2:]
    wu, wl = (hu, hl) if q is None else (q[0] * hu, q[1] * hl)
    out = np.empty_like(hat)
    np.multiply(p[0], hu, out=out[:2])
    np.multiply(p[1], hl, out=out[2:])
    out[0] += ikp * wl[1]
    out[1] += ikm * wl[0]
    out[2] += ikp * wu[1]
    out[3] += ikm * wu[0]
    if ik3 is not None:
        out[0] += ik3 * wl[0]
        out[1] -= ik3 * wl[1]
        out[2] += ik3 * wu[0]
        out[3] -= ik3 * wu[1]
    return out


def _span_factors(grid, kind, with_q, rng):
    """(p, q) with p of one kind ("scalar", "array" or "radial") and q None,
    or radial for radial p and arrays otherwise; then the same factors as
    full-size arrays for the reference, a radial u as u[inverse]."""
    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def factor(kind, c):
        if kind == "scalar":
            return c
        if kind == "radial":
            return c * cplx(_unique_mode_magnitudes(grid)[0].size)
        return cplx((grid.n,) * grid.dim)

    def full(e):
        return e[_unique_mode_magnitudes(grid)[1]] if kind == "radial" else e

    p = factor(kind, 0.7 - 0.1j), factor(kind, 1.3j)
    q_kind = "radial" if kind == "radial" else "array"
    q = (factor(q_kind, -0.4 + 0.9j), factor(q_kind, 0.61)) if with_q else None
    return p, q, tuple(map(full, p)), q and tuple(map(full, q))


@pytest.mark.parametrize("dim, n", [(1, 32), (3, 8), (3, 32), (3, 64)])
@pytest.mark.parametrize("p_kind", ["scalar", "array"])
@pytest.mark.parametrize("with_q", [False, True])
@pytest.mark.parametrize("s", [1.0, -1j, 0.3 - 0.2j, -0.61])
def test_apply_span_equals_the_term_by_term_formula(dim, n, p_kind, with_q, s):
    """Into a new array and in place (on a writable copy), bit for bit; in
    3D at n = 32 and 64 the pass runs over several slabs."""
    _check_against_the_reference(Grid(dim=dim, n=n, box_length=5.0), p_kind, with_q, s)


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("with_q", [False, True])
@pytest.mark.parametrize("s", [1.0, -1j, 0.3 - 0.2j, -0.61])
def test_apply_span_radial_factors_give_the_gathered_arrays_bits(n, with_q, s):
    """Radial p and q, gathered per slab, give the bits of the full-size
    arrays u[inverse], into a new array and in place."""
    _check_against_the_reference(Grid(dim=3, n=n, box_length=5.0), "radial", with_q, s)


def _check_against_the_reference(grid, kind, with_q, s):
    rng = np.random.default_rng(7)
    shape = (4,) + (grid.n,) * grid.dim
    hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    hat.setflags(write=False)
    before = hat.copy()
    p, q, p_full, q_full = _span_factors(grid, kind, with_q, rng)
    expected = _apply_span_reference(hat, grid, p_full, q_full, s)
    got = _apply_span(hat, grid, p, q, s)
    assert np.array_equal(got, expected)
    assert np.array_equal(hat, before)
    work = hat.copy()
    assert _apply_span(work, grid, p, q, s, in_place=True) is work
    assert np.array_equal(work, expected)


@pytest.mark.parametrize("kind", ["scalar", "array", "radial"])
@pytest.mark.parametrize("with_q", [False, True])
def test_apply_span_output_does_not_depend_on_the_slab_size(monkeypatch, kind, with_q):
    """One plane per slab, three (the last slab shorter), and the whole grid
    in one slab give the bits of the default slabs."""
    grid = Grid(dim=3, n=32, box_length=5.0)
    rng = np.random.default_rng(11)
    hat = rng.standard_normal((4, 32, 32, 32)) + 1j * rng.standard_normal((4, 32, 32, 32))
    p, q, _, _ = _span_factors(grid, kind, with_q, rng)
    default = _apply_span(hat, grid, p, q, -1j)
    plane = 32 * 32 * hat.itemsize
    for slab_bytes in (1, 3 * plane, 1 << 40):
        monkeypatch.setattr(field, "_SLAB_BYTES", slab_bytes)
        assert np.array_equal(_apply_span(hat, grid, p, q, -1j), default)
        work = hat.copy()
        assert np.array_equal(_apply_span(work, grid, p, q, -1j, in_place=True), default)


def test_apply_span_in_place_rejects_a_read_only_spectrum():
    grid = Grid(dim=3, n=8, box_length=5.0)
    f = random_smooth(grid, amplitude=1.0, seed=2, time=1.0)
    before = f.spectrum.copy()
    with pytest.raises(ValueError):
        _apply_span(f.spectrum, grid, (1.0, 2.0), in_place=True)
    assert np.array_equal(f.spectrum, before)


def test_field_passes_allocate_each_full_size_array_once(tmp_path, peak_allocation):
    """At 3D n=32 a transform allocates only its output, the symbol pass
    its output plus a scratch slab and a 2-slab saved pair (a slab is half
    the grid here, 0.125 of the spinor's bytes per component), the
    in-place pass only the two slab buffers, load_snapshot only the array
    it returns, and save_snapshot of a contiguous complex128 field no copy
    of the payload."""
    grid = Grid(dim=3, n=32, box_length=8.0)
    f = random_smooth(grid, amplitude=1.0, seed=3, time=1.5)
    spinor = f.data.nbytes
    planes = np.random.default_rng(5).standard_normal(f.data.shape) + 0j
    p, q = (planes[0], planes[1]), (planes[2], planes[3])
    _apply_span(f.data, grid, p, q, -1j)  # warm the symbol cache
    path = tmp_path / "field.fdrc"
    work = f.data.copy()
    assert peak_allocation(_fftn, f.data, grid) <= 1.05 * spinor
    assert peak_allocation(_ifftn, f.data, grid) <= 1.05 * spinor
    assert peak_allocation(_apply_span, f.data, grid, p, q, -1j) <= 1.5 * spinor
    assert peak_allocation(_apply_span, work, grid, p, q, -1j, True) <= 0.5 * spinor
    assert peak_allocation(save_snapshot, f, path) <= 0.05 * spinor
    assert peak_allocation(load_snapshot, path) <= 1.05 * spinor


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1000), st.floats(-3.0, 3.0),
       st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2))
def test_cone_mass_does_not_grow_with_the_radius(seed, x0, radii):
    grid = Grid(dim=1, n=64, box_length=TWO_PI)
    f = random_smooth(grid, amplitude=1.0, seed=seed)
    small, large = sorted(radii)
    inner = cone_mass(f, (x0, 0.0, 0.0), small)
    outer = cone_mass(f, (x0, 0.0, 0.0), large)
    assert outer <= inner * (1.0 + 1e-12)
    assert inner <= l2_norm_sq(f) * (1.0 + 1e-12)


def test_support_radius(grid1d):
    f = compact_bump(grid1d, amplitude=1.0, width=1.2)
    r = support_radius(f, (0.0, 0.0, 0.0))
    assert 0.9 <= r <= 1.2
    assert support_radius(constant_field(grid1d, (0, 0, 0, 0)), (0, 0, 0)) == 0.0


def test_snapshot_roundtrip(tmp_path, grid1d):
    f = random_smooth(grid1d, amplitude=1.0, seed=2, time=3.5)
    path = tmp_path / "field.fdrc"
    save_snapshot(f, path)
    g = load_snapshot(path)
    assert g.grid == f.grid
    assert g.time == f.time
    assert np.array_equal(g.data, f.data)
    _assert_snapshot_format(path, f, g)
    # each header error names the file: magic, version, then box length
    for offset, fmt, value, message in [
        (0, "4s", b"XXXX", "not a spinor snapshot file"),
        (4, "<I", 2, "unsupported snapshot version 2"),
        (16, "<d", float("nan"), "snapshot header: box_length must be positive"),
    ]:
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        bad = tmp_path / "bad.fdrc"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=message) as exc:
            load_snapshot(bad)
        assert str(exc.value).startswith(f"{bad}: ")


@pytest.mark.parametrize("cut, expected, actual", [
    (lambda raw: b"", 32, 0),  # no header
    (lambda raw: raw[:20], 32, 20),  # short header
    (lambda raw: raw[:-16], 1056, 1040),  # truncated payload
    (lambda raw: raw + b"\0" * 3, 1056, 1059),  # trailing bytes
])
def test_load_snapshot_rejects_a_file_of_the_wrong_size(tmp_path, cut, expected, actual):
    """The error names the file and the byte counts its header asks for and
    it has; a 1D n=16 snapshot is 32 + 4 * 16 * 16 bytes."""
    path = tmp_path / "field.fdrc"
    save_snapshot(compact_bump(Grid(1, 16, 12.0), amplitude=1.0, width=1.2), path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=f"needs {expected} bytes, file has {actual}") as exc:
        load_snapshot(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), 0.0])
def test_load_snapshot_rejects_a_time_that_is_not_positive_and_finite(tmp_path, time):
    """The header's time is checked before the payload is read; the error
    names the file and the time."""
    path = tmp_path / "field.fdrc"
    save_snapshot(compact_bump(Grid(1, 16, 12.0), amplitude=1.0, width=1.2), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 24, time)  # after magic, version, dim, n, box length
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"snapshot time {time!r} is not positive") as exc:
        load_snapshot(path)
    assert str(path) in str(exc.value)


def test_snapshot_roundtrip_3d(tmp_path):
    g = Grid(dim=3, n=8, box_length=4.0)
    f = random_smooth(g, amplitude=0.3, seed=4, time=2.0)
    path = tmp_path / "field3.fdrc"
    save_snapshot(f, path)
    back = load_snapshot(path)
    assert np.array_equal(back.data, f.data)
    expected_size = 32 + 4 * 8**3 * 16
    assert path.stat().st_size == expected_size
    _assert_snapshot_format(path, f, back)


def _assert_snapshot_format(path, saved, loaded):
    """The file is the little-endian header, then the data as <c16; the
    loaded array is a writable native complex128 array owning its data."""
    g = saved.grid
    header = struct.pack("<4sIII dd", b"FDRC", 1, g.dim, g.n, g.box_length, saved.time)
    assert path.read_bytes() == header + np.asarray(saved.data, "<c16").tobytes()
    data = loaded.data
    assert data.dtype == np.complex128 and data.dtype.isnative
    assert data.flags.writeable and data.flags.owndata
