import contextlib
import csv
import dataclasses
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fockbench import chart as chm
from fockbench.errors import DomainMismatchError


def test_chart_validation():
    with pytest.raises(ValueError):
        chm.periodic_chart(4, 4)
    with pytest.raises(ValueError):
        chm.disk_chart(32, 32, radius=0.9)
    with pytest.raises(ValueError, match="unknown chart kind 'torus'"):
        chm.Chart(kind="torus", nx=8, ny=8)
    c = chm.periodic_chart(16, 16, 2.0, 1.0)
    assert c.hx == 2.0 / 16 and c.hy == 1.0 / 16
    d = chm.disk_chart(33, 33, 0.5)
    assert d.hx == pytest.approx(1.0 / 32)


@pytest.mark.parametrize("lx, ly", [(0.0, 1.0), (-1.0, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)])
def test_periodic_chart_requires_finite_positive_lengths(lx, ly):
    with pytest.raises(ValueError, match="'lx' and 'ly' must be finite and positive"):
        chm.periodic_chart(8, 8, lx=lx, ly=ly)
    with pytest.raises(ValueError, match="'lx' and 'ly' must be finite and positive"):
        chm.Chart(kind="periodic-rect", nx=8, ny=8)  # the lengths default to 0


def test_disk_mask_and_band():
    d = chm.disk_chart(33, 33, 0.5)
    m, band, inner = d.mask(), d.boundary_band(), d.interior()
    assert m.sum() > 0 and band.sum() > 0
    assert not (inner & band).any()
    assert (inner | band).sum() == m.sum()


@pytest.mark.parametrize("chart", [chm.disk_chart(33, 33, 0.5), chm.disk_chart(20, 27, 0.4), chm.periodic_chart(12, 10)])
def test_chart_masks_are_cached_read_only(chart):
    m, band, inner = chart.mask(), chart.boundary_band(), chart.interior()
    assert chart.mask() is m and chart.boundary_band() is band and chart.interior() is inner
    for arr in (m, band, inner):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = True
    # a fresh computation: the disk test and two cross-shaped erosions
    if chart.periodic:
        fresh_m = np.ones((chart.nx, chart.ny), dtype=bool)
        fresh_inner = fresh_m
    else:
        x, y = chart.xy()
        fresh_m = x * x + y * y < chart.radius**2 * (1 - 1e-12)
        fresh_inner = ndimage.binary_erosion(fresh_m, iterations=2, border_value=0)
    assert np.array_equal(m, fresh_m)
    assert np.array_equal(band, fresh_m & ~fresh_inner)
    assert np.array_equal(inner, fresh_inner)


def test_partial_constant_and_linear():
    c = chm.periodic_chart(16, 16)
    f = chm.ScalarField(c, np.ones((16, 16), dtype=complex))
    assert np.abs(chm.dz_array(c, f.data)).max() == 0
    d = chm.disk_chart(33, 33, 0.5)
    fz = chm.ScalarField(d, d.z())
    m = d.mask()
    assert np.abs(chm.dz_array(d, fz.data)[m] - 1).max() < 1e-12
    assert np.abs(chm.dzbar_array(d, fz.data)[m]).max() < 1e-12


def test_partial_symbol_periodic():
    c = chm.periodic_chart(32, 32)
    x, _ = c.xy()
    k = 3
    f = chm.ScalarField(c, np.exp(2j * np.pi * k * x))
    sym = 0.5j * np.sin(2 * np.pi * k * c.hx) / c.hx
    assert np.allclose(chm.dz_array(c, f.data), sym * f.data)
    assert np.allclose(chm.dzbar_array(c, f.data), sym * f.data)


# The stencils written out as array formulas ("rect" is "masked" with every
# point valid): the reference every product with ``difference_matrix`` must
# reproduce bit for bit.


def _ref_periodic(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2 * h)


def _ref_zerofill(arr, axis, h):
    fwd = np.roll(arr, -1, axis=axis)
    bwd = np.roll(arr, 1, axis=axis)
    sl_last = [slice(None)] * arr.ndim
    sl_first = [slice(None)] * arr.ndim
    sl_last[axis] = -1
    sl_first[axis] = 0
    fwd[tuple(sl_last)] = 0.0
    bwd[tuple(sl_first)] = 0.0
    return (fwd - bwd) / (2 * h)


def _inside_shift(shape, axis, k):
    n = shape[axis]
    idx = np.arange(n)
    ok = (idx + k >= 0) & (idx + k < n)
    expand = [None, None]
    expand[axis] = slice(None)
    return np.broadcast_to(ok[tuple(expand)], shape)


def _ref_masked(arr, axis, h, mask):
    out = np.zeros_like(arr, dtype=complex)
    valid = mask
    sh = lambda a, k: np.roll(a, -k, axis=axis)
    val = lambda k: sh(valid, k) & _inside_shift(valid.shape, axis, k)
    f1, f2 = sh(arr, 1), sh(arr, 2)
    b1, b2 = sh(arr, -1), sh(arr, -2)
    has_f1, has_f2 = val(1), val(2)
    has_b1, has_b2 = val(-1), val(-2)
    central = valid & has_f1 & has_b1
    fwd = valid & ~central & has_f1 & has_f2
    bwd = valid & ~central & ~fwd & has_b1 & has_b2
    fwd1 = valid & ~central & ~fwd & ~bwd & has_f1
    bwd1 = valid & ~central & ~fwd & ~bwd & ~fwd1 & has_b1
    if arr.ndim > 2:
        expand = (...,) + (None,) * (arr.ndim - 2)
        central, fwd, bwd = central[expand], fwd[expand], bwd[expand]
        fwd1, bwd1 = fwd1[expand], bwd1[expand]
    out = np.where(central, (f1 - b1) / (2 * h), out)
    out = np.where(fwd, (-3 * arr + 4 * f1 - f2) / (2 * h), out)
    out = np.where(bwd, (3 * arr - 4 * b1 + b2) / (2 * h), out)
    out = np.where(fwd1, (f1 - arr) / h, out)
    out = np.where(bwd1, (arr - b1) / h, out)
    return out


@pytest.mark.parametrize("shape", [(12, 12), (9, 14), (12, 12, 3, 3), (9, 14, 3, 3), (8, 22)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_rect_stencil_is_masked_stencil_with_full_mask(shape, dtype):
    """Every policy on disk and periodic charts, along both axes, against the
    written-out formulas; ``rect`` against ``masked`` with every point valid.
    The 8 x 22 disk has first-order rows (a single neighbour along x)."""
    rng = np.random.default_rng(3)
    arr = rng.standard_normal(shape)
    if dtype is complex:
        arr = arr + 1j * rng.standard_normal(shape)
    nx, ny = shape[:2]
    full = np.ones((nx, ny), dtype=bool)
    reference = {
        "periodic": lambda ch, axis, h: _ref_periodic(arr, axis, h),
        "zerofill": lambda ch, axis, h: _ref_zerofill(arr, axis, h),
        "masked": lambda ch, axis, h: _ref_masked(arr, axis, h, ch.mask()),
        "rect": lambda ch, axis, h: _ref_masked(arr, axis, h, full),
    }
    for ch in (chm.periodic_chart(nx, ny, 1.0, 0.9), chm.disk_chart(nx, ny, 0.5)):
        for boundary, ref in reference.items():
            for derivative, axis, h in ((chm.dx_array, 0, ch.hx), (chm.dy_array, 1, ch.hy)):
                got = derivative(ch, arr, boundary)
                want = ref(ch, axis, h)
                assert got.dtype == arr.dtype
                assert np.array_equal(got.astype(want.dtype).view(float), want.view(float)), (ch.kind, boundary, axis)


def _bits(x):
    """The float bits of ``x``, every NaN made the same NaN: equal bits mean
    equal values, signed zeros and infinities included, and NaN at the same
    places."""
    v = np.array(x).view(float)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64)


@pytest.mark.parametrize("shape", [(8, 22), (9, 14), (8, 22, 3, 3), (9, 14, 3, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stencils_are_the_difference_matrix_products(shape, dtype):
    """``dx_array``/``dy_array`` against the CSR product with
    ``difference_matrix`` bit for bit, on inputs planted with +0.0, -0.0,
    +-inf and NaN: each row sums from zero in formula order in both, so a sum
    of zeros comes out +0.0 in both."""
    rng = np.random.default_rng(11)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    arr = np.empty(shape, dtype=dtype)
    parts = arr.view(float)  # real and imaginary parts interleaved
    parts[...] = rng.standard_normal(parts.shape)
    planted = rng.random(parts.shape) < 0.5
    parts[planted] = rng.choice(specials, p=[0.4, 0.4, 0.07, 0.07, 0.06], size=planted.sum())
    assert np.signbit(parts[parts == 0]).any() and np.isinf(parts).any() and np.isnan(parts).any()
    nx, ny = shape[:2]
    flat = arr.view(float).reshape(nx * ny, -1)
    for ch in (chm.periodic_chart(nx, ny, 1.0, 0.9), chm.disk_chart(nx, ny, 0.5)):
        for boundary in ("periodic", "zerofill", "masked", "rect"):
            for derivative, axis, h in ((chm.dx_array, 0, ch.hx), (chm.dy_array, 1, ch.hy)):
                # warning-free like the CSR product; only the complex division by 2h may warn
                with np.errstate(invalid="ignore") if dtype is complex else contextlib.nullcontext():
                    got = derivative(ch, arr, boundary)
                with np.errstate(invalid="ignore"):
                    mat = chm.difference_matrix(dataclasses.replace(ch, stencil=boundary), axis)
                    want = (mat @ flat).reshape(arr.view(float).shape).view(dtype)
                    want /= 2 * h
                assert got.dtype == arr.dtype and got.shape == arr.shape
                assert np.array_equal(_bits(got), _bits(want)), (ch.kind, boundary, axis)


@pytest.mark.parametrize("chart", [chm.disk_chart(8, 22), chm.disk_chart(33, 33), chm.periodic_chart(9, 14)])
def test_stencil_cases_give_each_point_one_row(chart):
    # the numpy apply overwrites every group's rows, so the table must give each point exactly one row
    size = chart.nx * chart.ny
    for boundary in ("periodic", "zerofill", "masked", "rect"):
        for axis in (0, 1):
            central, groups = chm._stencil(chart, boundary, axis)
            points = np.concatenate([central, *(pts for pts, _, _ in groups)])
            assert np.array_equal(np.sort(points), np.arange(size)), (boundary, axis)
            along, across = (idx.ravel() for idx in np.indices((chart.nx, chart.ny))[[axis, 1 - axis]])
            assert np.all((along[central] > 0) & (along[central] < (chart.nx, chart.ny)[axis] - 1)), (boundary, axis)
            for pts, nbrs, weights in groups:
                assert nbrs.shape == weights.shape[:2] == (len(nbrs), pts.size) and weights.shape[2] == 1
                # on the grid and on the point's own line along the axis
                assert np.all((nbrs >= 0) & (nbrs < size)), (boundary, axis)
                assert np.array_equal(across[nbrs], np.broadcast_to(across[pts], nbrs.shape)), (boundary, axis)
            assert not any(arr.flags.writeable for arr in (central, *(a for group in groups for a in group)))


@pytest.mark.parametrize(
    "chart",
    [chm.disk_chart(128, 128), chm.periodic_chart(128, 128), chm.periodic_chart(96, 64), chm.disk_chart(64, 48)],
    ids=["disk", "periodic", "periodic-96x64", "disk-64x48"],
)
def test_difference_matrix_is_skew_adjoint(chart):
    chart = dataclasses.replace(chart, stencil="periodic" if chart.periodic else "zerofill")
    rng = np.random.default_rng(6)
    f, g = rng.standard_normal((2, chart.nx * chart.ny))
    for axis in (0, 1):
        d = chm.difference_matrix(chart, axis)
        assert (d + d.T).count_nonzero() == 0
        lhs, rhs = f @ (d @ g), -(d @ f) @ g
        assert abs(lhs - rhs) < 1e-12 * np.abs(f).sum() * np.abs(g).max()


def test_stencils_reject_arrays_off_the_chart_grid():
    ch = chm.disk_chart(8, 22)
    for derivative, arr in ((chm.dx_array, np.zeros((22, 8))), (chm.dz_array, np.zeros(176, dtype=complex))):
        with pytest.raises(DomainMismatchError, match=rf"{re.escape(str(arr.shape))}.*\(8, 22\)"):
            derivative(ch, arr)


def test_exterior_d_squares_to_zero():
    rng = np.random.default_rng(0)
    c = chm.periodic_chart(24, 24)
    coeff = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
    a0 = chm.LieForm(c, 0, d0=chm.random_smooth_scalar(c, rng).data[..., None, None] * coeff)
    dd = chm.exterior_d(chm.exterior_d(a0))
    assert np.abs(dd.d0).max() < 1e-11
    with pytest.raises(DomainMismatchError):
        chm.exterior_d(dd)


def test_exterior_d_holomorphic_dz_form():
    d = chm.disk_chart(33, 33, 0.5)
    z = d.z()
    coeff = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    alpha = chm.LieForm(d, 1, d1=z[..., None, None] * coeff, d2=np.zeros((33, 33, 2, 2), dtype=complex))
    da = chm.exterior_d(alpha)
    assert np.abs(da.d0[d.mask()]).max() < 1e-12


def test_wedge_bracket_symmetry_and_jacobi():
    rng = np.random.default_rng(1)
    c = chm.periodic_chart(16, 16)
    n = 3

    def rand_form(degree):
        mk = lambda: chm.random_smooth_scalar(c, rng).data[..., None, None] * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        if degree == 1:
            return chm.LieForm(c, 1, d1=mk(), d2=mk())
        return chm.LieForm(c, degree, d0=mk())

    a, b = rand_form(1), rand_form(1)
    ab = chm.wedge_bracket(a, b)
    ba = chm.wedge_bracket(b, a)
    assert np.abs(ab.d0 - ba.d0).max() < 1e-12 * max(1.0, np.abs(ab.d0).max())
    # graded Jacobi with degrees (0, 0, 1): all signs are +1
    f, g = rand_form(0), rand_form(0)
    j1 = chm.wedge_bracket(f, chm.wedge_bracket(g, a))
    j2 = chm.wedge_bracket(g, chm.wedge_bracket(a, f))
    j3 = chm.wedge_bracket(a, chm.wedge_bracket(f, g))
    total = j1.d1 + j2.d1 + j3.d1
    total2 = j1.d2 + j2.d2 + j3.d2
    scale = max(1.0, np.abs(j1.d1).max())
    assert np.abs(total).max() < 1e-12 * scale and np.abs(total2).max() < 1e-12 * scale
    with pytest.raises(DomainMismatchError):
        chm.wedge_bracket(a, chm.wedge_bracket(a, b))


def test_wedge_bracket_fock_field_commutes():
    from fockbench import hcsflow as hf

    rng = np.random.default_rng(2)
    c = chm.periodic_chart(16, 16)
    mu = chm.BeltramiField(c, 3, {k: chm.random_smooth_scalar(c, rng, amplitude=0.2).data for k in (2, 3)})
    phi = hf.fock_form(c, mu)
    wb = chm.wedge_bracket(phi, phi)
    assert np.abs(wb.d0).max() < 1e-14


def test_wedge_bracket_needs_a_common_chart():
    forms = [
        chm.LieForm(ch, 0, d0=np.zeros((ch.nx, ch.ny, 2, 2), dtype=complex))
        for ch in (chm.periodic_chart(8, 8), chm.periodic_chart(12, 12))
    ]
    with pytest.raises(DomainMismatchError, match="wedge_bracket needs a common chart"):
        chm.wedge_bracket(*forms)


def test_chart_stencil_defaults_by_kind_and_is_checked():
    periodic, disk = chm.periodic_chart(12, 12), chm.disk_chart(12, 12, 0.5)
    assert (periodic.stencil, disk.stencil) == ("periodic", "masked")
    rect = dataclasses.replace(disk, stencil="rect")
    assert rect != disk and dataclasses.replace(rect, nx=16).stencil == "rect"
    arr = np.random.default_rng(4).standard_normal((12, 12)) + 0j
    for ch in (periodic, disk, rect):  # an omitted policy is the chart's
        for derivative in (chm.dx_array, chm.dy_array, chm.dz_array, chm.dzbar_array):
            assert np.array_equal(derivative(ch, arr), derivative(ch, arr, ch.stencil))
    with pytest.raises(ValueError, match="'stencil' must be one of"):
        dataclasses.replace(disk, stencil="auto")
    with pytest.raises(ValueError, match="unknown boundary policy 'auto'"):
        chm.dx_array(disk, arr, "auto")


@pytest.mark.parametrize("boundary", ["periodic", "zerofill", "masked", "rect"])
@pytest.mark.parametrize("chart", [chm.periodic_chart(16, 16), chm.disk_chart(20, 20, 0.5)], ids=["periodic", "disk"])
def test_covariant_d_sums_in_its_stated_order(chart, boundary):
    # covariant_d is the package's only d_A: the fill-in residuals, the strong
    # form of the linearized operator and the gauge mu-holomorphicity residual
    # all read it, so its rounding is pinned bitwise to the written-out sums,
    # on the stencil of the chart the form lives on
    chart = dataclasses.replace(chart, stencil=boundary)
    rng = np.random.default_rng(11)
    n, shape = 3, (chart.nx, chart.ny, 3, 3)
    a1, a2, w1, w2, e = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(5))
    a = chm.LieForm(chart, 1, d1=a1, d2=a2)
    dz = lambda x: chm.dz_array(chart, x, boundary)
    dzb = lambda x: chm.dzbar_array(chart, x, boundary)
    got0 = chm.covariant_d(a, chm.LieForm(chart, 0, d0=e))
    for got, want in ((got0.d1, dz(e) + (a1 @ e - e @ a1)), (got0.d2, dzb(e) + (a2 @ e - e @ a2))):
        assert np.array_equal(got.view(float), want.view(float))
    got1 = chm.covariant_d(a, chm.LieForm(chart, 1, d1=w1, d2=w2))
    want1 = ((dz(w2) - dzb(w1)) + a1 @ w2) - w2 @ a1 - (a2 @ w1 - w1 @ a2)
    assert got1.degree == 2 and got1.n == n
    assert np.array_equal(got1.d0.view(float), want1.view(float))


def test_summation_by_parts_periodic():
    rng = np.random.default_rng(3)
    c = chm.periodic_chart(24, 24)
    f = chm.random_smooth_scalar(c, rng)
    g = chm.random_smooth_scalar(c, rng)
    # midpoint-rule integrals: on a periodic chart every grid point is in the mask
    lhs = (f.data * chm.dz_array(c, g.data)).sum() * c.hx * c.hy
    rhs = -(g.data * chm.dz_array(c, f.data)).sum() * c.hx * c.hy
    assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_zerofill_skew_adjoint_on_disk():
    rng = np.random.default_rng(4)
    d = chm.disk_chart(33, 33, 0.5)
    u = chm.random_smooth_scalar(d, rng).data
    v = chm.random_smooth_scalar(d, rng).data
    lhs = (u * chm.dz_array(d, v, "zerofill")).sum()
    rhs = -(v * chm.dz_array(d, u, "zerofill")).sum()
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_bump_support_and_smoothness():
    d = chm.disk_chart(33, 33, 0.5)
    b = chm.bump_field(d, radius=0.3, amplitude=2.0)
    x, y = d.xy()
    outside = x * x + y * y >= 0.3**2
    assert np.abs(b.data[outside]).max() == 0.0
    assert b.data.real.max() == pytest.approx(2.0)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    c = chm.periodic_chart(12, 12)
    f = chm.random_smooth_scalar(c, rng)
    p = tmp_path / "s.csv"
    chm.save_scalar_csv(p, f)
    f2 = chm.load_scalar_csv(p, c)
    assert np.array_equal(f.data, f2.data)
    coeff = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    form = chm.LieForm(c, 1, d1=f.data[..., None, None] * coeff, d2=f.data[..., None, None] * coeff.T)
    p2 = tmp_path / "l.csv"
    chm.save_lieform_csv(p2, form)
    form2 = chm.load_lieform_csv(p2, c, 1, 2)
    assert np.array_equal(form.d1, form2.d1)
    assert np.array_equal(form.d2, form2.d2)
    with open(p2) as fh:
        header = fh.readline().strip()
    assert header == "i,j,row,col,comp,re,im"


# ---------------------------------------------------------------------------
# CSV writers: bitwise round trips and the bytes of the csv-module writer


def _oracle_rows(rows):
    """What csv.writer made of the rows, with floats through f"{v:.17g}"."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    for row in rows:
        w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return out.getvalue().encode()


def _oracle_scalar(data):
    rows = [["i", "j", "re", "im"]]
    rows += [[i, j, float(v.real), float(v.imag)] for (i, j), v in np.ndenumerate(data)]
    return _oracle_rows(rows)


def _oracle_matrix(grids):
    rows = [["i", "j", "row", "col", "comp", "re", "im"]]
    for comp, grid in grids:
        rows += [[*idx, comp, float(v.real), float(v.imag)] for idx, v in np.ndenumerate(grid)]
    return _oracle_rows(rows)


_EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e-308, np.inf, -np.inf,
]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False))


@st.composite
def _grids(draw, matrix, count=1):
    """(chart, [complex grid] * count): values drawn from a small pool of
    floats (edge cases among them), spread over the grids by a drawn seed."""
    chart = chm.periodic_chart(draw(st.integers(8, 10)), draw(st.integers(8, 10)))
    shape = (chart.nx, chart.ny)
    if matrix:
        n = draw(st.integers(2, 3))
        shape += (n, n)
    pool = np.array(draw(st.lists(_FLOATS, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = []
    for _ in range(count):
        grid = np.empty(shape, dtype=complex)
        grid.real = rng.choice(pool, size=shape)  # set part by part: no arithmetic touches the bits
        grid.imag = rng.choice(pool, size=shape)
        grids.append(grid)
    return chart, grids


def _bits(a):
    return None if a is None else np.ascontiguousarray(a).tobytes()


@settings(max_examples=30, deadline=None)
@given(_grids(matrix=False))
def test_scalar_csv_round_trip_and_bytes(tmp_path_factory, drawn):
    chart, (grid,) = drawn
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    chm.save_scalar_csv(path, chm.ScalarField(chart, grid))
    assert path.read_bytes() == _oracle_scalar(grid)
    assert _bits(chm.load_scalar_csv(path, chart).data) == _bits(grid)


@settings(max_examples=30, deadline=None)
@given(_grids(matrix=True, count=2), st.sampled_from([0, 1, 2]))
def test_lieform_and_matrix_csv_round_trip_and_bytes(tmp_path_factory, drawn, degree):
    chart, (grid, second) = drawn
    n = grid.shape[-1]
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    if degree == 1:
        form = chm.LieForm(chart, 1, d1=grid, d2=second)
        grids = [("dz", grid), ("dzb", second)]
    else:
        form = chm.LieForm(chart, degree, d0=grid)
        grids = [("0", grid)]
    chm.save_lieform_csv(path, form)
    assert path.read_bytes() == _oracle_matrix(grids)
    back = chm.load_lieform_csv(path, chart, degree, n)
    assert [_bits(back.d0), _bits(back.d1), _bits(back.d2)] == [_bits(form.d0), _bits(form.d1), _bits(form.d2)]
    chm.save_matrix_field_csv(path, chart, grid)
    assert path.read_bytes() == _oracle_matrix([("0", grid)])
    assert _bits(chm.load_matrix_field_csv(path, chart, n)) == _bits(grid)


@pytest.mark.parametrize(
    "body, where",
    [
        ("x,y,re,im\r\n0,0,1,0\r\n", "line 1: bad scalar field header"),
        ("i,j,re,im\r\n0,0,1,0\r\n12,3,1,0\r\n", "line 3: index (12, 3) outside the 12 x 12 grid"),
        ("i,j,re,im\r\n0,-1,1,0\r\n", "line 2: index (0, -1) outside the 12 x 12 grid"),
        ("i,j,re,im\r\n0,0,one,0\r\n", "line 2: malformed row"),
        ("i,j,re,im\r\n0,0,1\r\n", "line 2: malformed row"),
        ("i,j,re,im,extra\r\n0,0,1,0,0\r\n", "line 1: bad scalar field header"),
        ("i,j,re,im\r\n0,0,1.0,2.0,junk\r\n", "line 2: malformed row"),
    ],
    ids=["bad-header", "index-outside", "negative-index", "not-a-number", "short-row", "extra-column", "long-row"],
)
def test_load_scalar_csv_names_path_and_line(tmp_path, body, where):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode())
    with pytest.raises(ValueError) as info:
        chm.load_scalar_csv(path, chm.periodic_chart(12, 12))
    assert str(path) in str(info.value) and where in str(info.value)



_LIE_HEADER = "i,j,row,col,comp,re,im\r\n"


@pytest.mark.parametrize(
    "degree, rows, where",
    [
        (1, "0,0,0,0,dz,1,0\r\n0,0,0,x,dzb,1,0\r\n", "line 3: malformed row"),
        (1, "0,0,0,0,dz,1,0\r\n0,0,0,1,dzb,1\r\n", "line 3: malformed row"),
        (1, "0,0,0,0,dz,1,0\r\n0,0,0,1,dzb,1,0,junk\r\n", "line 3: malformed row"),
        (1, "0,0,0,0,dz,1,0\r\n-1,0,0,0,dzb,1,0\r\n", "line 3: index (-1, 0, 0, 0) outside the 8 x 8 x 2 x 2 grid"),
        (1, "0,0,0,0,dz,1,0\r\n0,0,2,0,dzb,1,0\r\n", "line 3: index (0, 0, 2, 0) outside the 8 x 8 x 2 x 2 grid"),
        (1, "0,0,0,0,dz,1,0\r\n0,0,0,0,dzbar,1,0\r\n", "line 3: component 'dzbar' is not one of ('dz', 'dzb')"),
        (0, "0,0,0,0,dz,1,0\r\n", "line 2: component 'dz' is not one of ('0',)"),
        (1, "0,0,0,0,dz,1,0\r\n", "no rows of component 'dzb' of a degree-1 form"),
        (2, "", "no rows of component '0' of a degree-2 form"),
    ],
    ids=["bad-int", "short-row", "long-row", "negative-index", "matrix-index", "misspelled-comp", "wrong-degree", "missing-dzb", "empty"],
)
def test_load_lieform_csv_names_path_and_line(tmp_path, degree, rows, where):
    path = tmp_path / "bad.csv"
    path.write_bytes((_LIE_HEADER + rows).encode())
    with pytest.raises(ValueError) as info:
        chm.load_lieform_csv(path, chm.periodic_chart(8, 8), degree, 2)
    assert str(path) in str(info.value) and where in str(info.value)


def test_load_lieform_csv_requires_the_exact_header(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_bytes((_LIE_HEADER.replace("im", "im,extra") + "0,0,0,0,0,1,0,0\r\n").encode())
    with pytest.raises(ValueError, match="line 1: bad field header"):
        chm.load_matrix_field_csv(path, chm.periodic_chart(8, 8), 2)


def test_csv_readers_take_any_integer_spelling(tmp_path):
    """Index fields that are not in the writer's spelling still parse by int()."""
    chart = chm.periodic_chart(8, 8)
    path = tmp_path / "s.csv"
    chm.save_scalar_csv(path, chm.ScalarField(chart, np.zeros((8, 8), dtype=complex)))
    path.write_bytes(path.read_bytes().replace(b"\n1,2,0,0\r", b"\n+1, 02,1.5,-2\r"))
    assert chm.load_scalar_csv(path, chart).data[1, 2] == complex(1.5, -2)
    chm.save_matrix_field_csv(path, chart, np.zeros((8, 8, 2, 2), dtype=complex))
    body = path.read_bytes().replace(b"\n0,0,0,0,0,0,0\r", b"\n0,0,0,0,0,1,0\r")
    path.write_bytes(body.replace(b"\n3,3,1,1,0,0,0\r", b"\n3,+3,01,1,0,0,-0.0\r"))
    grid = chm.load_matrix_field_csv(path, chart, 2)
    assert grid[0, 0, 0, 0] == 1 and np.signbit(grid[3, 3, 1, 1].imag)


def _without_last_rows(path, k):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-k]))


def test_csv_readers_reject_missing_rows(tmp_path):
    """A file that leaves grid entries out is a ValueError naming the path and
    the first missing index, not a field with zeros in their place."""
    chart, n = chm.periodic_chart(8, 8), 2
    rng = np.random.default_rng(9)
    path = tmp_path / "s.csv"
    chm.save_scalar_csv(path, chm.random_smooth_scalar(chart, rng))
    _without_last_rows(path, 5)
    with pytest.raises(ValueError, match=re.escape(f"{path}: no row for index (7, 3)")):
        chm.load_scalar_csv(path, chart)
    grid = rng.standard_normal((2, 8, 8, n, n)) + 0j
    chm.save_lieform_csv(path, chm.LieForm(chart, 1, d1=grid[0], d2=grid[1]))
    _without_last_rows(path, 10)  # 10 of the 16 entries of the dzbar matrices at (7, 5), (7, 6) and (7, 7)
    with pytest.raises(ValueError, match=re.escape(f"{path}: no row for index (7, 5, 1, 0) of component 'dzb'")):
        chm.load_lieform_csv(path, chart, 1, n)
    chm.save_matrix_field_csv(path, chart, grid[0])
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + lines[3:]))  # drop the row of entry (0, 0, 0, 1)
    with pytest.raises(ValueError, match=re.escape(f"{path}: no row for index (0, 0, 0, 1) of component '0'")):
        chm.load_matrix_field_csv(path, chart, n)


def test_csv_readers_reject_repeated_rows(tmp_path):
    """A row that repeats an index is a ValueError naming the path, its line
    and the index, not a field that keeps the later value."""
    chart, n = chm.periodic_chart(8, 8), 2
    rng = np.random.default_rng(10)
    path = tmp_path / "s.csv"
    chm.save_scalar_csv(path, chm.random_smooth_scalar(chart, rng))
    with open(path, "ab") as fh:
        fh.write(b"1,2,1.5,-2\r\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 66: repeated index (1, 2)")):
        chm.load_scalar_csv(path, chart)
    grid = rng.standard_normal((2, 8, 8, n, n)) + 0j
    chm.save_lieform_csv(path, chm.LieForm(chart, 1, d1=grid[0], d2=grid[1]))
    lines = path.read_bytes().splitlines(keepends=True)
    with open(path, "ab") as fh:
        fh.write(b"0,0,1,1,dzb,3,0\r\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 514: repeated index (0, 0, 1, 1) of component 'dzb'")):
        chm.load_lieform_csv(path, chart, 1, n)
    # the first repeat in file order is named: line 5 sets the dzb entry whose dz
    # entry line 3 set, which is no repeat, and line 6 repeats line 3
    path.write_bytes(b"".join(lines[:4] + [b"0,0,0,1,dzb,3,0\r\n", b"0,0,0,1,dz,5,0\r\n"] + lines[4:]))
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 6: repeated index (0, 0, 0, 1) of component 'dz'")):
        chm.load_lieform_csv(path, chart, 1, n)
    # a quoted index with a line break adds a line but no row, and reads as before
    path.write_bytes(b"".join(lines).replace(b"\n7,7,1,1,dzb,", b'\n7,"7\n",1,1,dzb,'))
    back = chm.load_lieform_csv(path, chart, 1, n)
    assert _bits(back.d1) == _bits(grid[0]) and _bits(back.d2) == _bits(grid[1])
