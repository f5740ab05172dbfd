"""Discretized local charts and finite-difference exterior calculus.

Grid layout: arrays are indexed ``data[i, j]`` with i the x-index and j the
y-index; z = x + iy.  Complex derivatives combine d_x and d_y as
d = (d_x - i d_y)/2 and dbar = (d_x + i d_y)/2; each d_x or d_y is one sparse
product with ``difference_matrix``, the second-order stencil under one of four
boundary policies.  ``periodic`` wraps; ``zerofill`` drops the neighbours off
the grid (exactly skew-adjoint; the solver's choice on disks); ``masked``
treats points outside the disk mask as missing, with one-sided stencils along
the boundary band, first order where only one neighbour exists and an empty row
where none does; ``rect`` is ``masked`` with the whole rectangle valid.

Form conventions (fixed once, used by every module):

* a 1-form is stored as the component pair (a, b) meaning a dz + b dzbar;
* a 2-form is stored as its coefficient c against dz ^ dzbar = -2i dx ^ dy;
* ``exterior_d`` of a 1-form is (d b - dbar a) as a 2-form coefficient, and
  ``wedge_bracket`` of two 1-forms is [a1, b2] - [a2, b1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np
from scipy import sparse

from .errors import DomainMismatchError
from .fiber import commutator

__all__ = [
    "Chart",
    "periodic_chart",
    "disk_chart",
    "ScalarField",
    "LieForm",
    "BeltramiField",
    "CovectorField",
    "difference_matrix",
    "exterior_d",
    "wedge_bracket",
    "covariant_d",
    "integrate",
    "bump_field",
    "random_smooth_scalar",
    "save_scalar_csv",
    "load_scalar_csv",
    "save_lieform_csv",
    "load_lieform_csv",
    "save_matrix_field_csv",
    "load_matrix_field_csv",
]

_BAND_WIDTH = 2  # cells pinned by Dirichlet data on disk charts
_MATRIX_HEADER = "i,j,row,col,comp,re,im\r\n"


@dataclass(frozen=True)
class Chart:
    kind: str  # "periodic-rect" | "dirichlet-disk"
    nx: int
    ny: int
    lx: float = 0.0
    ly: float = 0.0
    radius: float = 0.0
    hx: float = field(init=False, default=0.0)
    hy: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"'nx' and 'ny' must be >= 8, got {self.nx} x {self.ny}")
        if self.kind == "periodic-rect":
            object.__setattr__(self, "hx", self.lx / self.nx)
            object.__setattr__(self, "hy", self.ly / self.ny)
        elif self.kind == "dirichlet-disk":
            if not 0.0 < self.radius <= 0.7:
                raise ValueError(f"'radius' must be in (0, 0.7] (inside the unit disk), got {self.radius!r}")
            object.__setattr__(self, "hx", 2 * self.radius / (self.nx - 1))
            object.__setattr__(self, "hy", 2 * self.radius / (self.ny - 1))
        else:
            raise ValueError(f"unknown chart kind {self.kind!r}")

    @property
    def periodic(self) -> bool:
        return self.kind == "periodic-rect"

    def xy(self):
        if self.periodic:
            x = np.arange(self.nx) * self.hx
            y = np.arange(self.ny) * self.hy
        else:
            x = -self.radius + np.arange(self.nx) * self.hx
            y = -self.radius + np.arange(self.ny) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def z(self):
        x, y = self.xy()
        return x + 1j * y

    def mask(self):
        """Boolean grid of points strictly inside the disk (rim excluded, so
        every mask point has at least one in-mask neighbour per axis).  Like
        ``boundary_band`` and ``interior``, built once per chart and shared
        read-only."""
        return self._masks[0]

    def boundary_band(self):
        """In-mask points within _BAND_WIDTH cells of the mask complement."""
        return self._masks[1]

    def interior(self):
        """Mask minus the Dirichlet boundary band."""
        return self._masks[2]

    @cached_property
    def _masks(self):
        """(mask, boundary band, interior); cached_property writes the instance
        dict directly, which a frozen dataclass allows."""
        if self.periodic:
            m = np.ones((self.nx, self.ny), dtype=bool)
            band = np.zeros_like(m)
        else:
            x, y = self.xy()
            m = x * x + y * y < self.radius**2 * (1 - 1e-12)
            inner = m.copy()
            for _ in range(_BAND_WIDTH):
                shrunk = inner.copy()
                shrunk[1:, :] &= inner[:-1, :]
                shrunk[:-1, :] &= inner[1:, :]
                shrunk[:, 1:] &= inner[:, :-1]
                shrunk[:, :-1] &= inner[:, 1:]
                shrunk[[0, -1], :] = False
                shrunk[:, [0, -1]] = False
                inner = shrunk
            band = m & ~inner
        out = (m, band, m & ~band)
        for arr in out:
            arr.flags.writeable = False
        return out


def periodic_chart(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> Chart:
    return Chart(kind="periodic-rect", nx=nx, ny=ny, lx=lx, ly=ly)


def disk_chart(nx: int, ny: int, radius: float = 0.5) -> Chart:
    return Chart(kind="dirichlet-disk", nx=nx, ny=ny, radius=radius)


@dataclass
class ScalarField:
    chart: Chart
    data: np.ndarray  # (nx, ny) complex

    def copy(self):
        return ScalarField(self.chart, self.data.copy())


@dataclass
class LieForm:
    """Lie-valued form field: degree 0/2 hold one matrix grid, degree 1 two."""

    chart: Chart
    degree: int
    d0: np.ndarray | None = None  # degree 0/2 coefficient, (nx, ny, n, n)
    d1: np.ndarray | None = None  # dz component
    d2: np.ndarray | None = None  # dzbar component

    @property
    def n(self):
        arr = self.d0 if self.degree != 1 else self.d1
        return arr.shape[-1]

    def copy(self):
        cp = lambda a: None if a is None else a.copy()
        return LieForm(self.chart, self.degree, cp(self.d0), cp(self.d1), cp(self.d2))


@dataclass
class BeltramiField:
    """Grid scalars indexed k = 2..n: the Beltrami coefficients mu_k that
    parametrize the higher structure, or the covector components t_k
    (``CovectorField`` is the same class).  A missing k reads as zero."""

    chart: Chart
    n: int
    comps: dict  # {k: (nx, ny) complex array}

    def __post_init__(self):
        if not set(self.comps) <= set(range(2, self.n + 1)):
            raise ValueError(f"component indices {sorted(self.comps)} must lie in 2..{self.n}")

    def comp(self, k):
        z = np.zeros((self.chart.nx, self.chart.ny), dtype=complex)
        return self.comps.get(k, z)


CovectorField = BeltramiField


# ---------------------------------------------------------------------------
# stencils


@lru_cache(maxsize=16)
def difference_matrix(chart: Chart, boundary: str, axis: int) -> sparse.csr_array:
    """2h d/d(axis) on the flattened grid (point i * ny + j) under a boundary
    policy of the module docstring, as a CSR array built once per (chart,
    policy, axis).  Each row keeps its entries in the order of the formula it
    stands for, with the indices left unsorted: a CSR product sums a row in
    storage order, so it rounds like the written-out stencil."""
    shape = (chart.nx, chart.ny)
    point = np.arange(chart.nx * chart.ny, dtype=np.int32).reshape(shape)
    pos = np.indices(shape)[axis]
    valid = chart.mask() if boundary == "masked" else np.ones(shape, dtype=bool)

    def has(k):  # the point and its k-th neighbour along the axis are valid
        inside = True if boundary == "periodic" else (pos + k >= 0) & (pos + k < shape[axis])
        return valid & np.roll(valid, -k, axis=axis) & inside

    central = ((1, 1.0), (-1, -1.0))  # (neighbour offset, weight): f(+1) - f(-1)
    if boundary in ("periodic", "zerofill"):
        cases = [(valid, central)]  # zerofill drops the neighbours off the grid
    elif boundary in ("masked", "rect"):
        c = has(1) & has(-1)  # otherwise at most one side has neighbours
        cases = [
            (c, central),
            (~c & has(1) & has(2), ((0, -3.0), (1, 4.0), (2, -1.0))),  # one-sided second order
            (~c & has(-1) & has(-2), ((0, 3.0), (-1, -4.0), (-2, 1.0))),
            (~c & has(1) & ~has(2), ((1, 2.0), (0, -2.0))),  # first order
            (~c & has(-1) & ~has(-2), ((0, 2.0), (-1, -2.0))),
        ]
    else:
        raise ValueError(f"unknown boundary policy {boundary!r}")
    rows, cols, vals = [], [], []
    for sel, terms in cases:
        for k, w in terms:
            on = sel & has(k)
            rows.append(point[on])
            cols.append(np.roll(point, -k, axis=axis)[on])
            vals.append(np.full(rows[-1].size, w))
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")  # row by row, formula order within a row
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=point.size))]).astype(np.int32)
    mat = sparse.csr_array((np.concatenate(vals)[order], np.concatenate(cols)[order], indptr), shape=(point.size,) * 2)
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False  # shared by every caller through the cache
    return mat


def dx_array(chart: Chart, arr, boundary: str = "auto"):
    """d/dx of a grid array; boundary in {auto, periodic, zerofill, masked,
    rect} (``difference_matrix``); auto is periodic or masked by chart kind."""
    return _d_dispatch(chart, arr, 0, chart.hx, boundary)


def dy_array(chart: Chart, arr, boundary: str = "auto"):
    return _d_dispatch(chart, arr, 1, chart.hy, boundary)


def _d_dispatch(chart, arr, axis, h, boundary):
    if boundary == "auto":
        boundary = "periodic" if chart.periodic else "masked"
    a = np.ascontiguousarray(arr, dtype=complex if np.iscomplexobj(arr) else float)
    flat = a.view(float).reshape(chart.nx * chart.ny, -1)  # real and imaginary parts as columns
    out = (difference_matrix(chart, boundary, axis) @ flat).reshape(a.view(float).shape).view(a.dtype)
    out /= 2 * h  # in the input's dtype: numpy divides complex by a real scalar via its reciprocal
    return out


def dz_array(chart, arr, boundary="auto"):
    return 0.5 * (dx_array(chart, arr, boundary) - 1j * dy_array(chart, arr, boundary))


def dzbar_array(chart, arr, boundary="auto"):
    return 0.5 * (dx_array(chart, arr, boundary) + 1j * dy_array(chart, arr, boundary))


# ---------------------------------------------------------------------------
# exterior calculus on Lie-valued forms


def exterior_d(alpha: LieForm, boundary: str = "auto") -> LieForm:
    """Discrete d; degree 0 -> 1, degree 1 -> 2."""
    ch = alpha.chart
    if alpha.degree == 0:
        return LieForm(ch, 1, d1=dz_array(ch, alpha.d0, boundary), d2=dzbar_array(ch, alpha.d0, boundary))
    if alpha.degree == 1:
        c = dz_array(ch, alpha.d2, boundary) - dzbar_array(ch, alpha.d1, boundary)
        return LieForm(ch, 2, d0=c)
    raise DomainMismatchError("exterior_d is defined for degrees 0 and 1 only")


def wedge_bracket(alpha: LieForm, beta: LieForm) -> LieForm:
    """Graded bracket-wedge [alpha ^ beta]; degrees must sum to <= 2."""
    if alpha.chart is not beta.chart and alpha.chart != beta.chart:
        raise DomainMismatchError("wedge_bracket needs a common chart")
    da, db = alpha.degree, beta.degree
    if da + db > 2:
        raise DomainMismatchError(f"degree overflow: {da} + {db} > 2")
    ch = alpha.chart
    if da != 1 and db != 1:
        return LieForm(ch, da + db, d0=commutator(alpha.d0, beta.d0))
    if da == 0:
        return LieForm(ch, 1, d1=commutator(alpha.d0, beta.d1), d2=commutator(alpha.d0, beta.d2))
    if db == 0:
        return LieForm(ch, 1, d1=commutator(alpha.d1, beta.d0), d2=commutator(alpha.d2, beta.d0))
    # 1-form against 1-form
    return LieForm(ch, 2, d0=commutator(alpha.d1, beta.d2) - commutator(alpha.d2, beta.d1))


def covariant_d(a_form: LieForm, omega: LieForm, boundary: str = "auto") -> LieForm:
    """d_A omega = d omega + [A ^ omega] for a degree-1 connection form A, the
    one covariant exterior derivative of the package.

    The sums run in a fixed order: degree 0 as d eta + (a eta - eta a) per
    component, degree 1 as ((d omega + a1 w2) - w2 a1) - (a2 w1 - w1 a2).
    Floating-point addition is not associative, so the order fixes the last
    bits of every compatibility residual, of the fill-in least squares that
    starts from one, and through them of the solver's outputs.
    """
    d = exterior_d(omega, boundary)
    a1, a2 = a_form.d1, a_form.d2
    if omega.degree == 0:
        e = omega.d0
        return LieForm(omega.chart, 1, d1=d.d1 + commutator(a1, e), d2=d.d2 + commutator(a2, e))
    w1, w2 = omega.d1, omega.d2
    return LieForm(omega.chart, 2, d0=d.d0 + a1 @ w2 - w2 @ a1 - (a2 @ w1 - w1 @ a2))


def integrate(f):
    """Midpoint-rule integral over the chart; disk charts sum mask points only.

    ScalarField: returns sum(f) * hx * hy.  Degree-2 LieForm: integrates the
    stored coefficient entrywise against dx dy (the caller accounts for the
    dz^dzbar = -2i dx dy factor where needed).
    """
    if isinstance(f, ScalarField):
        ch, data = f.chart, f.data
    elif isinstance(f, LieForm):
        if f.degree != 2:
            raise DomainMismatchError("integrate expects a scalar or degree-2 form")
        ch, data = f.chart, f.d0
    else:
        raise TypeError("integrate expects ScalarField or LieForm")
    m = ch.mask()
    if data.ndim > 2:
        sel = data[m]
        return sel.sum(axis=0) * ch.hx * ch.hy
    return data[m].sum() * ch.hx * ch.hy


# ---------------------------------------------------------------------------
# field constructors


def bump_field(chart: Chart, center=(0.0, 0.0), radius: float = 0.25, amplitude=1.0) -> ScalarField:
    """C^2 compactly supported bump amplitude*(1 - r^2)^3 on r < 1."""
    x, y = chart.xy()
    r2 = ((x - center[0]) ** 2 + (y - center[1]) ** 2) / radius**2
    prof = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 3, 0.0)
    return ScalarField(chart, amplitude * prof.astype(complex))


def random_smooth_scalar(chart: Chart, rng, amplitude: float = 1.0) -> ScalarField:
    """Smooth random field: degree-2 trig polynomial (periodic) or bump-carried polynomial (disk)."""
    x, y = chart.xy()
    out = np.zeros_like(x, dtype=complex)
    if chart.periodic:
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + kx * kx + ky * ky)
                out += c * np.exp(2j * np.pi * (kx * x / chart.lx + ky * y / chart.ly))
    else:
        r = chart.radius
        for px in range(3):
            for py in range(3):
                c = rng.standard_normal() + 1j * rng.standard_normal()
                out += c * (x / r) ** px * (y / r) ** py
        out = out * bump_field(chart, radius=0.75 * r).data
    scale = np.abs(out).max()
    if scale > 0:
        out *= amplitude / scale
    return ScalarField(chart, out)


# ---------------------------------------------------------------------------
# CSV I/O: ScalarField rows are i,j,re,im; LieForm rows are
# i,j,row,col,comp,re,im with comp in {0} for degree 0/2 and {dz,dzb} for
# degree 1.  Floats are printed "%.17g" (17 significant digits) and every line
# ends in "\r\n", as the csv module writes them; the readers build each value as
# complex(re, im), so a written grid reads back bitwise, signed zeros and
# infinities included.


def _write_rows(fh, grid, row_fmt):
    """One row per entry of ``grid`` in C order: its indices, then its real and
    imaginary parts, formatted by ``row_fmt``.  Each slab of one first index is
    formatted in one pass, so the text held in memory stays one slab long."""
    rest = np.indices(grid.shape[1:]).reshape(grid.ndim - 1, -1).tolist()
    for i, slab in enumerate(grid):
        rows = zip(repeat(i), *rest, slab.real.ravel().tolist(), slab.imag.ravel().tolist())
        fh.write("".join(map(row_fmt.__mod__, rows)))


def save_scalar_csv(path, f: ScalarField):
    with open(path, "w", newline="") as fh:
        fh.write("i,j,re,im\r\n")
        _write_rows(fh, f.data, "%d,%d,%.17g,%.17g\r\n")


def _index_text(shape):
    """Per axis, each valid index keyed by its decimal text, so that one dict
    lookup both parses and range-checks an index field."""
    return [{str(k): k for k in range(size)} for size in shape]


def _parse_index(path, line, row, fields, shape):
    """The index of a row whose index fields are not all in-range decimal
    text: parsed by ``int``, or a ValueError naming path and line."""
    try:
        idx = tuple(int(f) for f in fields)
    except ValueError as exc:
        raise ValueError(f"{path}, line {line}: malformed row {row} ({exc})") from exc
    if not all(0 <= k < size for k, size in zip(idx, shape)):
        raise ValueError(f"{path}, line {line}: index {idx} outside the {' x '.join(map(str, shape))} grid")
    return idx


def load_scalar_csv(path, chart: Chart) -> ScalarField:
    """Read a scalar field; a bad header, a malformed row or an index outside
    the grid (negative ones included) is a ValueError naming path and line."""
    shape = (chart.nx, chart.ny)
    rows, cols = _index_text(shape)
    data = np.zeros(shape, dtype=complex)
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if header[:4] != ["i", "j", "re", "im"]:
            raise ValueError(f"{path}, line 1: bad scalar field header {header}")
        for row in r:
            try:
                i, j, v = row[0], row[1], complex(float(row[2]), float(row[3]))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}, line {r.line_num}: malformed row {row} ({exc})") from exc
            try:
                idx = rows[i], cols[j]
            except KeyError:
                idx = _parse_index(path, r.line_num, row, (i, j), shape)
            data[idx] = v
    return ScalarField(chart, data)


def _write_matrix_rows(fh, grid, comp):
    _write_rows(fh, grid, f"%d,%d,%d,%d,{comp},%.17g,%.17g\r\n")


def save_lieform_csv(path, form: LieForm):
    with open(path, "w", newline="") as fh:
        fh.write(_MATRIX_HEADER)
        if form.degree == 1:
            _write_matrix_rows(fh, form.d1, "dz")
            _write_matrix_rows(fh, form.d2, "dzb")
        else:
            _write_matrix_rows(fh, form.d0, "0")


def load_lieform_csv(path, chart: Chart, degree: int, n: int) -> LieForm:
    """Read a Lie-valued form; a bad header, a malformed row, an index outside
    the grid or the matrix (negative ones included), a component label the
    degree does not have, or a missing component is a ValueError naming the
    path (and the line)."""
    comps = ("dz", "dzb") if degree == 1 else ("0",)
    shape = (chart.nx, chart.ny, n, n)
    rows, cols, entries = _index_text(shape[:3])
    grids = {}
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if header[:7] != ["i", "j", "row", "col", "comp", "re", "im"]:
            raise ValueError(f"{path}, line 1: bad field header {header}")
        for row in r:
            try:
                i, j, a, b, comp, re, im = row
                v = complex(float(re), float(im))
            except ValueError as exc:
                raise ValueError(f"{path}, line {r.line_num}: malformed row {row} ({exc})") from exc
            try:
                idx = rows[i], cols[j], entries[a], entries[b]
            except KeyError:
                idx = _parse_index(path, r.line_num, row, (i, j, a, b), shape)
            g = grids.get(comp)
            if g is None:
                if comp not in comps:
                    raise ValueError(
                        f"{path}, line {r.line_num}: component {comp!r} is not one of {comps} of a degree-{degree} form"
                    )
                g = grids[comp] = np.zeros(shape, dtype=complex)
            g[idx] = v
    missing = [c for c in comps if c not in grids]
    if missing:
        raise ValueError(f"{path}: no rows of component {missing[0]!r} of a degree-{degree} form")
    if degree == 1:
        return LieForm(chart, 1, d1=grids["dz"], d2=grids["dzb"])
    return LieForm(chart, degree, d0=grids["0"])


def save_matrix_field_csv(path, chart: Chart, grid):
    """Per-point matrix field (e.g. a hermitian structure) in the degree-0 layout."""
    with open(path, "w", newline="") as fh:
        fh.write(_MATRIX_HEADER)
        _write_matrix_rows(fh, grid, "0")


def load_matrix_field_csv(path, chart: Chart, n: int):
    form = load_lieform_csv(path, chart, 0, n)
    return form.d0
