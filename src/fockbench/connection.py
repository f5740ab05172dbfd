"""Hermitian adjoints, the canonical compatible connection, curvature, covectors.

``HermitianField.adjoint`` is the one h-adjoint x -> h^-1 x^+ h.  The identity
structure of ``identity_hermitian`` is its own type, whose adjoint is the
dagger, with no inverse and no per-point stack of adjoints.

Both filling-in solvers work per grid point (data parallel, deterministic)
and build and solve their pointwise systems one block of grid points at a
time, so those systems hold one block's memory, not the grid's:

* ``fill_in(Phi, h)`` parametrizes the exactly-unitary, exactly
  sigma-invariant affine family through the Chern-like base point
  (h^-1 d h, 0) and least-squares the Phi-compatibility over it.  At a
  metric/field pair that is compatible in the continuum this reproduces the
  discrete Chern connection exactly, because the base point already
  annihilates the residual and the family direction is pinned by uniqueness.
* ``inject_covector`` keeps exact unitarity, drops sigma-invariance, and pins
  the covector traces as linear constraints (KKT system per point).

Compatibility of finite-difference fields holds only up to the O(h^2)
discretization floor; ``connection_report`` measures the residuals of a
solved connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fiber
from .chart import Chart, CovectorField, LieForm, covariant_d, dz_array, dzbar_array, exterior_d, wedge_bracket
from .errors import DomainMismatchError, TransversalityError

__all__ = [
    "HermitianField",
    "hermitian_structure",
    "identity_hermitian",
    "hermitian_adjoint_field",
    "fill_in",
    "connection_report",
    "curvature_total",
    "covector_extract",
    "inject_covector",
    "sigma_defect",
    "unitarity_defect",
    "frobenius_sup",
    "sup_norm",
]


def frobenius_sup(t) -> float:
    """Largest Frobenius norm over a stack of matrices (..., n, n); NaN if any norm is NaN."""
    return float(np.sqrt(np.sum(np.abs(t) ** 2, axis=(-2, -1))).max())


def sup_norm(form: LieForm, mask=None) -> float:
    """Largest pointwise Frobenius norm over the chart mask; NaN if any norm is NaN."""
    if mask is None:
        mask = form.chart.mask()
    return float(np.max([frobenius_sup(a[mask]) for a in (form.d0, form.d1, form.d2) if a is not None]))


@dataclass
class HermitianField:
    """Per-point positive hermitian matrix with unit determinant."""

    chart: Chart
    data: np.ndarray  # (nx, ny, n, n)

    @property
    def n(self):
        return self.data.shape[-1]

    def derived(self, key, build):
        """``build()``, an array or a tuple of arrays that depends on h alone,
        computed once per field and ``key`` and shared read-only (``data`` is
        never rebound)."""
        cache = self.__dict__.setdefault("_derived", {})
        if key not in cache:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
            cache[key] = value
        return cache[key]

    def inv(self):
        """h^-1, once per field."""
        return self.derived("inv", lambda: np.linalg.inv(self.data))

    def _at(self, a, points, ndim):
        """The grid ``a`` (nx, ny, n, n), or its flat grid ``points``, shaped to broadcast over ``ndim`` axes."""
        a = a if points is None else a.reshape(-1, self.n, self.n)[points]
        return a.reshape(a.shape[:-2] + (1,) * (ndim - a.ndim) + a.shape[-2:])

    def adjoint(self, x, points=None):
        """h^-1 x^+ h for a grid x (nx, ny, ..., n, n), or a stack (P, ..., n, n) at a slice ``points``
        of P flat grid points; a leading axis of length 1 broadcasts, as in a constant basis (1, K, n, n)."""
        return self._at(self.inv(), points, x.ndim) @ fiber.dagger(x) @ self._at(self.data, points, x.ndim)

    def sigma_adjoints(self):
        """The h-adjoints of the ``sigma_plus_basis`` directions, (nx * ny, m, n, n),
        once per field: the admissible space and every ``fill_in`` read them.
        The identity's are the dagger of the basis, broadcast, not a stack."""
        return self.derived(
            "sigma_adjoints", lambda: self.adjoint(np.stack(fiber.sigma_plus_basis(self.n))[None], slice(None))
        )


class _IdentityField(HermitianField):
    """The identity structure, made only by ``identity_hermitian``: h^-1 is h, the h-adjoint the dagger."""

    def inv(self):
        return self.data

    def adjoint(self, x, points=None):
        return np.broadcast_to(fiber.dagger(x), np.broadcast_shapes(x.shape, self._at(self.data, points, x.ndim).shape))


def hermitian_structure(chart: Chart, data: np.ndarray) -> HermitianField:
    """Wrap a matrix grid as a hermitian structure, dividing by det^{1/n}.  A
    non-finite entry, |h - h^+| above 1e-12 of max |h|, or a determinant that
    is zero or not finite (an underflow or overflow included) is a
    DomainMismatchError naming the first (for |h - h^+|, the worst) flat grid
    point."""
    h = np.asarray(data, dtype=complex)
    finite = np.isfinite(h).all(axis=(-2, -1)).ravel()
    if not finite.all():
        raise DomainMismatchError(f"hermitian structure has a non-finite entry at flat grid point {np.argmin(finite)}")
    defect = np.abs(h - fiber.dagger(h)).max(axis=(-2, -1)).ravel()
    if defect.max() > 1e-12 * np.abs(h).max():
        worst = int(np.argmax(defect))
        raise DomainMismatchError(
            f"hermitian structure is not hermitian: |h - h^+| = {defect[worst]:.3e} at flat grid point {worst}"
        )
    with np.errstate(all="ignore"):
        det = np.linalg.det(h)
    singular = ((det == 0) | ~np.isfinite(det)).ravel()
    if singular.any():
        first = int(np.argmax(singular))
        raise DomainMismatchError(
            f"hermitian structure has a zero or non-finite determinant ({det.flat[first]}) at flat grid point {first}"
        )
    h = h / det[..., None, None] ** (1.0 / h.shape[-1])
    if np.linalg.eigvalsh(h).min() <= 0:
        raise DomainMismatchError("hermitian structure must be positive definite")
    return HermitianField(chart, h)


def identity_hermitian(chart: Chart, n: int) -> HermitianField:
    """The identity hermitian structure on every grid point."""
    return _IdentityField(chart, np.broadcast_to(np.eye(n, dtype=complex), (chart.nx, chart.ny, n, n)).copy())


def hermitian_adjoint_field(phi: LieForm, h: HermitianField) -> LieForm:
    """Phi* : the adjoint exchanges dz and dzbar components."""
    if phi.degree != 1:
        raise DomainMismatchError("hermitian adjoint expects a degree-1 field")
    return LieForm(phi.chart, 1, d1=h.adjoint(phi.d2), d2=h.adjoint(phi.d1))


def sigma_defect(a_form: LieForm) -> float:
    """sup over the chart mask of |sigma(A) - A|, componentwise; NaN if any entry is NaN."""
    m = a_form.chart.mask()
    d1 = np.abs((fiber.sigma(a_form.d1) - a_form.d1)[m]).max()
    d2 = np.abs((fiber.sigma(a_form.d2) - a_form.d2)[m]).max()
    return float(np.max([d1, d2]))


def unitarity_defect(a_form: LieForm, h: HermitianField) -> float:
    """sup |d_A h| : dh - h A - A^+ h componentwise."""
    hh = h.data
    ch = a_form.chart
    dh_z = dz_array(ch, hh, ch.stencil)
    dh_zb = dzbar_array(ch, hh, ch.stencil)
    r1 = dh_z - hh @ a_form.d1 - fiber.dagger(a_form.d2) @ hh
    r2 = dh_zb - hh @ a_form.d2 - fiber.dagger(a_form.d1) @ hh
    m = ch.mask()
    return float(max(np.abs(r1[m]).max(), np.abs(r2[m]).max()))


# ---------------------------------------------------------------------------
# batched least-squares helpers

# grid points per block of the unitary pointwise systems: fill_in and
# inject_covector hold one block's columns, Gram and KKT matrices at a time
_BLOCK = 256


def _realify_rows(m):
    """(..., rows, cols) complex -> (..., 2 rows, cols) real."""
    return np.concatenate([m.real, m.imag], axis=-2)


def _solve_batched(mats, rhs, context, first=0):
    """Least squares per point for stacked systems (N, rows, cols), by the
    normal equations.  A point is singular when its Gram G has a zero column
    or its Jacobi-equilibrated Gram D^-1/2 G D^-1/2 (D = diag G) is, whatever
    the scale of the columns; the error names it by its flat grid index, the
    stack starting at grid point ``first``."""
    g = np.swapaxes(mats, -1, -2).conj() @ mats
    b = (np.swapaxes(mats, -1, -2).conj() @ rhs[..., None])[..., 0]
    d = np.diagonal(g, axis1=-2, axis2=-1).real
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    w = np.linalg.eigvalsh(g * s[:, :, None] * s[:, None, :])
    bad = (d <= 0).any(axis=-1) | (w[:, 0] < 1e-13 * np.maximum(w[:, -1], 1e-300))
    if bad.any():
        raise TransversalityError(
            f"{context}: singular pointwise system", point=first + int(np.argmax(bad))
        )
    return np.linalg.solve(g, b[..., None])[..., 0]


def fill_in(phi: LieForm, h: HermitianField) -> LieForm:
    """Canonical compatible connection A of the Fock field ``phi`` and the
    hermitian structure ``h``: least squares of d_A phi = 0 over the
    exactly-unitary sigma-invariant family through the Chern-like base point
    (h^-1 dh, 0), so that A is also compatible, to the discretization floor,
    with psi, the h-adjoint of ``phi``.  The pointwise least squares are
    solved by the normal equations.  Its diagnostics are ``connection_report``.
    """
    if phi.degree != 1:
        raise DomainMismatchError("fill_in expects degree-1 fields")
    # every Newton-map evaluation calls fill_in with the same h, so the
    # adjoints of its directions are kept on the field
    a1, a2 = _unitary_blocks(
        phi,
        h,
        np.stack(fiber.sigma_plus_basis(phi.n)),
        lambda blk: h.sigma_adjoints()[blk],
        lambda blk, mats, y: _solve_batched(mats, y, "fill_in(unitary)", blk.start),
    )
    return LieForm(phi.chart, 1, d1=a1, d2=a2)


def connection_report(phi: LieForm, a: LieForm, h: HermitianField) -> dict:
    """Diagnostics of a connection A from ``fill_in`` or ``inject_covector``,
    given the hermitian structure ``h`` it was solved with: the compatibility
    residuals with phi and with psi, the h-adjoint of phi, the sigma defect,
    the unitarity defect, warnings, and the flags ``sigma_invariant`` and
    ``unitary``.  Residuals and defects are sups over the chart mask, on the
    stencil of the chart all of them share."""
    if any(f.chart != phi.chart for f in (a, h)):
        raise DomainMismatchError("connection_report needs phi, A and h on one chart")
    ch, a1 = phi.chart, a.d1
    mask = ch.mask()
    r_phi = covariant_d(a, phi).d0
    r_psi = covariant_d(a, hermitian_adjoint_field(phi, h)).d0
    rep = {}
    rep["compat_residual_phi"] = float(np.abs(r_phi[mask]).max())
    rep["compat_residual_psi"] = float(np.abs(r_psi[mask]).max())
    rep["sigma_defect"] = sigma_defect(a)
    sig_ok = rep["sigma_defect"] < 1e-9 * max(1.0, float(np.abs(a1[mask]).max()))
    rep["unitarity_defect"] = unitarity_defect(a, h)
    uni_ok = rep["unitarity_defect"] < 1e-8 * max(1.0, float(np.abs(h.data).max()))
    floor = ch.hx * ch.hx * 10.0
    rep["warnings"] = []
    scale = max(1.0, sup_norm(phi))
    if not rep["compat_residual_phi"] <= max(floor * scale * 100.0, 1e-6):  # NaN warns
        rep["warnings"].append(
            f"phi-compatibility residual {rep['compat_residual_phi']:.3e} above the h^2 floor"
        )
    rep["sigma_invariant"], rep["unitary"] = sig_ok, uni_ok
    return rep


def _unitary_base(h):
    """The Chern-like base point (h^-1 dh, 0), once per field."""
    a0_1 = h.derived("chern", lambda: h.inv() @ dz_array(h.chart, h.data, h.chart.stencil))
    return a0_1, np.zeros_like(a0_1)


def _unitary_cols(p1, p2, basis, adjoints):
    """Real-linear columns of the phi-compat residual over the unitary family
    at a stack of points with fields p1, p2 (P, n, n), C-ordered (P, n^2, 2K):
    for each direction s of ``basis`` (K, n, n) with h-adjoint s* in
    ``adjoints`` (P, K, n, n), the real direction [s, phi2] + [s*, phi1] and
    then the imaginary one i([s, phi2] - [s*, phi1])."""
    npt, n, k = p1.shape[0], p1.shape[-1], basis.shape[0]
    br1 = fiber.ad_columns(p2, -basis)  # [s, p2] = [p2, -s]
    # [s*, p1] = sum_u (s*)_u [E_u, p1]: ad_p1 against minus the elementary basis, times vec s*
    minus_elem = -np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    br2 = fiber.ad_columns(p1, minus_elem) @ adjoints.reshape(npt, k, n * n).swapaxes(1, 2)
    cols = np.empty((npt, n * n, k, 2), dtype=complex)
    np.add(br1, br2, out=cols[..., 0])
    np.subtract(br1, br2, out=cols[..., 1])
    cols[..., 1] *= 1j
    return cols.reshape(npt, n * n, 2 * k)


def _unitary_blocks(phi, h, basis, adjoints, solve):
    """The member (A0_1 + V, A0_2 - V*) of the unitary family through the
    Chern-like base point, V = sum (c_re + i c_im) s over the directions s of
    ``basis``, whose coefficients c ``solve`` picks from the phi-compat least
    squares.  The base point and its residual are stencil work, done once over
    the grid; the pointwise systems are built and solved one block of
    ``_BLOCK`` grid points at a time, so their memory is one block's.  For a
    block of flat grid points ``blk``, ``adjoints(blk)`` gives the h-adjoints
    of ``basis`` there and ``solve(blk, mats, y)`` the coefficients from the
    realified columns mats (points, 2n^2, 2K) and right-hand side y."""
    if h.chart != phi.chart:
        raise DomainMismatchError("h and phi live on different charts, so on different stencils or grids")
    ch, n = phi.chart, phi.n
    npt = ch.nx * ch.ny
    a0_1, a0_2 = _unitary_base(h)
    r0 = covariant_d(LieForm(ch, 1, d1=a0_1, d2=a0_2), phi).d0.reshape(npt, -1)
    p1, p2 = (f.reshape(npt, n, n) for f in (phi.d1, phi.d2))
    a1, a2 = a0_1.reshape(npt, n, n).copy(), a0_2.reshape(npt, n, n).copy()
    for start in range(0, npt, _BLOCK):
        blk = slice(start, start + _BLOCK)
        mats = _realify_rows(_unitary_cols(p1[blk], p2[blk], basis, adjoints(blk)))
        y = _realify_rows((-r0[blk])[..., None])[..., 0]
        coef = solve(blk, mats, y)
        v1 = np.einsum("pa,aij->pij", coef[:, 0::2] + 1j * coef[:, 1::2], basis)
        a1[blk] += v1
        a2[blk] -= h.adjoint(v1, blk)
    return a1.reshape(ch.nx, ch.ny, n, n), a2.reshape(ch.nx, ch.ny, n, n)


def curvature_total(a_form: LieForm, phi: LieForm, psi: LieForm) -> LieForm:
    """F(A) + [Phi ^ Psi] as a dz^dzbar coefficient field."""
    ch = a_form.chart
    da = exterior_d(a_form).d0
    comm = fiber.commutator(a_form.d1, a_form.d2)
    ff = wedge_bracket(phi, psi).d0
    return LieForm(ch, 2, d0=da + comm + ff)


def covector_extract(a_form: LieForm, phi: LieForm) -> CovectorField:
    """t_k = tr(phi1^{k-1} Aminus_dz) for k = 2..n."""
    n = phi.n
    aminus1 = fiber.sigma_split(a_form.d1)[1]
    comps = {}
    for k, pw in zip(range(2, n + 1), fiber.powers(phi.d1, n - 1)):
        comps[k] = np.einsum("xyij,xyji->xy", pw, aminus1)
    return CovectorField(phi.chart, n, comps)


def inject_covector(phi: LieForm, h: HermitianField, t: CovectorField) -> LieForm:
    """Unitary Phi-compatible connection A whose extracted covector equals t.

    Per grid point: least squares of the Phi-compatibility over the exactly
    unitary affine family (full sl_n direction space), subject to the linear
    covector constraints, solved as a KKT system.  t = 0 returns the
    generalized base point, whose sigma-odd part pairs to zero against the
    centralizer directions.  Its diagnostics are ``connection_report`` with
    ``h``, as for ``fill_in``.
    """
    n = phi.n
    npt = phi.chart.nx * phi.chart.ny
    basis = np.stack(fiber.sl_basis(n))
    # covector constraints: tr(phi1^{k-1} (A0 + V)^{-sigma}_dz) = t_k
    powers = [p.reshape(npt, n, n) for p in fiber.powers(phi.d1, n - 1)]
    targets = [t.comp(k).reshape(npt) for k in range(2, n + 1)]
    odd = [fiber.sigma_split(s)[1] for s in basis]

    def solve(blk, mats, y):
        a0m = fiber.sigma_split(_unitary_base(h)[0].reshape(npt, n, n)[blk])[1]
        crows, cvals = [], []
        for pw, tk in zip(powers, targets):
            pw = pw[blk]
            base = np.einsum("pij,pji->p", pw, a0m)
            cus = [np.einsum("pij,ji->p", pw, s) for s in odd]
            row = np.stack([c for cu in cus for c in (cu, 1j * cu)], axis=-1)  # (points, 2d) complex
            crows.extend([row.real, row.imag])
            rhsk = tk[blk] - base
            cvals.extend([rhsk.real, rhsk.imag])
        cmat = np.stack(crows, axis=-2)  # (points, 2(n-1), 2d)
        d2, ncon, pts = mats.shape[-1], cmat.shape[-2], mats.shape[0]
        kkt = np.zeros((pts, d2 + ncon, d2 + ncon))
        kkt[:, :d2, :d2] = 2.0 * (np.swapaxes(mats, -1, -2) @ mats)
        kkt[:, :d2, d2:] = np.swapaxes(cmat, -1, -2)
        kkt[:, d2:, :d2] = cmat
        rhs = np.zeros((pts, d2 + ncon))
        rhs[:, :d2] = 2.0 * (np.swapaxes(mats, -1, -2) @ y[..., None])[..., 0]
        rhs[:, d2:] = np.stack(cvals, axis=-1)
        try:
            return np.linalg.solve(kkt, rhs[..., None])[:, :d2, 0]
        except np.linalg.LinAlgError as exc:
            # LU finds an exact zero pivot, as solve did, where the sign of the determinant is 0
            point = blk.start + int(np.argmax(np.linalg.slogdet(kkt)[0] == 0))
            raise TransversalityError(
                f"inject_covector: singular KKT system at grid point {point} ({exc})", point=point
            ) from exc

    a1, a2 = _unitary_blocks(phi, h, basis, lambda blk: h.adjoint(basis[None], blk), solve)
    return LieForm(phi.chart, 1, d1=a1, d2=a2)
