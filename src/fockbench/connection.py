"""Hermitian adjoints, the canonical compatible connection, curvature, covectors.

The filling-in solvers work per grid point (data parallel, deterministic):

* ``fill_in(Phi, Psi)`` looks for the sigma-invariant connection killing both
  fields, as a joint least-squares over sigma-invariant component pairs.
* ``fill_in(Phi, h=...)`` parametrizes the exactly-unitary, exactly
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
    "sup_norm",
]


def sup_norm(form: LieForm, mask=None) -> float:
    """Largest pointwise Frobenius norm over the chart mask."""
    if mask is None:
        mask = form.chart.mask()
    arrs = [a for a in (form.d0, form.d1, form.d2) if a is not None]
    out = 0.0
    for a in arrs:
        nrm = np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
        out = max(out, float(nrm[mask].max()))
    return out


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

    def sigma_adjoints(self):
        """The h-adjoints of the ``sigma_plus_basis`` directions, (nx * ny, m, n, n),
        once per field: the admissible space and every unitary ``fill_in`` read them."""
        return self.derived("sigma_adjoints", lambda: _h_adjoints(self, fiber.sigma_plus_basis(self.n)))


def hermitian_structure(chart: Chart, data: np.ndarray, normalize: bool = True) -> HermitianField:
    """Wrap a matrix grid as a hermitian structure, dividing by det^{1/n}."""
    h = np.asarray(data, dtype=complex)
    if normalize:
        det = np.linalg.det(h)
        n = h.shape[-1]
        h = h / det[..., None, None] ** (1.0 / n)
    if np.linalg.eigvalsh(h).min() <= 0:
        raise DomainMismatchError("hermitian structure must be positive definite")
    return HermitianField(chart, h)


def identity_hermitian(chart: Chart, n: int) -> HermitianField:
    """The identity hermitian structure on every grid point."""
    eye = np.broadcast_to(np.eye(n), (chart.nx, chart.ny, n, n)).copy()
    return hermitian_structure(chart, eye, normalize=False)


def hermitian_adjoint_field(phi: LieForm, h: HermitianField) -> LieForm:
    """Phi* : the adjoint exchanges dz and dzbar components."""
    if phi.degree != 1:
        raise DomainMismatchError("hermitian adjoint expects a degree-1 field")
    hh, hinv = h.data, h.inv()
    return LieForm(phi.chart, 1, d1=fiber.h_adjoint(phi.d2, hh, hinv), d2=fiber.h_adjoint(phi.d1, hh, hinv))


def sigma_defect(a_form: LieForm) -> float:
    """sup over the chart mask of |sigma(A) - A|, componentwise."""
    m = a_form.chart.mask()
    d1 = np.abs((fiber.sigma(a_form.d1) - a_form.d1)[m]).max()
    d2 = np.abs((fiber.sigma(a_form.d2) - a_form.d2)[m]).max()
    return float(max(d1, d2))


def unitarity_defect(a_form: LieForm, h: HermitianField, boundary: str = "auto") -> float:
    """sup |d_A h| : dh - h A - A^+ h componentwise."""
    hh = h.data
    ch = a_form.chart
    dh_z = dz_array(ch, hh, boundary)
    dh_zb = dzbar_array(ch, hh, boundary)
    r1 = dh_z - hh @ a_form.d1 - fiber.dagger(a_form.d2) @ hh
    r2 = dh_zb - hh @ a_form.d2 - fiber.dagger(a_form.d1) @ hh
    m = ch.mask()
    return float(max(np.abs(r1[m]).max(), np.abs(r2[m]).max()))


# ---------------------------------------------------------------------------
# batched least-squares helpers


def _realify_rows(m):
    """(..., rows, cols) complex -> (..., 2 rows, cols) real."""
    return np.concatenate([m.real, m.imag], axis=-2)


def _sigma_cols(phi: LieForm, basis):
    """Columns [s, phi2] for each basis element s, then -[s, phi1]; shape (N, n^2, 2m)."""
    npt = phi.chart.nx * phi.chart.ny
    p1 = phi.d1.reshape(npt, *phi.d1.shape[-2:])
    p2 = phi.d2.reshape(npt, *phi.d2.shape[-2:])
    return np.concatenate([-fiber.ad_columns(p2, basis), fiber.ad_columns(p1, basis)], axis=-1)


def _solve_batched(mats, rhs, method, context):
    """Least squares per point for stacked systems (N, rows, cols)."""
    if method == "normal":
        g = np.swapaxes(mats, -1, -2).conj() @ mats
        b = (np.swapaxes(mats, -1, -2).conj() @ rhs[..., None])[..., 0]
        w = np.linalg.eigvalsh(g)
        bad = w[:, 0] < 1e-13 * np.maximum(w[:, -1], 1e-300)
        if bad.any():
            raise TransversalityError(
                f"{context}: singular pointwise system", point=int(np.argmax(bad))
            )
        return np.linalg.solve(g, b[..., None])[..., 0]
    sol = np.linalg.pinv(mats, rcond=1e-12) @ rhs[..., None]
    return sol[..., 0]


def fill_in(
    phi: LieForm,
    psi: LieForm | None = None,
    h: HermitianField | None = None,
    boundary: str = "auto",
    method: str = "normal",
) -> LieForm:
    """Canonical compatible connection A for a transverse pair.

    Without ``h``: joint least squares of d_A phi = d_A psi = 0 over exactly
    sigma-invariant component pairs.  With ``h``: least squares of
    d_A phi = 0 over the exactly-unitary sigma-invariant family through the
    Chern-like base point; ``psi`` defaults to the h-adjoint of ``phi``.
    Its diagnostics are ``connection_report``.
    """
    if phi.degree != 1:
        raise DomainMismatchError("fill_in expects degree-1 fields")
    if h is not None:
        a1, a2 = _fill_in_unitary(phi, h, boundary, method)
    else:
        if psi is None:
            raise ValueError("fill_in needs either psi or h")
        a1, a2 = _fill_in_sigma(phi, psi, boundary, method)
    return LieForm(phi.chart, 1, d1=a1, d2=a2)


def connection_report(
    phi: LieForm, a: LieForm, psi: LieForm | None = None, h: HermitianField | None = None, boundary: str = "auto"
) -> dict:
    """Diagnostics of a connection A from ``fill_in`` or ``inject_covector``,
    given the arguments it was solved from: the compatibility residuals with
    phi and psi (the h-adjoint of phi when ``h`` is given), the sigma defect,
    the unitarity defect (with ``h``), warnings, and the flags
    ``sigma_invariant`` and ``unitary``.  Residuals and defects are sups over
    the chart mask."""
    ch, a1 = phi.chart, a.d1
    psi_eff = psi if h is None else hermitian_adjoint_field(phi, h)
    mask = ch.mask()
    r_phi = covariant_d(a, phi, boundary).d0
    r_psi = covariant_d(a, psi_eff, boundary).d0
    rep = {}
    rep["compat_residual_phi"] = float(np.abs(r_phi[mask]).max())
    rep["compat_residual_psi"] = float(np.abs(r_psi[mask]).max())
    rep["sigma_defect"] = sigma_defect(a)
    sig_ok = rep["sigma_defect"] < 1e-9 * max(1.0, float(np.abs(a1[mask]).max()))
    uni_ok = False
    if h is not None:
        rep["unitarity_defect"] = unitarity_defect(a, h, boundary)
        uni_ok = rep["unitarity_defect"] < 1e-8 * max(1.0, float(np.abs(h.data).max()))
    floor = ch.hx * ch.hx * 10.0
    rep["warnings"] = []
    scale = max(1.0, sup_norm(phi))
    if rep["compat_residual_phi"] > max(floor * scale * 100.0, 1e-6):
        rep["warnings"].append(
            f"phi-compatibility residual {rep['compat_residual_phi']:.3e} above the h^2 floor"
        )
    rep["sigma_invariant"], rep["unitary"] = sig_ok, uni_ok
    return rep


def _fill_in_sigma(phi, psi, boundary, method):
    n = phi.n
    ch = phi.chart
    npt = ch.nx * ch.ny
    basis = fiber.sigma_plus_basis(n)
    m = len(basis)
    # rows: phi-equation then psi-equation; cols: alpha (A1) then beta (A2)
    mats = np.concatenate([_sigma_cols(phi, basis), _sigma_cols(psi, basis)], axis=-2)
    y = -np.concatenate(
        [
            exterior_d(phi, boundary).d0.reshape(npt, -1),
            exterior_d(psi, boundary).d0.reshape(npt, -1),
        ],
        axis=-1,
    )
    coef = _solve_batched(mats, y, method, "fill_in")
    bstack = np.stack(basis)  # (m, n, n)
    a1 = np.einsum("pa,aij->pij", coef[:, :m], bstack).reshape(ch.nx, ch.ny, n, n)
    a2 = np.einsum("pa,aij->pij", coef[:, m:], bstack).reshape(ch.nx, ch.ny, n, n)
    return a1, a2


def _unitary_base(h, boundary):
    """The Chern-like base point (h^-1 dh, 0), once per field and boundary."""
    a0_1 = h.derived(("chern", boundary), lambda: h.inv() @ dz_array(h.chart, h.data, boundary))
    return a0_1, np.zeros_like(a0_1)


def _h_adjoints(h, basis):
    """The h-adjoints of the constant directions in ``basis``, (nx * ny, K, n, n)."""
    npt = h.chart.nx * h.chart.ny
    hh, hinv = h.data.reshape(npt, h.n, h.n), h.inv().reshape(npt, h.n, h.n)
    return fiber.h_adjoint(np.stack(basis), hh[:, None], hinv[:, None])


def _unitary_cols(phi, basis, adjoints):
    """Real-linear columns of the phi-compat residual over the unitary family,
    C-ordered (npt, n^2, 2K): for each direction s of ``basis`` with h-adjoint
    s*, the real direction [s, phi2] + [s*, phi1] and then the imaginary one
    i([s, phi2] - [s*, phi1]).  ``adjoints()`` returns the s* (npt, K, n, n);
    it is called here so that a fresh stack is freed once its brackets exist."""
    ch, n, k = phi.chart, phi.n, len(basis)
    npt = ch.nx * ch.ny
    br1 = fiber.commutator(np.stack(basis), phi.d2.reshape(npt, 1, n, n)).reshape(npt, k, n * n).swapaxes(1, 2)
    br2 = fiber.commutator(adjoints(), phi.d1.reshape(npt, 1, n, n)).reshape(npt, k, n * n).swapaxes(1, 2)
    cols = np.empty((npt, n * n, k, 2), dtype=complex)
    np.add(br1, br2, out=cols[..., 0])
    np.subtract(br1, br2, out=cols[..., 1])
    cols[..., 1] *= 1j
    return cols.reshape(npt, n * n, 2 * k)


def _unitary_system(phi, h, basis, adjoints, boundary):
    """Base point, realified columns and right-hand side of the phi-compat
    least squares over the unitary family through the base point."""
    npt = phi.chart.nx * phi.chart.ny
    a0_1, a0_2 = _unitary_base(h, boundary)
    r0 = covariant_d(LieForm(phi.chart, 1, d1=a0_1, d2=a0_2), phi, boundary).d0.reshape(npt, -1)
    mats = _realify_rows(_unitary_cols(phi, basis, adjoints))  # (npt, 2n^2, 2d)
    y = _realify_rows((-r0)[..., None])[..., 0]
    return a0_1, a0_2, mats, y


def _unitary_member(phi, h, basis, coef, a0_1, a0_2):
    """The family member (A0_1 + V, A0_2 - V*) for V = sum (coef_re + i coef_im) basis."""
    ch, n = phi.chart, phi.n
    npt = ch.nx * ch.ny
    v1 = np.einsum("pa,aij->pij", coef[:, 0::2] + 1j * coef[:, 1::2], np.stack(basis))
    v2 = -fiber.h_adjoint(v1, h.data.reshape(npt, n, n), h.inv().reshape(npt, n, n))
    return a0_1 + v1.reshape(ch.nx, ch.ny, n, n), a0_2 + v2.reshape(ch.nx, ch.ny, n, n)


def _fill_in_unitary(phi, h, boundary, method):
    basis = fiber.sigma_plus_basis(phi.n)
    # every Newton-map evaluation calls fill_in with the same h, so the
    # adjoints of its directions are kept on the field
    a0_1, a0_2, mats, y = _unitary_system(phi, h, basis, h.sigma_adjoints, boundary)
    coef = _solve_batched(mats, y, method, "fill_in(unitary)")
    return _unitary_member(phi, h, basis, coef, a0_1, a0_2)


def curvature_total(a_form: LieForm, phi: LieForm, psi: LieForm, boundary: str = "auto") -> LieForm:
    """F(A) + [Phi ^ Psi] as a dz^dzbar coefficient field."""
    ch = a_form.chart
    da = exterior_d(a_form, boundary).d0
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


def inject_covector(
    phi: LieForm,
    h: HermitianField,
    t: CovectorField,
    boundary: str = "auto",
) -> LieForm:
    """Unitary Phi-compatible connection A whose extracted covector equals t.

    Per grid point: least squares of the Phi-compatibility over the exactly
    unitary affine family (full sl_n direction space), subject to the linear
    covector constraints, solved as a KKT system.  t = 0 returns the
    generalized base point, whose sigma-odd part pairs to zero against the
    centralizer directions.  Its diagnostics are ``connection_report`` with
    ``h``, as for ``fill_in``.
    """
    n = phi.n
    ch = phi.chart
    npt = ch.nx * ch.ny
    basis = fiber.sl_basis(n)
    a0_1, a0_2, mats, y = _unitary_system(phi, h, basis, lambda: _h_adjoints(h, basis), boundary)
    # covector constraints: tr(phi1^{k-1} (A0 + V)^{-sigma}_dz) = t_k
    powers = [p.reshape(npt, n, n) for p in fiber.powers(phi.d1, n - 1)]
    a0m = fiber.sigma_split(a0_1)[1].reshape(npt, n, n)
    crows, cvals = [], []
    for k, pw in zip(range(2, n + 1), powers):
        base = np.einsum("pij,pji->p", pw, a0m)
        tk = t.comp(k).reshape(npt)
        row_cols = []
        for s in basis:
            sm = fiber.sigma_split(s)[1]
            cu = np.einsum("pij,ji->p", pw, sm)
            row_cols.append(cu)
            row_cols.append(1j * cu)
        row = np.stack(row_cols, axis=-1)  # (npt, 2d) complex
        crows.extend([row.real, row.imag])
        rhsk = tk - base
        cvals.extend([rhsk.real, rhsk.imag])
    cmat = np.stack(crows, axis=-2)  # (npt, 2(n-1), 2d)
    cval = np.stack(cvals, axis=-1)  # (npt, 2(n-1))
    d2 = mats.shape[-1]
    ncon = cmat.shape[-2]
    g = np.swapaxes(mats, -1, -2) @ mats
    kkt = np.zeros((npt, d2 + ncon, d2 + ncon))
    kkt[:, :d2, :d2] = 2.0 * g
    kkt[:, :d2, d2:] = np.swapaxes(cmat, -1, -2)
    kkt[:, d2:, :d2] = cmat
    rhs = np.zeros((npt, d2 + ncon))
    rhs[:, :d2] = 2.0 * (np.swapaxes(mats, -1, -2) @ y[..., None])[..., 0]
    rhs[:, d2:] = cval
    try:
        sol = np.linalg.solve(kkt, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise TransversalityError(f"inject_covector: singular KKT system ({exc})") from exc
    a1, a2 = _unitary_member(phi, h, basis, sol[:, :d2], a0_1, a0_2)
    return LieForm(ch, 1, d1=a1, d2=a2)
