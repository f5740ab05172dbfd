"""Fuchsian references, the linearized curvature operator, CG, Newton continuation.

The admissible gauge directions at a point are the sigma-invariant,
h-hermitian traceless matrices; the solver carries a per-point orthonormal
real basis of that space and works in its coordinates.  The linearized
operator in strong form is

    L eta = d_A Q(d_A eta) + [[Phi, eta] ^ Phi*] - [Phi ^ [Phi*, eta]],

with the Galerkin pairing B(eta1, eta2) = -sum Re tr(eta1 * (L eta2)) dx dy,
which is symmetric positive definite on Dirichlet-supported fields (exact
summation by parts plus pointwise bracket identities), so plain CG applies.
CG runs on the Galerkin matrix, assembled once per linearization from the
same stencil, connection, Q, basis and zeroth-order pieces; the strong form
stays the field-level reference.

Newton continuation drives the projected curvature moments to the value they
take at the discrete Fuchsian reference (the O(h^2) discretization floor is
subtracted as a fixed baseline, so mu = 0 converges in zero iterations and
the reported final residual measures the solved system, not the stencil
floor).  The raw curvature sup-norm is reported alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import minimize_scalar

from . import fiber
from .chart import BeltramiField, Chart, LieForm, ScalarField, covariant_d, difference_matrix
from .connection import (
    HermitianField,
    curvature_total,
    fill_in,
    hermitian_adjoint_field,
    hermitian_structure,
    sup_norm,
)
from .errors import DomainMismatchError, NonConvergenceError, PositivityError
from .fockpoint import positivity_margins, q_matrices
from .hcsflow import fock_form

__all__ = [
    "FuchsianData",
    "NewtonConfig",
    "FUCHSIAN_BOUNDARY",
    "fuchsian_reference",
    "AdmissibleSpace",
    "LinearizedContext",
    "linearized_operator",
    "solve_linear",
    "conjugate_field",
    "expm_pair",
    "newton_continuation",
    "positivity_margin_field",
    "energy_identity_sides",
]


# ---------------------------------------------------------------------------
# small batched linear algebra


def expm_pair(x: np.ndarray):
    """(e^x, e^-x) over leading axes via scaling and squaring, from one Taylor
    chain: the k-th term of e^-x is exactly (-1)^k times that of e^x (rounding
    is symmetric under negation), so one chain of 16 products feeds both sums,
    and each sum is squared s times.  e^-x is bitwise the e^x of ``expm_pair(-x)``."""
    x = np.asarray(x, dtype=complex)
    nrm = np.abs(x).sum(axis=-1).max() if x.size else 0.0
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.25))))
    y = x / (2.0**s)
    plus = np.broadcast_to(np.eye(x.shape[-1], dtype=complex), x.shape).copy()
    minus, term = plus.copy(), plus.copy()
    for k in range(1, 17):
        term = term @ y / k
        plus = plus + term
        minus = minus - term if k % 2 else minus + term
    for _ in range(s):
        plus, minus = plus @ plus, minus @ minus
    return plus, minus


def conjugate_field(phi: LieForm, eta: LieForm) -> LieForm:
    """Pointwise e^{-eta} Phi e^{eta} on each component."""
    g, gi = expm_pair(eta.d0)
    if phi.degree == 1:
        return LieForm(phi.chart, 1, d1=gi @ phi.d1 @ g, d2=gi @ phi.d2 @ g)
    return LieForm(phi.chart, phi.degree, d0=gi @ phi.d0 @ g)


def positivity_margin_field(phi: LieForm, h: HermitianField) -> float:
    """Smallest normalized Gram eigenvalue of the pseudo pairing on Im(ad_Phi)
    over all grid points (in [-1, 1]; positive means the field is positive)."""
    m = phi.chart.mask()
    return float(positivity_margins(phi.d1[m], phi.d2[m], h.data[m]).min())


# ---------------------------------------------------------------------------
# Fuchsian reference data


@dataclass
class FuchsianData:
    """The reference fields at c0, the connection A = fill_in(Phi, h) on
    ``FUCHSIAN_BOUNDARY``, and their total curvature F(A) + [Phi ^ Phi*]
    with its sup-norm over the chart interior."""

    chart: Chart
    n: int
    g: ScalarField
    Phi: LieForm
    h: HermitianField
    A: LieForm
    c0: float
    curvature: LieForm
    curvature_sup: float

    def adjoint(self) -> LieForm:
        return hermitian_adjoint_field(self.Phi, self.h)


# The stencil policy the reference connection and curvature are built on; its
# connection's diagnostics must be measured on the same one.
FUCHSIAN_BOUNDARY = "rect"
_GOLDEN = (3.0 - np.sqrt(5.0)) / 2  # where a bounded golden-section search first probes
_AFFINE_RTOL = 1e-9  # allowed gap between the affine c0 model and the full evaluation


def _frobenius_sup(t):
    """Largest Frobenius norm over a stack of matrices."""
    return float(np.sqrt(np.sum(np.abs(t) ** 2, axis=(-2, -1))).max())


def _ladder_constants(n):
    """kappa_{i+1}/kappa_i = i(n-i)/(n-1); trivial (all ones) for n = 2, 3."""
    kap = [1.0]
    for i in range(1, n):
        kap.append(kap[-1] * i * (n - i) / (n - 1))
    return np.array(kap)


def _fuchsian_fields(n, chart, c0):
    z = chart.z()
    g = c0 / (1.0 - np.abs(z) ** 2) ** 2
    kap = _ladder_constants(n)
    exps = np.array([(2 * (i + 1) - 1 - n) / 2 for i in range(n)])
    h = np.zeros((chart.nx, chart.ny, n, n), dtype=complex)
    for i in range(n):
        h[..., i, i] = kap[i] * g ** exps[i]
    hf = hermitian_structure(chart, h)
    return ScalarField(chart, g.astype(complex)), fock_form(chart, BeltramiField(chart, n, {})), hf


def _fuchsian_curvature(n, chart, c0):
    gs, phi, hf = _fuchsian_fields(n, chart, c0)
    conn = fill_in(phi, h=hf, boundary=FUCHSIAN_BOUNDARY)
    psi = hermitian_adjoint_field(phi, hf)
    return curvature_total(conn, phi, psi, boundary=FUCHSIAN_BOUNDARY), gs, phi, hf, conn


def fuchsian_reference(n: int, chart: Chart, c0: float | None = None) -> FuchsianData:
    """Exactly solvable reference on a Dirichlet disk.

    The conformal factor is g = c0 / (1 - |z|^2)^2 with c0 fixed by a 1-D
    search minimizing the discrete curvature residual (the analytic optimum
    is c0 = n - 1; the search avoids baking the convention in).  The metric
    carries the integer ladder constants of the standard triple, which are
    all ones for n = 2, 3.  A periodic chart has no such solution, so it is
    rejected.

    The total curvature is affine in c0: the connection h^-1 dh does not see
    the constant diagonal rescaling of h, and [Phi ^ Phi*] is linear in c0.
    So the search runs on the affine model through two curvature fields,
    taken at c0 = n - 1 and at the search's first golden-section point, and
    the full evaluation at the chosen c0 must reproduce the model's minimum.
    The gap is measured against the size of the [Phi ^ Phi*] term, whose
    cancellation against F(A) leaves the O(h^2) residual: rounding in that
    cancellation grows like 1/h, so relative to the residual itself a correct
    model drifts toward 1e-9 by 128^2.
    """
    if chart.periodic:
        raise DomainMismatchError(
            "no periodic reference solution exists (curvature obstruction); use a disk chart"
        )
    interior = chart.interior()
    predicted = None
    if c0 is None:
        lo, hi = 0.4 * (n - 1), 2.5 * (n - 1)
        c1, c2 = n - 1.0, lo + _GOLDEN * (hi - lo)
        t1 = _fuchsian_curvature(n, chart, c1)[0].d0[interior]
        slope = (_fuchsian_curvature(n, chart, c2)[0].d0[interior] - t1) / (c2 - c1)
        res = minimize_scalar(
            lambda c: _frobenius_sup(t1 + (c - c1) * slope),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-10},
        )
        c0, predicted = float(res.x), float(res.fun)
        scale = c0 * _frobenius_sup(slope)
    curv, gs, phi, hf, conn = _fuchsian_curvature(n, chart, c0)
    resid = sup_norm(curv, mask=interior)
    if predicted is not None and abs(resid - predicted) > _AFFINE_RTOL * scale:
        raise NonConvergenceError(
            f"affine curvature model predicts residual {predicted!r} at c0 = {c0!r}, the full "
            f"evaluation gives {resid!r} (gap {abs(resid - predicted) / scale:.2e} of the "
            f"[Phi ^ Phi*] term, above {_AFFINE_RTOL:.0e})",
            history=[predicted, resid],
        )
    return FuchsianData(chart=chart, n=n, g=gs, Phi=phi, h=hf, A=conn, c0=c0, curvature=curv, curvature_sup=resid)


# ---------------------------------------------------------------------------
# admissible space and the linearized operator


class AdmissibleSpace:
    """Per-point real orthonormal basis of the sigma-invariant h-hermitian
    traceless matrices, with coordinate transport and Dirichlet masking."""

    def __init__(self, chart: Chart, n: int, h: HermitianField):
        self.chart = chart
        self.n = n
        self.dim = n * (n - 1) // 2
        npt = chart.nx * chart.ny
        s_plus = np.stack(fiber.sigma_plus_basis(n))  # (m, n, n)
        m = s_plus.shape[0]
        # real-linear condition h^-1 X^+ h - X = 0 on X = sum (u_a + i v_a) s_a
        s_star = h.sigma_adjoints()  # (npt, m, n, n)
        cond = np.stack([s_star - s_plus, -1j * (s_star + s_plus)], axis=2)  # columns u_0, v_0, u_1, ...
        cond = np.swapaxes(cond.reshape(npt, 2 * m, n * n), -1, -2)  # (npt, n^2, 2m) complex
        cond = np.concatenate([cond.real, cond.imag], axis=-2)
        _, s, vh = np.linalg.svd(cond)
        rank = 2 * m - self.dim
        if rank > 0 and not (s[:, rank - 1] > 1e-8 * np.maximum(s[:, 0], 1e-300)).all():
            raise DomainMismatchError("admissible-space extraction hit a degenerate hermitian structure")
        if not (s[:, rank] < 1e-8 * np.maximum(s[:, 0], 1.0)).all():
            raise DomainMismatchError("admissible space has unexpected dimension")
        null = vh[:, rank:, :]  # (npt, dim, 2m)
        coeff = null[..., 0::2] + 1j * null[..., 1::2]  # (npt, dim, m)
        self.basis = np.einsum("pdm,mij->pdij", coeff, s_plus)
        self.basis = self.basis.reshape(chart.nx, chart.ny, self.dim, n, n)
        self.active = chart.interior()
        self._mask3 = self.active[..., None].astype(float)  # zeroes coordinates off the active points
        self._mask3.flags.writeable = False
        self.weight = chart.hx * chart.hy

    def to_field(self, coords) -> LieForm:
        data = np.einsum("xya,xyaij->xyij", coords, self.basis)
        return LieForm(self.chart, 0, d0=data)

    def to_coords(self, x) -> np.ndarray:
        data = x.d0 if isinstance(x, LieForm) else x
        c = np.einsum("xyaij,xyji->xya", fiber.dagger(self.basis), data)
        return c.real * self._mask3

    def moments(self, coeff) -> np.ndarray:
        """Galerkin residual coordinates -Re tr(e_a * coeff) on active points."""
        r = -np.einsum("xyaij,xyji->xya", self.basis, coeff).real
        return r * self._mask3

    def dot(self, c1, c2) -> float:
        return float(np.sum(c1 * c2) * self.weight)


def _trace_pairs(x, y):
    """tr(x_a y_b) over stacks of matrices, broadcasting the leading axes."""
    return np.einsum("...aij,...bji->...ab", x, y)


def _ad_traces(a, x, y):
    """tr(x_i [a, y_j]) = tr(a [y_j, x_i]) per grid point, for constant stacks x, y."""
    comm = fiber.commutator(y[None, :], x[:, None])
    return np.einsum("ijuv,pvu->pij", comm, a)


@lru_cache(maxsize=8)
def _grid_stencil(chart: Chart, policy: str):
    """One central-difference step on the flattened grid (point i * ny + j),
    from ``difference_matrix`` under ``policy`` ("periodic" or "zerofill").

    Returns (indptr, indices, rows, own, dzbar): a CSR pattern holding every
    point and its neighbours, the row of each entry, whether the entry is the
    point itself, and the d_zbar weight (d_x + i d_y)/2 of the entry, zero on
    the point itself; d_z is its conjugate.
    """
    dx = difference_matrix(chart, policy, 0) / (2 * chart.hx)
    dy = difference_matrix(chart, policy, 1) / (2 * chart.hy)
    npt = chart.nx * chart.ny
    pattern = (dx + 1j * dy + sparse.eye_array(npt)).tocsr()
    pattern.sort_indices()  # the assembly sums each row in column order
    rows = np.repeat(np.arange(npt), np.diff(pattern.indptr))
    own = pattern.indices == rows
    out = (pattern.indptr, pattern.indices, rows, own, np.where(own, 0.0, 0.5 * pattern.data))
    for arr in out:
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


class LinearizedContext:
    """Frozen coefficients (Phi, Phi*, A, h) plus the pointwise Q projector;
    the strong form ``apply`` and, through ``apply_coords``, its Galerkin
    matrix."""

    def __init__(self, phi: LieForm, a_form: LieForm, h: HermitianField, space: AdmissibleSpace | None = None):
        self.phi = phi
        self.h = h
        self.a_form = a_form
        self.psi = hermitian_adjoint_field(phi, h)
        self.chart = phi.chart
        self.n = phi.n
        self.boundary = "periodic" if self.chart.periodic else "zerofill"
        self.space = space if space is not None else AdmissibleSpace(self.chart, self.n, h)
        npt = self.chart.nx * self.chart.ny
        fields = (self.phi.d1, self.phi.d2, self.psi.d1, self.psi.d2)
        self._qmat = q_matrices(*(f.reshape(npt, self.n, self.n) for f in fields))
        self._s_plus = np.stack(fiber.sigma_plus_basis(self.n))
        self._m = self._s_plus.shape[0]

    def q_apply(self, omega: LieForm) -> LieForm:
        n, ch, m = self.n, self.chart, self._m
        npt = ch.nx * ch.ny
        sdag = fiber.dagger(self._s_plus)
        ca = np.einsum("aij,pji->pa", sdag, omega.d1.reshape(npt, n, n))
        cb = np.einsum("aij,pji->pa", sdag, omega.d2.reshape(npt, n, n))
        c = np.concatenate([ca, cb], axis=-1)
        qc = (self._qmat @ c[..., None])[..., 0]
        a = np.einsum("pa,aij->pij", qc[:, :m], self._s_plus).reshape(ch.nx, ch.ny, n, n)
        b = np.einsum("pa,aij->pij", qc[:, m:], self._s_plus).reshape(ch.nx, ch.ny, n, n)
        return LieForm(ch, 1, d1=a, d2=b)

    def zeroth(self, eta: LieForm) -> np.ndarray:
        p1, p2 = self.phi.d1, self.phi.d2
        q1, q2 = self.psi.d1, self.psi.d2
        e = eta.d0
        br = fiber.commutator
        out = br(br(p1, e), q2) - br(br(p2, e), q1)
        return out - (br(p1, br(q2, e)) - br(p2, br(q1, e)))

    def apply(self, eta: LieForm) -> LieForm:
        tau = self.q_apply(covariant_d(self.a_form, eta, self.boundary))
        out = covariant_d(self.a_form, tau, self.boundary)
        return LieForm(self.chart, 2, d0=out.d0 + self.zeroth(eta))

    def apply_coords(self, coords) -> np.ndarray:
        return (self.matrix @ coords.ravel()).reshape(coords.shape)

    @cached_property
    def zeroth_block(self) -> np.ndarray:
        """Pointwise Galerkin block -Re tr(e_a zeroth(e_b)), shape (nx, ny, d, d)."""
        e = self.space.basis
        block = np.empty(e.shape[:3] + (self.space.dim,))
        for b in range(self.space.dim):
            zb = self.zeroth(LieForm(self.chart, 0, d0=e[..., b, :, :]))
            block[..., b] = -np.einsum("xyaij,xyji->xya", e, zb).real
        return block

    @cached_property
    def matrix(self) -> sparse.csr_array:
        """Galerkin matrix of ``apply`` in admissible coordinates, built on
        first use: row (p, a) is the moment against e_a(p), empty off the
        active points; column (q, b) is the coordinate of e_b(q); flat indices
        follow ``coords.ravel()``.

        In s_plus coordinates, with F(p)[b, a] = tr(s_b^+ e_a(p)), d_A
        takes c to w = [w1; w2] = [D_z + B_1; D_zbar + B_2] F c, where
        B_k = tr(s^+ [A_k, s]) is ad(A_k); Q maps w to u per point; and
        -Re tr(e_a d_A u) = -Re F^T (T (D_z u2 - D_zbar u1) + B'_1 u2 - B'_2 u1)
        with T = tr(s s) and B'_k = tr(s [A_k, s]).  So L = -Re(Y U) plus the
        zeroth-order block, where U = Q X F and Y are block-sparse on one
        stencil step and their sparse product composes the two steps.
        """
        ch, n, m, d = self.chart, self.n, self._m, self.space.dim
        npt = ch.nx * ch.ny
        s = self._s_plus
        sdag = fiber.dagger(s)
        indptr, cols, rows, own, dzb = _grid_stencil(ch, self.boundary)
        dzb = dzb[:, None, None]
        dz = np.conj(dzb)
        a1 = self.a_form.d1.reshape(npt, n, n)
        a2 = self.a_form.d2.reshape(npt, n, n)
        f = _trace_pairs(sdag, self.space.basis).reshape(npt, m, d)
        # Y is stored on the active rows, U on the rows Y reaches
        y_rows = self.space.active.ravel()
        u_rows = np.zeros(npt, dtype=bool)
        u_rows[cols[y_rows[rows]]] = True
        count = np.diff(indptr)

        def blocks(keep):
            # the own block of each kept row is selected once, in row order
            sel = keep[rows]
            return sel, cols[sel], np.concatenate([[0], np.cumsum(count * keep)])

        # U(p, q) = Q(p) X(p, q) F(q)
        sel, u_cols, u_indptr = blocks(u_rows)
        x = np.concatenate([dz[sel] * f[u_cols], dzb[sel] * f[u_cols]], axis=1)
        b = np.concatenate([_ad_traces(a1[u_rows], sdag, s), _ad_traces(a2[u_rows], sdag, s)], axis=1)
        x[own[sel]] += b @ f[u_rows]
        u = sparse.bsr_array((self._qmat[rows[sel]] @ x, u_cols, u_indptr), shape=(npt * 2 * m, npt * d))
        # Y(p, q) = F(p)^T Y'(p, q)
        sel, y_cols, y_indptr = blocks(y_rows)
        ft = np.swapaxes(f[y_rows], -1, -2)
        h = np.repeat(ft @ _trace_pairs(s, s), count[y_rows], axis=0)
        y = np.concatenate([-dzb[sel] * h, dz[sel] * h], axis=2)
        y[own[sel]] += ft @ np.concatenate([-_ad_traces(a2[y_rows], s, s), _ad_traces(a1[y_rows], s, s)], axis=2)
        y = sparse.bsr_array((y, y_cols, y_indptr), shape=(npt * d, npt * 2 * m))
        zeroth = self.zeroth_block.reshape(npt, d, d) * y_rows[:, None, None]
        diag = sparse.bsr_array((zeroth, np.arange(npt), np.arange(npt + 1)), shape=(npt * d, npt * d))
        mat = (diag - (y @ u).real).tocsr()
        mat.eliminate_zeros()
        return mat

    def gram_blocks(self):
        """Pointwise Killing Gram tr(e_a e_b) of the admissible basis."""
        e = self.space.basis
        return np.einsum("xyaij,xybji->xyab", e, e).real


def linearized_operator(eta: LieForm, phi: LieForm, a_form: LieForm, h: HermitianField) -> LieForm:
    """Strong-form L eta; eta must be admissible (sigma-even, h-hermitian)."""
    e = eta.d0
    scale = max(1.0, float(np.abs(e).max()))
    sig = np.abs(fiber.sigma(e) - e).max()
    herm = np.abs(fiber.h_adjoint(e, h.data, h.inv()) - e).max()
    if max(sig, herm) > 1e-6 * scale:
        raise DomainMismatchError(
            f"eta is outside the admissible space (sigma defect {sig:.2e}, hermitian defect {herm:.2e})"
        )
    ctx = LinearizedContext(phi, a_form, h)
    return ctx.apply(eta)


def energy_identity_sides(eta: LieForm, phi: LieForm, a_form: LieForm, h: HermitianField):
    """Both sides of the discrete energy identity (left: pairing with L eta;
    right: 2|pi_(Im ad)(d_A eta)|^2 + 2|[Phi, eta]|^2 in the pseudo pairing)."""
    ctx = LinearizedContext(phi, a_form, h)
    mask = ctx.chart.mask()
    w = ctx.chart.hx * ctx.chart.hy
    lhs_field = np.einsum("xyij,xyji->xy", eta.d0, ctx.apply(eta).d0)
    lhs = -float(lhs_field[mask].sum().real) * w
    omega = covariant_d(ctx.a_form, eta, ctx.boundary)
    tau = ctx.q_apply(omega)
    pi_minus_1 = 0.5 * (omega.d1 - tau.d1)
    pi_minus_2 = 0.5 * (omega.d2 - tau.d2)
    hh, hinv = h.data, h.inv()
    trh = lambda x: np.einsum("xyij,xyji->xy", fiber.h_adjoint(x, hh, hinv), x).real
    pse_pi = (trh(pi_minus_1) - trh(pi_minus_2))[mask].sum() * w
    c1 = fiber.commutator(phi.d1, eta.d0)
    c2 = fiber.commutator(phi.d2, eta.d0)
    pse_br = (trh(c1) - trh(c2))[mask].sum() * w
    rhs = 2.0 * float(pse_pi) + 2.0 * float(pse_br)
    return lhs, rhs


@dataclass
class NewtonConfig:
    continuation_steps: int = 3
    newton_tol: float = 1e-10
    max_newton: int = 12
    cg_tol: float = 1e-11
    max_cg: int = 4000
    fd_check: bool = False
    preconditioner: str = "none"  # "none" | "jacobi"

    def __post_init__(self):
        for key in ("continuation_steps", "max_newton", "max_cg"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key!r} must be positive, got {getattr(self, key)!r}")
        for key in ("newton_tol", "cg_tol"):
            if not 0 < getattr(self, key) < 1:
                raise ValueError(f"{key!r} must be in (0, 1), got {getattr(self, key)!r}")
        if self.preconditioner not in ("none", "jacobi"):
            raise ValueError(f"'preconditioner' must be 'none' or 'jacobi', got {self.preconditioner!r}")


def _jacobi_blocks(ctx: LinearizedContext):
    """Pointwise preconditioner: zeroth-order Galerkin block plus a stencil
    scale on the Killing Gram."""
    z = ctx.zeroth_block
    lap = 1.0 / ctx.chart.hx**2 + 1.0 / ctx.chart.hy**2
    blocks = 0.5 * (z + np.swapaxes(z, -1, -2)) + lap * ctx.gram_blocks()
    return np.linalg.inv(blocks)


def _cg(ctx: LinearizedContext, rhs_coords, cfg: NewtonConfig, precond=None):
    space = ctx.space
    x = np.zeros_like(rhs_coords)
    r = rhs_coords.copy()
    apply_p = (lambda v: np.einsum("xyab,xyb->xya", precond, v) * space._mask3) if precond is not None else (lambda v: v)
    z = apply_p(r)
    p = z.copy()
    rz = space.dot(r, z)
    b_norm = np.sqrt(space.dot(rhs_coords, rhs_coords))
    if b_norm == 0.0:
        return x, {"iterations": 0, "residuals": [0.0], "rayleigh_min": None}
    if not np.isfinite(b_norm):
        raise NonConvergenceError("CG residual is not finite at iteration 0: the right-hand side has a NaN or inf")
    hist = []
    rayleigh_min = np.inf
    for it in range(cfg.max_cg):
        mp = ctx.apply_coords(p)
        pmp = space.dot(p, mp)
        pp = space.dot(p, p)
        rayleigh_min = min(rayleigh_min, pmp / pp)
        if pmp <= 0:
            raise NonConvergenceError(
                f"CG curvature pairing lost definiteness (Rayleigh {pmp / pp:.3e})", history=hist
            )
        alpha = rz / pmp
        x = x + alpha * p
        r = r - alpha * mp
        rn = np.sqrt(space.dot(r, r)) / b_norm
        hist.append(float(rn))
        if not np.isfinite(rn):
            raise NonConvergenceError(f"CG residual is not finite at iteration {it + 1}", history=hist)
        if rn <= cfg.cg_tol:
            return x, {"iterations": it + 1, "residuals": hist, "rayleigh_min": float(rayleigh_min)}
        z = apply_p(r)
        rz_new = space.dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(
        f"CG stagnated after {cfg.max_cg} iterations (residual {hist[-1]:.3e})", history=hist
    )


def solve_linear(phi: LieForm, a_form: LieForm, h: HermitianField, rhs: LieForm, cfg: NewtonConfig):
    """CG solve of L eta = rhs in the Galerkin coordinates of the admissible
    space; returns (eta, report)."""
    if rhs.degree != 2:
        raise DomainMismatchError("rhs must be a degree-2 form")
    ctx = LinearizedContext(phi, a_form, h)
    b = ctx.space.moments(rhs.d0)
    pre = _jacobi_blocks(ctx) if cfg.preconditioner == "jacobi" else None
    coords, rep = _cg(ctx, b, cfg, precond=pre)
    return ctx.space.to_field(coords), rep


# ---------------------------------------------------------------------------
# Newton continuation


def _check_mu_target(base: FuchsianData, mu: BeltramiField):
    if mu.n != base.n:
        raise DomainMismatchError("Beltrami data rank differs from the reference")
    for k in range(2, base.n + 1):
        bad = np.argwhere(~np.isfinite(mu.comp(k)))
        if bad.size:
            raise DomainMismatchError(f"mu_{k} is not finite at grid point {tuple(int(i) for i in bad[0])}")
    if np.abs(mu.comp(2)).max() > 0:
        raise DomainMismatchError(
            "mu_2 deformations change the induced conformal structure; only mu_3..mu_n are continued"
        )
    outside = ~base.chart.interior()
    for k in range(3, base.n + 1):
        if np.abs(mu.comp(k)[outside]).max(initial=0.0) > 1e-13:
            raise DomainMismatchError(
                f"mu_{k} must be compactly supported inside the Dirichlet band"
            )


def newton_continuation(base: FuchsianData, mu_target: BeltramiField, cfg: NewtonConfig):
    """Continuation along (s mu_3, ..., s^{n-2} mu_n) with Newton on the
    conjugating gauge field eta; returns (eta, report dict), the report holding
    also the final conjugated field ``phi`` and its ``connection``.  Each step
    starts from the secant predictor 2 eta_k - eta_{k-1} and runs chord Newton:
    the linearization built at its first iteration serves every later one.  An
    exception raised during the continuation carries the finished steps' records
    as ``per_step``."""
    t0 = time.perf_counter()
    _check_mu_target(base, mu_target)
    ch, n, h = base.chart, base.n, base.h
    space = AdmissibleSpace(ch, n, h)

    # the Newton map's value at eta = 0 is the reference's curvature
    base_moments = space.moments(base.curvature.d0)

    def gmap(phi_field, eta_coords):
        phi_c = conjugate_field(phi_field, space.to_field(eta_coords))
        conn = fill_in(phi_c, h=h, boundary=FUCHSIAN_BOUNDARY)
        curv = curvature_total(conn, phi_c, hermitian_adjoint_field(phi_c, h), boundary=FUCHSIAN_BOUNDARY)
        return space.moments(curv.d0) - base_moments, phi_c, conn, curv

    def gnorm(gm):
        return float(np.abs(gm).max())

    eta_coords = eta_prev = np.zeros((ch.nx, ch.ny, space.dim))
    phi_c, conn = base.Phi, base.A
    per_step = []
    fd_checks = []
    trivial = all(np.abs(mu_target.comp(k)).max(initial=0.0) == 0.0 for k in range(2, n + 1))
    steps = 0 if trivial else cfg.continuation_steps
    final_residual = 0.0
    curv_sup = base.curvature_sup
    try:
        for istep in range(steps):
            s = (istep + 1) / cfg.continuation_steps
            mu_s = BeltramiField(ch, n, {k: s ** (k - 2) * mu_target.comp(k) for k in range(3, n + 1)})
            phi_s = fock_form(ch, mu_s)
            # secant predictor: eta is close to linear in s
            eta_coords, eta_prev = 2.0 * eta_coords - eta_prev, eta_coords
            gm, phi_c, conn, curv = gmap(phi_s, eta_coords)
            margin = positivity_margin_field(phi_c, h)
            if margin <= 1e-8:
                raise PositivityError(f"positivity lost at continuation parameter s={s:.3f}", where=s)
            residuals = [gnorm(gm)]
            it = 0
            while not (residuals[-1] <= cfg.newton_tol):
                if it >= cfg.max_newton:
                    raise NonConvergenceError(
                        f"Newton did not converge at s={s:.3f}", history=residuals
                    )
                if it == 0:  # chord: the step's first linearization serves all its iterations
                    ctx = LinearizedContext(phi_c, conn, h, space=space)
                    pre = _jacobi_blocks(ctx) if cfg.preconditioner == "jacobi" else None
                delta_c, cg_rep = _cg(ctx, -gm, cfg, precond=pre)
                if cfg.fd_check and it == 0:
                    # one-shot directional comparison of L against the discrete map
                    de = 1e-6 / max(np.abs(delta_c).max(), 1e-12)
                    gp, *_ = gmap(phi_s, eta_coords + de * delta_c)
                    gn, *_ = gmap(phi_s, eta_coords - de * delta_c)
                    fd_dir = (gp - gn) / (2 * de)
                    l_dir = ctx.apply_coords(delta_c)
                    rel = float(np.abs(fd_dir - l_dir).max() / max(np.abs(l_dir).max(), 1e-300))
                    fd_checks.append({"s": s, "rel_mismatch": rel})
                step_len = 1.0
                for _ in range(8):
                    trial = eta_coords + step_len * delta_c
                    gm_t, phi_t, conn_t, curv_t = gmap(phi_s, trial)
                    if gnorm(gm_t) < (1.0 - 0.25 * step_len) * residuals[-1] or gnorm(gm_t) <= cfg.newton_tol:
                        break
                    step_len *= 0.5
                else:
                    raise NonConvergenceError(
                        f"Newton line search failed at s={s:.3f}", history=residuals
                    )
                eta_coords, gm, phi_c, conn, curv = trial, gm_t, phi_t, conn_t, curv_t
                residuals.append(gnorm(gm))
                it += 1
            curv_sup = sup_norm(curv, mask=ch.interior())
            per_step.append({"s": s, "newton_iters": it, "residuals": residuals})
            final_residual = residuals[-1]
    except Exception as exc:
        exc.per_step = per_step  # the records of the steps that finished
        raise
    eta = space.to_field(eta_coords)
    recon_defect = float(np.abs(space.to_coords(eta) - eta_coords).max())
    report = {
        "per_step": per_step,
        "final_residual": final_residual,
        "curvature_sup": curv_sup,
        "curvature_floor": base.curvature_sup,
        "eta_sup": sup_norm(eta),
        "projection_defect": recon_defect,
        "wall_time_s": time.perf_counter() - t0,
        "phi": phi_c,
        "connection": conn,
    }
    if cfg.fd_check:
        report["fd_checks"] = fd_checks
    return eta, report
