"""Fuchsian references, the linearized curvature operator, CG, Newton continuation.

The admissible gauge directions at a point are the sigma-invariant,
h-hermitian traceless matrices; the solver carries a per-point orthonormal
real basis of that space and works in its coordinates.  The linearized
operator in strong form is

    L eta = d_A Q(d_A eta) + [[Phi, eta] ^ Phi*] - [Phi ^ [Phi*, eta]],

with the Galerkin pairing B(eta1, eta2) = -sum Re tr(eta1 * (L eta2)) dx dy,
which is symmetric positive definite on Dirichlet-supported fields (exact
summation by parts plus pointwise bracket identities), so block-Jacobi
preconditioned CG applies.  CG runs on flat coordinate vectors and the
Galerkin matrix, built once per linearization as one product of sparse
factors that mirrors the strong form, L = -Re F_act^T (Y Q X + M) F: F takes
admissible coordinates to the constant sigma_plus_basis frame, X is d_A there,
Q the pointwise involution, Y pairs d_A of a 1-form with the frame and M is
the zeroth-order block.  The block-Jacobi preconditioner is the inverse of that
matrix's pointwise diagonal blocks.  The strong form stays the field-level
reference.  The functions that build these CSR arrays, and
``chart.difference_matrix``, are the only ones that import scipy, so a
process that never assembles the matrix never loads it.

Newton continuation drives the projected curvature moments to the value they
take at the discrete Fuchsian reference (the O(h^2) discretization floor is
subtracted as a fixed baseline, so mu = 0 converges in zero iterations and
the reported final residual measures the solved system, not the stencil
floor).  The raw curvature sup-norm is reported alongside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fiber
from .chart import BeltramiField, Chart, LieForm, ScalarField, covariant_d, difference_matrix
from .connection import (
    HermitianField,
    curvature_total,
    fill_in,
    frobenius_sup,
    hermitian_adjoint_field,
    hermitian_structure,
    sup_norm,
)
from .errors import DomainMismatchError, NonConvergenceError, PositivityError
from .fockpoint import EPS_POS, positivity_margins, q_matrices
from .hcsflow import fock_form

__all__ = [
    "FuchsianData",
    "NewtonConfig",
    "fuchsian_reference",
    "AdmissibleSpace",
    "LinearizedContext",
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
    """Pointwise e^{-eta} Phi e^{eta} on both components of the degree-1 field phi."""
    g, gi = expm_pair(eta.d0)
    return LieForm(phi.chart, 1, d1=gi @ phi.d1 @ g, d2=gi @ phi.d2 @ g)


def positivity_margin_field(phi: LieForm, h: HermitianField) -> float:
    """Smallest normalized Gram eigenvalue of the pseudo pairing on Im(ad_Phi)
    over all grid points (in [-1, 1]; positive means the field is positive)."""
    m = phi.chart.mask()
    return float(positivity_margins(phi.d1[m], phi.d2[m], h.data[m]).min())


# ---------------------------------------------------------------------------
# Fuchsian reference data


@dataclass
class FuchsianData:
    """The reference fields at c0, the connection A = fill_in(Phi, h) and their
    total curvature F(A) + [Phi ^ Phi*] with its sup-norm over the chart
    interior, all on ``chart``, the disk with the ``rect`` stencil."""

    chart: Chart
    n: int
    g: ScalarField
    Phi: LieForm
    h: HermitianField
    A: LieForm
    c0: float
    curvature: LieForm
    curvature_sup: float


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2  # golden-section fraction: where the bounded search first probes
_AFFINE_RTOL = 1e-9  # allowed gap between the affine c0 model and the full evaluation
_SQRT_EPS = math.sqrt(2.2e-16)  # the bounded search's relative step floor
_MAX_EVALS = 500  # the bounded search's evaluation budget


def _bounded_min(f, lo, hi, xatol):
    """Minimize the scalar function f on [lo, hi] by Brent's derivative-free
    golden-section/parabolic search (Brent 1973, *Algorithms for Minimization
    without Derivatives*, ch. 5).  The loop is a line-for-line port of scipy's
    ``minimize_scalar(method="bounded")`` (BSD licence) in plain floats, so x,
    f(x) and the evaluation count are bitwise scipy's for the same ``xatol``.

    Returns (x, f(x), evaluations, status); status is "converged", "max
    evaluations" after 500 evaluations, or "not finite" when x or f(x) is not
    finite or the last trial value is NaN."""
    a, b = lo, hi
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = float(f(xf))
    num, fu = 1, math.inf
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    status = "converged"
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try the parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step  # a zero step moves up, as in scipy
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            status = "max evaluations"
            break
    if not (math.isfinite(xf) and math.isfinite(fx)) or math.isnan(fu):
        status = "not finite"
    return xf, fx, num, status


def _ladder_constants(n):
    """kappa_{i+1}/kappa_i = i(n-i)/(n-1); trivial (all ones) for n = 2, 3."""
    kap = [1.0]
    for i in range(1, n):
        kap.append(kap[-1] * i * (n - i) / (n - 1))
    return np.array(kap)


def _fuchsian_fields(n, chart, c0):
    """(g, Phi, h) at c0, on ``chart`` with the ``rect`` stencil (analytic fields)."""
    chart = replace(chart, stencil="rect")
    z = chart.z()
    g = c0 / (1.0 - np.abs(z) ** 2) ** 2
    kap = _ladder_constants(n)
    exps = np.array([(2 * (i + 1) - 1 - n) / 2 for i in range(n)])
    h = np.zeros((chart.nx, chart.ny, n, n), dtype=complex)
    for i in range(n):
        h[..., i, i] = kap[i] * g ** exps[i]
    hf = hermitian_structure(chart, h)
    return ScalarField(chart, g.astype(complex)), fock_form(chart, BeltramiField(chart, n, {})), hf


def _newton_map(phi, h):
    """The total curvature F(A) + [phi ^ phi*] of A = fill_in(phi, h), and A."""
    conn = fill_in(phi, h=h)
    return curvature_total(conn, phi, hermitian_adjoint_field(phi, h)), conn


def _fuchsian_curvature(n, chart, c0):
    gs, phi, hf = _fuchsian_fields(n, chart, c0)
    return (*_newton_map(phi, hf), gs, phi, hf)


def fuchsian_reference(n: int, chart: Chart) -> FuchsianData:
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
    lo, hi = 0.4 * (n - 1), 2.5 * (n - 1)
    c1, c2 = n - 1.0, lo + _GOLDEN * (hi - lo)
    t1 = _fuchsian_curvature(n, chart, c1)[0].d0[interior]
    slope = (_fuchsian_curvature(n, chart, c2)[0].d0[interior] - t1) / (c2 - c1)
    c0, predicted, evals, status = _bounded_min(lambda c: frobenius_sup(t1 + (c - c1) * slope), lo, hi, 1e-10)
    if status != "converged":
        raise NonConvergenceError(
            f"c0 search on [{lo!r}, {hi!r}] of the affine curvature model ended with status "
            f"{status!r} after {evals} evaluations (c0 = {c0!r}, residual {predicted!r})",
            history=[predicted],
        )
    scale = c0 * frobenius_sup(slope)
    curv, conn, gs, phi, hf = _fuchsian_curvature(n, chart, c0)
    resid = sup_norm(curv, mask=interior)
    if not (abs(resid - predicted) <= _AFFINE_RTOL * scale):  # NaN fails
        raise NonConvergenceError(
            f"affine curvature model predicts residual {predicted!r} at c0 = {c0!r}, the full "
            f"evaluation gives {resid!r} (gap {abs(resid - predicted) / scale:.2e} of the "
            f"[Phi ^ Phi*] term, not within {_AFFINE_RTOL:.0e})",
            history=[predicted, resid],
        )
    return FuchsianData(chart=phi.chart, n=n, g=gs, Phi=phi, h=hf, A=conn, c0=c0, curvature=curv, curvature_sup=resid)


# ---------------------------------------------------------------------------
# admissible space and the linearized operator


class AdmissibleSpace:
    """Per-point real orthonormal basis of the sigma-invariant h-hermitian
    traceless matrices on h's chart, with coordinate transport and Dirichlet masking."""

    def __init__(self, h: HermitianField):
        self.chart, n = h.chart, h.n
        self.dim = n * (n - 1) // 2
        npt = self.chart.nx * self.chart.ny
        s_plus = np.stack(fiber.sigma_plus_basis(n))  # (m, n, n)
        m = s_plus.shape[0]
        # real-linear condition h^-1 X^+ h - X = 0 on X = sum (u_a + i v_a) s_a
        s_star = h.sigma_adjoints()  # (npt, m, n, n)
        cond = np.stack([s_star - s_plus, -1j * (s_star + s_plus)], axis=2)  # columns u_0, v_0, u_1, ...
        cond = np.swapaxes(cond.reshape(npt, 2 * m, n * n), -1, -2)  # (npt, n^2, 2m) complex
        cond = np.concatenate([cond.real, cond.imag], axis=-2)
        _, s, vh = np.linalg.svd(cond)
        rank = 2 * m - self.dim
        if not (s[:, rank - 1] > 1e-8 * np.maximum(s[:, 0], 1e-300)).all():
            raise DomainMismatchError("admissible-space extraction hit a degenerate hermitian structure")
        if not (s[:, rank] < 1e-8 * np.maximum(s[:, 0], 1.0)).all():
            raise DomainMismatchError("admissible space has unexpected dimension")
        null = vh[:, rank:, :]  # (npt, dim, 2m)
        coeff = null[..., 0::2] + 1j * null[..., 1::2]  # (npt, dim, m)
        self.basis = np.einsum("pdm,mij->pdij", coeff, s_plus).reshape(self.chart.nx, self.chart.ny, self.dim, n, n)
        self.active = self.chart.interior()
        self._mask3 = self.active[..., None].astype(float)  # zeroes coordinates off the active points
        self._mask3.flags.writeable = False

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


def _trace_pairs(x, y):
    """tr(x_a y_b) over stacks of matrices, broadcasting the leading axes."""
    return np.einsum("...aij,...bji->...ab", x, y)


def _zeroth_traces(s, p1, p2, q1, q2):
    """tr(s_i zeroth(s_j)) per grid point, for the constant stack s.  With
    tr(x [[p, y], q]) = tr([q, x] [p, y]) and tr(x [p, [q, y]]) = -tr([p, x] [q, y])
    it is S + S^T, S = tr([q2, s_i] [p1, s_j]) - tr([q1, s_i] [p2, s_j])."""
    def br(v):  # the stack [v, s_k] (..., K, n, n)
        return np.swapaxes(fiber.ad_columns(v, s), -1, -2).reshape(v.shape[:-2] + s.shape)

    half = _trace_pairs(br(q2), br(p1)) - _trace_pairs(br(q1), br(p2))
    return half + np.swapaxes(half, -1, -2)


def _block_diagonal(stack):
    """The block-diagonal CSR array of a (k, r, c) stack of blocks."""
    from scipy import sparse

    k, r, c = stack.shape
    return sparse.bsr_array((stack, np.arange(k), np.arange(k + 1)), shape=(k * r, k * c)).tocsr()


class LinearizedContext:
    """Frozen coefficients (Phi, Phi*, A, h) plus the pointwise Q projector:
    the strong form ``apply``, its Galerkin ``matrix``, the block-Jacobi
    preconditioner ``jacobi`` read off that matrix, and the CG ``solve``."""

    def __init__(self, phi: LieForm, a_form: LieForm, h: HermitianField, space: AdmissibleSpace | None = None):
        self.phi = phi
        self.h = h
        self.a_form = a_form
        self.psi = hermitian_adjoint_field(phi, h)
        # d_A differentiates on phi's chart with the zero-fill stencil (wrap-around
        # on periodic charts), whose exact summation by parts makes B symmetric
        self.chart = replace(phi.chart, stencil="periodic" if phi.chart.periodic else "zerofill")
        self.n = phi.n
        self.space = space if space is not None else AdmissibleSpace(h)
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

    def d_a(self, eta: LieForm) -> LieForm:
        """d_A of a degree-0 field, on the context's chart."""
        return covariant_d(self.a_form, LieForm(self.chart, 0, d0=eta.d0))

    def apply(self, eta: LieForm) -> LieForm:
        """Strong-form L eta; eta must be admissible (sigma-even, h-hermitian)."""
        e = eta.d0
        scale = max(1.0, float(np.abs(e).max()))
        sig = np.abs(fiber.sigma(e) - e).max()
        herm = np.abs(self.h.adjoint(e) - e).max()
        if not np.max([sig, herm]) <= 1e-6 * scale:  # NaN is outside
            raise DomainMismatchError(
                f"eta is outside the admissible space (sigma defect {sig:.2e}, hermitian defect {herm:.2e})"
            )
        out = covariant_d(self.a_form, self.q_apply(self.d_a(eta)))
        return LieForm(self.chart, 2, d0=out.d0 + self.zeroth(eta))

    def apply_coords(self, coords) -> np.ndarray:
        return (self.matrix @ coords.ravel()).reshape(coords.shape)

    @cached_property
    def matrix(self):
        """Galerkin matrix of ``apply`` in admissible coordinates, built on
        first use: row (p, a) is the moment against e_a(p), empty off the
        active points; column (q, b) is the coordinate of e_b(q); flat indices
        follow ``coords.ravel()``.  It is L = -Re F_act^T (Y Q X + M) F, every
        factor sparse, on the frame s = ``sigma_plus_basis``:
        - F(p)[i, a] = tr(s_i^+ e_a(p)) per point; F_act^T is F^T on the active points
          alone, so Y Q X + M is formed on the active points' rows only.
        - X = kron(D_z, [I; 0]) + kron(D_zbar, [0; I]) + diag([ad A_1; ad A_2]) is
          d_A in the frame, ad A_k = tr(s^+ [A_k, s]), rows (p, k, i); Q acts per point.
        - Y = kron(D_zbar, [-T, 0]) + kron(D_z, [0, T]) + diag([-ad' A_2, ad' A_1])
          pairs d_A of a 1-form with s, T = tr(s s), ad' A_k = tr(s [A_k, s]).
        - M(p) = tr(s zeroth(s)).
        """
        from scipy import sparse

        ch, n, m, npt = self.chart, self.n, self._m, self.chart.nx * self.chart.ny
        s, sdag = self._s_plus, fiber.dagger(self._s_plus)
        a1, a2 = (a.reshape(npt, n, n) for a in (self.a_form.d1, self.a_form.d2))
        zeroth = _zeroth_traces(s, self.phi.d1, self.phi.d2, self.psi.d1, self.psi.d2).reshape(npt, m, m)
        dx = difference_matrix(ch, 0) / (2 * ch.hx)
        dy = difference_matrix(ch, 1) / (2 * ch.hy)
        dz, dzbar = 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)
        eye, zero, t = np.eye(m), np.zeros((m, m)), _trace_pairs(s, s)
        x = sparse.kron(dz, np.vstack([eye, zero]), "csr") + sparse.kron(dzbar, np.vstack([zero, eye]), "csr")
        x = x + _block_diagonal(np.concatenate([fiber.ad_traces(a1, sdag, s), fiber.ad_traces(a2, sdag, s)], axis=1))
        y = sparse.kron(dzbar, np.hstack([-t, zero]), "csr") + sparse.kron(dz, np.hstack([zero, t]), "csr")
        # CSR products and sums compute each row on its own, so the active rows
        # alone give the same bits as the full product restricted to them
        active = self.space.active.ravel()
        points = np.flatnonzero(active)
        rows = (points[:, None] * m + np.arange(m)).ravel()
        y = (y + _block_diagonal(np.concatenate([-fiber.ad_traces(a2, s, s), fiber.ad_traces(a1, s, s)], axis=2)))[rows]
        core = y @ _block_diagonal(self._qmat) @ x + _block_diagonal(zeroth)[rows]
        del x, y  # the stencil factors go before the outer products, which lowers the peak memory
        f = _trace_pairs(sdag, self.space.basis).reshape(npt, m, self.space.dim)
        f_act = sparse.bsr_array(
            (np.swapaxes(f[points], -1, -2), np.arange(points.size), np.concatenate([[0], np.cumsum(active)])),
            shape=(npt * self.space.dim, points.size * m),
        ).tocsr()
        mat = -(f_act @ core @ _block_diagonal(f)).real
        mat.eliminate_zeros()
        return mat

    @cached_property
    def jacobi(self):
        """Block-Jacobi preconditioner, built on first use: the inverse of
        ``matrix``'s d x d diagonal block at each active point, with empty rows
        and columns off the active points."""
        from scipy import sparse

        d = self.space.dim
        active = self.space.active.ravel()
        points = np.flatnonzero(active)
        first = points[:, None, None] * d  # flat index of each active point's first coordinate
        rows, cols = np.broadcast_arrays(first + np.arange(d)[:, None], first + np.arange(d))
        inv = np.linalg.inv(self.matrix[rows.ravel(), cols.ravel()].reshape(rows.shape))
        indptr = np.concatenate([[0], np.cumsum(active)])
        return sparse.bsr_array((inv, points, indptr), shape=self.matrix.shape).tocsr()

    def solve(self, rhs, cfg: NewtonConfig):
        """CG on ``matrix`` x = rhs in flat coordinates, preconditioned by
        ``jacobi``; returns x in the shape of rhs and a report of the iteration
        count, the relative residual per iteration and the smallest Rayleigh
        quotient p.Lp / p.p seen.  The cell area of the Galerkin pairing cancels
        from all of them, so plain dot products serve."""
        r = b = rhs.ravel()  # the residual of x = 0
        x = np.zeros_like(b)
        b_norm = np.sqrt(b @ b)
        if b_norm == 0.0:
            return x.reshape(rhs.shape), {"iterations": 0, "residuals": [0.0], "rayleigh_min": None}
        if not np.isfinite(b_norm):
            raise NonConvergenceError("CG residual is not finite at iteration 0: the right-hand side has a NaN or inf")
        p = z = self.jacobi @ r  # a new array: neither is updated in place
        rz = r @ z
        hist = []
        rayleigh_min = np.inf
        for it in range(cfg.max_cg):
            mp = self.apply_coords(p)
            pmp = p @ mp
            rayleigh = pmp / (p @ p)
            rayleigh_min = min(rayleigh_min, rayleigh)
            if pmp <= 0:
                raise NonConvergenceError(f"CG curvature pairing lost definiteness (Rayleigh {rayleigh:.3e})", history=hist)
            alpha = rz / pmp
            x = x + alpha * p
            r = r - alpha * mp
            rn = np.sqrt(r @ r) / b_norm
            hist.append(float(rn))
            if not np.isfinite(rn):
                raise NonConvergenceError(f"CG residual is not finite at iteration {it + 1}", history=hist)
            if rn <= cfg.cg_tol:
                return x.reshape(rhs.shape), {"iterations": it + 1, "residuals": hist, "rayleigh_min": float(rayleigh_min)}
            z = self.jacobi @ r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise NonConvergenceError(
            f"CG stagnated after {cfg.max_cg} iterations (residual {hist[-1]:.3e})", history=hist
        )


def energy_identity_sides(eta: LieForm, phi: LieForm, a_form: LieForm, h: HermitianField):
    """Both sides of the discrete energy identity (left: pairing with L eta;
    right: 2|pi_(Im ad)(d_A eta)|^2 + 2|[Phi, eta]|^2 in the pseudo pairing)."""
    ctx = LinearizedContext(phi, a_form, h)
    mask = ctx.chart.mask()
    w = ctx.chart.hx * ctx.chart.hy
    lhs_field = np.einsum("xyij,xyji->xy", eta.d0, ctx.apply(eta).d0)
    lhs = -float(lhs_field[mask].sum().real) * w
    omega = ctx.d_a(eta)
    tau = ctx.q_apply(omega)
    pi_minus_1 = 0.5 * (omega.d1 - tau.d1)
    pi_minus_2 = 0.5 * (omega.d2 - tau.d2)
    trh = lambda x: np.einsum("xyij,xyji->xy", h.adjoint(x), x).real
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

    def __post_init__(self):
        for key in ("continuation_steps", "max_newton", "max_cg"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key!r} must be positive, got {getattr(self, key)!r}")
        for key in ("newton_tol", "cg_tol"):
            if not 0 < getattr(self, key) < 1:
                raise ValueError(f"{key!r} must be in (0, 1), got {getattr(self, key)!r}")


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
    space = AdmissibleSpace(h)

    # the Newton map's value at eta = 0 is the reference's curvature
    base_moments = space.moments(base.curvature.d0)

    def gmap(phi_field, eta_coords):
        phi_c = conjugate_field(phi_field, space.to_field(eta_coords))
        curv, conn = _newton_map(phi_c, h)
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
            if margin <= EPS_POS:
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
                delta_c, _ = ctx.solve(-gm, cfg)
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
