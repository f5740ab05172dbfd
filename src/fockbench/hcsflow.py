"""Holomorphicity residuals, the X-equation, and gauge-flow variation formulas.

Index conventions: Beltrami coefficients mu_k and covector components t_k run
over k = 2..n, with t_k paired to the power phi1^{k-1}.  Hamiltonians are
single monomials H = w p^{ell-1} with ell in 2..n; linear combinations are
formed by the caller.  Out-of-range indices truncate to zero, which is the
matrix statement F^n = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fiber
from .chart import (
    BeltramiField,
    Chart,
    CovectorField,
    LieForm,
    ScalarField,
    covariant_d,
    dz_array,
    dzbar_array,
    wedge_bracket,
)
from .connection import HermitianField, hermitian_adjoint_field
from .errors import DomainMismatchError

__all__ = [
    "HamiltonianTerm",
    "mu_holo_residual",
    "gauge_muholo_residual",
    "solve_X",
    "hamiltonian_variation_mu",
    "gauge_variation_phi",
    "covector_variation",
    "eta_correction",
    "eta_for_word",
    "flow_step",
    "beltrami_extract",
    "fock_form",
]


@dataclass
class HamiltonianTerm:
    """Monomial Hamiltonian H = w p^{ell-1}, ell in 2..n."""

    ell: int
    w: ScalarField

    def check(self, n: int):
        if not 2 <= self.ell <= n:
            raise DomainMismatchError(f"Hamiltonian index 'ell' must be in 2..{n}, got {self.ell}")
        if not np.all(np.isfinite(self.w.data)):
            raise DomainMismatchError("Hamiltonian coefficient must be finite")


def fock_form(chart: Chart, mu: BeltramiField) -> LieForm:
    """Grid Fock field F dz + (sum mu_k F^{k-1}) dzbar in the standard gauge."""
    n = mu.n
    f = fiber.principal_nilpotent(n)
    shape = (chart.nx, chart.ny, n, n)
    d2 = np.zeros(shape, dtype=complex)
    for k, pw in zip(range(2, n + 1), fiber.powers(f, n - 1)):
        d2 = d2 + mu.comp(k)[..., None, None] * pw
    return LieForm(chart, 1, d1=np.broadcast_to(f, shape).copy(), d2=d2)


def beltrami_extract(phi: LieForm) -> BeltramiField:
    """Per-point least-squares coefficients of phi2 against powers of phi1.

    Exact when phi is a Fock field; well-defined for nearby perturbed fields.
    """
    n = phi.n
    ch = phi.chart
    npt = ch.nx * ch.ny
    cols = [pw.reshape(npt, -1) for pw in fiber.powers(phi.d1.reshape(npt, n, n), n - 1)]
    mat = np.stack(cols, axis=-1)  # (npt, n^2, n-1)
    rhs = phi.d2.reshape(npt, -1)
    sol = (np.linalg.pinv(mat, rcond=1e-12) @ rhs[..., None])[..., 0]
    comps = {k: sol[:, k - 2].reshape(ch.nx, ch.ny) for k in range(2, n + 1)}
    return BeltramiField(ch, n, comps)


def mu_holo_residual(mu: BeltramiField, t: CovectorField):
    """Residuals of the coupled first-order system, one scalar field per k:

    -dbar t_k + mu_2 d t_k + k t_k d mu_2
      + sum_{l=1}^{n-k} ((l+k) t_{k+l} d mu_{l+2} + (l+1) mu_{l+2} d t_{k+l}).
    """
    if mu.chart != t.chart:
        raise DomainMismatchError("Beltrami and covector data live on different charts")
    n = mu.n
    ch = mu.chart
    dz = lambda a: dz_array(ch, a, ch.stencil)
    dzb = lambda a: dzbar_array(ch, a, ch.stencil)
    out = {}
    dmu = {k: dz(mu.comp(k)) for k in range(2, n + 1)}
    dt = {k: dz(t.comp(k)) for k in range(2, n + 1)}
    for k in range(2, n + 1):
        r = -dzb(t.comp(k)) + mu.comp(2) * dt[k] + k * t.comp(k) * dmu[2]
        for l in range(1, n - k + 1):
            r = r + (l + k) * t.comp(k + l) * dmu[l + 2] + (l + 1) * mu.comp(l + 2) * dt[k + l]
        out[k] = r
    return out


def _sigma_parts(a_form: LieForm):
    """(A^sigma, A^{-sigma}), the sigma-even and sigma-odd parts of A."""
    as1, am1 = fiber.sigma_split(a_form.d1)
    as2, am2 = fiber.sigma_split(a_form.d2)
    return LieForm(a_form.chart, 1, d1=as1, d2=as2), LieForm(a_form.chart, 1, d1=am1, d2=am2)


def gauge_muholo_residual(phi: LieForm, a_form: LieForm):
    """tr(phi1^{k-1} (d A^{-sigma} + [A^sigma ^ A^{-sigma}])) for k = 2..n.

    Pointwise equal (up to the stencil floor) to the residual of
    ``mu_holo_residual`` at the Beltrami/covector data carried by (phi, A).
    """
    n = phi.n
    asig, aminus = _sigma_parts(a_form)
    coeff = covariant_d(asig, aminus).d0
    pws = fiber.powers(phi.d1, n - 1)
    return {k: np.einsum("xyij,xyji->xy", pw, coeff) for k, pw in zip(range(2, n + 1), pws)}


def solve_X(mu: BeltramiField) -> LieForm:
    """Pointwise X = sum_l (d mu_l) / (2l - 2) [F^{l-1}, E]; satisfies
    d(sum mu_l F^{l-1}) = [X, F] identically."""
    n = mu.n
    ch = mu.chart
    triple = fiber.complete_sl2_triple(n)
    f, e = triple.F, triple.E
    data = np.zeros((ch.nx, ch.ny, n, n), dtype=complex)
    for l, pw in zip(range(2, n + 1), fiber.powers(f, n - 1)):
        bracket = fiber.commutator(pw, e)
        data = data + (dz_array(ch, mu.comp(l), ch.stencil) / (2 * l - 2))[..., None, None] * bracket
    return LieForm(ch, 0, d0=data)


def hamiltonian_variation_mu(mu: BeltramiField, ham: HamiltonianTerm) -> BeltramiField:
    """First variation of the Beltrami coefficients under H = w p^{ell-1}.

    delta mu_j = dbar w [j = ell] + (ell-1) w d mu_{j-ell+2}
                 - (j-ell+1) mu_{j-ell+2} d w      (indices truncated to 2..n).
    """
    n = mu.n
    ham.check(n)
    ch = mu.chart
    k = ham.ell - 1  # monomial degree in p
    w = ham.w.data
    dw = dz_array(ch, w, ch.stencil)
    dbw = dzbar_array(ch, w, ch.stencil)
    comps = {}
    for j in range(2, n + 1):
        r = np.zeros((ch.nx, ch.ny), dtype=complex)
        if j == k + 1:
            r = r + dbw
        m = j - k + 1
        if 2 <= m <= n:
            r = r + k * w * dz_array(ch, mu.comp(m), ch.stencil) - (j - k) * mu.comp(m) * dw
        comps[j] = r
    return BeltramiField(ch, n, comps)


def _xi(phi: LieForm, ham: HamiltonianTerm) -> LieForm:
    """The gauge generator xi = w phi1^{ell-1} of H = w p^{ell-1}."""
    return LieForm(phi.chart, 0, d0=ham.w.data[..., None, None] * fiber.powers(phi.d1, ham.ell - 1)[-1])


def gauge_variation_phi(phi: LieForm, a_form: LieForm, ham: HamiltonianTerm) -> LieForm:
    """delta Phi = d_A xi for xi = w phi1^{ell-1}."""
    ham.check(phi.n)
    return covariant_d(a_form, _xi(phi, ham))


def covector_variation(t: CovectorField, ham: HamiltonianTerm) -> CovectorField:
    """delta t_k = (k+ell-2) t_{k+ell-2} d w + (ell-1) w d t_{k+ell-2}."""
    n = t.n
    ham.check(n)
    ch = t.chart
    w = ham.w.data
    dw = dz_array(ch, w, ch.stencil)
    comps = {}
    for k in range(2, n + 1):
        idx = k + ham.ell - 2
        if 2 <= idx <= n:
            comps[k] = (idx) * t.comp(idx) * dw + (ham.ell - 1) * w * dz_array(ch, t.comp(idx), ch.stencil)
        else:
            comps[k] = np.zeros((ch.nx, ch.ny), dtype=complex)
    return CovectorField(ch, n, comps)


def eta_correction(phi: LieForm, aminus: LieForm, ham: HamiltonianTerm) -> LieForm:
    """Middle-term correction for the flow generator of H = w p^{ell-1}:
    ``eta_for_word`` on the word z^{ell-1}, the symmetrized sum with one
    phi1-factor replaced by the dz part of A^{-sigma}.  Satisfies
    [A^{-sigma}, xi] + [Phi, eta] = 0 pointwise when [A^{-sigma} ^ Phi] = 0;
    a violated precondition only warns."""
    ham.check(phi.n)
    defect = wedge_bracket(aminus, phi)
    dnorm = float(np.abs(defect.d0).max())
    scale = max(1.0, float(np.abs(aminus.d1).max()), float(np.abs(aminus.d2).max()))
    if not dnorm <= 1e-8 * scale:  # a NaN defect warns too
        warnings.warn(
            f"A^-sigma is not Phi-commuting: wedge defect {dnorm:.3e}; eta correction is approximate",
            stacklevel=2,
        )
    return eta_for_word(phi, aminus, ("z",) * (ham.ell - 1), ham.w)


def eta_for_word(phi: LieForm, aminus: LieForm, word, w: ScalarField) -> LieForm:
    """General correction for a Hamiltonian monomial w v_1 ... v_k with each
    v_i in {"z", "zb"}: sum over slots of the product with Phi(v_i) replaced
    by A^{-sigma}(v_i).  Permutation invariance of the word is a property of
    compatible inputs, not of the formula."""
    comp_phi = {"z": phi.d1, "zb": phi.d2}
    comp_a = {"z": aminus.d1, "zb": aminus.d2}
    shape = phi.d1.shape
    total = np.zeros(shape, dtype=complex)
    for slot in range(len(word)):
        term = np.broadcast_to(np.eye(phi.n, dtype=complex), shape).copy()
        for i, v in enumerate(word):
            factor = comp_a[v] if i == slot else comp_phi[v]
            term = term @ factor
        total = total + term
    return LieForm(phi.chart, 0, d0=w.data[..., None, None] * total)


def flow_step(phi: LieForm, a_form: LieForm, h: HermitianField, ham: HamiltonianTerm, eps: float):
    """One explicit Euler step of the three-part gauge generator
    (xi, eta, xi*) built from H = w p^{ell-1}; returns (phi_new, a_new).

    The variations are delta Phi = d_{A^sigma} xi and
    delta A = d_A eta + [Phi, xi*] + [Phi*, xi]; with this orientation the
    step is tangent to the flat configurations (curvature drift O(eps^2) at a
    flat point), which pins the sign of the bracket terms.
    """
    n = phi.n
    ham.check(n)
    ch = phi.chart
    asig, aminus = _sigma_parts(a_form)
    xi = _xi(phi, ham)
    eta = eta_correction(phi, aminus, ham)
    psi = hermitian_adjoint_field(phi, h)
    xi_star = LieForm(ch, 0, d0=h.adjoint(xi.d0))
    dphi = covariant_d(asig, xi)
    da = covariant_d(a_form, eta)
    br = fiber.commutator
    da1 = da.d1 + br(phi.d1, xi_star.d0) + br(psi.d1, xi.d0)
    da2 = da.d2 + br(phi.d2, xi_star.d0) + br(psi.d2, xi.d0)
    phi_new = LieForm(ch, 1, d1=phi.d1 + eps * dphi.d1, d2=phi.d2 + eps * dphi.d2)
    a_new = LieForm(ch, 1, d1=a_form.d1 + eps * da1, d2=a_form.d2 + eps * da2)
    return phi_new, a_new
