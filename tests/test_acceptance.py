"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Disk-chart residual sups are measured over the chart interior
(mask minus the two-cell Dirichlet band), which is the domain every solver
works on; the band hosts boundary data and mixed-stencil transition points.
"""

import time

import numpy as np
import pytest

from fockbench import chart as chm
from fockbench import connection as cn
from fockbench import fiber
from fockbench import fockpoint as fp
from fockbench import hcsflow as hf
from fockbench import solver as sv
from fockbench.errors import DegenerateStructureError


def _report(name, elapsed, budget, detail):
    print(f"ACCEPT {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) - {detail}")
    assert elapsed < budget


def test_criterion_1_fiber_identity_suite():
    t0 = time.perf_counter()
    tol = 1e-12
    for n in range(2, 7):
        t = fiber.complete_sl2_triple(n)
        assert np.abs(fiber.commutator(t.H, t.E) - 2 * t.E).max() == 0
        assert np.abs(fiber.commutator(t.H, t.F) + 2 * t.F).max() == 0
        assert np.abs(fiber.commutator(t.E, t.F) - t.H).max() == 0
        wb = fiber.weight_basis(n)
        for i, j, gi in wb:
            for k, l, gk in wb:
                tr = np.trace(gi @ gk)
                if (k, l) == (i, -j):
                    assert tr != 0
                else:
                    assert tr == 0
        sigma, rho = fiber.sigma, fiber.rho
        assert np.abs(sigma(t.F) + t.F).max() <= tol
        cb = fiber.centralizer_basis(t.F)
        assert len(cb) == n - 1
        for b in cb:
            assert np.abs(sigma(b) + b).max() <= tol
        rng = np.random.default_rng(n)
        for _ in range(10):
            x = fiber.random_traceless(n, rng)
            assert np.abs(sigma(rho(x)) - rho(sigma(x))).max() <= tol
    _report("C1 fiber identities (n=2..6, tol 1e-12)", time.perf_counter() - t0, 5.0, "triple/trace/involution checks exact")


def test_criterion_2_decomposition_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    eps = fp.EPS_POS
    for n in range(2, 6):
        positives = 0
        draws = 0
        worst_recon = 0.0
        while positives < 100:
            draws += 1
            assert draws < 3000
            mu = 0.3 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
            try:
                pt = fp.fock_point(n, mu)
            except DegenerateStructureError:
                continue
            phi1, phi2 = pt.phi1[None], pt.phi2[None]  # the point as a stack of one
            pos_gram = fp.positivity_margins(phi1, phi2)[0] > eps
            s = fp.contraction_norms(phi1, phi2)[0]
            pos_contr = s * s < (1 - eps) / (1 + eps)
            assert pos_gram == pos_contr  # criterion: the two tests agree on every sample
            if not pos_gram:
                continue
            positives += 1
            assert tuple(fp.cohomology_dims(phi1, phi2)[0]) == (n - 1, 2 * (n - 1), n - 1)
            star = np.stack([pt.phi2.conj().T, pt.phi1.conj().T])
            om = np.stack([fiber.random_traceless(n, rng), fiber.random_traceless(n, rng)])
            parts = fp.four_way_decompose(om, pt, star)
            resid = fp.fiber_norms(parts[0] + parts[1] + parts[2] + parts[3] - om) / fp.fiber_norms(om)
            worst_recon = max(worst_recon, resid)
        assert worst_recon < 1e-10
    _report("C2 decomposition suite (100 positive points, n=2..5)", time.perf_counter() - t0, 30.0, f"worst reconstruction {worst_recon:.1e}")


def test_criterion_3_filling_in_chern(pinv_fill_in):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        ch = chm.disk_chart(64, 64, 0.5)
        fd = sv.fuchsian_reference(n, ch)
        chern = fd.h.inv() @ chm.dz_array(ch, fd.h.data, "rect")
        m = ch.mask()
        diff = float(np.abs(fd.A.d1 - chern)[m].max() + np.abs(fd.A.d2)[m].max())
        assert diff < 1e-8
        alt = pinv_fill_in(fd.Phi, h=fd.h)
        diff2 = float(
            max(np.abs(alt.d1 - fd.A.d1)[m].max(), np.abs(alt.d2 - fd.A.d2)[m].max())
        )
        assert diff2 < 1e-8
        worst = max(worst, diff, diff2)
    _report("C3 filling-in reproduces Chern (n=2,3, 64^2)", time.perf_counter() - t0, 60.0, f"sup deviation {worst:.1e}")


def test_criterion_4_fuchsian_curvature_convergence():
    t0 = time.perf_counter()
    ratios = {}
    for n in (2, 3, 4):
        res = {}
        for nx in (64, 128):
            fd = sv.fuchsian_reference(n, chm.disk_chart(nx, nx, 0.5))
            res[nx] = fd.curvature_sup
        ratios[n] = res[64] / res[128]
        assert 3.0 < ratios[n] < 5.3
    detail = ", ".join(f"n={n}: {r:.2f}" for n, r in ratios.items())
    _report("C4 Fuchsian curvature second-order convergence", time.perf_counter() - t0, 120.0, detail)


def test_criterion_5_linearized_operator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    n = 3
    ch = chm.periodic_chart(32, 32)
    h = cn.identity_hermitian(ch, n)
    f = fiber.principal_nilpotent(n)
    shape = (ch.nx, ch.ny, n, n)
    phi = chm.LieForm(
        ch,
        1,
        d1=np.broadcast_to(f, shape).copy(),
        d2=np.broadcast_to(0.25 * f + 0.1 * (f @ f), shape).copy(),
    )
    conn = cn.fill_in(phi, h=h)
    space = sv.AdmissibleSpace(ch, n, h)
    coords = np.stack([chm.random_smooth_scalar(ch, rng).data.real for _ in range(space.dim)], axis=-1)
    eta = space.to_field(coords)
    lhs, rhs = sv.energy_identity_sides(eta, phi, conn, h)
    energy_rel = abs(lhs - rhs) / abs(lhs)
    assert energy_rel < 1e-10 and lhs > 0

    def curv(scale):
        ef = chm.LieForm(ch, 0, d0=scale * eta.d0)
        phi_c = sv.conjugate_field(phi, ef)
        cc = cn.fill_in(phi_c, h=h)
        psi_c = cn.hermitian_adjoint_field(phi_c, h)
        return cn.curvature_total(cc, phi_c, psi_c).d0

    eps = 1e-5
    fd_d = (curv(eps) - curv(-eps)) / (2 * eps)
    ctx = sv.LinearizedContext(phi, conn, h)
    lop = ctx.apply(eta)
    fd_rel = float(np.abs(fd_d - lop.d0).max() / np.abs(lop.d0).max())
    assert fd_rel < 1e-6
    cfg = sv.NewtonConfig(cg_tol=1e-11, max_cg=4000)
    _, rep = ctx.solve(ctx.space.moments(lop.d0), cfg)
    assert rep["rayleigh_min"] > 0
    _report(
        "C5 linearized operator",
        time.perf_counter() - t0,
        60.0,
        f"energy rel {energy_rel:.1e}, FD rel {fd_rel:.1e}, Rayleigh min {rep['rayleigh_min']:.2e}",
    )


def test_criterion_6_newton_continuation():
    t0 = time.perf_counter()
    ch = chm.disk_chart(64, 64, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    bump = chm.bump_field(ch, center=(0.0, 0.0), radius=0.3, amplitude=0.01)
    cfg = sv.NewtonConfig(
        continuation_steps=2, newton_tol=1e-10, cg_tol=1e-11, max_cg=4000, preconditioner="jacobi"
    )
    mu = chm.BeltramiField(ch, 3, {3: bump.data})
    eta, rep = sv.newton_continuation(fd, mu, cfg)
    assert rep["final_residual"] < 1e-9
    for step in rep["per_step"]:
        assert step["newton_iters"] <= 8
        # below 1e-3 the residuals contract at least quadratically or by 10x
        # (the L-Jacobian is exact up to the stencil floor)
        hist = step["residuals"]
        for rk, rk1 in zip(hist, hist[1:]):
            if rk < 1e-3:
                assert rk1 <= max(1e3 * rk * rk, 0.1 * rk)
    mu_half = chm.BeltramiField(ch, 3, {3: 0.5 * bump.data})
    _, rep_half = sv.newton_continuation(fd, mu_half, cfg)
    ratio = rep_half["eta_sup"] / rep["eta_sup"]
    assert 0.4 < ratio < 0.6
    _report(
        "C6 Newton continuation (n=3, 64^2, amp 0.01)",
        time.perf_counter() - t0,
        300.0,
        f"final residual {rep['final_residual']:.1e}, iters {[s['newton_iters'] for s in rep['per_step']]}, "
        f"eta half-ratio {ratio:.3f}",
    )


def test_criterion_7_mu_holo_equivalence():
    t0 = time.perf_counter()
    worst_lo, worst_hi = 10.0, 0.0
    for n in (2, 3):
        for seed in (0, 1, 2):
            diffs = {}
            for nx in (48, 96):
                rng = np.random.default_rng(seed)
                ch = chm.periodic_chart(nx, nx)
                mu = chm.BeltramiField(
                    ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.08).data for k in range(2, n + 1)}
                )
                t = chm.CovectorField(
                    ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.3).data for k in range(2, n + 1)}
                )
                phi = hf.fock_form(ch, mu)
                conn = cn.inject_covector(phi, cn.identity_hermitian(ch, n), t)
                rg = hf.gauge_muholo_residual(phi, conn)
                rt = hf.mu_holo_residual(mu, t)
                diffs[nx] = max(float(np.abs(rg[k] - rt[k]).max()) for k in range(2, n + 1))
            ratio = diffs[48] / diffs[96]
            worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
            assert 3.0 < ratio < 5.3
    _report(
        "C7 mu-holomorphicity equivalence (n=2,3 x 3 configs)",
        time.perf_counter() - t0,
        120.0,
        f"refinement ratios in [{worst_lo:.2f}, {worst_hi:.2f}]",
    )


def test_criterion_8_variation_formulas():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    n = 3
    ch = chm.periodic_chart(64, 64)
    eps = 1e-4
    bound = 10 * (eps + ch.hx**2)
    mu = chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.05).data for k in range(2, n + 1)})
    phi = hf.fock_form(ch, mu)
    h = cn.identity_hermitian(ch, n)
    conn = cn.fill_in(phi, h)
    worst_mu = 0.0
    for ell in (2, 3):
        w = chm.ScalarField(ch, chm.random_smooth_scalar(ch, rng, amplitude=0.2).data)
        ham = hf.HamiltonianTerm(ell, w)
        dphi = hf.gauge_variation_phi(phi, conn, ham)
        phi_eps = chm.LieForm(ch, 1, d1=phi.d1 + eps * dphi.d1, d2=phi.d2 + eps * dphi.d2)
        mu_eps = hf.beltrami_extract(phi_eps)
        dmu = hf.hamiltonian_variation_mu(mu, ham)
        err = max(float(np.abs((mu_eps.comp(k) - mu.comp(k)) / eps - dmu.comp(k)).max()) for k in range(2, n + 1))
        worst_mu = max(worst_mu, err)
        assert err < bound
    # n = 2 closed forms hold exactly as stated
    mu2 = chm.random_smooth_scalar(ch, rng, amplitude=0.1).data
    w2 = chm.random_smooth_scalar(ch, rng, amplitude=0.2).data
    t2 = chm.random_smooth_scalar(ch, rng, amplitude=0.1).data
    dmu2 = hf.hamiltonian_variation_mu(chm.BeltramiField(ch, 2, {2: mu2}), hf.HamiltonianTerm(2, chm.ScalarField(ch, w2)))
    ref = chm.dzbar_array(ch, w2) - mu2 * chm.dz_array(ch, w2) + w2 * chm.dz_array(ch, mu2)
    assert np.abs(dmu2.comp(2) - ref).max() < 1e-13
    dt2 = hf.covector_variation(chm.CovectorField(ch, 2, {2: t2}), hf.HamiltonianTerm(2, chm.ScalarField(ch, w2)))
    ref_t = 2 * t2 * chm.dz_array(ch, w2) + w2 * chm.dz_array(ch, t2)
    assert np.abs(dt2.comp(2) - ref_t).max() < 1e-13
    # covector variation vs one Euler step of the full generator
    t = chm.CovectorField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.1).data for k in range(2, n + 1)})
    conn_t = cn.inject_covector(phi, h, t)
    worst_t = 0.0
    for ell in (2, 3):
        w = chm.ScalarField(ch, chm.random_smooth_scalar(ch, rng, amplitude=0.1).data)
        ham = hf.HamiltonianTerm(ell, w)
        phi2, a2 = hf.flow_step(phi, conn_t, h, ham, eps)
        text = cn.covector_extract(a2, phi2)
        dt = hf.covector_variation(t, ham)
        err = max(float(np.abs((text.comp(k) - t.comp(k)) / eps - dt.comp(k)).max()) for k in range(2, n + 1))
        worst_t = max(worst_t, err)
        assert err < bound
    _report(
        "C8 variation formulas (eps=1e-4, 64^2)",
        time.perf_counter() - t0,
        60.0,
        f"mu err {worst_mu:.1e}, covector err {worst_t:.1e}, bound {bound:.1e}",
    )


def test_criterion_9_x_equation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (2, 3, 4, 5):
        ch = chm.periodic_chart(32, 32)
        mu = chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.3).data for k in range(2, n + 1)})
        x = hf.solve_X(mu)
        f = fiber.principal_nilpotent(n)
        dq = np.zeros((ch.nx, ch.ny, n, n), dtype=complex)
        pw = np.eye(n, dtype=complex)
        for l in range(2, n + 1):
            pw = pw @ f
            dq = dq + chm.dz_array(ch, mu.comp(l))[..., None, None] * pw
        lhs = x.d0 @ f - f @ x.d0
        rel = float(np.abs(dq - lhs).max() / np.abs(dq).max())
        worst = max(worst, rel)
        assert rel < 1e-10
    _report("C9 X-equation (n=2..5)", time.perf_counter() - t0, 5.0, f"worst relative defect {worst:.1e}")
