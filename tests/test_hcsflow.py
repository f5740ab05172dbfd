import dataclasses
import warnings

import numpy as np
import pytest

from fockbench import chart as chm
from fockbench import connection as cn
from fockbench import fiber
from fockbench import hcsflow as hf
from fockbench import solver as sv
from fockbench.errors import DomainMismatchError


def _random_mu(ch, n, rng, amplitude):
    return chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=amplitude).data for k in range(2, n + 1)})


def _random_t(ch, n, rng, amplitude):
    return chm.CovectorField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=amplitude).data for k in range(2, n + 1)})


def _independent_tensor_residual(mu, t, ch):
    """Second implementation of the coupled system, written term by term."""
    n = mu.n
    out = {}
    for k in range(2, n + 1):
        acc = -chm.dzbar_array(ch, t.comp(k))
        acc = acc + mu.comp(2) * chm.dz_array(ch, t.comp(k))
        acc = acc + k * t.comp(k) * chm.dz_array(ch, mu.comp(2))
        l = 1
        while l <= n - k:
            acc = acc + (l + k) * t.comp(k + l) * chm.dz_array(ch, mu.comp(l + 2))
            acc = acc + (l + 1) * mu.comp(l + 2) * chm.dz_array(ch, t.comp(k + l))
            l += 1
        out[k] = acc
    return out


def test_fock_form_and_extract_roundtrip():
    rng = np.random.default_rng(0)
    ch = chm.periodic_chart(16, 16)
    mu = _random_mu(ch, 4, rng, 0.15)
    phi = hf.fock_form(ch, mu)
    back = hf.beltrami_extract(phi)
    for k in range(2, 5):
        assert np.abs(back.comp(k) - mu.comp(k)).max() < 1e-12


def test_mu_holo_residual_formula_matches_independent():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5):
        ch = chm.periodic_chart(16, 16)
        mu = _random_mu(ch, n, rng, 0.2)
        t = _random_t(ch, n, rng, 0.5)
        got = hf.mu_holo_residual(mu, t)
        ref = _independent_tensor_residual(mu, t, ch)
        for k in range(2, n + 1):
            assert np.abs(got[k] - ref[k]).max() < 1e-12


def test_mu_holo_residual_trivial_structure():
    ch = chm.disk_chart(33, 33, 0.5)
    z = ch.z()
    mu = chm.BeltramiField(ch, 3, {})
    t = chm.CovectorField(ch, 3, {2: 1 + 0.3 * z + z * z, 3: 0.5 * z})
    r = hf.mu_holo_residual(mu, t)
    m = ch.mask()
    for k in (2, 3):
        assert np.abs(r[k][m]).max() < 1e-11


def test_mu_holo_residual_n2_closed_form():
    rng = np.random.default_rng(2)
    ch = chm.periodic_chart(24, 24)
    mu2 = chm.random_smooth_scalar(ch, rng, amplitude=0.3).data
    t2 = chm.random_smooth_scalar(ch, rng).data
    r = hf.mu_holo_residual(chm.BeltramiField(ch, 2, {2: mu2}), chm.CovectorField(ch, 2, {2: t2}))
    ref = -chm.dzbar_array(ch, t2) + mu2 * chm.dz_array(ch, t2) + 2 * t2 * chm.dz_array(ch, mu2)
    assert np.abs(r[2] - ref).max() < 1e-13


def test_mu_holo_chart_mismatch():
    mu = chm.BeltramiField(chm.periodic_chart(16, 16), 2, {})
    t = chm.CovectorField(chm.periodic_chart(24, 24), 2, {})
    with pytest.raises(DomainMismatchError):
        hf.mu_holo_residual(mu, t)


def test_solve_x_equation():
    rng = np.random.default_rng(3)
    for n in range(2, 6):
        ch = chm.periodic_chart(16, 16)
        mu = _random_mu(ch, n, rng, 0.2)
        x = hf.solve_X(mu)
        f = fiber.principal_nilpotent(n)
        dq = np.zeros((ch.nx, ch.ny, n, n), dtype=complex)
        pw = np.eye(n, dtype=complex)
        for l in range(2, n + 1):
            pw = pw @ f
            dq = dq + chm.dz_array(ch, mu.comp(l))[..., None, None] * pw
        lhs = x.d0 @ f - f @ x.d0
        assert np.abs(dq - lhs).max() < 1e-12 * max(np.abs(dq).max(), 1.0)
    # constant mu -> X = 0
    ch = chm.periodic_chart(16, 16)
    mu_const = chm.BeltramiField(ch, 3, {3: 0.3 * np.ones((16, 16), dtype=complex)})
    assert np.abs(hf.solve_X(mu_const).d0).max() == 0


def test_solve_x_n2_closed_form():
    rng = np.random.default_rng(4)
    ch = chm.periodic_chart(16, 16)
    mu2 = chm.random_smooth_scalar(ch, rng, amplitude=0.4).data
    x = hf.solve_X(chm.BeltramiField(ch, 2, {2: mu2}))
    hmat = np.diag([1.0, -1.0]).astype(complex)
    ref = (-chm.dz_array(ch, mu2) / 2)[..., None, None] * hmat
    assert np.abs(x.d0 - ref).max() < 1e-13


def test_hamiltonian_variation_mu_closed_forms():
    rng = np.random.default_rng(5)
    ch = chm.periodic_chart(20, 20)
    mu2 = chm.random_smooth_scalar(ch, rng, amplitude=0.3).data
    w2 = chm.random_smooth_scalar(ch, rng).data
    mu = chm.BeltramiField(ch, 2, {2: mu2})
    dmu = hf.hamiltonian_variation_mu(mu, hf.HamiltonianTerm(2, chm.ScalarField(ch, w2)))
    ref = chm.dzbar_array(ch, w2) - mu2 * chm.dz_array(ch, w2) + w2 * chm.dz_array(ch, mu2)
    assert np.abs(dmu.comp(2) - ref).max() < 1e-13
    # vanishing Beltrami data: only the dbar w term at j = ell survives
    n = 5
    ch5 = chm.periodic_chart(16, 16)
    mu0 = chm.BeltramiField(ch5, n, {})
    for ell in range(2, n + 1):
        w = chm.random_smooth_scalar(ch5, rng).data
        dmu = hf.hamiltonian_variation_mu(mu0, hf.HamiltonianTerm(ell, chm.ScalarField(ch5, w)))
        for j in range(2, n + 1):
            expect = chm.dzbar_array(ch5, w) if j == ell else 0.0
            assert np.abs(dmu.comp(j) - expect).max() < 1e-13
    # constant coefficient and constant mu: everything vanishes
    muc = chm.BeltramiField(ch5, n, {3: 0.2 * np.ones((16, 16), dtype=complex)})
    wc = chm.ScalarField(ch5, np.ones((16, 16), dtype=complex))
    dmu = hf.hamiltonian_variation_mu(muc, hf.HamiltonianTerm(3, wc))
    assert max(np.abs(dmu.comp(j)).max() for j in range(2, n + 1)) < 1e-14


def test_mu_variation_truncation_matches_matrix_level():
    # coefficients beyond p^{n-1} are annihilated by F^n = 0: evaluating the
    # untruncated bracket polynomial on matrices agrees with the truncated
    # coefficient formula reassembled on powers of F
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        ch = chm.periodic_chart(16, 16)
        mu = _random_mu(ch, n, rng, 0.2)
        f = fiber.principal_nilpotent(n)
        powers = {j: np.linalg.matrix_power(f, j) for j in range(2 * n + 1)}
        for ell in range(2, n + 1):
            k = ell - 1
            w = chm.random_smooth_scalar(ch, rng).data
            full = chm.dzbar_array(ch, w)[..., None, None] * powers[k]
            for m in range(2, n + 1):
                full = full + (k * w * chm.dz_array(ch, mu.comp(m)))[..., None, None] * powers[k + m - 2]
                full = full - ((m - 1) * mu.comp(m) * chm.dz_array(ch, w))[..., None, None] * powers[k + m - 2]
            dmu = hf.hamiltonian_variation_mu(mu, hf.HamiltonianTerm(ell, chm.ScalarField(ch, w)))
            rebuilt = np.zeros_like(full)
            for j in range(2, n + 1):
                rebuilt = rebuilt + dmu.comp(j)[..., None, None] * powers[j - 1]
            assert np.abs(full - rebuilt).max() < 1e-12


def test_covector_variation_closed_forms():
    rng = np.random.default_rng(6)
    ch = chm.periodic_chart(20, 20)
    t2 = chm.random_smooth_scalar(ch, rng).data
    w2 = chm.random_smooth_scalar(ch, rng).data
    tv = hf.covector_variation(chm.CovectorField(ch, 2, {2: t2}), hf.HamiltonianTerm(2, chm.ScalarField(ch, w2)))
    ref = 2 * t2 * chm.dz_array(ch, w2) + w2 * chm.dz_array(ch, t2)
    assert np.abs(tv.comp(2) - ref).max() < 1e-13
    # constant coefficient specialization
    n = 4
    ch4 = chm.periodic_chart(16, 16)
    t = _random_t(ch4, n, rng, 0.4)
    wconst = chm.ScalarField(ch4, 0.7 * np.ones((16, 16), dtype=complex))
    for ell in (2, 3):
        tv = hf.covector_variation(t, hf.HamiltonianTerm(ell, wconst))
        for k in range(2, n + 1):
            idx = k + ell - 2
            expect = (ell - 1) * 0.7 * chm.dz_array(ch4, t.comp(idx)) if idx <= n else 0.0
            assert np.abs(tv.comp(k) - expect).max() < 1e-13


def test_hamiltonian_term_validation():
    ch = chm.periodic_chart(16, 16)
    w = chm.ScalarField(ch, np.ones((16, 16), dtype=complex))
    with pytest.raises(DomainMismatchError):
        hf.HamiltonianTerm(5, w).check(3)
    bad = chm.ScalarField(ch, np.full((16, 16), np.nan, dtype=complex))
    with pytest.raises(DomainMismatchError):
        hf.HamiltonianTerm(2, bad).check(3)


def test_eta_correction_identity_and_permutation():
    rng = np.random.default_rng(7)
    n = 4
    ch = chm.periodic_chart(16, 16)
    mu = _random_mu(ch, n, rng, 0.1)
    phi = hf.fock_form(ch, mu)
    f = fiber.principal_nilpotent(n)
    # compatible A^-sigma: random dz part, dzbar part solved from the wedge condition
    b = np.zeros((ch.nx, ch.ny, n, n), dtype=complex)
    for _ in range(3):
        b = b + chm.random_smooth_scalar(ch, rng).data[..., None, None] * (0.3 * fiber.random_traceless(n, rng))
    rhs = phi.d2 @ b - b @ phi.d2
    basis = np.stack(fiber.sl_basis(n))
    cols = np.stack([(f @ s - s @ f).reshape(-1) for s in basis], axis=-1)
    coef = np.einsum("ab,xyb->xya", np.linalg.pinv(cols), rhs.reshape(ch.nx, ch.ny, -1))
    c = np.einsum("xya,aij->xyij", coef, basis)
    aminus = chm.LieForm(ch, 1, d1=b, d2=c)
    assert np.abs(chm.wedge_bracket(aminus, phi).d0).max() < 1e-12
    for ell in (2, 3, 4):
        w = chm.ScalarField(ch, chm.random_smooth_scalar(ch, rng).data)
        ham = hf.HamiltonianTerm(ell, w)
        xi = chm.LieForm(ch, 0, d0=w.data[..., None, None] * np.linalg.matrix_power(f, ell - 1))
        eta = hf.eta_correction(phi, aminus, ham)
        lhs = chm.wedge_bracket(aminus, xi)
        rhs2 = chm.wedge_bracket(phi, eta)
        assert np.abs(lhs.d1 + rhs2.d1).max() < 1e-10
        assert np.abs(lhs.d2 + rhs2.d2).max() < 1e-10
    # permutation invariance of the general word
    w = chm.ScalarField(ch, chm.random_smooth_scalar(ch, rng).data)
    words = (["z", "zb", "z"], ["zb", "z", "z"], ["z", "z", "zb"])
    etas = [hf.eta_for_word(phi, aminus, list(word), w) for word in words]
    for e in etas[1:]:
        assert np.abs(e.d0 - etas[0].d0).max() < 1e-10
    # zero covector part gives eta = 0
    zero = chm.LieForm(ch, 1, d1=np.zeros_like(b), d2=np.zeros_like(b))
    assert np.abs(hf.eta_correction(phi, zero, hf.HamiltonianTerm(3, w)).d0).max() == 0


def test_eta_correction_warns_on_bad_precondition():
    rng = np.random.default_rng(8)
    n = 3
    ch = chm.periodic_chart(16, 16)
    mu = _random_mu(ch, n, rng, 0.1)
    phi = hf.fock_form(ch, mu)
    bad = chm.LieForm(
        ch,
        1,
        d1=np.broadcast_to(fiber.random_traceless(n, rng), phi.d1.shape).copy(),
        d2=np.broadcast_to(fiber.random_traceless(n, rng), phi.d1.shape).copy(),
    )
    w = chm.ScalarField(ch, np.ones((16, 16), dtype=complex))
    with pytest.warns(UserWarning):
        hf.eta_correction(phi, bad, hf.HamiltonianTerm(2, w))
    # a NaN defect is no evidence of a met precondition: one NaN in the dzbar part warns
    ch = chm.periodic_chart(8, 8)
    phi = hf.fock_form(ch, _random_mu(ch, n, rng, 0.1))
    zero = np.zeros_like(phi.d1)
    nan = zero.copy()
    nan[3, 4, 0, 1] = np.nan
    w = chm.ScalarField(ch, np.ones((8, 8), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hf.eta_correction(phi, chm.LieForm(ch, 1, d1=zero, d2=zero), hf.HamiltonianTerm(2, w))
    with pytest.warns(UserWarning, match="nan"):
        hf.eta_correction(phi, chm.LieForm(ch, 1, d1=zero, d2=nan), hf.HamiltonianTerm(2, w))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eta_correction_is_the_word_sum(n):
    # bitwise the symmetrized sum sum_j phi1^j a phi1^(ell-2-j) on Fock fields
    rng = np.random.default_rng(20 + n)
    ch = chm.periodic_chart(12, 12)
    phi = hf.fock_form(ch, _random_mu(ch, n, rng, 0.1))
    lie = lambda: sum(chm.random_smooth_scalar(ch, rng).data[..., None, None] * fiber.random_traceless(n, rng) for _ in range(3))
    aminus = chm.LieForm(ch, 1, d1=lie(), d2=lie())
    eye = np.broadcast_to(np.eye(n, dtype=complex), phi.d1.shape)
    for ell in range(2, n + 1):
        w = chm.random_smooth_scalar(ch, rng)
        pw = [eye] + fiber.powers(phi.d1, ell - 2)
        data = np.zeros_like(phi.d1)
        for j in range(ell - 1):
            data = data + pw[j] @ aminus.d1 @ pw[ell - 2 - j]
        with pytest.warns(UserWarning):  # a random A^-sigma is not Phi-commuting
            eta = hf.eta_correction(phi, aminus, hf.HamiltonianTerm(ell, w))
        assert eta.d0.tobytes() == (w.data[..., None, None] * data).tobytes()
        assert eta.d0.tobytes() == hf.eta_for_word(phi, aminus, ("z",) * (ell - 1), w).d0.tobytes()


def test_gauge_tensor_equivalence_refines():
    for n in (2, 3):
        diffs = {}
        for nx in (32, 64):
            rng = np.random.default_rng(42)
            ch = chm.periodic_chart(nx, nx)
            mu = _random_mu(ch, n, rng, 0.08)
            t = _random_t(ch, n, rng, 0.3)
            phi = hf.fock_form(ch, mu)
            h = cn.identity_hermitian(ch, n)
            conn = cn.inject_covector(phi, h, t)
            rg = hf.gauge_muholo_residual(phi, conn)
            rt = hf.mu_holo_residual(mu, t)
            diffs[nx] = max(np.abs(rg[k] - rt[k]).max() for k in range(2, n + 1))
        assert 3.0 < diffs[32] / diffs[64] < 5.3
        # trivial case: sigma-invariant connection has zero gauge residual
    ch = chm.periodic_chart(16, 16)
    mu0 = chm.BeltramiField(ch, 2, {})
    phi = hf.fock_form(ch, mu0)
    h = cn.identity_hermitian(ch, 2)
    conn = cn.fill_in(phi, h=h)
    rg = hf.gauge_muholo_residual(phi, conn)
    assert np.abs(rg[2]).max() < 1e-12


def test_gauge_variation_phi_matches_mu_variation():
    rng = np.random.default_rng(9)
    n = 3
    ch = chm.periodic_chart(48, 48)
    mu = _random_mu(ch, n, rng, 0.05)
    phi = hf.fock_form(ch, mu)
    h = cn.identity_hermitian(ch, n)
    conn = cn.fill_in(phi, h)
    eps = 1e-4
    bound = 10 * (eps + ch.hx**2)
    for ell in (2, 3):
        w = chm.ScalarField(ch, chm.random_smooth_scalar(ch, rng, amplitude=0.2).data)
        ham = hf.HamiltonianTerm(ell, w)
        dphi = hf.gauge_variation_phi(phi, conn, ham)
        assert np.abs(chm.wedge_bracket(phi, dphi).d0).max() < 100 * ch.hx**2
        phi_eps = chm.LieForm(ch, 1, d1=phi.d1 + eps * dphi.d1, d2=phi.d2 + eps * dphi.d2)
        dmu_fd = hf.beltrami_extract(phi_eps)
        dmu = hf.hamiltonian_variation_mu(mu, ham)
        err = max(np.abs((dmu_fd.comp(k) - mu.comp(k)) / eps - dmu.comp(k)).max() for k in range(2, n + 1))
        assert err < bound
        # xi = 0 gives no variation
        zero_ham = hf.HamiltonianTerm(ell, chm.ScalarField(ch, np.zeros((48, 48), dtype=complex)))
        dz = hf.gauge_variation_phi(phi, conn, zero_ham)
        assert np.abs(dz.d1).max() == 0 and np.abs(dz.d2).max() == 0


def test_covector_variation_matches_euler_flow():
    rng = np.random.default_rng(10)
    n = 3
    ch = chm.periodic_chart(48, 48)
    mu = _random_mu(ch, n, rng, 0.05)
    phi = hf.fock_form(ch, mu)
    h = cn.identity_hermitian(ch, n)
    t = _random_t(ch, n, rng, 0.1)
    conn = cn.inject_covector(phi, h, t)
    eps = 1e-4
    bound = 10 * (eps + ch.hx**2)
    for ell in (2, 3):
        w = chm.ScalarField(ch, chm.random_smooth_scalar(ch, np.random.default_rng(100 + ell), amplitude=0.1).data)
        ham = hf.HamiltonianTerm(ell, w)
        phi2, a2 = hf.flow_step(phi, conn, h, ham, eps)
        t2 = cn.covector_extract(a2, phi2)
        dt = hf.covector_variation(t, ham)
        err = max(np.abs((t2.comp(k) - t.comp(k)) / eps - dt.comp(k)).max() for k in range(2, n + 1))
        assert err < bound


def test_flow_preserves_flatness_to_first_order():
    ch = chm.disk_chart(48, 48, 0.5)
    fd = sv.fuchsian_reference(2, ch)
    psi = cn.hermitian_adjoint_field(fd.Phi, fd.h)
    f0 = cn.curvature_total(fd.A, fd.Phi, psi)
    ham = hf.HamiltonianTerm(2, chm.bump_field(ch, radius=0.3, amplitude=0.2))
    h2 = ch.hx**2
    m = ch.interior()
    for eps in (1e-2, 1e-3):
        phi2, a2 = hf.flow_step(fd.Phi, fd.A, fd.h, ham, eps)
        psi2 = cn.hermitian_adjoint_field(phi2, fd.h)
        f1 = cn.curvature_total(a2, phi2, psi2)
        drift = np.abs(f1.d0 - f0.d0)[m].max()
        assert drift < 20 * (eps**2 + eps * h2)


def test_flow_preserves_mu_holomorphicity_to_first_order():
    ch = dataclasses.replace(chm.disk_chart(48, 48, 0.5), stencil="rect")
    z = ch.z()
    n = 2
    mu0 = chm.BeltramiField(ch, n, {})
    t0 = chm.CovectorField(ch, n, {2: 0.3 + 0.2 * z + 0.4 * z * z})
    phi = hf.fock_form(ch, mu0)
    h = cn.identity_hermitian(ch, n)
    conn = cn.inject_covector(phi, h, t0)
    ham = hf.HamiltonianTerm(2, chm.bump_field(ch, radius=0.3, amplitude=0.2))
    m = ch.interior()
    h2 = ch.hx**2
    for eps in (1e-2, 1e-3):
        phi2, a2 = hf.flow_step(phi, conn, h, ham, eps)
        mu2 = hf.beltrami_extract(phi2)
        t2 = cn.covector_extract(a2, phi2)
        resid = hf.mu_holo_residual(mu2, t2)
        rmax = max(np.abs(resid[k][m]).max() for k in range(2, n + 1))
        assert rmax < 5 * (eps**2 + h2)
