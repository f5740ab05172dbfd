import numpy as np
import pytest

from fockbench import fiber, fockpoint as fp
from fockbench.errors import DegenerateStructureError, DomainMismatchError


def _star_fiber(pt, h=None):
    """h-adjoint of the point field as a FormFiber (identity metric default)."""
    if h is None:
        return fp.FormFiber(pt.phi2.conj().T, pt.phi1.conj().T)
    hinv = np.linalg.inv(h)
    return fp.FormFiber(hinv @ pt.phi2.conj().T @ h, hinv @ pt.phi1.conj().T @ h)


# One point through the stacked kernels: a stack of one.


def _margin(pt):
    return fp.positivity_margins(pt.phi1[None], pt.phi2[None])[0]


def _positive(pt):
    return _margin(pt) > fp.EPS_POS


def _contraction(pt):
    return fp.contraction_norms(pt.phi1[None], pt.phi2[None])[0]


def _dims(phi1, phi2):
    return tuple(int(d) for d in fp.cohomology_dims(phi1[None], phi2[None])[0])


def _q(omega, pt, star):
    fw = fp.four_way(pt.phi1[None], pt.phi2[None], star.a[None], star.b[None])
    q = fw.q_involution(np.stack([omega.a, omega.b])[None])[0]
    return fp.FormFiber(q[0], q[1])


def test_fock_point_fuchsian_and_formula():
    p = fp.fock_point(3, [0, 0])
    assert np.abs(p.phi2).max() == 0
    f = fiber.principal_nilpotent(3)
    q = fp.fock_point(3, [0, 0.7])
    assert np.abs(q.phi2 - 0.7 * (f @ f)).max() == 0
    assert np.abs(fiber.commutator(q.phi1, q.phi2)).max() == 0


def test_fock_point_errors():
    with pytest.raises(ValueError):
        fp.fock_point(3, [0.1])
    with pytest.raises(DegenerateStructureError):
        fp.fock_point(2, [1.0])
    with pytest.raises(DegenerateStructureError):
        fp.fock_point(2, [np.exp(0.3j)])


def test_pseudo_norm():
    for n in (2, 3, 5):
        f = fiber.principal_nilpotent(n)
        zero = np.zeros((n, n))
        assert fp.pseudo_norm(fp.FormFiber(f, zero)) == pytest.approx(n - 1)
        assert fp.pseudo_norm(fp.FormFiber(zero, f)) == pytest.approx(-(n - 1))
        assert fp.pseudo_norm(fp.FormFiber(zero, zero)) == 0.0


def test_positivity_fuchsian_and_ramp():
    assert _positive(fp.fock_point(4, [0, 0, 0]))
    f = fiber.principal_nilpotent(3)
    margins = []
    for c in np.linspace(0.0, 3.0, 16):
        pt = fp.FockPoint(3, f, c * (f @ f), (0.0, c))
        margins.append(_margin(pt))
    assert margins[0] > 0.9
    assert min(margins) < 0  # positivity eventually fails along the ramp
    assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(margins, margins[1:]))


def test_positivity_after_diagonal_gauge():
    # strongly squeezed fields become positive after conjugating by exp(tH)
    rng = np.random.default_rng(0)
    n = 3
    t = fiber.complete_sl2_triple(n)
    pt = fp.fock_point(n, [0.3, 2.5])
    assert not _positive(pt)
    s = 1.5
    g = np.diag(np.exp(s * np.diag(t.H)))
    gi = np.diag(np.exp(-s * np.diag(t.H)))
    conj = fp.FockPoint(n, g @ pt.phi1 @ gi, g @ pt.phi2 @ gi, pt.mu)
    assert _positive(conj)


def test_gram_contraction_correspondence():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        for _ in range(25):
            mu = 0.3 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
            try:
                pt = fp.fock_point(n, mu)
            except DegenerateStructureError:
                continue
            lam = _margin(pt)
            s = _contraction(pt)
            assert lam == pytest.approx((1 - s * s) / (1 + s * s), abs=1e-8)


def test_four_way_decomposition():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        mu = 0.2 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        pt = fp.fock_point(n, mu)
        star = _star_fiber(pt)
        om = fp.FormFiber(fiber.random_traceless(n, rng), fiber.random_traceless(n, rng))
        parts = fp.four_way_decompose(om, pt, star)
        assert (parts[0] + parts[1] + parts[2] + parts[3] - om).norm() < 1e-10 * om.norm()
        assert np.abs(parts[2].a).max() < 1e-9  # Z(Phi) block is dzbar only
        assert np.abs(parts[3].b).max() < 1e-9  # Z(Phi*) block is dz only
        # dzbar part of the Z(Phi) block commutes with phi1
        assert np.abs(fiber.commutator(pt.phi1, parts[2].b)).max() < 1e-8
        zero = fp.FormFiber(np.zeros((n, n)), np.zeros((n, n)))
        zparts = fp.four_way_decompose(zero, pt, star)
        assert max(p.norm() for p in zparts) < 1e-12


def test_four_way_block_independence():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        pt = fp.fock_point(n, 0.15 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)))
        star = _star_fiber(pt)
        m = fp.four_way(pt.phi1, pt.phi2[None], star.a[None], star.b).matrix[0]
        s = np.linalg.svd(m, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert rank == 2 * (n * n - 1)


def test_fuchsian_components():
    pt = fp.fock_point(2, [0.0])
    star = _star_fiber(pt)
    f = fiber.principal_nilpotent(2)
    parts = fp.four_way_decompose(fp.FormFiber(f, np.zeros((2, 2))), pt, star)
    assert parts[0].norm() > 0.99 and parts[1].norm() < 1e-10 and parts[2].norm() < 1e-10
    h = np.diag([1.0, -1.0]).astype(complex)
    parts = fp.four_way_decompose(fp.FormFiber(np.zeros((2, 2)), h), pt, star)
    assert parts[1].norm() > 1.0 and parts[0].norm() < 1e-10 and parts[3].norm() < 1e-10


def test_pseudo_norm_positive_on_image_component():
    rng = np.random.default_rng(4)
    n = 3
    pt = fp.fock_point(n, [0.2, 0.1j])
    assert _positive(pt)
    star = _star_fiber(pt)
    for _ in range(10):
        om = fp.FormFiber(fiber.random_traceless(n, rng), fiber.random_traceless(n, rng))
        part = fp.four_way_decompose(om, pt, star)[0]
        if part.norm() > 1e-8:
            assert fp.pseudo_norm(part) > 0


def test_q_involution():
    rng = np.random.default_rng(5)
    n = 3
    pt = fp.fock_point(n, [0.1, 0.2])
    star = _star_fiber(pt)
    x = fiber.sigma_plus_basis(n)[1]
    om = fp.FormFiber(x, 0.4 * x)
    q = _q(om, pt, star)
    qq = _q(q, pt, star)
    assert (qq - om).norm() < 1e-9
    # definition on the two summands: flips Im(ad_Phi), fixes Im(ad_Phi*)
    eta = fiber.random_traceless(n, rng)
    eta = 0.5 * (eta - fiber.sigma(eta))  # sigma-odd so that [Phi, eta] is sigma-even
    w_minus = fp.FormFiber(fiber.commutator(pt.phi1, eta), fiber.commutator(pt.phi2, eta))
    w_plus = fp.FormFiber(fiber.commutator(star.a, eta), fiber.commutator(star.b, eta))
    got = _q(w_minus + w_plus, pt, star)
    assert (got - (w_plus - w_minus)).norm() < 1e-9 * max(1.0, (w_minus + w_plus).norm())
    zero = fp.FormFiber(np.zeros((n, n)), np.zeros((n, n)))
    assert _q(zero, pt, star).norm() == 0
    with pytest.raises(DomainMismatchError):
        _q(fp.FormFiber(fiber.principal_nilpotent(n), np.zeros((n, n))), pt, star)


def test_sigma_acts_by_minus_one_on_cohomology():
    # for a 1-form cocycle c, sigma(c) + c is a coboundary
    rng = np.random.default_rng(6)
    n = 3
    pt = fp.fock_point(n, [0.15, -0.2])
    basis = fiber.sl_basis(n)
    cols = []
    for x in basis:  # a-slot of the 1-form -> 2-form map
        cols.append(-fiber.commutator(pt.phi2, x).reshape(-1))
    for x in basis:
        cols.append(fiber.commutator(pt.phi1, x).reshape(-1))
    m1 = np.stack(cols, axis=1)
    _, s, vh = np.linalg.svd(m1)
    kern = vh[int(np.sum(s > 1e-10 * s[0])) :].conj()
    coef = kern[rng.integers(0, len(kern))]
    dim = n * n - 1
    a = sum(coef[i] * basis[i] for i in range(dim))
    b = sum(coef[dim + i] * basis[i] for i in range(dim))
    c_plus_sigma = fp.FormFiber(a + fiber.sigma(a), b + fiber.sigma(b))
    # solve [Phi, y] = c + sigma(c) for a 0-form y
    cols0 = np.stack(
        [
            np.concatenate(
                [fiber.commutator(pt.phi1, x).reshape(-1), fiber.commutator(pt.phi2, x).reshape(-1)]
            )
            for x in basis
        ],
        axis=1,
    )
    target = np.concatenate([c_plus_sigma.a.reshape(-1), c_plus_sigma.b.reshape(-1)])
    sol, *_ = np.linalg.lstsq(cols0, target, rcond=None)
    assert np.abs(cols0 @ sol - target).max() < 1e-10


def test_cohomology_dims():
    p2, p5 = fp.fock_point(2, [0.0]), fp.fock_point(5, [0.05, 0.02, 0.01, -0.03])
    assert _dims(p2.phi1, p2.phi2) == (1, 2, 1)
    assert _dims(p5.phi1, p5.phi2) == (4, 8, 4)
    zeros = np.zeros((3, 3), dtype=complex)
    d0, _, _ = _dims(zeros, zeros)
    assert d0 == 8


def _lstsq_parts(omega, pt, star):
    """The four-way parts from one least-squares solve per fiber: the
    per-point reference for the factored, stacked splitting."""
    n = pt.n
    zero = np.zeros((n * n, n - 1), dtype=complex)
    zk = np.stack([np.linalg.matrix_power(pt.phi1, k).reshape(-1) for k in range(1, n)], axis=1)
    wk = np.stack([np.linalg.matrix_power(star.b, k).reshape(-1) for k in range(1, n)], axis=1)
    blocks = [fp._pair_columns(pt.phi1, pt.phi2), fp._pair_columns(star.a, star.b), np.vstack([zero, zk]), np.vstack([wk, zero])]
    x, *_ = np.linalg.lstsq(np.hstack(blocks), np.concatenate([omega.a.ravel(), omega.b.ravel()]), rcond=1e-12)
    ends = np.cumsum([b.shape[1] for b in blocks])
    return [blk @ x[e - blk.shape[1] : e] for blk, e in zip(blocks, ends)]


def _reference_rank(m, tol=1e-10):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s[0] > 0 else 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_kernels_agree_with_per_point_references(n):
    rng = np.random.default_rng(10 + n)
    pts = [fp.fock_point(n, 0.3 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))) for _ in range(12)]
    omegas = [fp.FormFiber(fiber.random_traceless(n, rng), fiber.random_traceless(n, rng)) for _ in pts]
    f = fiber.principal_nilpotent(n)
    phi2 = np.stack([p.phi2 for p in pts])
    fw = fp.four_way(f, phi2, fiber.dagger(phi2), fiber.dagger(f))
    parts = fw.split(np.stack([[om.a, om.b] for om in omegas]))
    margins = fp.positivity_margins(f, phi2)
    norms = fp.contraction_norms(f, phi2)
    dims = fp.cohomology_dims(f, phi2)
    basis = fiber.sl_basis(n)
    eps = fp.EPS_POS
    for k, (pt, om) in enumerate(zip(pts, omegas)):
        star = _star_fiber(pt)
        for got, want in zip(parts[:, k], _lstsq_parts(om, pt, star)):
            assert np.abs(got.reshape(-1) - want).max() < 1e-12
        # a stack of one gives the same bits as the whole stack
        assert margins[k] == _margin(pt)
        assert (margins[k] > eps) == _positive(pt)
        c1, c2 = fiber.ad_columns(pt.phi1, basis), fiber.ad_columns(pt.phi2, basis)
        s = np.linalg.norm(c2 @ np.linalg.pinv(c1, rcond=1e-12), ord=2)
        assert (s * s < (1 - eps) / (1 + eps)) == (norms[k] ** 2 < (1 - eps) / (1 + eps)) == _positive(pt)
        m0 = fp._pair_columns(pt.phi1, pt.phi2)
        m1 = np.hstack([-c2, c1])
        r0, r1 = _reference_rank(m0), _reference_rank(m1)
        dim = n * n - 1
        assert tuple(dims[k]) == (dim - r0, 2 * dim - r1 - r0, dim - r1) == _dims(pt.phi1, pt.phi2)


def test_stacked_q_involution_checks_each_entry():
    n = 3
    f = fiber.principal_nilpotent(n)
    phi2 = np.stack([fp.fock_point(n, [0.1, 0.2]).phi2, fp.fock_point(n, [0.2j, -0.1]).phi2])
    fw = fp.four_way(f, phi2, fiber.dagger(phi2), fiber.dagger(f))
    x = fiber.sigma_plus_basis(n)[1]
    om = np.stack([[x, 0.4 * x], [0.3 * x, -x]])
    assert fp.fiber_norms(fw.q_involution(fw.q_involution(om)) - om).max() < 1e-9
    assert fw[[1]].q_involution(om[[1]]).shape == (1, 2, n, n)
    bad = om.copy()
    bad[1, 0] = f  # sigma(F) = -F: the second entry is not sigma-invariant
    with pytest.raises(DomainMismatchError):
        fw.q_involution(bad)
