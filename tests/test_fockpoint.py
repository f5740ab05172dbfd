import numpy as np
import pytest

from fockbench import fiber, fockpoint as fp
from fockbench.errors import DecompositionError, DegenerateStructureError


def _star_fiber(pt):
    """Adjoint (phi2^+, phi1^+) of the point field, as a fiber (2, n, n)."""
    return np.stack([pt.phi2.conj().T, pt.phi1.conj().T])


def _fiber(a, b):
    return np.stack([a, b])


def _norm(v):
    return float(fp.fiber_norms(v))


# One point through the stacked kernels: a stack of one.


def _margin(pt):
    return fp.positivity_margins(pt.phi1[None], pt.phi2[None])[0]


def _positive(pt):
    return _margin(pt) > fp.EPS_POS


def _contraction(pt):
    return fp.contraction_norms(pt.phi1[None], pt.phi2[None])[0]


def _dims(phi1, phi2):
    return tuple(int(d) for d in fp.cohomology_dims(phi1[None], phi2[None])[0])


def _plus_coords(v):
    """sigma_plus_basis coordinates (..., 2m) of sigma-invariant fibers v (..., 2, n, n)."""
    sdag = fiber.dagger(np.stack(fiber.sigma_plus_basis(v.shape[-1])))
    c = np.einsum("aij,...ji->...a", sdag, v)
    return c.reshape(c.shape[:-2] + (-1,))


def _plus_fibers(c, n):
    """The fibers (..., 2, n, n) of sigma_plus_basis coordinates c (..., 2m)."""
    s_plus = np.stack(fiber.sigma_plus_basis(n))
    return np.einsum("...ka,aij->...kij", c.reshape(c.shape[:-1] + (2, -1)), s_plus)


def _q(omega, pt, star):
    q = fp.q_matrices(pt.phi1[None], pt.phi2[None], star[0][None], star[1][None])[0]
    return _plus_fibers(q @ _plus_coords(omega), pt.n)


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
        om = _fiber(fiber.random_traceless(n, rng), fiber.random_traceless(n, rng))
        parts = fp.four_way_decompose(om, pt, star)
        assert _norm(parts[0] + parts[1] + parts[2] + parts[3] - om) < 1e-10 * _norm(om)
        assert np.abs(parts[2][0]).max() < 1e-9  # Z(Phi) block is dzbar only
        assert np.abs(parts[3][1]).max() < 1e-9  # Z(Phi*) block is dz only
        # dzbar part of the Z(Phi) block commutes with phi1
        assert np.abs(fiber.commutator(pt.phi1, parts[2][1])).max() < 1e-8
        zero = np.zeros((2, n, n))
        zparts = fp.four_way_decompose(zero, pt, star)
        assert max(_norm(p) for p in zparts) < 1e-12


def test_four_way_block_independence():
    # the four blocks have 2(n^2 - 1) columns in all, so they are independent
    # when they span the traceless fibers: the reference blocks have full rank,
    # and four_way reconstructs every fiber of a basis
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        pt = fp.fock_point(n, 0.15 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)))
        star = _star_fiber(pt)
        s = np.linalg.svd(np.hstack(_four_way_blocks(pt, star)), compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert rank == 2 * (n * n - 1)
        zero = np.zeros((n, n))
        basis = np.array([_fiber(b, zero) for b in fiber.sl_basis(n)] + [_fiber(zero, b) for b in fiber.sl_basis(n)])
        phi2 = np.repeat(pt.phi2[None], len(basis), axis=0)
        parts = fp.four_way(pt.phi1, phi2, fiber.dagger(phi2), star[1], basis)
        assert np.abs(parts.sum(axis=0) - basis).max() < 1e-10


def test_fuchsian_components():
    pt = fp.fock_point(2, [0.0])
    star = _star_fiber(pt)
    f = fiber.principal_nilpotent(2)
    parts = fp.four_way_decompose(_fiber(f, np.zeros((2, 2))), pt, star)
    assert _norm(parts[0]) > 0.99 and _norm(parts[1]) < 1e-10 and _norm(parts[2]) < 1e-10
    h = np.diag([1.0, -1.0]).astype(complex)
    parts = fp.four_way_decompose(_fiber(np.zeros((2, 2)), h), pt, star)
    assert _norm(parts[1]) > 1.0 and _norm(parts[0]) < 1e-10 and _norm(parts[3]) < 1e-10


def test_pseudo_norm_positive_on_image_component():
    rng = np.random.default_rng(4)
    n = 3
    pt = fp.fock_point(n, [0.2, 0.1j])
    assert _positive(pt)
    star = _star_fiber(pt)
    for _ in range(10):
        om = _fiber(fiber.random_traceless(n, rng), fiber.random_traceless(n, rng))
        part = fp.four_way_decompose(om, pt, star)[0]
        if _norm(part) > 1e-8:  # the pairing tr(a^+ a) - tr(b^+ b) of part = (a, b)
            assert np.sum(np.abs(part[0]) ** 2) - np.sum(np.abs(part[1]) ** 2) > 0


def test_q_involution():
    rng = np.random.default_rng(5)
    n = 3
    pt = fp.fock_point(n, [0.1, 0.2])
    star = _star_fiber(pt)
    x = fiber.sigma_plus_basis(n)[1]
    om = _fiber(x, 0.4 * x)
    q = _q(om, pt, star)
    qq = _q(q, pt, star)
    assert _norm(qq - om) < 1e-9
    # definition on the two summands: flips Im(ad_Phi), fixes Im(ad_Phi*)
    eta = fiber.random_traceless(n, rng)
    eta = 0.5 * (eta - fiber.sigma(eta))  # sigma-odd so that [Phi, eta] is sigma-even
    w_minus = _fiber(fiber.commutator(pt.phi1, eta), fiber.commutator(pt.phi2, eta))
    w_plus = _fiber(fiber.commutator(star[0], eta), fiber.commutator(star[1], eta))
    got = _q(w_minus + w_plus, pt, star)
    assert _norm(got - (w_plus - w_minus)) < 1e-9 * max(1.0, _norm(w_minus + w_plus))
    zero = np.zeros((2, n, n), dtype=complex)
    assert _norm(_q(zero, pt, star)) == 0


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
    c_plus_sigma = _fiber(a + fiber.sigma(a), b + fiber.sigma(b))
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
    target = c_plus_sigma.reshape(-1)
    sol, *_ = np.linalg.lstsq(cols0, target, rcond=None)
    assert np.abs(cols0 @ sol - target).max() < 1e-10


def test_cohomology_dims():
    p2, p5 = fp.fock_point(2, [0.0]), fp.fock_point(5, [0.05, 0.02, 0.01, -0.03])
    assert _dims(p2.phi1, p2.phi2) == (1, 2, 1)
    assert _dims(p5.phi1, p5.phi2) == (4, 8, 4)
    zeros = np.zeros((3, 3), dtype=complex)
    d0, _, _ = _dims(zeros, zeros)
    assert d0 == 8


def _four_way_blocks(pt, star):
    """The column blocks of Im(ad_Phi), Im(ad_Phi*), Z(Phi) dzbar and Z(Phi*) dz
    at one point, (2n^2, k) each."""
    n = pt.n
    zero = np.zeros((n * n, n - 1), dtype=complex)
    zk = np.stack([np.linalg.matrix_power(pt.phi1, k).reshape(-1) for k in range(1, n)], axis=1)
    wk = np.stack([np.linalg.matrix_power(star[1], k).reshape(-1) for k in range(1, n)], axis=1)
    return [fp._pair_columns(pt.phi1, pt.phi2), fp._pair_columns(star[0], star[1]), np.vstack([zero, zk]), np.vstack([wk, zero])]


def _lstsq_parts(omega, pt, star):
    """The four-way parts from one least-squares solve per fiber: the
    per-point reference for the stacked splitting."""
    blocks = _four_way_blocks(pt, star)
    x, *_ = np.linalg.lstsq(np.hstack(blocks), omega.reshape(-1), rcond=1e-12)
    ends = np.cumsum([b.shape[1] for b in blocks])
    return [blk @ x[e - blk.shape[1] : e] for blk, e in zip(blocks, ends)]


def _reference_rank(m, tol=1e-10):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s[0] > 0 else 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_kernels_agree_with_per_point_references(n):
    rng = np.random.default_rng(10 + n)
    pts = [fp.fock_point(n, 0.3 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))) for _ in range(12)]
    omegas = [_fiber(fiber.random_traceless(n, rng), fiber.random_traceless(n, rng)) for _ in pts]
    f = fiber.principal_nilpotent(n)
    phi2 = np.stack([p.phi2 for p in pts])
    parts = fp.four_way(f, phi2, fiber.dagger(phi2), fiber.dagger(f), np.stack(omegas))
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
    q = fp.q_matrices(f, phi2, fiber.dagger(phi2), fiber.dagger(f))
    x = fiber.sigma_plus_basis(n)[1]
    om = _plus_coords(np.stack([[x, 0.4 * x], [0.3 * x, -x]]))[..., None]
    assert np.abs(q @ (q @ om) - om).max() < 1e-9
    one = fp.q_matrices(f, phi2[[1]], fiber.dagger(phi2[[1]]), fiber.dagger(f))
    assert one.shape == (1, 2 * 3, 2 * 3) and np.array_equal(one[0], q[1])
    bad = phi2.copy()
    bad[1] = f.T  # Phi = (F, F^T) is its own adjoint: the two bracket images coincide
    with pytest.raises(DecompositionError, match="stack entry 1 "):
        fp.q_matrices(f, bad, fiber.dagger(bad), fiber.dagger(f))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_q_kernel_matches_the_four_way_split(n):
    # on sigma-invariant fibers at positive points, Q = w_im_star - w_im
    rng = np.random.default_rng(20 + n)
    f = fiber.principal_nilpotent(n)
    mus = 0.05 * (rng.standard_normal((8, n - 1)) + 1j * rng.standard_normal((8, n - 1)))
    phi2 = np.stack([fp.fock_point(n, mu).phi2 for mu in mus])
    assert (fp.positivity_margins(f, phi2) > fp.EPS_POS).all()
    star_a, star_b = fiber.dagger(phi2), fiber.dagger(f)
    v = np.stack([fiber.sigma_split(fiber.random_traceless(n, rng))[0] for _ in range(2 * len(phi2))])
    v = v.reshape(len(phi2), 2, n, n)
    w_im, w_im_star, _, _ = fp.four_way(f, phi2, star_a, star_b, v)
    q = fp.q_matrices(f, phi2, star_a, star_b)
    got = _plus_fibers((q @ _plus_coords(v)[..., None])[..., 0], n)
    assert np.abs(got - (w_im_star - w_im)).max() < 1e-12
