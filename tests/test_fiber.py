import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbench import chart as chm
from fockbench import connection as cn
from fockbench import fiber
from fockbench.errors import DomainMismatchError, InvalidDimensionError


def test_principal_nilpotent_shape_and_rank():
    for n in range(2, 7):
        f = fiber.principal_nilpotent(n)
        assert f.shape == (n, n)
        assert np.abs(np.trace(f)) == 0
        assert np.linalg.matrix_rank(f) == n - 1
        assert np.abs(np.linalg.matrix_power(f, n)).max() == 0


def test_principal_nilpotent_small_cases():
    assert np.array_equal(fiber.principal_nilpotent(2), np.array([[0, 0], [1, 0]], dtype=complex))
    f3 = fiber.principal_nilpotent(3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[1, 0] = expect[2, 1] = 1
    assert np.array_equal(f3, expect)


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        fiber.principal_nilpotent(1)
    with pytest.raises(InvalidDimensionError):
        fiber.complete_sl2_triple(0)


def test_triple_relations_exact_up_to_12():
    for n in range(2, 13):
        t = fiber.complete_sl2_triple(n)
        assert np.array_equal(fiber.commutator(t.H, t.E), 2 * t.E)
        assert np.array_equal(fiber.commutator(t.H, t.F), -2 * t.F)
        assert np.array_equal(fiber.commutator(t.E, t.F), t.H)


def test_triple_n3_superdiagonal():
    t = fiber.complete_sl2_triple(3)
    assert t.E[0, 1] == 2 and t.E[1, 2] == 2


def test_weight_basis_count_grading_and_span():
    for n in range(2, 7):
        t = fiber.complete_sl2_triple(n)
        wb = [(i, j, g.astype(complex)) for i, j, g in fiber.weight_basis(n)]
        assert len(wb) == n * n - 1
        v = np.stack([g.reshape(-1) / max(1.0, np.abs(g).max()) for _, _, g in wb])
        assert np.linalg.matrix_rank(v) == n * n - 1
        for i, j, g in wb:
            scale = max(1.0, np.abs(g).max())
            assert np.abs(fiber.commutator(t.H, g) - 2 * j * g).max() < 1e-9 * scale


def test_weight_basis_small_identities():
    t = fiber.complete_sl2_triple(2)
    wb = dict(((i, j), g.astype(complex)) for i, j, g in fiber.weight_basis(2))
    assert np.array_equal(wb[(1, 1)], t.E)
    assert np.array_equal(wb[(1, 0)], fiber.commutator(t.F, t.E))
    assert np.array_equal(wb[(1, 0)], -t.H)
    assert np.trace(t.E @ t.F) == 1
    assert np.trace(t.H @ t.H) == 2


def test_trace_orthogonality_exact():
    for n in range(2, 7):
        wb = fiber.weight_basis(n)
        for i, j, gi in wb:
            for k, l, gk in wb:
                tr = np.trace(gi @ gk)
                if (k, l) == (i, -j):
                    assert tr != 0
                else:
                    assert tr == 0


def _ad_rank(x, tol=1e-10):
    s = np.linalg.svd(fiber.ad_columns(x, fiber.sl_basis(x.shape[-1])), compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s[0] > 0 else 0


def test_adjoint_operator_zero_and_nilpotent():
    n = 3
    zero = np.zeros((n, n), dtype=complex)
    assert len(fiber.centralizer_basis(zero)) == n * n - 1
    assert _ad_rank(zero) == 0
    f = fiber.principal_nilpotent(n)
    kb = fiber.centralizer_basis(f)
    assert len(kb) == 2  # span{F, F^2}
    assert _ad_rank(f) == n * n - 1 - 2
    span = np.stack([f.reshape(-1), (f @ f).reshape(-1)] + [b.reshape(-1) for b in kb])
    assert np.linalg.matrix_rank(span) == 2


def test_adjoint_operator_image_of_h():
    t = fiber.complete_sl2_triple(2)
    img = fiber.ad_columns(t.H, fiber.sl_basis(2))
    assert _ad_rank(t.H) == 2
    span = np.concatenate([np.stack([t.E.reshape(-1), t.F.reshape(-1)]), img.T])
    assert np.linalg.matrix_rank(span) == 2


def test_centralizer_dimensions():
    rng = np.random.default_rng(0)
    f4 = fiber.principal_nilpotent(4)
    assert len(fiber.centralizer_basis(f4)) == 3
    assert len(fiber.centralizer_basis(np.zeros((3, 3), dtype=complex))) == 8
    d = np.diag(np.array([1.0, 2.5, -3.5], dtype=complex))
    assert len(fiber.centralizer_basis(d)) == 2


def test_centralizer_basis_of_complex_matrices():
    # a generic complex x is regular: Z(x) has dimension n - 1, and the basis
    # is orthonormal in sl_basis coordinates
    rng = np.random.default_rng(3)
    for n in range(2, 6):
        x = fiber.random_traceless(n, rng)
        cb = fiber.centralizer_basis(x)
        assert len(cb) == n - 1
        assert max(np.abs(fiber.commutator(x, b)).max() for b in cb) < 1e-12 * np.abs(x).max() ** 2
        vecs = np.stack([m.reshape(-1) for m in fiber.sl_basis(n)], axis=1)
        coords = np.linalg.lstsq(vecs, np.stack([b.reshape(-1) for b in cb], axis=1), rcond=None)[0]
        assert np.abs(coords.conj().T @ coords - np.eye(n - 1)).max() < 1e-12


def test_centralizer_in_image_and_abelian():
    for n in range(2, 6):
        f = fiber.principal_nilpotent(n)
        ad = fiber.ad_columns(f, fiber.sl_basis(n))
        cb = fiber.centralizer_basis(f)
        for b in cb:
            sol, *_ = np.linalg.lstsq(ad, b.reshape(-1), rcond=None)
            assert np.abs(ad @ sol - b.reshape(-1)).max() < 1e-10
        for i, b1 in enumerate(cb):
            for b2 in cb[i + 1 :]:
                assert np.abs(fiber.commutator(b1, b2)).max() < 1e-12


def test_is_principal_nilpotent():
    f = fiber.principal_nilpotent(3)
    assert fiber.is_principal_nilpotent(f)
    assert not fiber.is_principal_nilpotent(f @ f)
    assert fiber.is_principal_nilpotent(f + f @ f)


def test_involutions_properties():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 5):
        sigma, rho = fiber.sigma, fiber.rho
        tau = lambda x: sigma(rho(x))
        t = fiber.complete_sl2_triple(n)
        assert np.allclose(sigma(t.F), -t.F)
        assert np.allclose(sigma(t.E), -t.E)
        assert np.allclose(sigma(t.H), t.H)
        for _ in range(20):
            x = fiber.random_traceless(n, rng)
            assert np.abs(sigma(sigma(x)) - x).max() < 1e-14
            assert np.abs(rho(rho(x)) - x).max() < 1e-14
            assert np.abs(tau(tau(x)) - x).max() < 1e-13
            assert np.abs(sigma(rho(x)) - rho(sigma(x))).max() < 1e-14


def test_rho_is_minus_the_adjoint_and_fixes_su_n():
    x = np.array([[1.0 + 2.0j, 3.0 - 1.0j], [-0.5j, -1.0 - 2.0j]])
    assert np.array_equal(fiber.rho(x), np.array([[-1.0 + 2.0j, -0.5j], [-3.0 - 1.0j, 1.0 - 2.0j]]))
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        y = fiber.random_traceless(n, rng)
        anti, herm = y - fiber.dagger(y), y + fiber.dagger(y)
        assert np.abs(fiber.rho(anti) - anti).max() < 1e-15  # the compact real form su(n) is fixed
        assert np.abs(fiber.rho(herm) + herm).max() < 1e-15


def test_sigma_negates_centralizer():
    for n in (2, 3, 4, 5):
        f = fiber.principal_nilpotent(n)
        for b in fiber.centralizer_basis(f):
            assert np.abs(fiber.sigma(b) + b).max() < 1e-12


def test_sigma_eigenbases():
    for n in (2, 3, 4, 5, 6):
        plus = fiber.sigma_plus_basis(n)
        minus = fiber.sigma_minus_basis(n)
        assert len(plus) == n * (n - 1) // 2
        assert len(plus) + len(minus) == n * n - 1
        allb = plus + minus
        gram = np.array([[np.trace(a.conj().T @ b) for b in allb] for a in allb])
        assert np.abs(gram - np.eye(len(allb))).max() < 1e-12
        for b in plus:
            assert np.abs(fiber.sigma(b) - b).max() < 1e-14
        for b in minus:
            assert np.abs(fiber.sigma(b) + b).max() < 1e-14


# ---------------------------------------------------------------------------
# batched kernels: properties over n = 2..6, random matrices drawn from a seed

_kernel_cases = given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
_quick = settings(max_examples=30, deadline=None)


def _random_stack(rng, n, lead=(3,)):
    return rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))


def _random_pd(rng, n, lead=(3,)):
    a = _random_stack(rng, n, lead)
    return a @ fiber.dagger(a) / n + np.eye(n)


@_quick
@_kernel_cases
def test_sigma_split_parts_are_even_and_odd(n, seed):
    x = _random_stack(np.random.default_rng(seed), n)
    even, odd = fiber.sigma_split(x)
    sigma = fiber.sigma
    scale = np.abs(x).max()
    assert np.array_equal(sigma(odd), -odd)
    assert np.abs(sigma(even) - even).max() <= 1e-15 * scale
    assert np.abs(even + odd - x).max() <= 1e-15 * scale


@_quick
@_kernel_cases
def test_hermitian_field_adjoint_is_an_involution(n, seed):
    rng = np.random.default_rng(seed)
    ch = chm.periodic_chart(8, 8)
    x = _random_stack(rng, n, lead=(8, 8))
    for h in (cn.hermitian_structure(ch, _random_pd(rng, n, lead=(8, 8))), cn.identity_hermitian(ch, n)):
        back = h.adjoint(h.adjoint(x))
        assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()


@_quick
@_kernel_cases
def test_powers_match_matrix_power(n, seed):
    f = fiber.principal_nilpotent(n)
    assert fiber.powers(f, 0) == []
    for base in (f, f.T):
        assert all(np.array_equal(p, np.linalg.matrix_power(base, k)) for k, p in enumerate(fiber.powers(base, n), 1))
    x = _random_stack(np.random.default_rng(seed), n, lead=())
    for k, p in enumerate(fiber.powers(x, n), 1):
        ref = np.linalg.matrix_power(x, k)
        assert np.abs(p - ref).max() <= 1e-13 * np.abs(ref).max()


@_quick
@_kernel_cases
def test_ad_columns_are_the_commutators(n, seed):
    # against sl_basis each entry is one difference of two products by 0, ±1 or ±2,
    # so the GEMM is exact (only the sign of a zero may differ); the sigma bases'
    # 1/sqrt(2) entries round within a few ulp of the scale
    p = _random_stack(np.random.default_rng(seed), n, lead=(2, 3))
    for basis, exact in ((fiber.sl_basis(n), True), (fiber.sigma_plus_basis(n), False), (fiber.sigma_minus_basis(n), False)):
        cols = fiber.ad_columns(p, basis)
        assert cols.shape == (2, 3, n * n, len(basis)) and cols.flags.c_contiguous
        ref = np.stack([fiber.commutator(p, x).reshape(2, 3, -1) for x in basis], axis=-1)
        if exact:
            assert np.array_equal(cols, ref)
        assert np.abs(cols - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cached_bases_and_structure_tensors_are_read_only(n):
    want = [b.copy() for b in fiber.sl_basis(n)]
    key = lambda stack: (np.shape(stack), np.asarray(stack, dtype=complex).tobytes())
    tensors = [
        fiber._structure(key(np.eye(n * n).reshape(n * n, n, n)), key(fiber.sl_basis(n))),
        fiber._structure(key(fiber.sigma_plus_basis(n)), key(fiber.sigma_minus_basis(n))),
    ]
    for a in [fiber.sl_basis(n)[0], fiber.sigma_plus_basis(n)[0], fiber.sigma_minus_basis(n)[0]] + tensors:
        with pytest.raises(ValueError):
            a[0, 1] = 5.0
    assert all(np.array_equal(b, w) for b, w in zip(fiber.sl_basis(n), want))


@_quick
@_kernel_cases
def test_positive_square_root_squares_back(n, seed):
    h = _random_pd(np.random.default_rng(seed), n)
    s, si = fiber.sqrtm_pd(h)
    assert np.abs(s @ s - h).max() <= 1e-12 * np.abs(h).max()
    assert np.abs(s @ si - np.eye(n)).max() <= 1e-12
    with pytest.raises(DomainMismatchError):
        fiber.sqrtm_pd(-h)
