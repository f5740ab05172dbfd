import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.optimize import minimize_scalar

from fockbench import chart as chm
from fockbench import connection as cn
from fockbench import fiber
from fockbench import fockpoint as fp
from fockbench import hcsflow as hf
from fockbench import solver as sv
from fockbench.errors import DegenerateStructureError, DomainMismatchError, NonConvergenceError


def _const_positive(ch, n, mu):
    f = fiber.principal_nilpotent(n)
    shape = (ch.nx, ch.ny, n, n)
    d2 = np.zeros(shape, dtype=complex)
    pw = np.eye(n, dtype=complex)
    for k, m in enumerate(mu, start=2):
        pw = pw @ f
        d2 = d2 + m * pw
    return chm.LieForm(ch, 1, d1=np.broadcast_to(f, shape).copy(), d2=d2)


def _random_admissible(space, rng, amplitude=1.0):
    coords = np.stack(
        [chm.random_smooth_scalar(space.chart, rng, amplitude=amplitude).data.real for _ in range(space.dim)],
        axis=-1,
    )
    coords = coords * space.active[..., None]
    return space.to_field(coords), coords


def test_expm_pair_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    plus, minus = sv.expm_pair(x)
    for i in range(5):
        assert np.abs(plus[i] - scipy_expm(x[i])).max() < 1e-12
        assert np.abs(minus[i] - scipy_expm(-x[i])).max() < 1e-12


def _bits(a):
    """The raw bytes of an array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_expm_pair_is_bitwise_expm_batch(scale):
    rng = np.random.default_rng(4)
    for shape in ((6, 5, 3, 3), (7, 2, 2), (4, 4, 4)):
        x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        plus, minus = sv.expm_pair(x)
        plus_neg, minus_neg = sv.expm_pair(-x)
        assert _bits(minus) == _bits(plus_neg)
        assert _bits(plus) == _bits(minus_neg)
    zero = np.zeros((3, 3, 2, 2), dtype=complex)
    assert all(_bits(e) == _bits(np.broadcast_to(np.eye(2, dtype=complex), zero.shape)) for e in sv.expm_pair(zero))


def test_conjugate_field_identities():
    ch = chm.periodic_chart(12, 12)
    n = 2
    phi = _const_positive(ch, n, [0.0])
    zero = chm.LieForm(ch, 0, d0=np.zeros((12, 12, n, n), dtype=complex))
    same = sv.conjugate_field(phi, zero)
    assert np.abs(same.d1 - phi.d1).max() == 0
    t = fiber.complete_sl2_triple(n)
    s = 0.3
    eta = chm.LieForm(ch, 0, d0=np.broadcast_to(s * t.H, phi.d1.shape).copy())
    moved = sv.conjugate_field(phi, eta)
    assert np.abs(moved.d1 - np.exp(2 * s) * phi.d1).max() < 1e-12
    # conjugation preserves [Phi ^ Phi] = 0
    rng = np.random.default_rng(1)
    mu = chm.BeltramiField(ch, 3, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.2).data for k in (2, 3)})
    phi3 = hf.fock_form(ch, mu)
    eta3 = chm.LieForm(ch, 0, d0=chm.random_smooth_scalar(ch, rng).data[..., None, None] * fiber.sigma_plus_basis(3)[0])
    moved3 = sv.conjugate_field(phi3, eta3)
    assert np.abs(chm.wedge_bracket(moved3, moved3).d0).max() < 1e-12


def test_fuchsian_reference_properties():
    ch = chm.disk_chart(33, 33, 0.5)
    for n in (2, 3):
        fd = sv.fuchsian_reference(n, ch)
        assert fd.c0 == pytest.approx(n - 1, abs=2e-2)
        assert np.abs(np.linalg.det(fd.h.data) - 1).max() < 1e-10
        assert cn.connection_report(fd.Phi, fd.A, h=fd.h)["unitary"]
    with pytest.raises(DomainMismatchError):
        sv.fuchsian_reference(2, chm.periodic_chart(16, 16))


def _fuchsian_sup(n, ch, c):
    return cn.sup_norm(sv._fuchsian_curvature(n, ch, c)[0], mask=ch.interior())


def test_fuchsian_reference_n5_converges_at_second_order():
    # C4's bounds at n = 5: the pointwise fill-in systems, whose columns scale
    # with powers of g, pass the equilibrated singularity test
    fds = {nx: sv.fuchsian_reference(5, chm.disk_chart(nx, nx, 0.5)) for nx in (32, 64)}
    assert 3.0 < fds[32].curvature_sup / fds[64].curvature_sup < 5.3
    assert fds[64].c0 == pytest.approx(4.0, abs=2e-2)
    assert cn.connection_report(fds[32].Phi, fds[32].A, h=fds[32].h)["unitary"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fuchsian_c0_matches_full_search(n):
    ch = chm.disk_chart(16, 16, 0.5)
    full = minimize_scalar(
        lambda c: _fuchsian_sup(n, ch, c),
        bounds=(0.4 * (n - 1), 2.5 * (n - 1)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    fd = sv.fuchsian_reference(n, ch)
    assert abs(fd.c0 - full.x) <= 1e-9
    assert fd.curvature_sup == _fuchsian_sup(n, ch, fd.c0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fuchsian_curvature_affine_in_c0(n):
    ch = chm.disk_chart(16, 16, 0.5)
    c1, c2, c3 = n - 1.0, 1.2 * (n - 1), 0.7 * (n - 1)
    t1, t2, t3 = (sv._fuchsian_curvature(n, ch, c)[0].d0 for c in (c1, c2, c3))
    predicted = t1 + (c3 - c1) * (t2 - t1) / (c2 - c1)
    assert np.abs(t3 - predicted).max() <= 1e-10 * np.abs(t3).max()


def test_fuchsian_c0_model_checked_against_full_evaluation(monkeypatch):
    fields = sv._fuchsian_fields
    monkeypatch.setattr(sv, "_fuchsian_fields", lambda n, ch, c0: fields(n, ch, c0 * c0))
    with pytest.raises(NonConvergenceError, match=r"\[Phi \^ Phi\*\] term"):
        sv.fuchsian_reference(2, chm.disk_chart(16, 16, 0.5))


def _nan_curvature_after(monkeypatch, calls):
    """Make every _fuchsian_curvature after the first ``calls`` return a NaN curvature."""
    real, seen = sv._fuchsian_curvature, []

    def curvature(n, ch, c0):
        curv, *rest = real(n, ch, c0)
        seen.append(c0)
        if len(seen) > calls:
            curv = chm.LieForm(curv.chart, curv.degree, d0=np.full_like(curv.d0, np.nan))
        return (curv, *rest)

    monkeypatch.setattr(sv, "_fuchsian_curvature", curvature)


def test_fuchsian_c0_search_on_a_nan_model_is_not_convergence(monkeypatch):
    _nan_curvature_after(monkeypatch, 0)
    with pytest.raises(NonConvergenceError, match="c0 search .* status 'not finite'"):
        sv.fuchsian_reference(2, chm.disk_chart(12, 12, 0.5))


def test_fuchsian_nan_full_evaluation_fails_the_model_check(monkeypatch):
    # the two model fields are finite, the evaluation at the chosen c0 is NaN
    _nan_curvature_after(monkeypatch, 2)
    with pytest.raises(NonConvergenceError, match=r"gives nan .*\[Phi \^ Phi\*\] term"):
        sv.fuchsian_reference(2, chm.disk_chart(12, 12, 0.5))


def _assert_bounded_min_is_scipys(f, lo, hi, xatol=1e-10):
    ref = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    x, fx, evals, status = sv._bounded_min(f, lo, hi, xatol)
    assert type(x) is float and type(fx) is float
    assert np.array([x, fx]).tobytes() == np.array([ref.x, ref.fun]).tobytes()
    assert evals == ref.nfev
    assert status == {0: "converged", 1: "max evaluations"}[ref.status]
    return x


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bounded_min_is_bitwise_scipys_on_the_c0_models(monkeypatch, n):
    searches, real = [], sv._bounded_min

    def bounded_min(f, lo, hi, xatol):
        searches.append((f, lo, hi, xatol))
        return real(f, lo, hi, xatol)

    monkeypatch.setattr(sv, "_bounded_min", bounded_min)
    fd = sv.fuchsian_reference(n, chm.disk_chart(16, 16, 0.5))
    ((f, lo, hi, xatol),) = searches
    assert (lo, hi, xatol) == (0.4 * (n - 1), 2.5 * (n - 1), 1e-10)
    assert _assert_bounded_min_is_scipys(f, lo, hi, xatol) == fd.c0


_SHAPES = {
    "quadratic": lambda p: lambda x: p[0] * (x - p[1]) ** 2 + p[2] * x,
    "kink": lambda p: lambda x: abs(x - p[1]) + p[2],
    "two lines": lambda p: lambda x: max(abs(p[0] * x - p[1]), abs(p[2] * x - p[3])),
    "wave": lambda p: lambda x: math.sin(p[0] * x) + p[1] * x * x,
    "linear": lambda p: lambda x: p[0] * x,
    "constant": lambda p: lambda x: p[2],
    "steps": lambda p: lambda x: math.floor(p[0] * x) + p[2],  # plateaus: ties between trial values
    "rounded": lambda p: lambda x: round(p[0] * (x - p[1]) ** 2, 1),
    "terraced": lambda p: lambda x: math.floor(abs(p[0] * (x - p[1])) * 4),
}


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    params=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    lo=st.floats(-10.0, 10.0),
    width=st.sampled_from([0.0, 1e-9, 1e-3]) | st.floats(0.0, 20.0),
)
def test_bounded_min_is_bitwise_scipys_on_drawn_functions(shape, params, lo, width):
    _assert_bounded_min_is_scipys(_SHAPES[shape](params), lo, lo + width)


@pytest.mark.parametrize(
    "f, lo, hi, xatol",
    [
        (lambda x: x, 0.0, 1.0, 1e-10),
        (lambda x: -x, 0.0, 1.0, 1e-10),
        (lambda x: 2.5, -1.0, 3.0, 1e-10),
        (lambda x: (x - 1.0) ** 2, 0.75, 0.75, 1e-10),
        (lambda x: (x - 1.0) ** 2, 0.0, 2.0, -1.0),
        (_SHAPES["terraced"]([7.0, 1.4]), -1.0, 5.0, 1e-10),
        (_SHAPES["terraced"]([8.7, 4.3]), -1.0, 7.0, 1e-10),
        (lambda x: (x - 4.1) ** 2 + 9.8 * x, -1.0, 2.0, 1e-10),
        (lambda x: (x - 1.3) ** 2 + 2.3 * x, -1.0, 2.0, 1e-10),
        (lambda x: (x + 2.0) ** 2 - 7.8 * x, 0.0, 6.0, 1e-10),
    ],
    # the terraced cases tie a trial value with the second- or third-best point; the
    # next two land a parabolic step within 2 tol1 of the bracket's lower or upper
    # end, and the last takes a parabolic step of exactly zero
    ids=[
        "minimum-at-lo", "minimum-at-hi", "constant", "lo-equals-hi", "never-converges",
        "tie-second", "tie-third", "parabola-at-bracket-lo", "parabola-at-bracket-hi", "zero-step",
    ],
)
def test_bounded_min_edge_cases_are_scipys(f, lo, hi, xatol):
    _assert_bounded_min_is_scipys(f, lo, hi, xatol)


def test_bounded_min_results_and_status():
    # a minimum at a bound is approached to within the relative step floor sqrt(2.2e-16) |x|
    assert sv._bounded_min(lambda x: x, 0.0, 1.0, 1e-10)[0] < 1e-9
    assert sv._bounded_min(lambda x: -x, 0.0, 1.0, 1e-10)[0] > 1.0 - 2e-8
    assert sv._bounded_min(lambda x: x * x, -1.0, 2.0, 1e-10)[3] == "converged"
    assert sv._bounded_min(lambda x: (x - 1.0) ** 2, 0.0, 2.0, -1.0)[2:] == (500, "max evaluations")
    assert sv._bounded_min(lambda x: math.nan, 0.0, 1.0, 1e-10)[3] == "not finite"
    assert sv._bounded_min(lambda x: -math.inf, 0.0, 1.0, 1e-10)[3] == "not finite"
    assert sv._bounded_min(lambda x: 1.0, 0.75, 0.75, 1e-10) == (0.75, 1.0, 1, "converged")


def test_fuchsian_chern_diagonal_profile():
    ch = chm.disk_chart(33, 33, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    a1 = fd.A.d1
    m = ch.interior()
    # diagonal entries proportional to (-1, 0, 1) * d log g; the antisymmetry
    # of the outer entries holds at the discrete chain-rule floor O(h^2)
    assert np.abs(a1[m][:, 1, 1]).max() < 1e-10
    assert np.abs(a1[m][:, 0, 0] + a1[m][:, 2, 2]).max() < 50 * ch.hx**2
    u = np.log(fd.g.data.real)
    dlog = chm.dz_array(ch, u.astype(complex), "rect")
    assert np.abs(a1[..., 2, 2][m] - dlog[m]).max() < 50 * ch.hx**2


def test_fuchsian_refinement_second_order():
    res = {}
    for nx in (33, 65):
        fd = sv.fuchsian_reference(2, chm.disk_chart(nx, nx, 0.5))
        res[nx] = fd.curvature_sup
    assert 3.0 < res[33] / res[65] < 5.3


def test_admissible_space_roundtrip_and_structure():
    rng = np.random.default_rng(2)
    ch = chm.periodic_chart(16, 16)
    for n in (2, 3):
        h = cn.identity_hermitian(ch, n)
        space = sv.AdmissibleSpace(h)
        assert space.dim == n * (n - 1) // 2
        assert np.abs(fiber.sigma(space.basis) - space.basis).max() < 1e-12
        assert np.abs(np.conj(np.swapaxes(space.basis, -1, -2)) - space.basis).max() < 1e-12
        eta, coords = _random_admissible(space, rng)
        assert np.abs(space.to_coords(eta) - coords).max() < 1e-12


def test_admissible_space_position_dependent_h():
    ch = chm.disk_chart(33, 33, 0.5)
    fd = sv.fuchsian_reference(2, ch)
    space = sv.AdmissibleSpace(fd.h)
    b = space.basis
    hh, hinv = fd.h.data, fd.h.inv()
    herm = np.abs(hinv[..., None, :, :] @ np.conj(np.swapaxes(b, -1, -2)) @ hh[..., None, :, :] - b).max()
    assert herm < 1e-10


def test_admissible_space_rejects_a_structure_of_the_wrong_dimension():
    ch = chm.periodic_chart(8, 8)

    def constant(m):
        return cn.HermitianField(ch, np.broadcast_to(np.asarray(m, dtype=complex), (8, 8, 3, 3)).copy())

    # condition 1e20: the extraction's singular values fall below its 1e-8 cutoff
    with pytest.raises(DomainMismatchError, match="extraction hit a degenerate hermitian structure"):
        sv.AdmissibleSpace(constant(np.diag([1e10, 1.0, 1e-10])))
    # not hermitian: fewer than n(n-1)/2 sigma-invariant directions are h-hermitian
    g = np.eye(3) + 0.5 * np.random.default_rng(0).standard_normal((3, 3))
    with pytest.raises(DomainMismatchError, match="admissible space has unexpected dimension"):
        sv.AdmissibleSpace(constant(g))


def test_energy_identity_exact_on_periodic():
    rng = np.random.default_rng(3)
    n = 3
    ch = chm.periodic_chart(24, 24)
    h = cn.identity_hermitian(ch, n)
    phi = _const_positive(ch, n, [0.25, 0.1])
    conn = cn.fill_in(phi, h=h)
    space = sv.AdmissibleSpace(h)
    eta, _ = _random_admissible(space, rng)
    lhs, rhs = sv.energy_identity_sides(eta, phi, conn, h)
    assert lhs > 0
    assert abs(lhs - rhs) < 1e-11 * abs(lhs)
    # with a nonzero constant sigma-invariant unitary connection
    s0 = fiber.sigma_plus_basis(n)[0] + 0.5 * fiber.sigma_plus_basis(n)[1]
    shape = phi.d1.shape
    a = chm.LieForm(ch, 1, d1=np.broadcast_to(0.2 * s0, shape).copy(), d2=np.broadcast_to(-0.2 * np.conj(s0.T), shape).copy())
    lhs, rhs = sv.energy_identity_sides(eta, phi, a, h)
    assert lhs > 0 and abs(lhs - rhs) < 1e-11 * abs(lhs)


def test_linearized_operator_self_adjoint():
    rng = np.random.default_rng(4)
    n = 2
    ch = chm.periodic_chart(20, 20)
    h = cn.identity_hermitian(ch, n)
    phi = _const_positive(ch, n, [0.3])
    conn = cn.fill_in(phi, h=h)
    ctx = sv.LinearizedContext(phi, conn, h)
    e1, _ = _random_admissible(ctx.space, rng)
    e2, _ = _random_admissible(ctx.space, rng)
    w = ch.hx * ch.hy
    b12 = -(np.einsum("xyij,xyji->", e1.d0, ctx.apply(e2).d0) * w)
    b21 = -(np.einsum("xyij,xyji->", e2.d0, ctx.apply(e1).d0) * w)
    assert abs(b12 - b21) < 1e-11 * abs(b12)


def _fock_fields(kind, n):
    """(phi, h) on a 16^2 Fuchsian disk with a mu_3 bump or on a 12^2 periodic
    chart with random smooth complex mu."""
    rng = np.random.default_rng(10 + n)
    if kind == "disk":
        ch = chm.disk_chart(16, 16, 0.5)
        _, fuchsian, h = sv._fuchsian_fields(n, ch, n - 1.0)  # the reference's fields, without its fill-in
        d2 = np.zeros_like(fuchsian.d1)
        if n >= 3:
            f2 = np.linalg.matrix_power(fiber.principal_nilpotent(n), 2)
            d2 = chm.bump_field(ch, radius=0.3, amplitude=0.02).data[..., None, None] * f2
        return chm.LieForm(fuchsian.chart, 1, d1=fuchsian.d1, d2=d2), h
    ch = chm.periodic_chart(12, 12)
    mu = chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.1).data for k in range(2, n + 1)})
    return hf.fock_form(ch, mu), cn.identity_hermitian(ch, n)


def _linearization(kind, n):
    """A LinearizedContext on ``_fock_fields``: zero-fill stencils on the disk,
    wrap-around on the periodic chart."""
    phi, h = _fock_fields(kind, n)
    return sv.LinearizedContext(phi, cn.fill_in(phi, h=h), h)


def _loop_q(p1, p2, q1, q2):
    """The solver's Q as it was built before the stacked kernel: sigma-odd
    bracket blocks from one commutator per sigma_minus_basis element."""
    n = p1.shape[-1]
    s_plus = np.stack(fiber.sigma_plus_basis(n))
    m = s_plus.shape[0]

    def coords(y):
        return np.einsum("aij,pji->pa", fiber.dagger(s_plus), y)

    def bracket_block(x1, x2):
        cols = [np.concatenate([coords(fiber.commutator(x, y)) for x in (x1, x2)], axis=-1) for y in fiber.sigma_minus_basis(n)]
        return np.stack(cols, axis=-1)

    b_minus, b_plus = bracket_block(p1, p2), bracket_block(q1, q2)
    pinv = np.linalg.pinv(np.concatenate([b_minus, b_plus], axis=-1), rcond=1e-11)
    return np.eye(2 * m, dtype=complex)[None] - 2.0 * (b_minus @ pinv[:, : b_minus.shape[-1], :])


@pytest.mark.parametrize("kind", ["disk", "periodic"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_q_kernel_is_bitwise_the_bracket_loop(kind, n):
    # the kernel sums the brackets' coordinates in another order than the loop, so
    # it matches the loop to rounding; the solver's Q is the kernel's, bitwise
    phi, h = _fock_fields(kind, n)
    psi = cn.hermitian_adjoint_field(phi, h)
    npt = phi.chart.nx * phi.chart.ny
    fields = [f.reshape(npt, n, n) for f in (phi.d1, phi.d2, psi.d1, psi.d2)]
    want, got = _loop_q(*fields), fp.q_matrices(*fields)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert _bits(_linearization(kind, n)._qmat) == _bits(got)


@pytest.mark.parametrize("kind", ["disk", "periodic"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_assembled_matrix_matches_strong_form(kind, n):
    ctx = _linearization(kind, n)
    space = ctx.space
    rng = np.random.default_rng(n)
    coords = rng.standard_normal((ctx.chart.nx, ctx.chart.ny, space.dim))
    free = space.moments(ctx.apply(space.to_field(coords)).d0)
    got = ctx.apply_coords(coords)
    assert np.abs(got - free).max() <= 1e-12 * np.abs(free).max()
    mat = ctx.matrix
    active = np.repeat(space.active.ravel(), space.dim)
    sub = mat[active][:, active].toarray()
    assert np.abs(sub - sub.T).max() <= 1e-12 * np.abs(sub).max()
    inactive = mat[~active]
    assert inactive.nnz == 0 and np.abs(inactive.toarray()).max(initial=0.0) == 0.0
    if kind == "disk":
        assert (~active).any()


def test_linearized_operator_admissibility_guard():
    ch = chm.periodic_chart(12, 12)
    n = 2
    h = cn.identity_hermitian(ch, n)
    phi = _const_positive(ch, n, [0.0])
    conn = cn.fill_in(phi, h=h)
    bad = chm.LieForm(ch, 0, d0=np.broadcast_to(fiber.principal_nilpotent(n), phi.d1.shape).copy())
    ctx = sv.LinearizedContext(phi, conn, h)
    with pytest.raises(DomainMismatchError, match="outside the admissible space"):
        ctx.apply(bad)
    nan = ctx.space.to_field(np.zeros((ch.nx, ch.ny, ctx.space.dim)))
    nan.d0[3, 4] = np.nan
    with pytest.raises(DomainMismatchError, match="outside the admissible space"):
        ctx.apply(nan)


def test_linearized_matches_fd_of_discrete_map():
    rng = np.random.default_rng(5)
    n = 2
    ch = chm.periodic_chart(20, 20)
    h = cn.identity_hermitian(ch, n)
    phi = _const_positive(ch, n, [0.2])
    conn = cn.fill_in(phi, h=h)
    space = sv.AdmissibleSpace(h)
    eta, _ = _random_admissible(space, rng)

    def curv(scale):
        ef = chm.LieForm(ch, 0, d0=scale * eta.d0)
        phi_c = sv.conjugate_field(phi, ef)
        cc = cn.fill_in(phi_c, h=h)
        psi_c = cn.hermitian_adjoint_field(phi_c, h)
        return cn.curvature_total(cc, phi_c, psi_c).d0

    eps = 1e-5
    fd = (curv(eps) - curv(-eps)) / (2 * eps)
    lop = sv.LinearizedContext(phi, conn, h).apply(eta)
    rel = np.abs(fd - lop.d0).max() / np.abs(lop.d0).max()
    assert rel < 1e-6


def test_symbol_positivity_pointwise():
    # -(i/2) tr(eta alpha ^ Q(alpha eta)) is sign-definite for positive points
    rng = np.random.default_rng(6)
    n = 3
    s_plus = np.stack(fiber.sigma_plus_basis(n))
    sdag = fiber.dagger(s_plus)
    count = 0
    while count < 100:
        mu = 0.25 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        try:
            pt = fp.fock_point(n, mu)
        except DegenerateStructureError:
            continue
        if not fp.positivity_margins(pt.phi1[None], pt.phi2[None])[0] > fp.EPS_POS:
            continue
        count += 1
        q = fp.q_matrices(pt.phi1[None], pt.phi2[None], pt.phi2.conj().T[None], pt.phi1.conj().T[None])[0]
        p = rng.standard_normal() + 1j * rng.standard_normal()  # covector alpha = p dz + conj(p) dzbar
        for _ in range(5):
            x = fiber.random_traceless(n, rng)
            eta = 0.5 * (x + fiber.sigma(x))
            eta = 0.5 * (eta + eta.conj().T)  # admissible: sigma-even hermitian
            if np.abs(eta).max() < 1e-10:
                continue
            c = np.einsum("aij,ji->a", sdag, eta)  # sigma_plus_basis coordinates of eta
            qa, qb = np.einsum("ka,aij->kij", (q @ np.concatenate([p * c, np.conj(p) * c])).reshape(2, -1), s_plus)
            val = -(np.trace(eta @ (p * qb)) - np.trace(eta @ (np.conj(p) * qa))).real
            assert val < 0


def test_solve_linear_manufactured_and_trivial():
    rng = np.random.default_rng(7)
    n = 3
    ch = chm.periodic_chart(20, 20)
    h = cn.identity_hermitian(ch, n)
    phi = _const_positive(ch, n, [0.2, 0.05])
    conn = cn.fill_in(phi, h=h)
    ctx = sv.LinearizedContext(phi, conn, h)
    eta, _ = _random_admissible(ctx.space, rng)
    cfg = sv.NewtonConfig(cg_tol=1e-12, max_cg=2000)
    rhs = ctx.space.moments(ctx.apply(eta).d0)
    got, rep = ctx.solve(rhs, cfg)
    assert got.shape == rhs.shape
    assert np.abs(ctx.space.to_field(got).d0 - eta.d0).max() < 1e-7 * np.abs(eta.d0).max()
    assert rep["rayleigh_min"] > 0
    got0, rep0 = ctx.solve(np.zeros_like(rhs), cfg)
    assert np.abs(got0).max() == 0 and rep0["iterations"] == 0


def test_solve_linear_jacobi_preconditioner():
    # PCG against a dense direct solve of the same Galerkin system
    rng = np.random.default_rng(8)
    n = 2
    ch = chm.periodic_chart(20, 20)
    h = cn.identity_hermitian(ch, n)
    phi = _const_positive(ch, n, [0.1])
    conn = cn.fill_in(phi, h=h)
    ctx = sv.LinearizedContext(phi, conn, h)
    eta, _ = _random_admissible(ctx.space, rng)
    rhs = ctx.space.moments(ctx.apply(eta).d0)
    direct = np.linalg.solve(ctx.matrix.toarray(), rhs.ravel()).reshape(rhs.shape)
    pre, _ = ctx.solve(rhs, sv.NewtonConfig(cg_tol=1e-11, max_cg=3000))
    assert np.abs(ctx.space.to_field(direct).d0 - ctx.space.to_field(pre).d0).max() < 1e-8 * np.abs(eta.d0).max()


def test_newton_config_validation():
    with pytest.raises(ValueError):
        sv.NewtonConfig(continuation_steps=0)
    with pytest.raises(ValueError):
        sv.NewtonConfig(newton_tol=2.0)


def test_newton_continuation_small():
    ch = chm.disk_chart(32, 32, 0.5)
    fd = sv.fuchsian_reference(2, ch)
    bump = chm.bump_field(ch, radius=0.25, amplitude=0.004)
    # n = 2 has no higher coefficients; use n = 3 on a small grid instead
    fd3 = sv.fuchsian_reference(3, ch)
    mu = chm.BeltramiField(ch, 3, {3: bump.data})
    cfg = sv.NewtonConfig(continuation_steps=1, newton_tol=1e-9, cg_tol=1e-10, max_cg=3000)
    eta, rep = sv.newton_continuation(fd3, mu, cfg)
    assert rep["final_residual"] < 1e-9
    assert rep["per_step"][0]["newton_iters"] <= 8
    assert rep["projection_defect"] < 1e-12
    # converged point is a fixed point: re-running needs no further steps
    # (the residual map at the found eta starts below tolerance)
    mu0 = chm.BeltramiField(ch, 3, {})
    eta0, rep0 = sv.newton_continuation(fd3, mu0, cfg)
    assert rep0["per_step"] == [] and np.abs(eta0.d0).max() == 0.0


def test_newton_iteration_counts_do_not_rise(monkeypatch):
    # counts measured with the assembled matrix and the earlier pointwise
    # Jacobi formula: Newton [7, 3], 310 apply_coords calls in total; a better
    # preconditioner may lower them, never raise them
    ch = chm.disk_chart(16, 16, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    bump = chm.bump_field(ch, center=(0.02, -0.01), radius=0.3, amplitude=0.01)
    mu = chm.BeltramiField(ch, 3, {3: bump.data})
    cfg = sv.NewtonConfig(continuation_steps=2, newton_tol=1e-10, cg_tol=1e-11, max_cg=4000)
    apply_coords = sv.LinearizedContext.apply_coords
    calls = []

    def counted(ctx, coords):
        calls.append(1)
        return apply_coords(ctx, coords)

    monkeypatch.setattr(sv.LinearizedContext, "apply_coords", counted)
    _, rep = sv.newton_continuation(fd, mu, cfg)
    assert rep["final_residual"] <= 1e-10
    first, second = rep["per_step"]
    assert first["newton_iters"] <= 7 and second["newton_iters"] <= 3
    assert len(calls) <= 310


def test_eta_is_cauchy_under_refinement():
    # C6's problem on nested disks (every coarse point is a fine point).  The
    # difference on the common points falls at first order, about 2.6x per
    # halving, and it sits at the edge of the active region, which moves by
    # O(h) between grids: eta is pinned to zero on that staircase edge
    cfg = sv.NewtonConfig(continuation_steps=2, newton_tol=1e-10, cg_tol=1e-11, max_cg=4000)
    etas, charts = [], []
    for nx in (17, 33, 65):
        ch = chm.disk_chart(nx, nx, 0.5)
        bump = chm.bump_field(ch, center=(0.0, 0.0), radius=0.3, amplitude=0.01)
        eta, _ = sv.newton_continuation(sv.fuchsian_reference(3, ch), chm.BeltramiField(ch, 3, {3: bump.data}), cfg)
        etas.append(eta.d0)
        charts.append(ch)
    diffs = []
    for coarse, fine, ch in zip(etas, etas[1:], charts):
        gap = np.sqrt(np.sum(np.abs(coarse - fine[::2, ::2]) ** 2, axis=(-2, -1)))
        diffs.append(gap.max() / cn.frobenius_sup(fine))
        r = np.abs(ch.z())
        worst = np.unravel_index(np.argmax(gap), gap.shape)
        assert abs(r[worst] - r[ch.interior()].max()) <= 2 * ch.hx
    assert diffs[0] / diffs[1] >= 1.8


def test_newton_continuation_n5(monkeypatch):
    # C6's case at n = 5 on a 32^2 disk, with the C6 bump as mu_3 and mu_4.
    # Counts measured with the earlier pointwise Jacobi formula: Newton [9, 9]
    # with 1354 apply_coords calls, and [8, 9] with 1256 at half amplitude.
    # The chord contracts by about 0.15 per iteration at n = 5 (0.07 at n = 3).
    ch = chm.disk_chart(32, 32, 0.5)
    fd = sv.fuchsian_reference(5, ch)
    bump = chm.bump_field(ch, center=(0.0, 0.0), radius=0.3, amplitude=0.01)
    cfg = sv.NewtonConfig(continuation_steps=2, newton_tol=1e-10, cg_tol=1e-11, max_cg=4000)
    apply_coords = sv.LinearizedContext.apply_coords
    calls = []

    def counted(ctx, coords):
        calls.append(1)
        return apply_coords(ctx, coords)

    monkeypatch.setattr(sv.LinearizedContext, "apply_coords", counted)
    eta_sup = {}
    for amplitude, newton_bound, calls_bound in ((1.0, (9, 9), 1354), (0.5, (8, 9), 1256)):
        calls.clear()
        mu = chm.BeltramiField(ch, 5, {3: amplitude * bump.data, 4: amplitude * bump.data})
        _, rep = sv.newton_continuation(fd, mu, cfg)
        assert rep["final_residual"] < 1e-9
        assert len(rep["per_step"]) == 2
        assert len(calls) <= calls_bound
        for step, bound in zip(rep["per_step"], newton_bound):
            assert step["newton_iters"] <= bound
            hist = step["residuals"]
            for rk, rk1 in zip(hist, hist[1:]):
                if rk < 1e-3:
                    assert rk1 <= max(1e3 * rk * rk, 0.2 * rk)
        eta_sup[amplitude] = rep["eta_sup"]
    assert 0.4 < eta_sup[0.5] / eta_sup[1.0] < 0.6


@pytest.mark.parametrize("kind", ["disk", "periodic"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobi_inverts_the_matrix_diagonal_blocks(kind, n):
    ctx = _linearization(kind, n)
    d, active = ctx.space.dim, ctx.space.active.ravel()
    mat, pre = ctx.matrix.toarray(), ctx.jacobi.toarray()
    for p in np.flatnonzero(active):
        block = slice(p * d, (p + 1) * d)
        assert np.abs(pre[block, block] @ mat[block, block] - np.eye(d)).max() <= 1e-12
        # PCG needs a positive definite preconditioner
        assert np.linalg.eigvalsh(pre[block, block]).min() > 0
    off = np.repeat(~active, d)
    assert not pre[off].any() and not pre[:, off].any()
    assert np.abs(pre - pre.T).max() <= 1e-12 * np.abs(pre).max()
    if kind == "disk":
        assert off.any()


def test_chord_newton_builds_one_linearization_per_step(monkeypatch):
    # the case above: L and its preconditioner are built at each continuation
    # step's first Newton iteration only, and the secant predictor starts
    # step 2 near its solution
    ch = chm.disk_chart(16, 16, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    bump = chm.bump_field(ch, center=(0.02, -0.01), radius=0.3, amplitude=0.01)
    mu = chm.BeltramiField(ch, 3, {3: bump.data})
    cfg = sv.NewtonConfig(continuation_steps=2, newton_tol=1e-10, cg_tol=1e-11, max_cg=4000)
    init = sv.LinearizedContext.__init__
    built = []

    def counted(ctx, *args, **kwargs):
        built.append(1)
        init(ctx, *args, **kwargs)

    monkeypatch.setattr(sv.LinearizedContext, "__init__", counted)
    _, rep = sv.newton_continuation(fd, mu, cfg)
    first, second = rep["per_step"]
    assert rep["final_residual"] <= 1e-10
    assert len(built) == 2
    assert second["newton_iters"] < first["newton_iters"]
    assert second["residuals"][0] < 0.01 * first["residuals"][0]


def test_nan_residual_is_not_convergence(monkeypatch):
    ch = chm.disk_chart(16, 16, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    mu = chm.BeltramiField(ch, 3, {3: chm.bump_field(ch, radius=0.3, amplitude=0.01).data})
    curvature_total = sv.curvature_total
    calls = []

    def poisoned(*args, **kwargs):
        # the baseline curvature stays finite; every later one has a NaN
        curv = curvature_total(*args, **kwargs)
        if calls:
            curv.d0[8, 8] = np.nan
        calls.append(1)
        return curv

    monkeypatch.setattr(sv, "curvature_total", poisoned)
    with pytest.raises(NonConvergenceError):
        sv.newton_continuation(fd, mu, sv.NewtonConfig(continuation_steps=1, max_cg=5))


def test_cg_stops_at_once_on_non_finite_residual(monkeypatch):
    # with the default max_cg: a NaN Newton residual reaches CG as its
    # right-hand side, and CG fails before its first matvec
    ch = chm.disk_chart(16, 16, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    mu = chm.BeltramiField(ch, 3, {3: chm.bump_field(ch, radius=0.3, amplitude=0.01).data})
    curvature_total, apply_coords = sv.curvature_total, sv.LinearizedContext.apply_coords
    applies = []

    def poisoned(*args, **kwargs):  # the Newton map; its baseline is the reference's own curvature
        curv = curvature_total(*args, **kwargs)
        curv.d0[8, 8] = np.nan
        return curv

    def counted(ctx, coords):
        applies.append(1)
        return apply_coords(ctx, coords)

    monkeypatch.setattr(sv, "curvature_total", poisoned)
    monkeypatch.setattr(sv.LinearizedContext, "apply_coords", counted)
    cfg = sv.NewtonConfig(continuation_steps=1)
    assert cfg.max_cg == 4000
    with pytest.raises(NonConvergenceError, match="residual is not finite at iteration 0"):
        sv.newton_continuation(fd, mu, cfg)
    assert applies == []
    # a NaN that appears inside the iteration stops CG at that iteration
    ctx = sv.LinearizedContext(fd.Phi, fd.A, fd.h)
    rhs = ctx.space.moments(np.broadcast_to(fiber.sigma_plus_basis(3)[0], fd.Phi.d1.shape))

    def nan_on_third(ctx_, coords):
        applies.append(1)
        out = apply_coords(ctx_, coords)
        return out * np.nan if len(applies) == 3 else out

    monkeypatch.setattr(sv.LinearizedContext, "apply_coords", nan_on_third)
    with pytest.raises(NonConvergenceError, match="residual is not finite at iteration 3") as info:
        ctx.solve(rhs, sv.NewtonConfig())
    assert len(applies) == 3 and len(info.value.history) == 3


def test_cg_on_an_indefinite_matrix_loses_definiteness():
    # diag(3, -1) from (1, 1): the first direction has p.Lp = 2 > 0, the second
    # p = (2, 6) has p.Lp = -24, after one residual of norm 2 relative to |b|
    ctx = sv.LinearizedContext.__new__(sv.LinearizedContext)
    ctx.matrix, ctx.jacobi = np.diag([3.0, -1.0]), np.eye(2)
    with pytest.raises(NonConvergenceError, match=r"lost definiteness \(Rayleigh -6.000e-01\)") as info:
        ctx.solve(np.ones(2), sv.NewtonConfig())
    assert info.value.history == [2.0]


def _line_search_case(monkeypatch, inflated):
    """A one-step n = 3 continuation whose Newton map scales the curvature by
    10 at the evaluations k (counted from 1 within the continuation) with
    ``inflated(k)``; returns the reference, the target and the eta of every
    evaluation."""
    ch = chm.disk_chart(16, 16, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    mu = chm.BeltramiField(ch, 3, {3: chm.bump_field(ch, radius=0.3, amplitude=0.01).data})
    newton_map, conjugate_field, etas = sv._newton_map, sv.conjugate_field, []

    def recorded(phi, eta):
        etas.append(eta.d0)
        return conjugate_field(phi, eta)

    def scaled(phi, h):
        curv, conn = newton_map(phi, h)
        if inflated(len(etas)):
            curv = chm.LieForm(curv.chart, 2, d0=10.0 * curv.d0)
        return curv, conn

    monkeypatch.setattr(sv, "conjugate_field", recorded)
    monkeypatch.setattr(sv, "_newton_map", scaled)
    return fd, mu, etas


def test_line_search_halves_a_rejected_step(monkeypatch):
    fd, mu, etas = _line_search_case(monkeypatch, lambda k: k == 2)
    cfg = sv.NewtonConfig(continuation_steps=1)
    _, rep = sv.newton_continuation(fd, mu, cfg)
    (step,) = rep["per_step"]
    assert rep["final_residual"] <= cfg.newton_tol
    # the first evaluation is eta = 0, the second the full step, rejected;
    # the third, at step_len 0.5, is accepted and the next iteration starts there
    assert np.abs(etas[0]).max() == 0.0 and np.abs(etas[1]).max() > 0
    assert _bits(etas[2]) == _bits(0.5 * etas[1])
    assert step["residuals"][1] < (1.0 - 0.25 * 0.5) * step["residuals"][0]
    assert len(etas) == 1 + step["newton_iters"] + 1  # one evaluation more than the accepted steps


def test_line_search_failure_is_not_convergence(monkeypatch):
    fd, mu, etas = _line_search_case(monkeypatch, lambda k: k >= 2)
    with pytest.raises(NonConvergenceError, match="Newton line search failed at s=1.000") as info:
        sv.newton_continuation(fd, mu, sv.NewtonConfig(continuation_steps=1))
    assert len(etas) == 1 + 8  # eta = 0, then the 8 trials from step_len 1 down to 1/128
    assert [_bits(e) for e in etas[2:]] == [_bits(etas[1] / 2**k) for k in range(1, 8)]
    assert len(info.value.history) == 1 and info.value.history[0] > 0
    assert info.value.per_step == []


def test_newton_report_holds_the_final_field_and_connection():
    # what the CLI writes as phi.csv and A.csv without recomputing them
    ch = chm.disk_chart(16, 16, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    mu = chm.BeltramiField(ch, 3, {3: chm.bump_field(ch, radius=0.3, amplitude=0.01).data})
    for m in (mu, chm.BeltramiField(ch, 3, {})):
        eta, rep = sv.newton_continuation(fd, m, sv.NewtonConfig(continuation_steps=2))
        phi = sv.conjugate_field(hf.fock_form(fd.chart, m), eta)
        conn = cn.fill_in(phi, h=fd.h)
        for got, want in ((rep["phi"].d1, phi.d1), (rep["phi"].d2, phi.d2),
                          (rep["connection"].d1, conn.d1), (rep["connection"].d2, conn.d2)):
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_newton_baseline_is_the_reference_curvature(monkeypatch, n):
    # the Newton map at eta = 0 is bitwise the reference's own curvature, so
    # newton_continuation takes its baseline from the reference: a mu = 0
    # solve runs no fill_in and reports the reference's floor, field and connection
    ch = chm.disk_chart(16, 16, 0.5)
    fd = sv.fuchsian_reference(n, ch)
    assert fd.curvature_sup == cn.sup_norm(fd.curvature, mask=ch.interior())
    phi0 = sv.conjugate_field(fd.Phi, chm.LieForm(ch, 0, d0=np.zeros(fd.h.data.shape)))
    conn0 = cn.fill_in(phi0, h=fd.h)
    curv0 = cn.curvature_total(conn0, phi0, cn.hermitian_adjoint_field(phi0, fd.h))
    assert _bits(curv0.d0) == _bits(fd.curvature.d0)
    calls, fill_in = [], sv.fill_in
    monkeypatch.setattr(sv, "fill_in", lambda *args, **kwargs: calls.append(1) or fill_in(*args, **kwargs))
    _, rep = sv.newton_continuation(fd, chm.BeltramiField(ch, n, {}), sv.NewtonConfig())
    assert calls == []
    assert rep["curvature_floor"] == rep["curvature_sup"] == fd.curvature_sup
    assert rep["phi"] is fd.Phi and rep["connection"] is fd.A


def test_newton_continuation_fd_check_recorded():
    ch = chm.disk_chart(32, 32, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    bump = chm.bump_field(ch, radius=0.25, amplitude=0.003)
    mu = chm.BeltramiField(ch, 3, {3: bump.data})
    cfg = sv.NewtonConfig(continuation_steps=1, newton_tol=1e-9, cg_tol=1e-10, max_cg=3000, fd_check=True)
    _, rep = sv.newton_continuation(fd, mu, cfg)
    assert rep["fd_checks"] and rep["fd_checks"][0]["rel_mismatch"] < 0.05


def test_newton_continuation_rejects_bad_targets():
    ch = chm.disk_chart(32, 32, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    cfg = sv.NewtonConfig(continuation_steps=1)
    with pytest.raises(DomainMismatchError):
        mu = chm.BeltramiField(ch, 3, {2: 0.1 * np.ones((32, 32), dtype=complex)})
        sv.newton_continuation(fd, mu, cfg)
    with pytest.raises(DomainMismatchError):
        mu = chm.BeltramiField(ch, 3, {3: 0.1 * np.ones((32, 32), dtype=complex)})
        sv.newton_continuation(fd, mu, cfg)
    nan_outside = np.zeros((32, 32), dtype=complex)
    nan_outside[0, 0] = np.nan
    with pytest.raises(DomainMismatchError, match=r"mu_3 is not finite at grid point \(0, 0\)"):
        sv.newton_continuation(fd, chm.BeltramiField(ch, 3, {3: nan_outside}), cfg)
    with pytest.raises(DomainMismatchError, match="Beltrami data rank differs from the reference"):
        sv.newton_continuation(fd, chm.BeltramiField(ch, 2, {}), cfg)


def test_positivity_margin_field_is_the_pointwise_margin():
    # on constant fields every grid point is the same Fock point, so the field
    # margin is that point's margin exactly
    rng = np.random.default_rng(12)
    ch = chm.periodic_chart(8, 8)
    for n in (2, 3, 4):
        f = fiber.principal_nilpotent(n)
        for _ in range(15):
            try:
                pt = fp.fock_point(n, 0.4 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)))
            except DegenerateStructureError:
                continue
            a = 0.3 * fiber.random_traceless(n, rng)
            h = cn.hermitian_structure(ch, np.broadcast_to(a @ a.conj().T + np.eye(n), (ch.nx, ch.ny, n, n)))
            phi = chm.LieForm(ch, 1, d1=np.broadcast_to(f, h.data.shape).copy(), d2=np.broadcast_to(pt.phi2, h.data.shape).copy())
            assert sv.positivity_margin_field(phi, h) == fp.positivity_margins(f[None], pt.phi2[None], h.data[:1, 0])[0]
