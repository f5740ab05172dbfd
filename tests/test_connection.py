import tracemalloc

import numpy as np
import pytest

from fockbench import chart as chm
from fockbench import connection as cn
from fockbench import fiber
from fockbench import hcsflow as hf
from fockbench import solver as sv
from fockbench.errors import DomainMismatchError, TransversalityError


def _const_fock(ch, n, mu):
    f = fiber.principal_nilpotent(n)
    shape = (ch.nx, ch.ny, n, n)
    d2 = np.zeros(shape, dtype=complex)
    pw = np.eye(n, dtype=complex)
    for k, m in enumerate(mu, start=2):
        pw = pw @ f
        d2 = d2 + m * pw
    return chm.LieForm(ch, 1, d1=np.broadcast_to(f, shape).copy(), d2=d2)


def test_hermitian_structure_normalization():
    ch = chm.periodic_chart(8, 8)
    raw = np.broadcast_to(np.diag([2.0, 0.5, 1.0]), (8, 8, 3, 3)).copy()
    h = cn.hermitian_structure(ch, 3.0 * raw)
    assert np.abs(np.linalg.det(h.data) - 1).max() < 1e-12
    with pytest.raises(DomainMismatchError):
        # det = 1, so the normalization leaves the indefinite grid as it is
        cn.hermitian_structure(ch, np.broadcast_to(np.diag([1.0, -1.0, -1.0]), (8, 8, 3, 3)).copy())


@pytest.mark.parametrize(
    "entry, message",
    [
        (np.array([[2, 5, 0], [0, 1, 0], [0, 0, 0.5]]), r"not hermitian: \|h - h\^\+\| = 5.000e\+00 at flat grid point 29$"),
        (np.diag([2.0, np.nan, 1.0]), "non-finite entry at flat grid point 29$"),
    ],
)
def test_hermitian_structure_rejects_a_non_hermitian_or_non_finite_grid(entry, message):
    # checked before the det normalization, which would warn on a NaN and
    # whose eigvalsh positivity test reads only the lower triangle
    ch = chm.periodic_chart(8, 8)
    data = np.broadcast_to(np.diag([2.0, 0.5, 1.0]), (8, 8, 3, 3)).copy()
    data[3, 5] = entry
    with pytest.raises(DomainMismatchError, match=message):
        cn.hermitian_structure(ch, data)
    with pytest.raises(DomainMismatchError, match="at flat grid point 0$"):
        cn.hermitian_structure(ch, np.broadcast_to(entry, (8, 8, 3, 3)))


@pytest.mark.parametrize(
    "entry",
    [np.zeros((3, 3)), np.diag([1e-200, 1e-200, 1.0]), np.diag([1e160, 1e160, 1e160])],
    ids=["zero", "det-underflows", "det-overflows"],
)
def test_hermitian_structure_rejects_a_zero_or_non_finite_determinant(entry):
    # named before the det^{1/n} division, with no numpy warning (tier-1 makes one an error)
    ch = chm.periodic_chart(8, 8)
    data = np.broadcast_to(np.diag([2.0, 0.5, 1.0]), (8, 8, 3, 3)).copy()
    data[3, 5] = entry
    with pytest.raises(DomainMismatchError, match=r"zero or non-finite determinant \(.*\) at flat grid point 29$"):
        cn.hermitian_structure(ch, data)
    with pytest.raises(DomainMismatchError, match=r"zero or non-finite determinant \(.*\) at flat grid point 0$"):
        cn.hermitian_structure(ch, np.broadcast_to(entry, (8, 8, 3, 3)))


def test_hermitian_adjoint_identity_metric():
    ch = chm.periodic_chart(8, 8)
    n = 4
    phi = _const_fock(ch, n, [0.0, 0.0, 0.0])
    h = cn.identity_hermitian(ch, n)
    psi = cn.hermitian_adjoint_field(phi, h)
    f = fiber.principal_nilpotent(n)
    assert np.abs(psi.d2 - f.conj().T).max() == 0
    assert np.abs(psi.d1).max() == 0
    # involutivity
    again = cn.hermitian_adjoint_field(psi, h)
    assert np.abs(again.d1 - phi.d1).max() == 0
    assert np.abs(again.d2 - phi.d2).max() == 0


def test_hermitian_adjoint_fuchsian_n2():
    ch = chm.disk_chart(17, 17, 0.5)
    z = ch.z()
    g = 1.0 / (1 - np.abs(z) ** 2) ** 2
    h = np.zeros((17, 17, 2, 2), dtype=complex)
    h[..., 0, 0] = g ** (-0.5)
    h[..., 1, 1] = g ** 0.5
    hfield = cn.HermitianField(ch, h)
    phi = _const_fock(ch, 2, [0.0])
    psi = cn.hermitian_adjoint_field(phi, hfield)
    e_unit = fiber.principal_nilpotent(2).conj().T
    assert np.abs(psi.d2 - g[..., None, None] * e_unit).max() < 1e-12
    (a1, a2) = (psi.d1, psi.d2)
    again = cn.hermitian_adjoint_field(psi, hfield)
    assert np.abs(again.d1 - phi.d1).max() < 1e-12


def test_fill_in_constant_fields_gives_zero():
    ch = chm.periodic_chart(12, 12)
    for n in (2, 3):
        phi = _const_fock(ch, n, [0.2, 0.1][: n - 1])
        h = cn.identity_hermitian(ch, n)
        conn = cn.fill_in(phi, h)
        assert cn.sup_norm(conn) < 1e-11
        assert cn.connection_report(phi, conn, h)["sigma_invariant"]


def test_sigma_defect_propagates_nan():
    # a NaN in the dzbar component alone is not dropped by the reduction
    ch = chm.periodic_chart(8, 8)
    n = 3
    phi = _const_fock(ch, n, [0.2, 0.1])
    d2 = np.zeros(phi.d1.shape, dtype=complex)
    d2[3, 4, 0, 1] = np.nan
    a = chm.LieForm(ch, 1, d1=np.zeros_like(d2), d2=d2)
    assert np.isnan(cn.sigma_defect(a))
    rep = cn.connection_report(phi, a, h=cn.identity_hermitian(ch, n))
    assert np.isnan(rep["sigma_defect"]) and not rep["sigma_invariant"]


def test_fill_in_requires_psi_or_h():
    ch = chm.periodic_chart(8, 8)
    phi = _const_fock(ch, 2, [0.0])
    with pytest.raises(TypeError):  # h is required: psi is always the h-adjoint of phi
        cn.fill_in(phi)


def test_adjoint_and_fill_in_reject_other_degrees():
    ch = chm.periodic_chart(8, 8)
    h = cn.identity_hermitian(ch, 2)
    scalar = chm.LieForm(ch, 0, d0=np.zeros((8, 8, 2, 2), dtype=complex))
    with pytest.raises(DomainMismatchError, match="hermitian adjoint expects a degree-1 field"):
        cn.hermitian_adjoint_field(scalar, h)
    with pytest.raises(DomainMismatchError, match="fill_in expects degree-1 fields"):
        cn.fill_in(scalar, h)


def test_fill_in_determinism_two_methods(pinv_fill_in):
    rng = np.random.default_rng(0)
    ch = chm.periodic_chart(16, 16)
    n = 3
    mu = chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.1).data for k in (2, 3)})
    phi = hf.fock_form(ch, mu)
    h = cn.identity_hermitian(ch, n)
    u1 = cn.fill_in(phi, h)
    u2 = pinv_fill_in(phi, h)
    diff = max(np.abs(u1.d1 - u2.d1).max(), np.abs(u1.d2 - u2.d2).max())
    assert diff < 1e-10


def test_fill_in_gauge_covariance_constant_gauge():
    rng = np.random.default_rng(1)
    ch = chm.periodic_chart(16, 16)
    n = 3
    mu = chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.08).data for k in (2, 3)})
    phi = hf.fock_form(ch, mu)
    h = cn.identity_hermitian(ch, n)
    conn = cn.fill_in(phi, h)
    s = 0.3 * fiber.sigma_plus_basis(n)[0] + 0.2 * fiber.sigma_plus_basis(n)[2]
    g, gi = sv.expm_pair(s[None, None])
    conj = lambda x: gi @ x @ g
    phi_g = chm.LieForm(ch, 1, d1=conj(phi.d1), d2=conj(phi.d2))
    # the h_g-adjoint of g^-1 X g is g^-1 X^{*h} g for h_g = g^+ h g
    h_g = cn.HermitianField(ch, fiber.dagger(g) @ h.data @ g)
    conn_g = cn.fill_in(phi_g, h_g)
    expect1 = conj(conn.d1)
    expect2 = conj(conn.d2)
    assert np.abs(conn_g.d1 - expect1).max() < 1e-9
    assert np.abs(conn_g.d2 - expect2).max() < 1e-9


def test_fill_in_unitary_reproduces_chern_and_uniqueness():
    for n in (2, 3):
        ch = chm.disk_chart(33, 33, 0.5)
        fd = sv.fuchsian_reference(n, ch)
        chern = fd.h.inv() @ chm.dz_array(ch, fd.h.data, "rect")
        m = ch.mask()
        diff = np.abs(fd.A.d1 - chern)[m].max() + np.abs(fd.A.d2)[m].max()
        assert diff < 1e-10
        report = cn.connection_report(fd.Phi, fd.A, h=fd.h)
        assert report["unitary"]
        assert report["unitarity_defect"] < 1e-10


def test_connection_report_reads_the_stencil_of_the_fields():
    # the reference's fields carry the rect stencil on their chart, so the
    # report of its exact Chern connection needs no policy to find it unitary
    fd = sv.fuchsian_reference(3, chm.disk_chart(24, 24, 0.5))
    assert fd.chart.stencil == fd.Phi.chart.stencil == fd.h.chart.stencil == fd.A.chart.stencil == "rect"
    report = cn.connection_report(fd.Phi, fd.A, h=fd.h)
    assert report["unitary"] and report["unitarity_defect"] < 1e-12
    ch = chm.disk_chart(24, 24, 0.5)
    masked = hf.fock_form(ch, chm.BeltramiField(ch, 3, {}))  # fd.Phi's values on the default stencil
    with pytest.raises(DomainMismatchError, match="on one chart"):  # it would mix two stencils
        cn.connection_report(masked, fd.A, h=fd.h)


def test_unitary_fill_in_rejects_h_on_another_chart():
    ch = chm.disk_chart(16, 16, 0.5)
    _, phi, h = sv._fuchsian_fields(3, ch, 2.0)
    masked = cn.HermitianField(ch, h.data)  # the same values, on the chart's default stencil
    with pytest.raises(DomainMismatchError, match="different charts"):
        cn.fill_in(phi, h=masked)
    with pytest.raises(DomainMismatchError, match="different charts"):
        cn.inject_covector(phi, masked, chm.CovectorField(ch, 3, {}))
    assert "_derived" not in masked.__dict__  # nothing was differentiated on the wrong stencil


def test_fill_in_matches_the_pinv_oracle_on_a_disk(pinv_fill_in):
    _, phi, h = sv._fuchsian_fields(2, chm.disk_chart(16, 16, 0.5), 1.0)
    normal, svd = cn.fill_in(phi, h=h), pinv_fill_in(phi, h=h)
    assert np.abs(normal.d1 - svd.d1).max() < 1e-10


def test_pointwise_singularity_test_ignores_column_scale():
    # columns scaled 1e9 apart leave the raw Gram's eigenvalue ratio near
    # 1e-19, yet the equilibrated Gram is well conditioned and the solve exact;
    # a zero column is singular, without a divide-by-zero warning
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((4, 6, 3))
    mats[:, :, 2] *= 1e-9
    rhs = rng.standard_normal((4, 6))
    want = np.stack([np.linalg.lstsq(m, r, rcond=None)[0] for m, r in zip(mats, rhs)])
    got = cn._solve_batched(mats, rhs, "test")
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    mats[1, :, 0] = 0.0
    with pytest.raises(TransversalityError, match="test: singular pointwise system") as info:
        cn._solve_batched(mats, rhs, "test")
    assert info.value.point == 1


def test_fill_in_inverts_the_hermitian_field_once(monkeypatch):
    _, phi, h = sv._fuchsian_fields(3, chm.disk_chart(16, 16, 0.5), 2.0)
    inv, calls = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    cn.fill_in(phi, h=h)
    assert calls == [h.data.shape]
    cn.fill_in(phi, h=h)
    assert len(calls) == 1


@pytest.mark.parametrize("kind, n", [("periodic", 3), ("disk", 2), ("disk", 3), ("disk", 4)])
def test_identity_structure_agrees_with_the_generic_path(monkeypatch, kind, n):
    # the identity's h-adjoint is the dagger, with no inverse: the values equal
    # those of a generic field on the same identity grid (== ignores signed zeros)
    rng = np.random.default_rng(n)
    ch = chm.periodic_chart(16, 16) if kind == "periodic" else chm.disk_chart(16, 16, 0.5)
    mu, t = (
        chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=a).data for k in range(2, n + 1)})
        for a in (0.05, 0.2)
    )
    phi = hf.fock_form(ch, mu)
    ham = hf.HamiltonianTerm(2, chm.ScalarField(ch, chm.random_smooth_scalar(ch, rng, amplitude=0.1).data))

    def outputs(h):
        psi = cn.hermitian_adjoint_field(phi, h)
        conn = cn.fill_in(phi, h)
        phi2, a2 = hf.flow_step(phi, conn, h, ham, 1e-3)
        inj = cn.inject_covector(phi, h, t)
        return [psi.d1, psi.d2, conn.d1, conn.d2, phi2.d1, phi2.d2, a2.d1, a2.d2, inj.d1, inj.d2]

    want = outputs(cn.HermitianField(ch, np.broadcast_to(np.eye(n, dtype=complex), (16, 16, n, n)).copy()))
    inv, calls = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    got = outputs(cn.identity_hermitian(ch, n))
    assert calls == []
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _unitary_cases(n):
    """A Fuchsian disk and a periodic chart with a random metric and covector,
    neither point count a multiple of 7."""
    _, phi, h = sv._fuchsian_fields(n, chm.disk_chart(18, 18, 0.5), 2.0)
    yield phi, h, chm.CovectorField(phi.chart, n, {})
    rng = np.random.default_rng(n)
    ch = chm.periodic_chart(15, 15)
    mu = chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.1).data for k in range(2, n + 1)})
    g = np.eye(n) + 0.2 * (rng.standard_normal((15, 15, n, n)) + 1j * rng.standard_normal((15, 15, n, n)))
    h = cn.hermitian_structure(ch, g @ fiber.dagger(g))
    t = chm.CovectorField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.1).data for k in range(2, n + 1)})
    yield hf.fock_form(ch, mu), h, t


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unitary_columns_are_the_pointwise_commutators(n):
    # per-point adjoints of a Fuchsian h on a disk, and the identity's broadcast ones
    rng = np.random.default_rng(n)
    ch = chm.disk_chart(12, 12, 0.5)
    npt = ch.nx * ch.ny
    p1, p2 = (rng.standard_normal((npt, n, n)) + 1j * rng.standard_normal((npt, n, n)) for _ in range(2))
    basis = np.stack(fiber.sigma_plus_basis(n))
    k = basis.shape[0]
    for h in (sv._fuchsian_fields(n, ch, 2.0)[2], cn.identity_hermitian(ch, n)):
        adjoints = h.sigma_adjoints()
        cols = cn._unitary_cols(p1, p2, basis, adjoints)
        assert cols.shape == (npt, n * n, 2 * k) and cols.flags.c_contiguous
        ref = np.empty((npt, n * n, k, 2), dtype=complex)  # the real, then the imaginary direction of each s
        for p in range(npt):
            for j in range(k):
                br1 = fiber.commutator(basis[j], p2[p]).reshape(-1)
                br2 = fiber.commutator(adjoints[p, j], p1[p]).reshape(-1)
                ref[p, :, j] = np.stack([br1 + br2, 1j * (br1 - br2)], axis=-1)
        assert np.abs(cols - ref.reshape(cols.shape)).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitary_solves_are_bitwise_the_same_for_every_block_size(monkeypatch, n):
    # every step per block is a per-point product, eigenvalue test or solve, so
    # blocks of 1 point, of 7 points (the last one partial) and one block of
    # all points give the same bits
    for phi, h, t in _unitary_cases(n):
        got = []
        for block in (1, 7, phi.chart.nx * phi.chart.ny):
            monkeypatch.setattr(cn, "_BLOCK", block)
            forms = (cn.fill_in(phi, h=h), cn.inject_covector(phi, h, t))
            got.append([_bits(a.view(float)) for form in forms for a in (form.d1, form.d2)])
        assert got[0] == got[1] == got[2]


def test_blocked_solves_name_the_grid_point_of_a_singular_system(monkeypatch):
    monkeypatch.setattr(cn, "_BLOCK", 7)
    ch = chm.periodic_chart(10, 10)  # 100 points: 14 blocks of 7, then a block of 2
    phi = _const_fock(ch, 3, [0.1, 0.05])
    phi.d1[9, 9] = phi.d2[9, 9] = 0.0  # flat point 99, the second point of the last block
    h = cn.identity_hermitian(ch, 3)
    with pytest.raises(TransversalityError, match=r"fill_in\(unitary\): singular pointwise system") as info:
        cn.fill_in(phi, h=h)
    assert info.value.point == 99
    with pytest.raises(TransversalityError, match="inject_covector: singular KKT system at grid point 99") as info:
        cn.inject_covector(phi, h, chm.CovectorField(ch, 3, {}))
    assert info.value.point == 99


@pytest.mark.parametrize("solver, bound_mib", [("inject_covector", 12.0), ("fill_in", 5.0)])
def test_unitary_solves_hold_one_block_of_points(solver, bound_mib):
    # the pointwise systems are built one block at a time, so the traced peak
    # on a 64^2 disk (n = 3) is a few grid-sized arrays; built for the whole
    # grid at once they peaked at 44.6 MiB (inject_covector) and 8.3 MiB (fill_in)
    _, phi, h = sv._fuchsian_fields(3, chm.disk_chart(64, 64, 0.5), 2.0)
    t = chm.CovectorField(phi.chart, 3, {})
    solve = {"inject_covector": lambda: cn.inject_covector(phi, h, t), "fill_in": lambda: cn.fill_in(phi, h=h)}[solver]
    solve()  # h's inverse, base point and adjoints are cached on the field first
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def _eager_report(phi, h, conn):
    """The diagnostics of a connection solved from (phi, h), written out: the
    report and the (sigma_invariant, unitary) flags."""
    ch, a1, a2 = phi.chart, conn.d1, conn.d2
    mask = ch.mask()

    def compat(f):
        df = chm.exterior_d(f).d0
        return np.abs((df + a1 @ f.d2 - f.d2 @ a1 - (a2 @ f.d1 - f.d1 @ a2))[mask]).max()

    rep = {}
    rep["compat_residual_phi"] = float(compat(phi))
    rep["compat_residual_psi"] = float(compat(cn.hermitian_adjoint_field(phi, h)))
    rep["sigma_defect"] = cn.sigma_defect(conn)
    sig = rep["sigma_defect"] < 1e-9 * max(1.0, float(np.abs(a1[mask]).max()))
    rep["unitarity_defect"] = cn.unitarity_defect(conn, h)
    uni = rep["unitarity_defect"] < 1e-8 * max(1.0, float(np.abs(h.data).max()))
    rep["warnings"] = []
    if rep["compat_residual_phi"] > max(ch.hx * ch.hx * 10.0 * max(1.0, cn.sup_norm(phi)) * 100.0, 1e-6):
        rep["warnings"].append(f"phi-compatibility residual {rep['compat_residual_phi']:.3e} above the h^2 floor")
    return rep, sig, uni


def _fill_in_cases():
    ch = chm.disk_chart(32, 32, 0.5)
    _, phi, h = sv._fuchsian_fields(3, ch, 2.0)
    yield phi, h
    rng = np.random.default_rng(8)
    per = chm.periodic_chart(16, 16)
    mu = chm.BeltramiField(per, 3, {k: chm.random_smooth_scalar(per, rng, amplitude=0.3).data for k in (2, 3)})
    yield hf.fock_form(per, mu), cn.identity_hermitian(per, 3)


def test_connection_report_is_computed_only_when_called(monkeypatch):
    counts = {"sigma_defect": 0, "unitarity_defect": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(cn, name, counting(name, getattr(cn, name)))
    for phi, h in _fill_in_cases():
        counts.update(sigma_defect=0, unitarity_defect=0)
        conns = [cn.fill_in(phi, h), cn.inject_covector(phi, h, chm.CovectorField(phi.chart, phi.n, {}))]
        assert counts == {"sigma_defect": 0, "unitarity_defect": 0}  # the solvers compute no diagnostics
        for conn in conns:
            counts.update(sigma_defect=0, unitarity_defect=0)
            report = cn.connection_report(phi, conn, h)
            assert counts == {"sigma_defect": 1, "unitarity_defect": 1}  # once per call
            want_report, *want_flags = _eager_report(phi, h, conn)
            assert list(report)[-2:] == ["sigma_invariant", "unitary"]
            assert [report.pop("sigma_invariant"), report.pop("unitary")] == want_flags
            assert report == want_report and list(report) == list(want_report)


def test_hermitian_field_pieces_are_cached_read_only():
    ch = chm.disk_chart(16, 16, 0.5)
    _, phi, h = sv._fuchsian_fields(3, ch, 2.0)
    cn.fill_in(phi, h=h)
    cn.inject_covector(phi, h, chm.BeltramiField(phi.chart, 3, {}))
    npt, n = ch.nx * ch.ny, 3
    hh, hinv = h.data.reshape(npt, n, n), np.linalg.inv(h.data).reshape(npt, n, n)
    fresh = {
        "inv": np.linalg.inv(h.data),
        "chern": np.linalg.inv(h.data) @ chm.dz_array(ch, h.data, "rect"),
    }
    # the stacked adjoints, bitwise the adjoints taken one direction at a time
    fresh["sigma_adjoints"] = np.stack([hinv @ fiber.dagger(s) @ hh for s in fiber.sigma_plus_basis(n)], axis=1)
    cached = h._derived
    assert set(cached) == set(fresh)  # inject_covector's sl_n adjoints are used once and not kept
    for key, value in cached.items():
        got = value if isinstance(value, tuple) else (value,)
        want = fresh[key] if isinstance(fresh[key], tuple) else (fresh[key],)
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
        for arr in got:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert h.inv() is cached["inv"]
    assert cn._unitary_base(h)[0] is cached["chern"]


def test_curvature_total_basics():
    ch = chm.periodic_chart(12, 12)
    n = 2
    zero1 = chm.LieForm(ch, 1, d1=np.zeros((12, 12, n, n), dtype=complex), d2=np.zeros((12, 12, n, n), dtype=complex))
    curv = cn.curvature_total(zero1, zero1, zero1)
    assert np.abs(curv.d0).max() == 0
    phi = _const_fock(ch, n, [0.0])
    h = cn.identity_hermitian(ch, n)
    psi = cn.hermitian_adjoint_field(phi, h)
    curv = cn.curvature_total(zero1, phi, psi)
    f = fiber.principal_nilpotent(n)
    expect = f @ f.conj().T - f.conj().T @ f
    assert np.abs(curv.d0 - expect).max() < 1e-14
    assert np.abs(expect).max() > 0


def test_curvature_rho_invariance():
    # the [Phi ^ Phi*] part is exactly h-hermitian; the F(A) part carries the
    # stencil floor, which shrinks at second order
    defects = {}
    for nx in (33, 65):
        ch = chm.disk_chart(nx, nx, 0.5)
        fd = sv.fuchsian_reference(3, ch)
        psi = cn.hermitian_adjoint_field(fd.Phi, fd.h)
        wb = chm.wedge_bracket(fd.Phi, psi)
        hh, hinv = fd.h.data, fd.h.inv()
        adj = lambda c: hinv @ np.conj(np.swapaxes(c, -1, -2)) @ hh
        m = ch.interior()
        assert np.abs((adj(wb.d0) - wb.d0))[m].max() < 1e-10
        curv = cn.curvature_total(fd.A, fd.Phi, psi)
        defects[nx] = np.abs(adj(curv.d0) - curv.d0)[m].max()
    assert defects[33] / defects[65] > 2.5


def test_lambda_independence_floor():
    # the lambda-dependent coefficients of the pencil curvature sit at the
    # discretization floor: [Phi^Phi] = 0 exactly and d_A Phi = O(h^2)
    ch = chm.disk_chart(33, 33, 0.5)
    fd = sv.fuchsian_reference(2, ch)
    psi = cn.hermitian_adjoint_field(fd.Phi, fd.h)
    assert np.abs(chm.wedge_bracket(fd.Phi, fd.Phi).d0).max() == 0
    assert np.abs(chm.wedge_bracket(psi, psi).d0).max() < 1e-12
    report = cn.connection_report(fd.Phi, fd.A, h=fd.h)
    assert report["compat_residual_phi"] < 1e-10
    assert report["compat_residual_psi"] < 100 * ch.hx**2


def test_covector_extract_sigma_invariant_is_zero():
    ch = chm.disk_chart(33, 33, 0.5)
    fd = sv.fuchsian_reference(3, ch)
    t = cn.covector_extract(fd.A, fd.Phi)
    # the unitary fill-in keeps A exactly in the sigma-even family built on a
    # sigma-even base, so the extracted covector vanishes identically there
    for k in (2, 3):
        assert np.abs(t.comp(k)).max() < 1e-10


def test_inject_roundtrip_and_base_point():
    rng = np.random.default_rng(2)
    n = 3
    ch = chm.periodic_chart(24, 24)
    mu = chm.BeltramiField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.06).data for k in (2, 3)})
    phi = hf.fock_form(ch, mu)
    h = cn.identity_hermitian(ch, n)
    t = chm.CovectorField(ch, n, {k: chm.random_smooth_scalar(ch, rng, amplitude=0.2).data for k in (2, 3)})
    conn = cn.inject_covector(phi, h, t)
    assert cn.connection_report(phi, conn, h=h)["unitary"]
    back = cn.covector_extract(conn, phi)
    for k in (2, 3):
        assert np.abs(back.comp(k) - t.comp(k)).max() < 1e-10
    # t = 0 agrees with the unitary fill-in (generalized base point)
    t0 = chm.CovectorField(ch, n, {})
    base = cn.inject_covector(phi, h, t0)
    filled = cn.fill_in(phi, h=h)
    assert np.abs(base.d1 - filled.d1).max() < 1e-9
    assert np.abs(base.d2 - filled.d2).max() < 1e-9


def test_inject_constant_phi_centralizer_membership():
    # with constant Phi the sigma-odd part of the injected connection lies
    # pointwise in ker ad_Phi and ker ad_Phi*
    ch = chm.periodic_chart(24, 24)
    n = 3
    phi = _const_fock(ch, n, [0.1, 0.05])
    h = cn.identity_hermitian(ch, n)
    t = chm.CovectorField(ch, n, {3: chm.bump_field(ch, center=(0.7, 0.4), radius=0.2, amplitude=0.3).data})
    conn = cn.inject_covector(phi, h, t)
    _, am1 = fiber.sigma_split(conn.d1)
    _, am2 = fiber.sigma_split(conn.d2)
    am = chm.LieForm(ch, 1, d1=am1, d2=am2)
    psi = cn.hermitian_adjoint_field(phi, h)
    d1 = np.abs(chm.wedge_bracket(am, phi).d0).max()
    d2 = np.abs(chm.wedge_bracket(am, psi).d0).max()
    scale = max(np.abs(am.d1).max(), 1e-300)
    assert d1 < 1e-9 * max(scale, 1.0)
    assert d2 < 1e-7 * max(scale, 1.0)


def test_sigma_defect_is_taken_over_the_mask():
    ch = chm.disk_chart(16, 16, 0.5)
    f = fiber.principal_nilpotent(3)  # sigma(F) = -F
    d1 = np.zeros((16, 16, 3, 3), dtype=complex)
    d1[~ch.mask()] = f
    a = chm.LieForm(ch, 1, d1=d1, d2=np.zeros_like(d1))
    assert cn.sigma_defect(a) == 0.0
    d1[8, 8] = f
    assert ch.mask()[8, 8] and cn.sigma_defect(a) == float(np.abs(2 * f).max())


def test_sup_norm_propagates_nan():
    ch = chm.disk_chart(12, 12, 0.5)
    d0 = np.random.default_rng(0).standard_normal((12, 12, 3, 3)) + 0j
    form = chm.LieForm(ch, 0, d0=d0)
    nrm = np.sqrt(np.sum(np.abs(d0) ** 2, axis=(-2, -1)))
    assert cn.sup_norm(form) == float(nrm[ch.mask()].max())
    assert cn.sup_norm(form, mask=ch.interior()) == float(nrm[ch.interior()].max())
    d0[6, 6, 1, 2] = np.nan
    assert ch.mask()[6, 6] and np.isnan(cn.sup_norm(form))
    d1 = np.zeros_like(d0)
    assert np.isnan(cn.sup_norm(chm.LieForm(ch, 1, d1=d1, d2=d0)))
    assert np.isnan(cn.sup_norm(chm.LieForm(ch, 1, d1=d0, d2=d1)))


def test_sup_norm_and_defect_helpers():
    ch = chm.periodic_chart(8, 8)
    n = 2
    phi = _const_fock(ch, n, [0.0])
    h = cn.identity_hermitian(ch, n)
    conn = cn.fill_in(phi, h=h)
    assert cn.sigma_defect(conn) < 1e-12
    assert cn.unitarity_defect(conn, h) < 1e-12
