"""Exact pointwise Lie-algebra computations in sl_n(C).

Everything here is fiberwise: plain (n, n) complex matrices, no grids.
Conventions used throughout the package:

* F is the subdiagonal of ones, H = diag(n-1, n-3, ..., 1-n), and E is the
  superdiagonal with entries i*(n-i), so that [H, E] = 2E, [H, F] = -2F,
  [E, F] = H hold with integer arithmetic.
* J is the antidiagonal matrix of ones.  The linear involution is
  sigma(X) = -J X^T J, the antilinear one is rho(X) = -X^dagger, and
  tau = sigma o rho.  With the E-normalization above, sigma(F) = -F and
  sigma(E) = -E.
* Operators on sl_n are expressed against the fixed basis returned by
  ``sl_basis``: elementary matrices E_ab (a != b) in row-major order
  followed by the diagonal differences E_aa - E_{a+1,a+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainMismatchError, InvalidDimensionError

__all__ = [
    "commutator",
    "dagger",
    "sigma_split",
    "powers",
    "ad_columns",
    "ad_traces",
    "sqrtm_pd",
    "principal_nilpotent",
    "Sl2Triple",
    "complete_sl2_triple",
    "weight_basis",
    "sl_basis",
    "centralizer_basis",
    "is_principal_nilpotent",
    "sigma",
    "rho",
    "sigma_plus_basis",
    "sigma_minus_basis",
    "random_traceless",
]


# Batched kernels: every one broadcasts over leading axes, so it applies equally
# to a single matrix, a stack of basis elements or a whole grid of them.


def commutator(x, y):
    """[x, y] = xy - yx, broadcasting over leading axes."""
    return x @ y - y @ x


def dagger(x):
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(x, -1, -2))


def sigma_split(x):
    """(x^sigma, x^-sigma): the sigma-even and sigma-odd parts of x, with
    x^-sigma = (x - sigma x) / 2 and x^sigma = x - x^-sigma."""
    minus = 0.5 * (x - sigma(x))
    return x - minus, minus


def powers(x, k):
    """[x, x^2, ..., x^k] by repeated right multiplication."""
    out = []
    for _ in range(k):
        out.append(out[-1] @ x if out else x)
    return out


@lru_cache(maxsize=64)
def _structure(dual, basis):
    """The read-only tensor (n^2, J K) of ad between the constant stacks dual d
    (J, n, n) and basis b (K, n, n), each given by its (shape, bytes) so that it
    is built once per process: row u holds tr(d_j [E_u, b_k]) over (j, k), E_u
    the u-th elementary matrix in row-major order."""
    d, b = (np.frombuffer(data, dtype=complex).reshape(shape) for shape, data in (dual, basis))
    n = b.shape[-1]
    c = commutator(np.eye(n * n, dtype=complex).reshape(n * n, 1, n, n), b)
    t = np.ascontiguousarray(np.einsum("jab,ukba->ujk", d, c).reshape(n * n, -1))
    t.flags.writeable = False
    return t


def ad_traces(p, x, y):
    """tr(x_i [p, y_j]) per matrix of p (..., n, n), for constant stacks x (I, n, n)
    and y (J, n, n): ad_p from the basis y to the coordinates x, as (..., I, J),
    one GEMM of vec p against their cached structure tensor."""
    x, y = (np.asarray(a, dtype=complex) for a in (x, y))
    t = _structure((x.shape, x.tobytes()), (y.shape, y.tobytes()))
    return (p.reshape(-1, y.shape[-1] ** 2) @ t).reshape(p.shape[:-2] + (x.shape[0], y.shape[0]))


def ad_columns(p, basis):
    """The matrix of ad_p against ``basis``: column k is vec [p, basis[k]].

    p is (..., n, n) and basis (K, n, n); the result is a C-ordered (..., n^2, K),
    the ``ad_traces`` against the transposed elementary matrices, which read off
    the entries.
    """
    n = np.shape(basis)[-1]
    return ad_traces(p, np.eye(n * n).reshape(n * n, n, n).swapaxes(1, 2), basis)


def sqrtm_pd(h):
    """(h^1/2, h^-1/2) of positive definite hermitian h, from one eigh."""
    w, v = np.linalg.eigh(h)
    if w.min() <= 0:
        raise DomainMismatchError("hermitian structure must be positive definite")
    r = np.sqrt(w)[..., None, :]
    return (v * r) @ dagger(v), (v / r) @ dagger(v)


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidDimensionError(f"matrix size must be an integer >= 2, got {n!r}")


def principal_nilpotent(n: int) -> np.ndarray:
    """Subdiagonal of ones; the reference regular nilpotent of sl_n."""
    _check_n(n)
    f = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    f[idx + 1, idx] = 1.0
    return f


@dataclass(frozen=True)
class Sl2Triple:
    """Triple (F, H, E) with [H,E] = 2E, [H,F] = -2F, [E,F] = H."""

    n: int
    F: np.ndarray
    H: np.ndarray
    E: np.ndarray


def complete_sl2_triple(n: int) -> Sl2Triple:
    """Complete the reference nilpotent F into the standard triple.

    H = diag(n-1, n-3, ..., 1-n) and E has superdiagonal entries i*(n-i);
    the bracket relations then hold exactly in integer arithmetic.
    """
    _check_n(n)
    f = principal_nilpotent(n)
    h = np.diag(np.array([n - 1 - 2 * i for i in range(n)], dtype=complex))
    e = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        e[i - 1, i] = i * (n - i)
    return Sl2Triple(n=n, F=f, H=h, E=e)


def weight_basis(n: int):
    """Basis of sl_n graded by the standard triple.

    Returns the list of tuples (i, j, B_ij) with B_ij = ad_F^{i-j}(E^i) for
    i = 1..n-1 and j = i, i-1, ..., -i.  B_ij is an eigenvector of ad_H with
    eigenvalue 2j, the list has n^2 - 1 members, and tr(B_ij B_kl) vanishes
    unless (k, l) = (i, -j).

    The matrices carry Python integers (object dtype), so trace identities
    can be checked without floating-point cancellation.
    """
    _check_n(n)
    triple = complete_sl2_triple(n)
    f = triple.F.real.astype(int).astype(object)
    e = triple.E.real.astype(int).astype(object)
    out = []
    for i in range(1, n):
        cur = np.linalg.matrix_power(e, i)
        j = i
        out.append((i, j, cur))
        while j > -i:
            cur = f @ cur - cur @ f
            j -= 1
            out.append((i, j, cur))
    return out


@lru_cache(maxsize=32)
def _sl_basis_cached(n):
    mats = []
    for a in range(n):
        for b in range(n):
            if a != b:
                m = np.zeros((n, n), dtype=complex)
                m[a, b] = 1.0
                mats.append(m)
    for a in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[a, a] = 1.0
        m[a + 1, a + 1] = -1.0
        mats.append(m)
    for m in mats:
        m.flags.writeable = False
    return tuple(mats)


def sl_basis(n: int):
    """Fixed basis of sl_n: E_ab (a != b) row-major, then diagonal differences."""
    _check_n(n)
    return list(_sl_basis_cached(n))


def centralizer_basis(x: np.ndarray):
    """Basis of {y in sl_n : [x, y] = 0}: the SVD null space of
    ``ad_columns(x, sl_basis(n))``, orthonormal in ``sl_basis`` coordinates.

    The rank counts singular values above 1e-10 * sigma_max.
    """
    x = np.asarray(x, dtype=complex)
    basis = np.stack(sl_basis(x.shape[-1]))
    _, s, vh = np.linalg.svd(ad_columns(x, basis))
    smax = s[0] if s[0] > 0 else 1.0
    rank = int(np.sum(s > 1e-10 * smax))
    return list(np.tensordot(vh[rank:].conj(), basis, axes=1))


def is_principal_nilpotent(x: np.ndarray):
    """True iff x^n vanishes and the numerical rank of x is n-1; over a stack
    (..., n, n), a boolean array with one verdict per matrix.

    Rank uses singular values with the relative threshold 1e-10 * sigma_max;
    nilpotency compares x^n against 1e-10 * sigma_max^n.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    s = np.linalg.svd(x, compute_uv=False)
    smax = s[..., 0]
    live = smax > 0
    scale = np.where(live, smax, 1.0)
    nil_defect = np.where(live, np.abs(np.linalg.matrix_power(x, n)).max(axis=(-2, -1)) / scale**n, 0.0)
    rank = np.where(live, np.sum(s > 1e-10 * smax[..., None], axis=-1), 0)
    ok = live & (nil_defect <= 1e-10) & (rank == n - 1)
    if x.ndim == 2:
        ok = bool(ok)
    return ok


def sigma(x):
    """The linear involution sigma(x) = -J x^T J, J the antidiagonal of ones."""
    xt = np.swapaxes(np.asarray(x, dtype=complex), -1, -2)
    return -xt[..., ::-1, ::-1]


def rho(x):
    """The antilinear involution rho(x) = -x^+."""
    return -dagger(np.asarray(x, dtype=complex))


def _mirror(n, a, b):
    return n - 1 - b, n - 1 - a


@lru_cache(maxsize=32)
def _sigma_eigenbases(n):
    """Frobenius-orthonormal bases of the +1/-1 eigenspaces of sigma."""
    plus, minus = [], []
    seen = set()
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for a in range(n):
        for b in range(n):
            if a == b or (a, b) in seen:
                continue
            ma, mb = _mirror(n, a, b)
            seen.add((a, b))
            e_ab = np.zeros((n, n), dtype=complex)
            e_ab[a, b] = 1.0
            if (ma, mb) == (a, b):
                minus.append(e_ab)  # sigma(E_ab) = -E_ab on the antidiagonal
                continue
            seen.add((ma, mb))
            e_m = np.zeros((n, n), dtype=complex)
            e_m[ma, mb] = 1.0
            plus.append((e_ab - e_m) * inv_sqrt2)
            minus.append((e_ab + e_m) * inv_sqrt2)
    # diagonal part: sigma(diag d) = -diag(reverse d), so the +1 eigenspace is
    # the anti-palindromic diagonals and the -1 eigenspace the palindromic
    # traceless ones.
    for i in range(n // 2):
        d = np.zeros(n)
        d[i], d[n - 1 - i] = 1.0, -1.0
        plus.append(np.diag(d).astype(complex) * inv_sqrt2)
    pal = []
    for i in range((n + 1) // 2):
        d = np.zeros(n)
        d[i] = 1.0
        d[n - 1 - i] = 1.0
        pal.append(d)
    for i in range(len(pal) - 1):
        d = pal[i] / pal[i].sum() - pal[i + 1] / pal[i + 1].sum()
        v = np.diag(d).astype(complex)
        for prev in minus:
            v = v - np.trace(dagger(prev) @ v) * prev
        nrm = np.sqrt(np.trace(dagger(v) @ v).real)
        if nrm > 1e-12:
            minus.append(v / nrm)
    m_dim = n * (n - 1) // 2
    assert len(plus) == m_dim and len(plus) + len(minus) == n * n - 1
    for m in plus + minus:
        m.flags.writeable = False
    return tuple(plus), tuple(minus)


def sigma_plus_basis(n: int):
    """Frobenius-ONB of the sigma = +1 subspace of sl_n (dimension n(n-1)/2)."""
    return list(_sigma_eigenbases(n)[0])


def sigma_minus_basis(n: int):
    """Frobenius-ONB of the sigma = -1 subspace of sl_n."""
    return list(_sigma_eigenbases(n)[1])


def random_traceless(n: int, rng) -> np.ndarray:
    """Random complex traceless matrix with standard normal entries."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x - np.trace(x) / n * np.eye(n)
