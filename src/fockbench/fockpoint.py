"""Pointwise Fock-field data and the decompositions of 1-form fibers.

A 1-form fiber is the pair (a, b) for a dz + b dzbar with a, b in sl_n.  The
pseudo-hermitian pairing used everywhere is

    <(a, b), (c, e)> = tr_h(a, c) - tr_h(b, e),   tr_h(x, y) = tr(h^-1 x^+ h y),

which is the pointwise content of the global hermitian form on 1-forms (the
dz part counts positively, the dzbar part negatively).  When no hermitian
structure is passed, h is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fiber
from .errors import DecompositionError, DegenerateStructureError

__all__ = [
    "FockPoint",
    "fock_point",
    "pseudo_norm",
    "positivity_margins",
    "contraction_norms",
    "fiber_norms",
    "FourWay",
    "four_way",
    "four_way_decompose",
    "cohomology_dims",
    "q_matrices",
]

EPS_POS = 1e-8  # relative margin on the smallest Gram eigenvalue


@dataclass
class FockPoint:
    n: int
    phi1: np.ndarray
    phi2: np.ndarray
    mu: tuple = field(default_factory=tuple)


def _critical_direction(mu2):
    if abs(mu2) == 0.0:
        return 1.0 + 0.0j
    return np.exp(1j * (np.angle(mu2) - np.pi) / 2.0)


_UNIT_DIRECTIONS = np.exp(2j * np.pi * np.arange(16) / 16)
_DEGENERATE_TOL = 1e-6  # |mu_2| this close to 1 is on the degenerate locus


def fock_point(n: int, mu) -> FockPoint:
    """Pointwise field pair (F, sum_k mu_k F^{k-1}) from Beltrami data mu_2..mu_n.

    Certifies the nilpotency condition on 16 unit directions plus the
    direction closest to the critical line, as one stacked test; the analytic
    criterion is just |mu_2| != 1.
    """
    mu = tuple(complex(m) for m in mu)
    if len(mu) != n - 1:
        raise ValueError(f"expected {n - 1} Beltrami coefficients mu_2..mu_{n}, got {len(mu)}")
    if abs(abs(mu[0]) - 1.0) < _DEGENERATE_TOL:
        raise DegenerateStructureError(
            f"|mu_2| = {abs(mu[0]):.3e} is within {_DEGENERATE_TOL:g} of the degenerate locus"
        )
    f = fiber.principal_nilpotent(n)
    powers = fiber.powers(f, n - 1)
    phi2 = sum(mu[k] * powers[k] for k in range(n - 1))
    v = np.append(_UNIT_DIRECTIONS, _critical_direction(mu[0]))[:, None, None]
    ok = fiber.is_principal_nilpotent(v * f + np.conj(v) * phi2, tol=1e-10)
    if not ok.all():
        raise DegenerateStructureError(
            f"nilpotency condition failed along direction {v[np.argmin(ok), 0, 0]:.3f}"
        )
    return FockPoint(n=n, phi1=f, phi2=phi2, mu=mu)


def pseudo_norm(omega) -> float:
    """tr(a^+ a) - tr(b^+ b) of one fiber omega = (a, b), shape (2, n, n);
    positive on dz-type fibers, negative on dzbar."""
    return float(np.sum(np.abs(omega[0]) ** 2) - np.sum(np.abs(omega[1]) ** 2))


def _tilde_pair(phi1, phi2, h):
    """Conjugate into the frame where the hermitian structure is the identity."""
    if h is None:
        return phi1, phi2
    s, si = fiber.sqrtm_pd(h)
    return s @ phi1 @ si, s @ phi2 @ si


def _cat(arrays, axis):
    """Concatenate stacks of matrices along ``axis`` (-1 or -2) after
    broadcasting their stack axes, so a matrix the whole stack shares is built
    once."""
    lead = np.broadcast_shapes(*(a.shape[:-2] for a in arrays))
    return np.concatenate([np.broadcast_to(a, lead + a.shape[-2:]) for a in arrays], axis=axis)


def _pair_columns(phi1, phi2):
    """ad of the pair (phi1, phi2) against ``sl_basis``: column k stacks
    (vec [phi1, x_k], vec [phi2, x_k])."""
    basis = fiber.sl_basis(phi2.shape[-1])
    return _cat([fiber.ad_columns(phi1, basis), fiber.ad_columns(phi2, basis)], axis=-2)


# Batched kernels: each takes stacks of pairs phi1, phi2 (S, n, n), where phi1
# (and the star's dzbar part) may be one (n, n) matrix the stack shares, and an
# optional metric stack h (S, n, n).


def _grams(phi1, phi2, h=None):
    """Gram matrices of the pseudo pairing on orthonormal frames of Im(ad_Phi)
    per pair, plus whether each frame has the rank n^2 - n of a Fock pair (its
    singular values keep a 1e-8 relative gap)."""
    n = phi2.shape[-1]
    u, s, _ = np.linalg.svd(_pair_columns(*_tilde_pair(phi1, phi2, h)), full_matrices=False)
    rank = n * n - n
    ub = u[..., :rank]
    signs = np.concatenate([np.ones(n * n), -np.ones(n * n)])
    return fiber.dagger(ub) @ (signs[:, None] * ub), s[:, rank - 1] > 1e-8 * s[:, 0]


def positivity_margins(phi1, phi2, h=None):
    """Smallest Gram eigenvalue per pair (in [-1, 1]; positive means positive),
    and -1.0 where the frame of Im(ad_Phi) is rank deficient."""
    gram, full_rank = _grams(phi1, phi2, h)
    return np.where(full_rank, np.linalg.eigvalsh(gram)[:, 0], -1.0)


def contraction_norms(phi1, phi2, h=None):
    """Operator norm of [phi1, A] -> [phi2, A] on Im(ad_{phi1}) per pair.

    Positivity of the Gram pairing is equivalent to this norm being < 1; the
    exact correspondence is lambda_min = (1 - s^2) / (1 + s^2) with s the norm
    computed here.
    """
    p1, p2 = _tilde_pair(phi1, phi2, h)
    basis = fiber.sl_basis(p2.shape[-1])
    c1, c2 = fiber.ad_columns(p1, basis), fiber.ad_columns(p2, basis)
    return np.linalg.norm(c2 @ np.linalg.pinv(c1, rcond=1e-12), ord=2, axis=(-2, -1))


def _ranks(m):
    s = np.linalg.svd(m, compute_uv=False)
    return np.sum(s > 1e-10 * s[..., :1], axis=-1)


def cohomology_dims(phi1, phi2):
    """Fiberwise cohomology dimensions (S, 3) of 0-forms -> 1-forms -> 2-forms
    with differential [phi ^ .], per pair of any matrices."""
    n = phi2.shape[-1]
    dim = n * n - 1
    basis = fiber.sl_basis(n)
    c1, c2 = fiber.ad_columns(phi1, basis), fiber.ad_columns(phi2, basis)
    # 1-forms -> 2-forms: a-slot -[phi2, a], b-slot [phi1, b]
    r0, r1 = _ranks(_cat([c1, c2], axis=-2)), _ranks(_cat([-c2, c1], axis=-1))
    return np.stack([dim - r0, 2 * dim - r1 - r0, dim - r1], axis=-1)


def fiber_norms(v):
    """Frobenius norms of a stack of 1-form fibers v (..., 2, n, n), where
    v[..., 0, :, :] is the dz part and v[..., 1, :, :] the dzbar part."""
    return np.sqrt(np.sum(np.abs(v) ** 2, axis=(-3, -2, -1)))


@dataclass(frozen=True)
class FourWay:
    """The splitting Im(ad_Phi) + Im(ad_Phi*) + Z(Phi) dzbar + Z(Phi*) dz of
    1-form fibers over a stack of pairs, factored once by ``four_way``.

    ``matrix`` (S, 2n^2, K) holds the four column blocks, whose columns span
    the four summands (``spans`` are their column ranges), and ``pinv`` its
    pseudo-inverse with cutoff 1e-12; each right-hand side then costs three
    products.
    """

    matrix: np.ndarray
    pinv: np.ndarray
    spans: tuple

    def split(self, v):
        """The four parts (4, S, 2, n, n) of fibers v (S, 2, n, n).

        Requires the positivity/transversality of the pairs; raises
        DecompositionError where a reconstruction misses its fiber.
        """
        x = self.pinv @ v.reshape(v.shape[:-3] + (self.pinv.shape[-1], 1))
        parts = np.stack([self.matrix[..., lo:hi] @ x[..., lo:hi, :] for lo, hi in self.spans])
        parts = parts.reshape((4,) + v.shape)
        resid = fiber_norms(parts.sum(axis=0) - v)
        recon = fiber_norms(parts).sum(axis=0)
        scale = np.maximum(fiber_norms(v), np.where(recon > 0, recon, 1.0))
        bad = np.flatnonzero(resid > 1e-9 * scale)
        if bad.size:
            raise DecompositionError(
                f"four-way reconstruction residual {resid[bad[0]]:.3e} of stack entry {bad[0]} "
                "exceeds tolerance (singular pair?)"
            )
        return parts


def four_way(phi1, phi2, star_a, star_b) -> FourWay:
    """Factor the four-way splitting of the pairs (phi1, phi2) with stars
    (star_a, star_b) = (phi2^*, phi1^*); phi1 and star_b may be shared."""
    n = phi2.shape[-1]

    def centralizer(x, slot):  # columns vec x^k, k = 1..n-1, in the dz (0) or dzbar (1) slot
        cols = np.stack(fiber.powers(x, n - 1), axis=-1).reshape(x.shape[:-2] + (n * n, n - 1))
        zero = np.zeros_like(cols)
        return np.concatenate([zero, cols] if slot else [cols, zero], axis=-2)

    blocks = [_pair_columns(phi1, phi2), _pair_columns(star_a, star_b), centralizer(phi1, 1), centralizer(star_b, 0)]
    m = _cat(blocks, axis=-1)
    ends = np.cumsum([b.shape[-1] for b in blocks]).tolist()
    return FourWay(m, np.linalg.pinv(m, rcond=1e-12), tuple(zip([0] + ends[:-1], ends)))


def four_way_decompose(omega, phi: FockPoint, phi_star):
    """Split one fiber omega (2, n, n) into Im(ad_Phi) + Im(ad_Phi*) + Z(Phi)
    dzbar + Z(Phi*) dz, as a stack of one through ``four_way``; phi_star is the
    star pair (2, n, n) and the four parts are (2, n, n) each.

    Requires the positivity/transversality of the pair; raises
    DecompositionError when the stacked system is singular or the
    reconstruction misses omega.
    """
    fw = four_way(phi.phi1[None], phi.phi2[None], phi_star[0][None], phi_star[1][None])
    return tuple(fw.split(np.asarray(omega)[None])[:, 0])


def q_matrices(phi1, phi2, psi1, psi2):
    """The involution Q per pair (phi1, phi2) with star (psi1, psi2): on
    sigma-invariant fibers it flips the Im(ad_Phi) part against the
    Im(ad_Phi*) part.  phi1 and psi2 may be shared by the stack.

    Fibers (a, b) are taken in ``sigma_plus_basis`` coordinates, a's before
    b's, so Q is the (S, 2m, 2m) matrix eye - 2 P_minus, m = n(n-1)/2.
    P_minus projects onto the brackets ([phi1, y], [phi2, y]) along
    ([psi1, y], [psi2, y]), y in ``sigma_minus_basis``, through one pinv
    with cutoff 1e-11.  Raises DecompositionError naming the first stack
    entry where Q^2 misses the identity by more than 1e-8 (a singular pair).
    """
    n = phi2.shape[-1]
    sdag = fiber.dagger(np.stack(fiber.sigma_plus_basis(n)))
    s_minus = np.stack(fiber.sigma_minus_basis(n))

    def brackets(x1, x2):  # (S, 2m, q): coordinates of ([x1, y], [x2, y]), one column per y
        return _cat(
            [np.einsum("aij,...qji->...aq", sdag, fiber.commutator(x[..., None, :, :], s_minus)) for x in (x1, x2)],
            axis=-2,
        )

    b_minus = brackets(phi1, phi2)
    pinv = np.linalg.pinv(_cat([b_minus, brackets(psi1, psi2)], axis=-1), rcond=1e-11)
    eye = np.eye(2 * len(sdag), dtype=complex)
    q = eye - 2.0 * (b_minus @ pinv[..., : b_minus.shape[-1], :])
    defect = np.abs(q @ q - eye).max(axis=(-2, -1))
    bad = np.flatnonzero(~(defect <= 1e-8))
    if bad.size:
        raise DecompositionError(
            f"Q^2 misses the identity by {defect[bad[0]]:.3e} at stack entry {bad[0]} (singular pair?)"
        )
    return q
