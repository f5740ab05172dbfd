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
from .errors import DecompositionError, DegenerateStructureError, DomainMismatchError

__all__ = [
    "FormFiber",
    "FockPoint",
    "fock_point",
    "pseudo_norm",
    "gram_matrix",
    "positivity_margins",
    "positivity_margin",
    "is_positive",
    "contraction_norm",
    "four_way_decompose",
    "q_involution",
    "phi_cohomology_dims",
    "cohomology_dims_raw",
]

EPS_POS = 1e-8  # relative margin on the smallest Gram eigenvalue


@dataclass
class FormFiber:
    """1-form fiber a dz + b dzbar."""

    a: np.ndarray
    b: np.ndarray

    def __add__(self, other):
        return FormFiber(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return FormFiber(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return FormFiber(-self.a, -self.b)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.b) ** 2)))


@dataclass
class FockPoint:
    n: int
    phi1: np.ndarray
    phi2: np.ndarray
    mu: tuple = field(default_factory=tuple)

    def as_fiber(self) -> FormFiber:
        return FormFiber(self.phi1, self.phi2)


def _critical_direction(mu2):
    if abs(mu2) == 0.0:
        return 1.0 + 0.0j
    return np.exp(1j * (np.angle(mu2) - np.pi) / 2.0)


def fock_point(n: int, mu, nilpotency_tol: float = 1e-6) -> FockPoint:
    """Pointwise field pair (F, sum_k mu_k F^{k-1}) from Beltrami data mu_2..mu_n.

    Certifies the nilpotency condition on 16 unit directions plus the
    direction closest to the critical line; the analytic criterion is just
    |mu_2| != 1.
    """
    mu = tuple(complex(m) for m in mu)
    if len(mu) != n - 1:
        raise ValueError(f"expected {n - 1} Beltrami coefficients mu_2..mu_{n}, got {len(mu)}")
    if abs(abs(mu[0]) - 1.0) < nilpotency_tol:
        raise DegenerateStructureError(
            f"|mu_2| = {abs(mu[0]):.3e} is within {nilpotency_tol:g} of the degenerate locus"
        )
    f = fiber.principal_nilpotent(n)
    powers = fiber.powers(f, n - 1)
    phi2 = sum(mu[k] * powers[k] for k in range(n - 1))
    if not isinstance(phi2, np.ndarray):
        phi2 = np.zeros((n, n), dtype=complex)
    directions = [np.exp(2j * np.pi * k / 16) for k in range(16)]
    directions.append(_critical_direction(mu[0]))
    for v in directions:
        if not fiber.is_principal_nilpotent(v * f + np.conj(v) * phi2, tol=1e-10):
            raise DegenerateStructureError(
                f"nilpotency condition failed along direction {v:.3f}"
            )
    return FockPoint(n=n, phi1=f, phi2=phi2, mu=mu)


def pseudo_norm(omega: FormFiber) -> float:
    """tr(a^+ a) - tr(b^+ b); positive on dz-type fibers, negative on dzbar."""
    a, b = omega.a, omega.b
    return float((np.sum(np.abs(a) ** 2) - np.sum(np.abs(b) ** 2)).real)


def _tilde_pair(phi1, phi2, h):
    """Conjugate into the frame where the hermitian structure is the identity."""
    if h is None:
        return phi1, phi2
    s, si = fiber.sqrtm_pd(h)
    return s @ phi1 @ si, s @ phi2 @ si


def _pair_columns(phi1, phi2):
    """ad of the pair (phi1, phi2) against ``sl_basis``: column k stacks
    (vec [phi1, x_k], vec [phi2, x_k])."""
    basis = fiber.sl_basis(phi1.shape[-1])
    return np.concatenate([fiber.ad_columns(phi1, basis), fiber.ad_columns(phi2, basis)], axis=-2)


def _grams(phi1, phi2, h=None):
    """Gram matrices of the pseudo pairing on orthonormal frames of Im(ad_Phi)
    for stacks of pairs (N, n, n) and metrics h (N, n, n) or None, plus
    whether each frame has the rank n^2 - n of a Fock pair (its singular
    values keep a 1e-8 relative gap)."""
    n = phi1.shape[-1]
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


def _batch_of_one(phi: FockPoint, h):
    return phi.phi1[None], phi.phi2[None], None if h is None else np.asarray(h)[None]


def gram_matrix(phi: FockPoint, h=None) -> np.ndarray:
    """Gram matrix of the pseudo pairing on an orthonormal frame of Im(ad_Phi);
    raises DegenerateStructureError when Im(ad_Phi) is rank deficient."""
    gram, full_rank = _grams(*_batch_of_one(phi, h))
    if not full_rank[0]:
        raise DegenerateStructureError("Im(ad_Phi) does not have the rank n^2 - n of a Fock pair")
    return gram[0]


def is_positive(phi: FockPoint, h=None, eps_pos: float = EPS_POS) -> bool:
    """Positivity of the pseudo pairing restricted to Im(ad_Phi).

    With an orthonormal frame the Gram eigenvalues live in [-1, 1], so the
    eps_pos margin is scale free.
    """
    return positivity_margin(phi, h) > eps_pos


def positivity_margin(phi: FockPoint, h=None) -> float:
    """Smallest Gram eigenvalue; -1.0 when Im(ad_Phi) is rank deficient."""
    return float(positivity_margins(*_batch_of_one(phi, h))[0])


def contraction_norm(phi: FockPoint, h=None) -> float:
    """Operator norm of [phi1, A] -> [phi2, A] on Im(ad_{phi1}).

    Positivity of the Gram pairing is equivalent to this norm being < 1; the
    exact correspondence is lambda_min = (1 - s^2) / (1 + s^2) with s the norm
    computed here.
    """
    p1, p2 = _tilde_pair(phi.phi1, phi.phi2, h)
    basis = fiber.sl_basis(phi.n)
    c1, c2 = fiber.ad_columns(p1, basis), fiber.ad_columns(p2, basis)
    return float(np.linalg.norm(c2 @ np.linalg.pinv(c1, rcond=1e-12), ord=2))


def _four_way_blocks(phi: FockPoint, phi_star: FormFiber):
    n = phi.n
    n2 = n * n
    blocks = [_pair_columns(phi.phi1, phi.phi2), _pair_columns(phi_star.a, phi_star.b)]
    zero = np.zeros(n2, dtype=complex)
    b3 = []
    for k in range(1, n):
        zk = np.linalg.matrix_power(phi.phi1, k)
        b3.append(np.concatenate([zero, zk.reshape(-1)]))
    blocks.append(np.stack(b3, axis=1))
    b4 = []
    for k in range(1, n):
        wk = np.linalg.matrix_power(phi_star.b, k)
        b4.append(np.concatenate([wk.reshape(-1), zero]))
    blocks.append(np.stack(b4, axis=1))
    return blocks


def four_way_decompose(omega: FormFiber, phi: FockPoint, phi_star: FormFiber):
    """Split omega into Im(ad_Phi) + Im(ad_Phi*) + Z(Phi) dzbar + Z(Phi*) dz.

    Requires the positivity/transversality of the pair; raises
    DecompositionError when the stacked system is singular or the
    reconstruction misses omega.
    """
    blocks = _four_way_blocks(phi, phi_star)
    m = np.concatenate(blocks, axis=1)
    v = np.concatenate([omega.a.reshape(-1), omega.b.reshape(-1)])
    x, *_ = np.linalg.lstsq(m, v, rcond=1e-12)
    parts = []
    start = 0
    n = phi.n
    for blk in blocks:
        ncols = blk.shape[1]
        w = blk @ x[start : start + ncols]
        parts.append(FormFiber(w[: n * n].reshape(n, n), w[n * n :].reshape(n, n)))
        start += ncols
    recon = sum((p.norm() for p in parts)) or 1.0
    resid = (parts[0] + parts[1] + parts[2] + parts[3] - omega).norm()
    scale = max(omega.norm(), recon)
    if scale > 0 and resid > 1e-9 * scale:
        raise DecompositionError(
            f"four-way reconstruction residual {resid:.3e} exceeds tolerance (singular pair?)"
        )
    return tuple(parts)


def q_involution(omega: FormFiber, phi: FockPoint, phi_star: FormFiber, tol: float = 1e-8) -> FormFiber:
    """Flip the Im(ad_Phi) component of a sigma-invariant 1-form fiber."""
    inv = fiber.involutions(phi.n)
    defect = max(
        np.abs(inv.sigma(omega.a) - omega.a).max(initial=0.0),
        np.abs(inv.sigma(omega.b) - omega.b).max(initial=0.0),
    )
    scale = max(np.abs(omega.a).max(initial=0.0), np.abs(omega.b).max(initial=0.0), 1.0)
    if defect > tol * scale:
        raise DomainMismatchError(f"q_involution needs a sigma-invariant fiber (defect {defect:.3e})")
    w_im, w_im_star, w_z, w_zstar = four_way_decompose(omega, phi, phi_star)
    stray = max(w_z.norm(), w_zstar.norm())
    if stray > 1e-8 * max(omega.norm(), 1.0):
        raise DecompositionError(f"sigma-invariant fiber has centralizer components {stray:.3e}")
    return w_im_star - w_im


def cohomology_dims_raw(phi1: np.ndarray, phi2: np.ndarray, tol: float = 1e-10):
    """Fiberwise cohomology dimensions of 0-forms -> 1-forms -> 2-forms with
    differential [phi ^ .]; diagnostic variant accepting any matrix pair."""
    n = phi1.shape[0]
    dim = n * n - 1
    basis = fiber.sl_basis(n)
    m0 = _pair_columns(phi1, phi2)
    # a-slot: -[phi2, a]; b-slot: [phi1, b]
    m1 = np.concatenate([-fiber.ad_columns(phi2, basis), fiber.ad_columns(phi1, basis)], axis=1)

    def _rank(m):
        s = np.linalg.svd(m, compute_uv=False)
        if s.size == 0 or s[0] == 0:
            return 0
        return int(np.sum(s > tol * s[0]))

    r0, r1 = _rank(m0), _rank(m1)
    return dim - r0, 2 * dim - r1 - r0, dim - r1


def phi_cohomology_dims(phi: FockPoint):
    """(rank, 2 rank, rank) for valid Fock points, computed not assumed."""
    return cohomology_dims_raw(phi.phi1, phi.phi2)
