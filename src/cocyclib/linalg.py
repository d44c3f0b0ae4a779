"""Subspaces, flags, oblique projections, principal angles and the invariant
cone estimates used by the shadowing experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

ORTHONORMAL_TOL = 1e-10

#: Constant relating the projective angle metric to the sine metric; the
#: induced action of A on lines is Lipschitz with constant at most
#: PROJECTIVE_METRIC_CONSTANT * ||A|| * ||A^-1|| in the angle metric.
PROJECTIVE_METRIC_CONSTANT = math.pi / 2


class IllConditionedSplitError(ValueError):
    """An eigenvalue modulus sits too close to a splitting band edge."""


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def condition_number(m: np.ndarray) -> float:
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] == 0:
        return math.inf
    return float(s[0] / s[-1])


def orthonormal_basis(vectors: np.ndarray, rank_tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis (d x r) of the span of the given column vectors."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vectors.shape[1] == 0:
        return vectors.reshape(vectors.shape[0], 0)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    rank = int(np.sum(s > rank_tol * max(1.0, s[0])))
    return u[:, :rank]


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace of R^d stored as orthonormal basis columns."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        object.__setattr__(self, "basis", b)
        if b.shape[1] > b.shape[0]:
            raise ValueError("more basis vectors than ambient dimension")
        if b.shape[1] > 0:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > ORTHONORMAL_TOL:
                raise ValueError("basis columns are not orthonormal")

    @classmethod
    def from_spanning(cls, vectors) -> "Subspace":
        return cls(orthonormal_basis(np.asarray(vectors, dtype=float)))

    @classmethod
    def standard(cls, d: int, indices: Sequence[int]) -> "Subspace":
        basis = np.zeros((d, len(indices)))
        for col, idx in enumerate(indices):
            basis[idx, col] = 1.0
        return cls(basis)

    @classmethod
    def zero(cls, d: int) -> "Subspace":
        return cls(np.zeros((d, 0)))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def orthogonal_complement(self) -> "Subspace":
        d = self.ambient_dim
        if self.dim == 0:
            return Subspace(np.eye(d))
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(u[:, self.dim:])

    def contains(self, other: "Subspace", tol: float = 1e-8) -> bool:
        if other.dim == 0:
            return True
        residual = other.basis - self.projector() @ other.basis
        return float(np.max(np.abs(residual))) <= tol

    def map_by(self, m: np.ndarray) -> "Subspace":
        return Subspace.from_spanning(m @ self.basis)


@dataclass(frozen=True, eq=False)
class Flag:
    """Strictly nested subspaces ending in the full space."""

    subspaces: tuple[Subspace, ...]

    def __post_init__(self):
        if not self.subspaces:
            raise ValueError("flag must contain at least the full space")
        d = self.subspaces[0].ambient_dim
        dims = [s.dim for s in self.subspaces]
        if any(s.ambient_dim != d for s in self.subspaces):
            raise ValueError("flag terms live in different ambient spaces")
        if self.subspaces[-1].dim != d:
            raise ValueError("flag must end in the full space")
        if any(b >= a for a, b in zip(dims[1:], dims)):
            raise ValueError("flag dimensions must strictly increase")
        for small, big in zip(self.subspaces, self.subspaces[1:]):
            if not big.contains(small):
                raise ValueError("flag terms are not nested")

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    def proper_terms(self) -> tuple[Subspace, ...]:
        return self.subspaces[:-1]

    def map_by(self, m: np.ndarray) -> "Flag":
        return Flag(tuple(s.map_by(m) for s in self.subspaces))


def oblique_projection(v: Subspace, w: Subspace, cond_bound: float = 1e10) -> np.ndarray:
    """Idempotent matrix with image v and kernel w (requires v + w = R^d)."""
    d = v.ambient_dim
    if v.dim + w.dim != d:
        raise ValueError(
            f"subspace dimensions {v.dim}+{w.dim} do not fill R^{d}"
        )
    stacked = np.hstack([v.basis, w.basis])
    if condition_number(stacked) > cond_bound:
        raise ValueError("subspaces are numerically non-complementary")
    target = np.hstack([v.basis, np.zeros((d, w.dim))])
    return target @ np.linalg.inv(stacked)


def _principal_angles(v: Subspace, w: Subspace) -> np.ndarray:
    """All principal angles, ascending; sine-based near 0 for full precision."""
    cosines = np.sort(np.clip(np.linalg.svd(v.basis.T @ w.basis,
                                            compute_uv=False), 0.0, 1.0))[::-1]
    residual = w.basis - v.projector() @ w.basis
    sines = np.sort(np.clip(np.linalg.svd(residual, compute_uv=False), 0.0, 1.0))
    n = min(len(cosines), len(sines))
    return np.arctan2(sines[:n], cosines[:n])


def principal_angle(v: Subspace, w: Subspace) -> float:
    """Smallest angle between nonzero vectors of the two subspaces (radians)."""
    if v.dim == 0 or w.dim == 0:
        raise ValueError("principal angle of a zero subspace is undefined")
    return float(_principal_angles(v, w)[0])


def largest_principal_angle(v: Subspace, w: Subspace) -> float:
    """Largest principal angle; zero iff the subspaces coincide (equal dims)."""
    if v.dim != w.dim:
        raise ValueError("largest principal angle needs equal dimensions")
    if v.dim == 0:
        return 0.0
    return float(_principal_angles(v, w)[-1])


def projective_lipschitz_bound(a: np.ndarray,
                               metric_constant: float = PROJECTIVE_METRIC_CONSTANT) -> float:
    """Upper bound on the Lipschitz constant of the action of a on lines."""
    return metric_constant * operator_norm(a) * operator_norm(np.linalg.inv(a))


def angle_decay_rate(step_log_bound: float,
                     metric_constant: float = PROJECTIVE_METRIC_CONSTANT) -> float:
    """Per-step decay exponent for projections transverse to an invariant
    bundle, for products with per-step norms bounded by exp(step_log_bound)."""
    return 2.0 * step_log_bound + math.log(metric_constant)


# ---------------------------------------------------------------------------
# invariant cones


@dataclass(frozen=True)
class ConeParams:
    """Parameters of the perturbed hyperbolic block model.

    The model is A (+) B on R^k (+) R^{d-k} with ||A^-1|| <= 1/mu_exp and
    ||B|| <= lambda_con < mu_exp; each step may be perturbed blockwise by at
    most epsilon.  delta is both the cone aperture 1/delta and the angle
    margin for growth statements; margin_d is the required ratio delta/eps.
    """

    split: tuple[int, int]
    mu_exp: float
    lambda_con: float
    epsilon: float = 0.0
    delta: float = 1.0
    sigma_cone: float = 0.5
    margin_d: float = 10.0

    def __post_init__(self):
        if self.split[0] < 1 or self.split[1] < 1:
            raise ValueError("both blocks of the split must be nonempty")
        if not self.lambda_con < self.mu_exp:
            raise ValueError("need lambda_con < mu_exp")
        if not 0 < self.sigma_cone < 1:
            raise ValueError("sigma_cone must lie in (0, 1)")
        if self.epsilon < 0 or self.delta <= 0:
            raise ValueError("epsilon must be >= 0 and delta > 0")

    @property
    def dim(self) -> int:
        return sum(self.split)

    @property
    def effective_rate(self) -> float:
        """Guaranteed per-step expansion mu - eps^(1 - sigma)."""
        return self.mu_exp - self.epsilon ** (1.0 - self.sigma_cone)


def invariance_inequality_lhs(params: ConeParams) -> float:
    """Left side of the cone-invariance inequality
    delta*eps + lambda + 2*eps + eps/delta <= mu."""
    e, d = params.epsilon, params.delta
    return d * e + params.lambda_con + 2.0 * e + e / d


def _cone_ratio(vec: np.ndarray, k: int) -> float:
    u = np.linalg.norm(vec[:k])
    v = np.linalg.norm(vec[k:])
    if u == 0:
        return math.inf
    return v / u


@dataclass(frozen=True)
class ConeCheck:
    ok: bool
    inequality_ok: bool
    inequality_lhs: float
    witness: np.ndarray | None

    def __bool__(self) -> bool:
        return self.ok


def cone_invariance_check(mats: Sequence[np.ndarray], params: ConeParams,
                          rng: np.random.Generator | None = None,
                          n_boundary: int = 64) -> ConeCheck:
    """Closed-form invariance inequality plus direct image checks.

    Each matrix must map the cone ||v|| <= ||u||/delta into itself; sampled
    boundary vectors are pushed through every matrix and the first violation
    is returned as a witness (a preimage vector).
    """
    k = params.split[0]
    d = params.dim
    for m in mats:
        if np.shape(m) != (d, d):
            raise ValueError(f"matrix shape {np.shape(m)} does not match split {params.split}")
    lhs = invariance_inequality_lhs(params)
    inequality_ok = lhs <= params.mu_exp
    if rng is None:
        rng = np.random.default_rng(0)
    aperture = 1.0 / params.delta
    witness = None
    direct_ok = True
    for i in range(n_boundary):
        u = rng.normal(size=k)
        u /= np.linalg.norm(u)
        v = rng.normal(size=d - k)
        v /= np.linalg.norm(v)
        # alternate boundary vectors with interior ones: invariance must
        # hold on the whole cone, not just its boundary
        depth = 1.0 if i % 2 == 0 else rng.random()
        vec = np.concatenate([u, depth * aperture * v])
        for m in mats:
            if _cone_ratio(np.asarray(m) @ vec, k) > aperture * (1 + 1e-12):
                direct_ok = False
                witness = vec
                break
        if not direct_ok:
            break
    return ConeCheck(inequality_ok and direct_ok, inequality_ok, lhs, witness)


def calibrate_cone_constant(params: ConeParams, j_max: int = 20) -> float:
    """Constant for the growth lower bound, measured on the unperturbed model.

    On the exact model (mu on the expanding block, lambda on the contracting
    one) the worst admissible unit vector sits at angle exactly delta, so the
    minimal ratio ||Pi L^j v|| / (rate^j * delta) has the closed value
    min_j sin(delta) * (mu / rate)^j / delta taken at j = 1.
    """
    rate = params.effective_rate
    if rate <= 0:
        raise ValueError("effective rate is nonpositive; epsilon too large")
    worst = math.sin(params.delta) / params.delta
    ratios = [worst * (params.mu_exp / rate) ** j for j in range(1, j_max + 1)]
    return min(ratios)


@dataclass(frozen=True)
class GrowthBound:
    actual: float
    projected: float
    bound: float


def cone_growth_bound(mats: Sequence[np.ndarray], v: np.ndarray,
                      params: ConeParams, constant: float | None = None,
                      safety: float = 0.9) -> GrowthBound:
    """Product norm and projected norm of v against the closed-form lower
    bound constant * (mu - eps^(1-sigma))^j * delta.

    v must be a unit vector at angle >= delta from {0} x R^(d-k).  The
    constant defaults to the model-calibrated one reduced by the safety
    margin.
    """
    k = params.split[0]
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("v must be a unit vector")
    angle = math.asin(min(1.0, np.linalg.norm(v[:k])))
    if angle < params.delta - 1e-12:
        raise ValueError(
            f"vector angle {angle:.4f} violates the aperture precondition "
            f">= {params.delta}"
        )
    j = len(mats)
    if constant is None:
        constant = safety * calibrate_cone_constant(params, max(j, 1))
    image = v.copy()
    for m in mats:
        image = np.asarray(m) @ image
    actual = float(np.linalg.norm(image))
    projected = float(np.linalg.norm(image[:k]))
    bound = constant * params.effective_rate ** j * params.delta
    return GrowthBound(actual, projected, bound)


def transversality_time(params: ConeParams, threshold: float | None = None,
                        max_iter: int = 10 ** 6) -> int:
    """Steps until the aperture-ratio map falls below the threshold.

    The ratio map has attracting fixed point eps / (mu - lambda - 2 eps -
    1/margin_d); the default threshold is twice that value.  For eps = 0 the
    fixed point is 0 and the map contracts by lambda/mu per step, so an
    explicit positive threshold must be supplied.
    """
    mu, lam, eps = params.mu_exp, params.lambda_con, params.epsilon
    denom = mu - lam - 2.0 * eps - 1.0 / params.margin_d
    if denom <= 0:
        raise ValueError("denominator mu - lambda - 2 eps - 1/D is nonpositive")
    fixed = eps / denom
    if threshold is None:
        threshold = 2.0 * fixed
    if threshold <= 0:
        raise ValueError(
            "threshold must be positive; for eps = 0 the fixed point is 0, "
            "supply an explicit threshold"
        )
    if eps == 0:
        ratio_map = lambda r: lam * r / mu
    else:
        scale = mu - eps - 1.0 / params.margin_d
        if scale <= 0 or (lam + eps) / scale >= 1:
            raise ValueError("aperture ratio map is not a contraction")
        ratio_map = lambda r: (eps + (lam + eps) * r) / scale
    r = 1.0 / params.delta
    for j in range(max_iter):
        if r <= threshold:
            return j
        r = ratio_map(r)
    raise ValueError("aperture ratio iteration did not reach the threshold")


# ---------------------------------------------------------------------------
# eigensplittings


def _schur_subspace(m: np.ndarray, predicate) -> Subspace:
    def sort(re, im):
        return predicate(math.hypot(re, im))

    t, z, sdim = scipy.linalg.schur(m, output="real", sort=sort)
    return Subspace(z[:, :sdim]) if sdim > 0 else Subspace.zero(m.shape[0])


def eigensplit(m: np.ndarray, tol: float = 1e-6,
               edge_tol: float = 1e-9) -> tuple[Subspace, Subspace, Subspace]:
    """Stable/center/unstable invariant subspaces of an invertible matrix.

    Generalized eigenspaces are grouped by eigenvalue modulus below 1 - tol,
    inside [1 - tol, 1 + tol], and above 1 + tol.  Moduli within edge_tol of
    a band edge are flagged as ill conditioned.
    """
    m = np.asarray(m, dtype=float)
    moduli = np.abs(np.linalg.eigvals(m))
    if np.any(moduli == 0):
        raise ValueError("matrix is singular")
    for mod in moduli:
        if min(abs(mod - (1 - tol)), abs(mod - (1 + tol))) < edge_tol:
            raise IllConditionedSplitError(
                f"eigenvalue modulus {mod} within {edge_tol} of a band edge"
            )
    stable = _schur_subspace(m, lambda r: r < 1 - tol)
    center = _schur_subspace(m, lambda r: 1 - tol <= r <= 1 + tol)
    unstable = _schur_subspace(m, lambda r: r > 1 + tol)
    if stable.dim + center.dim + unstable.dim != m.shape[0]:
        raise IllConditionedSplitError("splitting dimensions do not sum to d")
    return stable, center, unstable
