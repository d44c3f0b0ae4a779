"""Block upper-triangular structures with orthogonal diagonal blocks.

A descriptor fixes block dimensions (d_1, ..., d_k) and a common exponent
lambda; members are block upper triangular with every diagonal block in
exp(lambda) O(d_i).  Compact diagonal groups are realized as full orthogonal
groups: the downstream estimates only use that diagonal blocks are
norm-isometric after removing the scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import LocallyConstantCocycle, scale

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class ZimmerDescriptor:
    """Block dimensions plus the common diagonal exponent."""

    block_dims: tuple[int, ...]
    exponent: float = 0.0

    def __post_init__(self):
        if not self.block_dims:
            raise ValueError("need at least one block")
        if any(d < 1 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for d in self.block_dims:
            out.append(out[-1] + d)
        return tuple(out)

    def block(self, m: np.ndarray, i: int, j: int) -> np.ndarray:
        """Block (i, j) of a matrix, or of every matrix of a stack."""
        o = self.offsets()
        return np.asarray(m)[..., o[i]:o[i + 1], o[j]:o[j + 1]]


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    diagonal_residuals: tuple[float, ...]
    lower_residual: float


def membership_residuals(stack: np.ndarray, descriptor: ZimmerDescriptor
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The (W, k) diagonal and (W,) lower residuals of :func:`membership`
    for every matrix of a (W, d, d) stack."""
    d = descriptor.dim
    if stack.shape[1:] != (d, d):
        raise ValueError(f"matrix shape {stack.shape[1:]} does not match descriptor dim {d}")
    lower = np.zeros(len(stack))
    scale_back = math.exp(-descriptor.exponent)
    diag = []
    for i in range(descriptor.num_blocks):
        for j in range(i):
            block = descriptor.block(stack, i, j)
            lower = np.maximum(lower, np.linalg.svd(block, compute_uv=False)[:, 0])
        b = scale_back * descriptor.block(stack, i, i)
        gram = b.transpose(0, 2, 1) @ b - np.eye(b.shape[-1])
        diag.append(np.linalg.svd(gram, compute_uv=False)[:, 0])
    return np.stack(diag, axis=1), lower


def membership(m: np.ndarray, descriptor: ZimmerDescriptor,
               tol: float = MEMBERSHIP_TOL) -> MembershipResult:
    """Check block upper-triangularity and per-block orthogonality.

    Every below-diagonal block must have norm <= tol and every diagonal
    block B_i must satisfy ||(e^-lambda B_i)^T (e^-lambda B_i) - Id|| <= tol.
    """
    diag, lower = membership_residuals(np.asarray(m, dtype=float)[None], descriptor)
    diag_residuals, lower_residual = tuple(diag[0].tolist()), float(lower[0])
    ok = lower_residual <= tol and all(r <= tol for r in diag_residuals)
    return MembershipResult(ok, diag_residuals, lower_residual)


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    z = rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def random_element(descriptor: ZimmerDescriptor, rng: np.random.Generator,
                   spread: float = 1.0) -> np.ndarray:
    """Random member: Haar orthogonal diagonal blocks scaled by e^lambda,
    above-diagonal entries uniform in [-spread, spread]."""
    if spread < 0:
        raise ValueError("spread must be >= 0")
    d = descriptor.dim
    o = descriptor.offsets()
    m = np.zeros((d, d))
    factor = math.exp(descriptor.exponent)
    for i, di in enumerate(descriptor.block_dims):
        m[o[i]:o[i + 1], o[i]:o[i + 1]] = factor * haar_orthogonal(rng, di)
        for j in range(i + 1, descriptor.num_blocks):
            dj = descriptor.block_dims[j]
            m[o[i]:o[i + 1], o[j]:o[j + 1]] = rng.uniform(-spread, spread, size=(di, dj))
    return m


def quotient_action(m: np.ndarray, descriptor: ZimmerDescriptor, i: int,
                    tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Induced matrix on the i-th flag quotient (0-based): the i-th diagonal
    block.  Requires membership; e^-lambda times the result is orthogonal."""
    result = membership(m, descriptor, tol)
    if not result.ok:
        raise ValueError(
            f"matrix is not a member (diag residuals {result.diagonal_residuals}, "
            f"lower residual {result.lower_residual})"
        )
    return descriptor.block(np.asarray(m, dtype=float), i, i).copy()


def normalize_exponent(a: LocallyConstantCocycle, lam: float) -> LocallyConstantCocycle:
    """Scale every table entry by e^-lambda (turns U_lambda-valued into
    U_0-valued)."""
    return scale(a, math.exp(-lam))
