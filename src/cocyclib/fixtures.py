"""Constructed example systems shared by the test suite and the CLI.

The worked unipotent example: the constant generator [[1, 1], [0, 1]] read
in the moving frame [e1, phi(x) e1 + e2] with phi(x) = x_0 becomes
[[1, 1 - phi(shift x) + phi(x)], [0, 1]].  Frame changes act as conjugation
by the inverse frame, so the pair is produced here by conjugating with
frame(x)^{-1}; the frame itself is the transfer function from the second
cocycle back to the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import LocallyConstantCocycle, coboundary_conjugate
from .sft import TransitionMatrix, Word, full_shift, golden_mean_shift
from .zimmer import ZimmerDescriptor, haar_orthogonal, random_element


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class UnipotentExample:
    """Constant unipotent generator, its frame-changed version and the frame."""

    q: TransitionMatrix
    a: LocallyConstantCocycle          # constant [[1, 1], [0, 1]]
    b: LocallyConstantCocycle          # [[1, 1 - x_1 + x_0], [0, 1]]
    frame: LocallyConstantCocycle      # [[1, x_0], [0, 1]]; transfer with
                                       # a = frame(shift x) b frame(x)^{-1}
    conjugator: LocallyConstantCocycle  # frame^{-1}, the map fed to the coboundary


def unipotent_example(q: TransitionMatrix | None = None) -> UnipotentExample:
    if q is None:
        q = full_shift(2)
    a = LocallyConstantCocycle.constant(q, [[1.0, 1.0], [0.0, 1.0]])
    frame = LocallyConstantCocycle.from_function(
        q, 0, lambda w: np.array([[1.0, float(w[0])], [0.0, 1.0]]))
    conjugator = LocallyConstantCocycle.from_function(
        q, 0, lambda w: np.array([[1.0, -float(w[0])], [0.0, 1.0]]))
    b = coboundary_conjugate(a, conjugator)
    return UnipotentExample(q, a, b, frame, conjugator)


def orthogonal_cocycle(q: TransitionMatrix | None = None,
                       angles: tuple[float, ...] | None = None) -> LocallyConstantCocycle:
    """Window-0 rotation-valued generator (one angle per symbol)."""
    if q is None:
        q = full_shift(2)
    if angles is None:
        angles = tuple(0.7 + 0.9 * i for i in range(q.size))
    return LocallyConstantCocycle.from_function(q, 0, lambda w: rotation(angles[w[0]]))


def mixed_two_block_cocycle(q: TransitionMatrix | None = None,
                            seed: int = 5, window: int = 1) -> LocallyConstantCocycle:
    """Window-1 cocycle in the 2-block structure with 1x1 orthogonal blocks
    (diagonal entries +-1) and window-dependent upper corners."""
    if q is None:
        q = full_shift(2)
    rng = np.random.default_rng(seed)

    def build(w: Word) -> np.ndarray:
        s1 = 1.0 if rng.random() < 0.5 else -1.0
        s2 = 1.0 if rng.random() < 0.5 else -1.0
        return np.array([[s1, float(rng.uniform(-1.5, 1.5))], [0.0, s2]])

    return LocallyConstantCocycle.from_function(q, window, build)


def mixed_hyperbolic_cocycle(q: TransitionMatrix | None = None) -> LocallyConstantCocycle:
    """Rotation on symbol 0, diag(2, 1/2) on symbol 1: the all-zeros fixed
    point has zero exponents while the all-ones fixed point has exponent ln 2."""
    if q is None:
        q = full_shift(2)
    mats = {0: rotation(1.0), 1: np.diag([2.0, 0.5])}
    return LocallyConstantCocycle.from_function(q, 0, lambda w: mats[w[0]])


def center_line_cocycle(q: TransitionMatrix | None = None) -> LocallyConstantCocycle:
    """Upper triangular with diagonal (1, 2^{x_0}) and unit corner.

    The line spanned by e1 is invariant with isometric action; at the
    all-ones fixed point it is the center direction of the return map, so
    transverse projections along it exhibit the shadow growth mechanism.
    """
    if q is None:
        q = full_shift(2)
    mats = {s: np.array([[1.0, 1.0], [0.0, float(2 ** s)]]) for s in range(q.size)}
    return LocallyConstantCocycle.from_function(q, 0, lambda w: mats[w[0]])


def orthogonal_block_cocycle(q: TransitionMatrix, dims: tuple[int, ...],
                             rng: np.random.Generator,
                             window: int = 0) -> LocallyConstantCocycle:
    """Block-diagonal generator with independent Haar orthogonal blocks."""
    d = sum(dims)

    def build(w: Word) -> np.ndarray:
        out = np.zeros((d, d))
        at = 0
        for di in dims:
            out[at:at + di, at:at + di] = haar_orthogonal(rng, di)
            at += di
        return out

    return LocallyConstantCocycle.from_function(q, window, build)


def random_block_triangular_cocycle(q: TransitionMatrix, desc: ZimmerDescriptor,
                                    rng: np.random.Generator, spread: float = 0.5,
                                    window: int = 0) -> LocallyConstantCocycle:
    return LocallyConstantCocycle.from_function(
        q, window, lambda w: random_element(desc, rng, spread))


def unipotent_layer_conjugator(q: TransitionMatrix, dims: tuple[int, ...],
                               rng: np.random.Generator, spread: float = 0.5,
                               window: int = 0) -> LocallyConstantCocycle:
    """Random identity-diagonal block upper-triangular locally constant map."""
    d = sum(dims)
    offsets = [0]
    for di in dims:
        offsets.append(offsets[-1] + di)

    def build(w: Word) -> np.ndarray:
        out = np.eye(d)
        for i in range(len(dims)):
            for j in range(i + 1, len(dims)):
                out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = \
                    rng.uniform(-spread, spread, size=(dims[i], dims[j]))
        return out

    return LocallyConstantCocycle.from_function(q, window, build)


@dataclass(frozen=True, eq=False)
class CoboundaryFixture:
    """A structured cocycle, a conjugator and their coboundary."""

    base: LocallyConstantCocycle
    conjugator: LocallyConstantCocycle
    result: LocallyConstantCocycle


def sign_diagonal_cocycle(q: TransitionMatrix, dim: int,
                          rng: np.random.Generator,
                          window: int = 0) -> LocallyConstantCocycle:
    """Generator with random diagonal +-1 (hence orthogonal) values.

    Products of such values have an n-independent sign law, which keeps
    orbit statistics of derived coboundaries free of equilibration drift.
    """
    return LocallyConstantCocycle.from_function(
        q, window,
        lambda w: np.diag(rng.choice([-1.0, 1.0], size=dim)))


def u0_coboundary_fixture(seed: int, dims: tuple[int, ...] = (1, 2),
                          q: TransitionMatrix | None = None,
                          spread: float = 0.4,
                          conjugator_window: int = 0) -> CoboundaryFixture:
    """Coboundary of a sign-diagonal orthogonal cocycle by a random
    block-triangular conjugator; distortion along orbits stays bounded and
    its orbit-law is stationary, so fitted growth exponents vanish."""
    if q is None:
        q = full_shift(2)
    rng = np.random.default_rng(seed)
    base = sign_diagonal_cocycle(q, sum(dims), rng)
    desc = ZimmerDescriptor(dims, 0.0)
    conj = random_block_triangular_cocycle(q, desc, rng, spread,
                                           window=conjugator_window)
    return CoboundaryFixture(base, conj, coboundary_conjugate(base, conj))


def peel_fixture(seed: int, dims: tuple[int, ...],
                 q: TransitionMatrix | None = None,
                 conjugator_window: int = 1,
                 spread: float = 0.6) -> CoboundaryFixture:
    """Reconstruction round-trip input: orthogonal-block A, random
    identity-diagonal unipotent layer u, and B with B = u(shift x) A u(x)^{-1}.

    The transfer C with A = C(shift x) B C(x)^{-1} is then u^{-1}.
    """
    if q is None:
        q = full_shift(2)
    rng = np.random.default_rng(seed)
    base = orthogonal_block_cocycle(q, dims, rng)
    u = unipotent_layer_conjugator(q, dims, rng, spread, window=conjugator_window)
    return CoboundaryFixture(base, u, coboundary_conjugate(base, u))


def mild_random_cocycle(q: TransitionMatrix, window: int,
                        seed: int = 9, scale: float = 0.15,
                        corner: float = 0.25) -> LocallyConstantCocycle:
    """Near-isometric random generator at the given window radius; orbit
    products stay well conditioned so finite holonomy products match long
    truncations at full float precision."""
    rng = np.random.default_rng(seed)

    def build(w: Word) -> np.ndarray:
        m = haar_orthogonal(rng, 2)
        m = m @ np.diag([1.0 + scale * rng.random(),
                         1.0 / (1.0 + scale * rng.random())])
        m[0, 1] += rng.uniform(-corner, corner)
        return m

    return LocallyConstantCocycle.from_function(q, window, build)


def window2_cocycle(q: TransitionMatrix | None = None,
                    seed: int = 9) -> LocallyConstantCocycle:
    """Window-radius-2 generator with well conditioned random values."""
    if q is None:
        q = golden_mean_shift()
    return mild_random_cocycle(q, 2, seed)


def graded_rotation_cocycle(q: TransitionMatrix, window: int = 6,
                            decay: float = 0.5, gain: float = 0.8,
                            stretch: float = 1.2,
                            seed: int = 4) -> LocallyConstantCocycle:
    """Generator rotation(angle(w)) . diag(s, 1/s) whose angle dependence on
    coordinate j falls off like decay^|j|.

    A locally constant stand-in for a genuinely Hoelder generator: flipping
    a coordinate at depth n moves the value by O(decay^n), so holonomy
    moduli display true power-law scaling instead of window-sized jumps.
    The fixed diagonal stretch keeps the values non-commuting (for pure
    rotations the common-future contributions of a stable pair cancel).
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.2, 1.0, size=(2 * window + 1, q.size))
    twist = np.diag([stretch, 1.0 / stretch])

    def build(w: Word) -> np.ndarray:
        angle = 0.0
        for pos, sym in enumerate(w):
            j = pos - window
            angle += gain * coeffs[pos, sym] * decay ** abs(j)
        return rotation(angle) @ twist

    return LocallyConstantCocycle.from_function(q, window, build)

