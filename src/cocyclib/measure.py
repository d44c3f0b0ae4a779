"""Markov measures with full support and local product structure.

A stationary Markov measure supported exactly on the admissible transitions
factors over cylinders as pi * prod(P), so the product-structure density on
each one-symbol cylinder is the explicit constant 1/pi_i.  Sampling closes
finite words into eventually periodic points so every sampled object is a
genuine point of the shift space.

Sampling contract: each Markov step consumes one uniform double from the
generator and returns the index found by ``bisect_right`` in the normalised
CDF of its row (``cumsum(p) / cumsum(p)[-1]``); a word draws its doubles as
one ``rng.random(length)`` block.  This is what ``Generator.choice(n, p=p)``
does, so the words and the generator state after every call are those of one
``choice`` call per symbol.  A batch of ``count`` points draws its cores as
one ``rng.random(count * core_length)`` block, the same doubles as the
``count`` per-call blocks, so it gives the points and the generator state of
``count`` calls of :func:`sample_point`.  Uniform predecessors are drawn with
``rng.integers(0, k)``, as ``Generator.choice`` does for a list of k.
``tests/test_measure.py::test_samplers_match_rng_choice`` and
``test_samplers_match_rng_choice_on_cdf_boundaries`` pin this contract.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .sft import (
    SymbolicPoint,
    TransitionMatrix,
    Word,
    _check_cores,
    _closed,
    as_word,
    is_admissible,
    splice_future,
    splice_past,
)

STATIONARY_RESIDUAL_TOL = 1e-12


def _check_row_stochastic(p) -> np.ndarray:
    """p as a float array, after checking it is square, nonnegative and has
    rows summing to 1 (to 1e-10)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition probability matrix must be square")
    if np.any(p < 0):
        raise ValueError("transition probabilities must be nonnegative")
    rowsums = p.sum(axis=1)
    if not np.allclose(rowsums, 1.0, atol=1e-10):
        raise ValueError(f"rows must sum to 1, got row sums {rowsums}")
    return p


def _normalised_cdf(p: np.ndarray) -> list[float]:
    """cumsum(p) / cumsum(p)[-1], the table Generator.choice searches."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()


def stationary(p: np.ndarray) -> np.ndarray:
    """Unique stationary probability vector of a row-stochastic matrix.

    The support of p must be irreducible.  Solved as a bordered linear
    system; the residual ||pi P - pi|| is checked against 1e-12.
    """
    p = _check_row_stochastic(p)
    n = p.shape[0]
    TransitionMatrix.from_rows((p > 0).astype(int).tolist())  # irreducibility
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.linalg.norm(pi @ p - pi)
    if residual > STATIONARY_RESIDUAL_TOL:
        raise ValueError(f"stationary solve residual {residual:.3e} too large")
    if np.any(pi <= 0):
        raise ValueError("stationary distribution must be strictly positive")
    return pi


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Stationary Markov measure with support matching a transition matrix.

    Construction checks that P is square, nonnegative and row-stochastic,
    that the stationary vector is a finite probability vector of matching
    length and that the support is exactly P > 0; :meth:`from_matrix` also
    checks irreducibility and pi P = pi.
    """

    transition_probabilities: np.ndarray
    stationary_distribution: np.ndarray
    support: TransitionMatrix

    def __post_init__(self):
        p = _check_row_stochastic(self.transition_probabilities)
        pi = np.asarray(self.stationary_distribution, dtype=float)
        if pi.shape != (p.shape[0],):
            raise ValueError(
                f"stationary distribution has shape {pi.shape}, expected "
                f"({p.shape[0]},)")
        if not np.all(np.isfinite(pi)) or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError("stationary distribution must be a probability vector")
        if self.support.as_array.tolist() != (p > 0).astype(int).tolist():
            raise ValueError("support differs from the positive entries of P")

    @cached_property
    def cdfs(self) -> list[list[float]]:
        """Normalised CDFs as searched by the samplers: entry s < n is the
        CDF of row s of P, and entry n that of pi, the law of a first
        symbol.  A walk from the state n is thus a stationary word."""
        return ([_normalised_cdf(row) for row in self.transition_probabilities]
                + [_normalised_cdf(self.stationary_distribution)])

    @classmethod
    def from_matrix(cls, p, pi=None) -> "MarkovMeasure":
        p = np.asarray(p, dtype=float)
        support = TransitionMatrix.from_rows((p > 0).astype(int).tolist())
        computed = stationary(p)
        if pi is None:
            pi = computed
        else:
            pi = np.asarray(pi, dtype=float)
            if np.linalg.norm(pi @ p - pi) > STATIONARY_RESIDUAL_TOL:
                raise ValueError("supplied stationary vector fails pi P = pi")
        return cls(p, pi, support)

    @property
    def n_symbols(self) -> int:
        return self.support.size


def uniform_bernoulli(n_symbols: int = 2) -> MarkovMeasure:
    p = np.full((n_symbols, n_symbols), 1.0 / n_symbols)
    return MarkovMeasure.from_matrix(p)


def golden_mean_markov() -> MarkovMeasure:
    return MarkovMeasure.from_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))


def cylinder_measure(mu: MarkovMeasure, m: int, word: Sequence[int] | str) -> float:
    """Measure of the cylinder fixing `word` starting at coordinate m.

    Shift invariance makes the value independent of m; inadmissible words
    get measure zero, and a symbol outside [0, n) raises ValueError.
    """
    w = as_word(word)
    if not w:
        return 1.0
    if not is_admissible(w, mu.support):
        return 0.0
    pi = mu.stationary_distribution
    p = mu.transition_probabilities
    value = float(pi[w[0]])
    for a, b in zip(w, w[1:]):
        value *= float(p[a, b])
    return value


def _walk(cdfs: list[list[float]], last: int, u: list[float]) -> list[int]:
    """The chain's steps from state `last`, one double of u per step, each
    the ``bisect_right`` of the double in the CDF of the current state."""
    out = []
    for v in u:
        last = bisect_right(cdfs[last], v)
        out.append(last)
    return out


def _draw_past(q: TransitionMatrix, rng: np.random.Generator, last: int,
               length: int) -> Word:
    """`length` symbols drawn backwards from `last`, each uniform among the
    predecessors of the one after it, one ``rng.integers(0, k)`` per step."""
    fresh: list[int] = []
    for _ in range(length):
        preds = q.predecessors[last]
        last = preds[rng.integers(0, len(preds))]
        fresh.append(last)
    return tuple(reversed(fresh))


def _draw_future(mu: MarkovMeasure, rng: np.random.Generator, last: int,
                 length: int) -> Word:
    """`length` chain steps from `last`, drawn as one ``rng.random`` block."""
    return tuple(_walk(mu.cdfs, last, rng.random(length).tolist()))


def sample_word(mu: MarkovMeasure, rng: np.random.Generator, length: int) -> Word:
    """Word of the given length drawn from the stationary chain.

    Draws ``rng.random(length)`` and bisects the first double in the CDF of
    pi and each later one in the CDF of the previous symbol's row: the same
    word and generator state as one ``rng.choice(n, p=...)`` per symbol.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return _draw_future(mu, rng, mu.n_symbols, length)


def _sample_cores(mu: MarkovMeasure, rng: np.random.Generator, count: int,
                  core_length: int) -> np.ndarray:
    """The (count, core_length) array of the cores of :func:`sample_points`,
    drawn from one ``rng.random(count * core_length)`` block and checked as
    one array."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if core_length < 1:
        raise ValueError("length must be >= 1")
    cdfs, n = mu.cdfs, mu.n_symbols
    u = rng.random(count * core_length).tolist()
    cores = np.array([_walk(cdfs, n, u[i:i + core_length])
                      for i in range(0, count * core_length, core_length)],
                     dtype=np.int64)
    _check_cores(mu.support, cores)
    return cores


def sample_points(mu: MarkovMeasure, rng: np.random.Generator, count: int,
                  core_length: int, start: int | None = None) -> list[SymbolicPoint]:
    """`count` points as :func:`sample_point` draws them, from one block.

    The points, their layouts and the generator state afterwards are those
    of `count` calls of :func:`sample_point` with the same arguments.
    """
    cores = _sample_cores(mu, rng, count, core_length)
    if start is None:
        start = -(core_length // 2)
    q = mu.support
    return [_closed(q, tuple(w), -start) for w in cores.tolist()]


def sample_point(mu: MarkovMeasure, rng: np.random.Generator, core_length: int,
                 start: int | None = None) -> SymbolicPoint:
    """Eventually periodic point whose core is a stationary-chain sample.

    The core occupies coordinates [start, start + core_length); by default it
    is centred on coordinate 0.  Both tails are shortest-cycle closures, so
    window statistics over the core are mu-distributed while the point stays
    inside the computable class.
    """
    return sample_points(mu, rng, 1, core_length, start)[0]


def sample_stable_partner(mu: MarkovMeasure, x: SymbolicPoint,
                          rng: np.random.Generator, past_length: int = 6,
                          keep_depth: int = 0) -> SymbolicPoint:
    """Random point on the local stable set of x (same coordinates n >= 0).

    The past is resampled backwards from coordinate -keep_depth - 1 on;
    coordinates -keep_depth..-1 are copied from x.  Predecessors are drawn
    uniformly among admissible ones, one ``rng.integers(0, k)`` per step,
    as ``rng.choice`` of the list of k predecessors draws.
    """
    kept = x.window(-keep_depth, -1)
    fresh = _draw_past(mu.support, rng, kept[0] if kept else x[0], past_length)
    return splice_past(mu.support, x, fresh + kept)


def sample_unstable_partner(mu: MarkovMeasure, x: SymbolicPoint,
                            rng: np.random.Generator, future_length: int = 6,
                            keep_depth: int = 0) -> SymbolicPoint:
    """Random point on the local unstable set of x (same coordinates n <= 0).

    Coordinates 1..keep_depth are copied from x; the future after them is
    drawn from the chain as in :func:`sample_word`, one double per step.
    """
    kept = x.window(1, keep_depth)
    fresh = _draw_future(mu, rng, kept[-1] if kept else x[0], future_length)
    return splice_future(mu.support, x, kept + fresh)
