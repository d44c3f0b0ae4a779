"""Markov measures with full support and local product structure.

A stationary Markov measure supported exactly on the admissible transitions
factors over cylinders as pi * prod(P), so the product-structure density on
each one-symbol cylinder is the explicit constant 1/pi_i.  Sampling closes
finite words into eventually periodic points so every sampled object is a
genuine point of the shift space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sft import (
    SymbolicPoint,
    TransitionMatrix,
    Word,
    as_word,
    close_word,
    splice_future,
    splice_past,
)

STATIONARY_RESIDUAL_TOL = 1e-12


def stationary(p: np.ndarray) -> np.ndarray:
    """Unique stationary probability vector of a row-stochastic matrix.

    The support of p must be irreducible.  Solved as a bordered linear
    system; the residual ||pi P - pi|| is checked against 1e-12.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValueError("transition probability matrix must be square")
    if np.any(p < 0):
        raise ValueError("transition probabilities must be nonnegative")
    rowsums = p.sum(axis=1)
    if not np.allclose(rowsums, 1.0, atol=1e-10):
        raise ValueError(f"rows must sum to 1, got row sums {rowsums}")
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
    """Stationary Markov measure with support matching a transition matrix."""

    transition_probabilities: np.ndarray
    stationary_distribution: np.ndarray
    support: TransitionMatrix

    @classmethod
    def from_matrix(cls, p, pi=None) -> "MarkovMeasure":
        p = np.asarray(p, dtype=float)
        support = TransitionMatrix.from_rows((p > 0).astype(int).tolist())
        computed = stationary(p)
        if pi is None:
            pi = computed
        else:
            pi = np.asarray(pi, dtype=float)
            if np.linalg.norm(pi @ p - pi) > STATIONARY_RESIDUAL_TOL or \
                    abs(pi.sum() - 1.0) > 1e-10:
                raise ValueError("supplied stationary vector fails pi P = pi")
        return cls(p, pi, support)

    @property
    def n_symbols(self) -> int:
        return self.support.size

    def product_density(self, symbol: int) -> float:
        """Local product-structure density on the cylinder [0; symbol]."""
        return 1.0 / float(self.stationary_distribution[symbol])


def uniform_bernoulli(n_symbols: int = 2) -> MarkovMeasure:
    p = np.full((n_symbols, n_symbols), 1.0 / n_symbols)
    return MarkovMeasure.from_matrix(p)


def golden_mean_markov() -> MarkovMeasure:
    return MarkovMeasure.from_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))


def cylinder_measure(mu: MarkovMeasure, m: int, word: Sequence[int] | str) -> float:
    """Measure of the cylinder fixing `word` starting at coordinate m.

    Shift invariance makes the value independent of m; inadmissible words
    get measure zero.
    """
    w = as_word(word)
    if not w:
        return 1.0
    pi = mu.stationary_distribution
    p = mu.transition_probabilities
    value = float(pi[w[0]])
    for a, b in zip(w, w[1:]):
        value *= float(p[a, b])
    return value


def sample_word(mu: MarkovMeasure, rng: np.random.Generator, length: int) -> Word:
    """Word of the given length drawn from the stationary chain."""
    if length < 1:
        raise ValueError("length must be >= 1")
    pi = mu.stationary_distribution
    p = mu.transition_probabilities
    out = [int(rng.choice(mu.n_symbols, p=pi))]
    for _ in range(length - 1):
        out.append(int(rng.choice(mu.n_symbols, p=p[out[-1]])))
    return tuple(out)


def sample_point(mu: MarkovMeasure, rng: np.random.Generator, core_length: int,
                 start: int | None = None) -> SymbolicPoint:
    """Eventually periodic point whose core is a stationary-chain sample.

    The core occupies coordinates [start, start + core_length); by default it
    is centred on coordinate 0.  Both tails are shortest-cycle closures, so
    window statistics over the core are mu-distributed while the point stays
    inside the computable class.
    """
    w = sample_word(mu, rng, core_length)
    if start is None:
        start = -(core_length // 2)
    return close_word(mu.support, w, origin_offset=-start)


def sample_stable_partner(mu: MarkovMeasure, x: SymbolicPoint,
                          rng: np.random.Generator, past_length: int = 6,
                          keep_depth: int = 0) -> SymbolicPoint:
    """Random point on the local stable set of x (same coordinates n >= 0).

    The past is resampled backwards from coordinate -keep_depth - 1 on;
    coordinates -keep_depth..-1 are copied from x.  Predecessors are drawn
    uniformly among admissible ones.
    """
    q = mu.support
    kept = x.window(-keep_depth, -1)
    last = kept[0] if kept else x[0]
    fresh: list[int] = []
    for _ in range(past_length):
        preds = [s for s in range(q.size) if q.allows(s, last)]
        last = int(rng.choice(preds))
        fresh.insert(0, last)
    return splice_past(q, x, tuple(fresh) + kept)


def sample_unstable_partner(mu: MarkovMeasure, x: SymbolicPoint,
                            rng: np.random.Generator, future_length: int = 6,
                            keep_depth: int = 0) -> SymbolicPoint:
    """Random point on the local unstable set of x (same coordinates n <= 0)."""
    q = mu.support
    p = mu.transition_probabilities
    kept = x.window(1, keep_depth)
    last = kept[-1] if kept else x[0]
    fresh: list[int] = []
    for _ in range(future_length):
        last = int(rng.choice(mu.n_symbols, p=p[last]))
        fresh.append(last)
    return splice_future(q, x, kept + tuple(fresh))
