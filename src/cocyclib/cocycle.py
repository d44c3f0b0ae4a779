"""Locally constant linear cocycles over a subshift of finite type.

A generator is a table from admissible windows of radius k to invertible
matrices.  Locally constant generators make every construction downstream
exact: orbit products are finite table products, holonomies stabilize after
k steps, and integrals over the measure reduce to finite cylinder sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .sft import (
    SymbolicPoint,
    TransitionMatrix,
    Word,
    admissible_words,
    as_word,
    word_key,
)

MAX_CONDITION = 1e14


def _orbit_span(k: int, n: int) -> tuple[int, int]:
    """First and last coordinate read by the factors of A^n(x) for a
    window-k generator: the windows centred at 0..n-1 for n >= 0 and at
    n..-1 for n < 0."""
    return (-k, n - 1 + k) if n >= 0 else (n - k, k - 1)


@dataclass(frozen=True, eq=False)
class OrbitKernel:
    """Indexed, stacked form of a generator table for batched orbit products.

    ``index`` maps each window to its row of ``stack``, and ``inverse`` holds
    the entrywise matrix inverses of ``stack``.  For whole symbol arrays a
    window w_0..w_{2k} is read by its base-q code sum_i w_i q^(2k-i), which
    ``row_of_code`` maps to the same row (-1 where the table has no entry);
    the dict stays the cheaper lookup for a few windows at a time.  Single
    orbit products start from the read-only ``identity``.
    """

    n_symbols: int
    width: int
    index: dict[Word, int]
    row_of_code: np.ndarray
    stack: np.ndarray
    inverse: np.ndarray
    identity: np.ndarray

    def rows(self, symbols) -> np.ndarray:
        """Table rows of the consecutive windows of each symbol sequence.

        ``symbols`` has shape (..., M); the result has shape (..., M - 2k),
        entry t being the row of the window symbols[..., t : t + 2k + 1].
        """
        sym = np.asarray(symbols, dtype=np.int64)
        if sym.size and (sym.min() < 0 or sym.max() >= self.n_symbols):
            raise KeyError(f"symbol outside the alphabet of {self.n_symbols}")
        m = sym.shape[-1] - self.width + 1
        code = sym[..., :m]
        for i in range(1, self.width):
            code = code * self.n_symbols + sym[..., i:i + m]
        rows = self.row_of_code[code]
        if np.any(rows < 0):
            raise KeyError("window missing from the generator table")
        return rows

    def orbit_rows(self, points, n: int) -> np.ndarray:
        """(len(points), |n|) rows of the factors of A^n in product order:
        the factor at t for n >= 0 and at -1 - t for n < 0."""
        lo, hi = _orbit_span(self.width // 2, n)
        sym = np.array([x.window(lo, hi) for x in points], dtype=np.int64)
        rows = self.rows(sym.reshape(len(points), hi - lo + 1))
        return rows if n >= 0 else rows[:, ::-1]

    @staticmethod
    def fold(mats: np.ndarray, rows: np.ndarray,
             start: np.ndarray | None = None) -> np.ndarray:
        """The B products mats[rows[b, n-1]] ... mats[rows[b, 0]] @ start.

        ``start`` defaults to the identity, so each product is formed with the
        same factors in the same order as :func:`iterate`.
        """
        if start is None:
            start = np.tile(np.eye(mats.shape[-1]), (rows.shape[0], 1, 1))
        prod = start
        for t in range(rows.shape[1]):
            prod = mats[rows[:, t]] @ prod
        return prod


@dataclass(frozen=True, eq=False)
class LocallyConstantCocycle:
    """Generator table over admissible windows x_{-k}..x_{k}.

    Also used for plain locally constant matrix maps (conjugators, frames):
    the cocycle structure only enters through :func:`iterate`.
    """

    q: TransitionMatrix
    window_radius: int
    dimension: int
    table: Mapping[Word, np.ndarray]

    @classmethod
    def from_table(cls, q: TransitionMatrix, window_radius: int,
                   table: Mapping) -> "LocallyConstantCocycle":
        fixed: dict[Word, np.ndarray] = {}
        dim = None
        for word, mat in table.items():
            w = as_word(word)
            m = np.array(mat, dtype=float)
            if dim is None:
                dim = m.shape[0]
            if m.shape != (dim, dim):
                raise ValueError(f"inconsistent matrix shape at window {w}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"non-finite matrix at window {w}")
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] <= 0 or s[0] / s[-1] > MAX_CONDITION:
                raise ValueError(f"matrix at window {w} is not safely invertible")
            fixed[w] = m
        if dim is None:
            raise ValueError("empty table")
        expected = list(admissible_words(q, 2 * window_radius + 1))
        missing = [w for w in expected if w not in fixed]
        if missing:
            raise ValueError(
                f"table incomplete: missing admissible windows {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )
        return cls(q, window_radius, dim, fixed)

    @classmethod
    def from_function(cls, q: TransitionMatrix, window_radius: int,
                      func: Callable[[Word], np.ndarray]) -> "LocallyConstantCocycle":
        table = {w: func(w) for w in admissible_words(q, 2 * window_radius + 1)}
        return cls.from_table(q, window_radius, table)

    @classmethod
    def constant(cls, q: TransitionMatrix, matrix) -> "LocallyConstantCocycle":
        m = np.array(matrix, dtype=float)
        return cls.from_function(q, 0, lambda w: m)

    @cached_property
    def log_bound(self) -> float:
        """eta = max over the table of log max(||A||, ||A^-1||); always >= 0."""
        eta = 0.0
        for m in self.table.values():
            s = np.linalg.svd(m, compute_uv=False)
            eta = max(eta, math.log(s[0]), -math.log(s[-1]))
        return eta

    @cached_property
    def kernel(self) -> OrbitKernel:
        """Window index, stacked table and stacked inverses (built once)."""
        q = self.q.size
        width = 2 * self.window_radius + 1
        windows = [w for w in self.table
                   if len(w) == width and all(0 <= s < q for s in w)]
        row_of_code = np.full(q ** width, -1, dtype=np.int64)
        for row, w in enumerate(windows):
            code = 0
            for s in w:
                code = code * q + s
            row_of_code[code] = row
        stack = np.array([self.table[w] for w in windows], dtype=float)
        identity = np.eye(self.dimension)
        identity.flags.writeable = False
        return OrbitKernel(q, width, {w: row for row, w in enumerate(windows)},
                           row_of_code, stack, np.linalg.inv(stack), identity)

    def at(self, word: Word) -> np.ndarray:
        """Value at the centre of a window word of odd length >= 2k + 1."""
        mid, k = len(word) // 2, self.window_radius
        return self.table[word[mid - k: mid + k + 1]]

    def table_jsonable(self) -> dict:
        """Window radius and table, keyed by :func:`~cocyclib.sft.word_key`,
        as the CLI reads a cocycle."""
        return {"window_radius": self.window_radius,
                "table": {word_key(w): self.table[w].tolist() for w in sorted(self.table)}}


def evaluate(a: LocallyConstantCocycle, x: SymbolicPoint) -> np.ndarray:
    """Generator value at x: the table entry of the window x_{-k}..x_{k}."""
    k = a.window_radius
    return a.table[x.window(-k, k)]


def _orbit_product(a: LocallyConstantCocycle, mats: np.ndarray,
                   x: SymbolicPoint, n: int) -> np.ndarray:
    """Rows of ``mats`` (stacked like ``a.kernel.stack``) for the windows
    along the orbit of x, left-multiplied onto the identity: the factors at
    0, ..., n-1 for n >= 0 and at -1, ..., n, in that order, for n < 0."""
    if n == 0:
        return np.eye(a.dimension)
    kern = a.kernel
    lo, hi = _orbit_span(a.window_radius, n)
    sym = x.window(lo, hi)  # window t is centred at lo + k + t
    result = kern.identity
    for t in (range(n) if n > 0 else range(-n - 1, -1, -1)):
        result = mats[kern.index[sym[t:t + kern.width]]] @ result
    return result


def iterate(a: LocallyConstantCocycle, x: SymbolicPoint, n: int) -> np.ndarray:
    """Orbit product A^n(x): forward product for n > 0, identity at 0, and
    the inverse-factor backward product for n < 0."""
    kern = a.kernel
    with np.errstate(over="ignore", invalid="ignore"):
        result = _orbit_product(a, kern.stack if n >= 0 else kern.inverse, x, n)
    if not np.all(np.isfinite(result)):
        raise OverflowError(
            f"orbit product at n={n} exceeded floating point range"
        )
    return result


def iterate_many(a: LocallyConstantCocycle, words: np.ndarray,
                 n: int) -> np.ndarray:
    """The (W, d, d) stack of A^n(x) over the rows x of a (W, 2r + 1) array
    of window words over coordinates -r..r.  Each entry is formed like
    :func:`iterate`, from the identity with the same factors in the same
    order, so it equals ``iterate(a, x, n)`` bit for bit, and it raises the
    same OverflowError.  At n = 0 no window is read; otherwise r must cover
    the span of A^n."""
    kern = a.kernel
    rows = np.empty((len(words), 0), dtype=np.int64)
    if n:
        r = words.shape[1] // 2
        lo, hi = _orbit_span(a.window_radius, n)
        if lo < -r or hi > r:
            raise ValueError(f"radius-{r} words miss coordinates {lo}..{hi} of A^{n}")
        rows = kern.rows(words[:, lo + r:hi + r + 1])[:, ::1 if n > 0 else -1]
    with np.errstate(over="ignore", invalid="ignore"):
        result = kern.fold(kern.stack if n >= 0 else kern.inverse, rows)
    if not np.all(np.isfinite(result)):
        raise OverflowError(
            f"orbit product at n={n} exceeded floating point range"
        )
    return result


def inverse_cocycle(a: LocallyConstantCocycle) -> LocallyConstantCocycle:
    """Table-level inverse: same windows, entrywise matrix inverse.

    The contract is exactly table inversion.  Orbit products of the result
    are reversed-order factors of (A^n)^{-1}; the backward product A^{-n}(x)
    is recovered from the inverted table by :func:`backward_product`.
    """
    table = {w: np.linalg.inv(m) for w, m in a.table.items()}
    return LocallyConstantCocycle(a.q, a.window_radius, a.dimension, table)


def backward_product(inv: LocallyConstantCocycle, x: SymbolicPoint,
                     n: int) -> np.ndarray:
    """A^{-n}(x) assembled from the inverted table:
    inv(shift^-n x) ... inv(shift^-1 x), equal to iterate(a, x, -n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _orbit_product(inv, inv.kernel.stack, x, -n)


def coboundary_conjugate(a: LocallyConstantCocycle,
                         u: LocallyConstantCocycle) -> LocallyConstantCocycle:
    """Conjugated generator x -> u(shift x) A(x) u(x)^{-1}.

    u is any locally constant invertible matrix map; the result is locally
    constant with window radius max(k_A, k_u + 1).
    """
    if u.dimension != a.dimension:
        raise ValueError("conjugator dimension does not match the cocycle")
    k = max(a.window_radius, u.window_radius + 1)

    def build(word: Word) -> np.ndarray:
        # word is x_{-k}..x_{k}, so word[2:] is centred at x_1
        return u.at(word[2:]) @ a.at(word) @ np.linalg.inv(u.at(word))

    return LocallyConstantCocycle.from_function(a.q, k, build)


def scale(a: LocallyConstantCocycle, factor: float) -> LocallyConstantCocycle:
    table = {w: factor * m for w, m in a.table.items()}
    return LocallyConstantCocycle(a.q, a.window_radius, a.dimension, table)


def qc_distortion(a: LocallyConstantCocycle, x: SymbolicPoint, n: int) -> float:
    """Quasiconformal distortion ||A^n(x)|| * ||(A^n(x))^{-1}|| (operator norms)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = iterate(a, x, n)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-1])

