"""Locally constant linear cocycles over a subshift of finite type.

A generator is a table from admissible windows of radius k to invertible
matrices.  Locally constant generators make every construction downstream
exact: orbit products are finite table products, holonomies stabilize after
k steps, and integrals over the measure reduce to finite cylinder sums.

A table is stored in one form: the array of its window words, in
lexicographic order, and the stack of their values.  Table operations
(conjugation, inversion, scaling, block extraction) act on whole stacks; the
window -> value mapping is built from them on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .sft import (
    SymbolicPoint,
    TransitionMatrix,
    Word,
    admissible_word_array,
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_invertible(values, dim: int, words=None) -> np.ndarray:
    """``values`` as one (n, dim, dim) stack, checked.  Raises a ValueError
    at the first entry that is not a finite, safely invertible dim x dim
    matrix, naming it as the window ``words[i]`` or, without ``words``, as
    base value i, the seed of symbol i of a transfer map."""
    def where(i: int) -> str:
        return f"base value {i}" if words is None else f"window {as_word(words[i])}"

    def square(i: int, value) -> np.ndarray:
        # a ragged nested list fails the float conversion, not the shape test
        try:
            m = np.asarray(value, dtype=float)
        except ValueError:
            m = None
        if m is None or m.shape != (dim, dim):
            raise ValueError(f"matrix at {where(i)} is not {dim}x{dim}")
        return m

    if not (isinstance(values, np.ndarray) and values.shape[1:] == (dim, dim)):
        values = [square(i, v) for i, v in enumerate(values)]
    stack = np.asarray(values, dtype=float)
    finite = np.isfinite(stack).all(axis=(1, 2))
    s = np.linalg.svd(np.where(finite[:, None, None], stack, np.eye(dim)),
                      compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~finite | (s[:, -1] <= 0) | (s[:, 0] / s[:, -1] > MAX_CONDITION)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-finite matrix at {where(i)}" if not finite[i]
                         else f"matrix at {where(i)} is not safely invertible")
    return stack


def _check_seeds(values, n_symbols: int, dim: int) -> np.ndarray:
    """One seed per symbol, checked by :func:`_check_invertible`, as a stack."""
    values = list(values)
    if len(values) != n_symbols:
        i = min(len(values), n_symbols)
        raise ValueError(f"base value {i} is {'missing' if i == len(values) else 'extra'}"
                         f": need one per symbol of {n_symbols}")
    return _check_invertible(values, dim)


@dataclass(frozen=True, eq=False)
class LocallyConstantCocycle:
    """Generator over the admissible windows x_{-k}..x_{k}, stored as the
    (W, 2k + 1) array ``words`` of those windows in lexicographic order and
    the (W, d, d) stack of their values, both read-only.

    Also used for plain locally constant matrix maps (conjugators, frames):
    the cocycle structure only enters through :func:`iterate`.
    """

    q: TransitionMatrix
    window_radius: int
    dimension: int
    words: np.ndarray
    stack: np.ndarray

    def __post_init__(self):
        for name, dtype in (("words", np.int64), ("stack", float)):
            object.__setattr__(self, name, _read_only(
                np.ascontiguousarray(getattr(self, name), dtype=dtype)))

    @classmethod
    def from_table(cls, q: TransitionMatrix, window_radius: int,
                   table: Mapping) -> "LocallyConstantCocycle":
        """Checked constructor from a window -> matrix mapping.  Entries at
        words that are not admissible windows are checked, not stored."""
        if not table:
            raise ValueError("empty table")
        given = [as_word(w) for w in table]
        values = list(table.values())
        # the first value's row count, at least 1, sets the dimension
        try:
            dim = max(1, len(values[0]))
        except TypeError:  # a scalar
            dim = 1
        fixed = dict(zip(given, _check_invertible(values, dim, given)))
        words = admissible_word_array(q, 2 * window_radius + 1)
        keys = list(map(tuple, words.tolist()))
        missing = [w for w in keys if w not in fixed]
        if missing:
            raise ValueError(f"table incomplete: missing admissible windows {missing[:5]}"
                             + ("..." if len(missing) > 5 else ""))
        return cls(q, window_radius, dim, words, np.array([fixed[w] for w in keys]))

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
        s = np.linalg.svd(self.stack, compute_uv=False)
        return max(0.0, math.log(s[:, 0].max()), -math.log(s[:, -1].min()))

    @cached_property
    def _row_of_code(self) -> np.ndarray:
        """Row of ``stack`` at each base-q window code sum_i w_i q^(2k-i)
        (-1 where the table has no entry), for reading whole symbol arrays."""
        q, width = self.q.size, self.words.shape[1]
        row_of_code = np.full(q ** width, -1, dtype=np.int64)
        row_of_code[np.ravel_multi_index(tuple(self.words.T), (q,) * width)] = \
            np.arange(len(self.words))
        return row_of_code

    @cached_property
    def index(self) -> dict[Word, int]:
        """Window -> row of ``stack``, the lookup of single orbit products."""
        return {w: row for row, w in enumerate(map(tuple, self.words.tolist()))}

    @cached_property
    def inverse(self) -> np.ndarray:
        """Matrix inverses of ``stack``, the factors of A^n for n < 0; a table
        read only forwards or through :meth:`stack_at` never builds them."""
        return np.linalg.inv(self.stack)

    @cached_property
    def _identity(self) -> np.ndarray:
        """Read-only start of every single orbit product."""
        return _read_only(np.eye(self.dimension))

    def rows(self, symbols) -> np.ndarray:
        """Table rows of the consecutive windows of each symbol sequence.

        ``symbols`` has shape (..., M); the result has shape (..., M - 2k),
        entry t being the row of the window symbols[..., t : t + 2k + 1].
        """
        sym = np.asarray(symbols, dtype=np.int64)
        q, width = self.q.size, self.words.shape[1]
        if sym.size and (sym.min() < 0 or sym.max() >= q):
            raise KeyError(f"symbol outside the alphabet of {q}")
        m = sym.shape[-1] - width + 1
        code = sym[..., :m]
        for i in range(1, width):
            code = code * q + sym[..., i:i + m]
        rows = self._row_of_code[code]
        if np.any(rows < 0):
            raise KeyError("window missing from the generator table")
        return rows

    @cached_property
    def table(self) -> Mapping[Word, np.ndarray]:
        """Window -> value, built on first read.  Each value is its own
        read-only copy: numpy operations on a view into the stack cost about
        a tenth more, and tables are read point by point."""
        return MappingProxyType({w: _read_only(m.copy()) for w, m
                                 in zip(map(tuple, self.words.tolist()), self.stack)})

    def _centre_rows(self, words: np.ndarray) -> np.ndarray:
        """Rows of ``stack`` at the centres of a (W, 2r + 1) array of window
        words, r >= k."""
        r, k = words.shape[1] // 2, self.window_radius
        return self.rows(words[:, r - k:r + k + 1])[:, 0]

    def stack_at(self, words: np.ndarray) -> np.ndarray:
        """The values at the centres of a (W, 2r + 1) array of window words,
        r >= k, as one (W, d, d) stack."""
        return self.stack[self._centre_rows(words)]

    def table_jsonable(self) -> dict:
        """Window radius and table, keyed by :func:`~cocyclib.sft.word_key`,
        as the CLI reads a cocycle."""
        return {"window_radius": self.window_radius,
                "table": {word_key(w): m.tolist()
                          for w, m in zip(self.words.tolist(), self.stack)}}


def evaluate(a: LocallyConstantCocycle, x: SymbolicPoint) -> np.ndarray:
    """Generator value at x: the table entry of the window x_{-k}..x_{k}."""
    k = a.window_radius
    return a.table[x.window(-k, k)]


def _orbit_product(a: LocallyConstantCocycle, mats: np.ndarray,
                   x: SymbolicPoint, n: int) -> np.ndarray:
    """Rows of ``mats`` (stacked like ``a.stack``) for the windows along the
    orbit of x, left-multiplied onto the identity: the factors at 0, ...,
    n-1 for n >= 0 and at -1, ..., n, in that order, for n < 0.  A single
    point reads its windows through ``a.index``, cheaper than base-q codes."""
    if n == 0:
        return np.eye(a.dimension)
    index, width = a.index, 2 * a.window_radius + 1
    lo, hi = _orbit_span(a.window_radius, n)
    sym = x.window(lo, hi)  # window t is centred at lo + k + t
    result = a._identity
    for t in (range(n) if n > 0 else range(-n - 1, -1, -1)):
        result = mats[index[sym[t:t + width]]] @ result
    return result


def _orbit_rows(a: LocallyConstantCocycle, words: np.ndarray, n: int) -> np.ndarray:
    """(W, |n|) rows of ``a.stack`` of the factors of A^n over the rows of a
    (W, 2r + 1) array of window words over coordinates -r..r, in product
    order: the factor at t for n >= 0 and at -1 - t for n < 0.  At n = 0 no
    window is read; otherwise r must cover the span of A^n."""
    if not n:
        return np.empty((len(words), 0), dtype=np.int64)
    r = words.shape[1] // 2
    lo, hi = _orbit_span(a.window_radius, n)
    if lo < -r or hi > r:
        raise ValueError(f"radius-{r} words miss coordinates {lo}..{hi} of A^{n}")
    return a.rows(words[:, lo + r:hi + r + 1])[:, ::1 if n > 0 else -1]


def _fold(mats: np.ndarray, rows: np.ndarray,
          start: np.ndarray | None = None) -> np.ndarray:
    """The B products mats[rows[b, n-1]] ... mats[rows[b, 0]] @ start.

    ``start`` defaults to the identity, so each product is formed with the
    same factors in the same order as :func:`iterate`.
    """
    prod = np.eye(mats.shape[-1])[None].repeat(len(rows), axis=0) if start is None else start
    for t in range(rows.shape[1]):
        prod = mats[rows[:, t]] @ prod
    return prod


def _finite(result: np.ndarray, n: int) -> np.ndarray:
    """An orbit product A^n, or a stack of them, checked for overflow."""
    if not np.all(np.isfinite(result)):
        raise OverflowError(f"orbit product at n={n} exceeded floating point range")
    return result


def iterate(a: LocallyConstantCocycle, x: SymbolicPoint, n: int) -> np.ndarray:
    """Orbit product A^n(x): forward product for n > 0, identity at 0, and
    the inverse-factor backward product for n < 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_orbit_product(a, a.stack if n >= 0 else a.inverse, x, n), n)


def iterate_many(a: LocallyConstantCocycle, words: np.ndarray,
                 n: int) -> np.ndarray:
    """The (W, d, d) stack of A^n(x) over the rows x of a (W, 2r + 1) array
    of window words over coordinates -r..r.  Each entry is formed like
    :func:`iterate`, from the identity with the same factors in the same
    order, so it equals ``iterate(a, x, n)`` bit for bit, and it raises the
    same OverflowError.  At n = 0 no window is read; otherwise r must cover
    the span of A^n."""
    rows = _orbit_rows(a, words, n)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_fold(a.stack if n >= 0 else a.inverse, rows), n)


def inverse_cocycle(a: LocallyConstantCocycle) -> LocallyConstantCocycle:
    """Table-level inverse: same windows, entrywise matrix inverse.

    The contract is exactly table inversion.  Orbit products of the result
    are reversed-order factors of (A^n)^{-1}; the backward product A^{-n}(x)
    is recovered from the inverted table by :func:`backward_product`.
    """
    return LocallyConstantCocycle(a.q, a.window_radius, a.dimension, a.words,
                                  np.linalg.inv(a.stack))


def backward_product(inv: LocallyConstantCocycle, x: SymbolicPoint,
                     n: int) -> np.ndarray:
    """A^{-n}(x) assembled from the inverted table:
    inv(shift^-n x) ... inv(shift^-1 x), equal to iterate(a, x, -n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _orbit_product(inv, inv.stack, x, -n)


def coboundary_conjugate(a: LocallyConstantCocycle,
                         u: LocallyConstantCocycle) -> LocallyConstantCocycle:
    """Conjugated generator x -> u(shift x) A(x) u(x)^{-1}.

    u is any locally constant invertible matrix map; the result is locally
    constant with window radius max(k_A, k_u + 1), and its values pass the
    checks of :meth:`LocallyConstantCocycle.from_table`.
    """
    if u.dimension != a.dimension:
        raise ValueError("conjugator dimension does not match the cocycle")
    k = max(a.window_radius, u.window_radius + 1)
    words = admissible_word_array(a.q, 2 * k + 1)
    # words[:, 2:] is centred at x_1.  u(x)^{-1} is read from u's table
    # inverted once, not cached: a peel conjugates by each stage table once
    values = (u.stack_at(words[:, 2:]) @ a.stack_at(words)
              @ np.linalg.inv(u.stack)[u._centre_rows(words)])
    _check_invertible(values, a.dimension, words)
    return LocallyConstantCocycle(a.q, k, a.dimension, words, values)


def scale(a: LocallyConstantCocycle, factor: float) -> LocallyConstantCocycle:
    return LocallyConstantCocycle(a.q, a.window_radius, a.dimension, a.words,
                                  factor * a.stack)


def qc_distortion(a: LocallyConstantCocycle, x: SymbolicPoint, n: int) -> float:
    """Quasiconformal distortion ||A^n(x)|| * ||(A^n(x))^{-1}|| (operator norms)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = iterate(a, x, n)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-1])

