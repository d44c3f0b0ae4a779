"""Two-sided subshifts of finite type with an exactly computable point class.

Points are restricted to eventually periodic bi-infinite sequences
``(left_period)^inf . core . (right_period)^inf``.  Every operation on such
points (coordinate access, shift, bracket, agreement radius, equality) is
exact and terminating, which is what makes the downstream holonomy and
transfer computations exact finite products instead of truncated limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Sentinel returned by :func:`agreement_radius` for equal sequences.
INFINITE = math.inf

#: Cap on plain enumeration (admissible words, periodic orbits).
DEFAULT_WORD_BUDGET = 2_000_000

Word = tuple[int, ...]


class BudgetExceededError(ValueError):
    """An enumeration would exceed the configured word budget."""


def as_word(word: Sequence[int] | str) -> Word:
    """Coerce a word given as an int sequence or a digit string to a tuple."""
    if isinstance(word, str):
        return tuple(int(c) for c in word)
    return tuple(int(s) for s in word)


def word_key(word: Sequence[int]) -> str:
    """Symbols joined by spaces.  A one-symbol word past 9 gets a trailing
    space, since "12" reads back as the digit string 1 2."""
    key = " ".join(map(str, word))
    return key + " " if len(word) == 1 and word[0] > 9 else key


def parse_word_key(key: str) -> Word:
    """Inverse of :func:`word_key`; a key without spaces is a digit string."""
    return tuple(int(s) for s in key.split()) if " " in key else as_word(key)


@dataclass(frozen=True)
class MetricParams:
    """Scale parameter of the metric exp(-tau * N(x, y))."""

    tau: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class TransitionMatrix:
    """0/1 transition matrix of an irreducible subshift of finite type.

    Rows and columns must each contain a 1 and the matrix must be
    irreducible.  Primitivity (some power entrywise positive) is *not*
    required at construction: operations that need a mixing constant raise
    when the matrix is irreducible but periodic.
    """

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "TransitionMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("empty transition matrix")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("transition matrix must be square")
            if any(v not in (0, 1) for v in row):
                raise ValueError("transition matrix entries must be 0 or 1")
        for i, row in enumerate(self.entries):
            if not any(row):
                raise ValueError(f"row {i} has no admissible successor")
        for j in range(n):
            if not any(self.entries[i][j] for i in range(n)):
                raise ValueError(f"column {j} has no admissible predecessor")
        reach = self._reachability()
        for i in range(n):
            for j in range(n):
                if not reach[i][j]:
                    raise ValueError(
                        f"transition matrix is reducible: symbol {j} is "
                        f"unreachable from symbol {i}"
                    )

    def _reachability(self) -> list[list[bool]]:
        n = self.size
        q = np.array(self.entries, dtype=bool)
        acc = q.copy()
        step = q.copy()
        for _ in range(n - 1):
            step = (step @ q) > 0
            acc |= step
        return acc.tolist()

    @property
    def size(self) -> int:
        return len(self.entries)

    def allows(self, i: int, j: int) -> bool:
        return bool(self.entries[i][j])

    @cached_property
    def predecessors(self) -> tuple[Word, ...]:
        """predecessors[j]: the symbols i with i -> j allowed, ascending."""
        n = self.size
        return tuple(tuple(i for i in range(n) if self.entries[i][j])
                     for j in range(n))

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    @cached_property
    def return_tails(self) -> tuple[tuple[Word, Word], ...]:
        """return_tails[s]: the tails that close a word at symbol s, as
        (left, right) periods.  Both are the shortest return cycle through
        s, rotated so the cycle's closing edge lands on the seam: the left
        one ends just before s, the right one starts just after it."""
        tails = []
        for s in range(self.size):
            cycle = shortest_return_cycle(self, s)
            tails.append((cycle, cycle[1:] + cycle[:1]))
        return tuple(tails)


def full_shift(n_symbols: int = 2) -> TransitionMatrix:
    """All-ones transition matrix (every transition allowed)."""
    return TransitionMatrix.from_rows([[1] * n_symbols] * n_symbols)


def golden_mean_shift() -> TransitionMatrix:
    """Two symbols with the word 11 forbidden."""
    return TransitionMatrix.from_rows([[1, 1], [1, 0]])


def is_admissible(word: Sequence[int] | str, q: TransitionMatrix) -> bool:
    """True iff every adjacent pair of the (finite) word is allowed by q."""
    w = as_word(word)
    for s in w:
        if not 0 <= s < q.size:
            raise ValueError(f"symbol {s} out of range [0, {q.size})")
    return all(q.allows(a, b) for a, b in zip(w, w[1:]))


def is_cyclically_admissible(word: Sequence[int] | str, q: TransitionMatrix) -> bool:
    w = as_word(word)
    if not w:
        return False
    return is_admissible(w, q) and q.allows(w[-1], w[0])


def _check_word_budget(n_symbols: int, length: int, budget: int,
                       advice: str = "") -> None:
    """Raise BudgetExceededError, its message ending in ``advice``, when the
    n_symbols^length words of the full shift exceed ``budget``: the one
    budget rule of every enumeration over words of that length."""
    if n_symbols ** max(length, 1) > budget:
        raise BudgetExceededError(
            f"enumerating words of length {length} over {n_symbols} symbols "
            f"exceeds the budget of {budget}{advice}"
        )


def admissible_word_array(q: TransitionMatrix, length: int,
                          budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
    """The (W, length) array of all admissible words of the given length, in
    lexicographic order, grown one column at a time: each word is followed
    by its extensions through q, in symbol order."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    _check_word_budget(q.size, length, budget)
    words = np.arange(q.size)[:, None] if length else np.zeros((1, 0), dtype=np.int64)
    for _ in range(1, length):
        parent, sym = np.nonzero(q.as_array[words[:, -1]])
        words = np.column_stack([words[parent], sym])
    return words


def admissible_words(q: TransitionMatrix, length: int,
                     budget: int = DEFAULT_WORD_BUDGET) -> Iterator[Word]:
    """Yield the rows of :func:`admissible_word_array` as tuples."""
    yield from map(tuple, admissible_word_array(q, length, budget).tolist())


def _cyclic_run(period: Word, start: int, stop: int) -> Word:
    """Entries start..stop-1 of the bi-infinite repetition of `period`
    (entry j is period[j % len(period)]); empty when stop <= start."""
    count = stop - start
    if count <= 0:
        return ()
    n = len(period)
    s = start % n
    return (period * ((s + count - 1) // n + 1))[s:s + count]


@dataclass(frozen=True)
class SymbolicPoint:
    """Eventually periodic bi-infinite admissible sequence.

    Layout index j of the concatenation maps to: ``left_period`` repeating
    for j < 0, ``core[j]`` for 0 <= j < len(core) and ``right_period``
    repeating afterwards.  Coordinate n of the point is layout index
    ``origin_offset + n``.  The dataclass equality is structural; use
    :func:`same_sequence` for equality of the underlying sequences.
    """

    left_period: Word
    core: Word
    right_period: Word
    origin_offset: int = 0

    def __post_init__(self):
        if not self.left_period or not self.right_period:
            raise ValueError("left and right periods must be nonempty")

    def __getitem__(self, n: int) -> int:
        j = self.origin_offset + n
        if j < 0:
            return self.left_period[j % len(self.left_period)]
        if j < len(self.core):
            return self.core[j]
        return self.right_period[(j - len(self.core)) % len(self.right_period)]

    def window(self, lo: int, hi: int) -> Word:
        """Coordinates lo..hi inclusive (empty when hi < lo)."""
        a, b = self.origin_offset + lo, self.origin_offset + hi + 1
        c = len(self.core)
        return (_cyclic_run(self.left_period, a, min(b, 0))
                + self.core[max(a, 0):max(min(b, c), 0)]
                + _cyclic_run(self.right_period, max(a, c) - c, b - c))

    def shifted(self, n: int = 1) -> "SymbolicPoint":
        """Image under the n-th power of the left shift (exact)."""
        return SymbolicPoint(self.left_period, self.core, self.right_period,
                             self.origin_offset + n)

    @property
    def right_tail_start(self) -> int:
        """Least coordinate from which the point is purely right-periodic."""
        return len(self.core) - self.origin_offset

    @property
    def left_tail_end(self) -> int:
        """Greatest coordinate below which the point is purely left-periodic."""
        return -self.origin_offset


def shift(x: SymbolicPoint, n: int = 1) -> SymbolicPoint:
    return x.shifted(n)


def validate_point(x: SymbolicPoint, q: TransitionMatrix) -> None:
    """Check admissibility of the full concatenation, seams and wraps included."""
    lp, core, rp = x.left_period, x.core, x.right_period
    if not is_admissible(lp, q) or not q.allows(lp[-1], lp[0]):
        raise ValueError("left period is not cyclically admissible")
    if not is_admissible(rp, q) or not q.allows(rp[-1], rp[0]):
        raise ValueError("right period is not cyclically admissible")
    if core and not is_admissible(core, q):
        raise ValueError("core word is not admissible")
    first_after_left = core[0] if core else rp[0]
    if not q.allows(lp[-1], first_after_left):
        raise ValueError("seam between left period and core is not admissible")
    if core and not q.allows(core[-1], rp[0]):
        raise ValueError("seam between core and right period is not admissible")


def point(q: TransitionMatrix, left_period, core, right_period,
          origin_offset: int = 0) -> SymbolicPoint:
    """Validated constructor for :class:`SymbolicPoint`, for outside input.

    :func:`close_word`, :func:`splice_past` and :func:`splice_future` check
    only their new word and its seam: their tails are return cycles or
    rotated periods of a valid point, admissible by construction.
    """
    x = SymbolicPoint(as_word(left_period), as_word(core), as_word(right_period),
                      origin_offset)
    validate_point(x, q)
    return x


@dataclass(frozen=True)
class PeriodicPoint:
    """Fixed point of the period-th shift power, given by one cyclic word."""

    cyclic_word: Word

    def __post_init__(self):
        if not self.cyclic_word:
            raise ValueError("cyclic word must be nonempty")

    @property
    def period(self) -> int:
        return len(self.cyclic_word)

    def as_point(self) -> SymbolicPoint:
        w = self.cyclic_word
        return SymbolicPoint(w, (), w, 0)

    def __getitem__(self, n: int) -> int:
        return self.cyclic_word[n % self.period]


def periodic_point(q: TransitionMatrix, word: Sequence[int] | str) -> PeriodicPoint:
    w = as_word(word)
    if not is_cyclically_admissible(w, q):
        raise ValueError(f"word {w} is not cyclically admissible")
    return PeriodicPoint(w)


def fixed_point(q: TransitionMatrix, symbol: int) -> PeriodicPoint:
    return periodic_point(q, (symbol,))


def _comparison_horizon(x: SymbolicPoint, y: SymbolicPoint) -> int:
    """Window radius on which agreement of x and y decides global equality."""
    right = max(x.right_tail_start, y.right_tail_start, 0)
    right += math.lcm(len(x.right_period), len(y.right_period))
    left = max(-x.left_tail_end, -y.left_tail_end, 0)
    left += math.lcm(len(x.left_period), len(y.left_period))
    return max(right, left) + 1


def agreement_radius(x: SymbolicPoint, y: SymbolicPoint) -> int | float:
    """Largest N >= 0 with x_n = y_n for all |n| < N; INFINITE when x equals y.

    Decidable for eventually periodic points: beyond a horizon where both
    tails are aligned-periodic, windowed agreement implies global equality.
    """
    h = _comparison_horizon(x, y)
    xs, ys = x.window(-h, h), y.window(-h, h)
    for n in range(h + 1):
        if xs[h + n] != ys[h + n] or xs[h - n] != ys[h - n]:
            return n
    return INFINITE


def same_sequence(x: SymbolicPoint, y: SymbolicPoint) -> bool:
    """True iff x and y are the same sequence, whatever their layouts."""
    return agreement_radius(x, y) is INFINITE


def same_future(x: SymbolicPoint, y: SymbolicPoint) -> bool:
    """True iff x_n = y_n for all n >= 0 (same local stable set)."""
    horizon = _comparison_horizon(x, y)
    return x.window(0, horizon) == y.window(0, horizon)


def same_past(x: SymbolicPoint, y: SymbolicPoint) -> bool:
    """True iff x_n = y_n for all n <= 0 (same local unstable set)."""
    horizon = _comparison_horizon(x, y)
    return x.window(-horizon, 0) == y.window(-horizon, 0)


def distance(x: SymbolicPoint, y: SymbolicPoint,
             metric: MetricParams = MetricParams()) -> float:
    """exp(-tau * N(x, y)); zero for equal sequences."""
    n = agreement_radius(x, y)
    if n is INFINITE:
        return 0.0
    return math.exp(-metric.tau * n)


def bracket(x: SymbolicPoint, y: SymbolicPoint) -> SymbolicPoint:
    """The point with the past of x (n <= 0) and the future of y (n >= 0).

    Requires x_0 = y_0; the result is automatically admissible because the
    only new adjacency x_{-1} -> y_0 = x_0 already occurs inside x.
    """
    if x[0] != y[0]:
        raise ValueError(
            f"bracket undefined: zero coordinates differ ({x[0]} vs {y[0]})"
        )
    n_left = min(0, x.left_tail_end)
    left = x.window(n_left - len(x.left_period), n_left - 1)
    n_right = max(0, y.right_tail_start)
    right = y.window(n_right, n_right + len(y.right_period) - 1)
    core = x.window(n_left, -1) + y.window(0, n_right - 1)
    return SymbolicPoint(left, core, right, -n_left)


def enumerate_periodic(q: TransitionMatrix, n: int,
                       budget: int = DEFAULT_WORD_BUDGET) -> list[PeriodicPoint]:
    """All cyclically admissible words of length n, i.e. fixed points of the
    n-th shift power.  The count equals trace(Q^n)."""
    if n < 1:
        raise ValueError("period must be >= 1")
    words = admissible_word_array(q, n, budget)
    cyclic = words[q.as_array[words[:, -1], words[:, 0]].astype(bool)]
    return [PeriodicPoint(w) for w in map(tuple, cyclic.tolist())]


def _reach_sets(q: TransitionMatrix, target: int, steps: int) -> list[set[int]]:
    """reach[t] = symbols from which `target` is reachable in exactly t steps."""
    reach = [set() for _ in range(steps + 1)]
    reach[0] = {target}
    for t in range(1, steps + 1):
        reach[t] = {i for i in range(q.size)
                    if any(q.allows(i, j) for j in reach[t - 1])}
    return reach


def connecting_word(q: TransitionMatrix, a: int, b: int, m: int) -> Word:
    """Lexicographically smallest word w of length m with a.w.b admissible.

    Exists for every pair once m is at least the mixing constant of q; for
    smaller m (or non-primitive q) it exists only when Q^{m+1} has a positive
    (a, b) entry, and otherwise raises.
    """
    if m < 0:
        raise ValueError("length must be nonnegative")
    if m == 0:
        if q.allows(a, b):
            return ()
        raise ValueError(
            f"no connecting word of length 0 from {a} to {b}: transition "
            f"forbidden (m may be below the mixing constant)"
        )
    reach = _reach_sets(q, b, m)
    word: list[int] = []
    prev = a
    for t in range(m):
        remaining = m - t  # steps from the chosen symbol to b
        choices = [s for s in range(q.size)
                   if q.allows(prev, s) and s in reach[remaining]]
        if not choices:
            raise ValueError(
                f"no connecting word of length {m} from {a} to {b} "
                f"(m below the mixing constant for this pair)"
            )
        word.append(choices[0])
        prev = choices[0]
    return tuple(word)


def shortest_return_cycle(q: TransitionMatrix, symbol: int) -> Word:
    """Shortest word c with c[0] = symbol and c cyclically admissible."""
    for m in range(0, q.size + 1):
        try:
            w = connecting_word(q, symbol, symbol, m)
        except ValueError:
            continue
        return (symbol,) + w
    raise ValueError(f"no return cycle through symbol {symbol}")


_CORE_NOT_ADMISSIBLE = "core word is not admissible"
_PAST_NOT_ADMISSIBLE = "past word does not connect admissibly into x"
_FUTURE_NOT_ADMISSIBLE = "future word does not connect admissibly out of x"


def _check_rows(q: TransitionMatrix, rows: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless every row of the (count, length)
    array of in-range symbols is an admissible word: the check of
    :func:`close_word`, :func:`splice_past` or :func:`splice_future` for a
    batch, with the seam symbol as the row's last or first column."""
    if not q.as_array[rows[:, :-1], rows[:, 1:]].all():
        raise ValueError(message)


def _check_cores(q: TransitionMatrix, cores: np.ndarray) -> None:
    """:func:`close_word`'s check over a (count, length) array of cores."""
    _check_rows(q, cores, _CORE_NOT_ADMISSIBLE)


def _check_pasts(q: TransitionMatrix, pasts: np.ndarray, x0: np.ndarray) -> None:
    """:func:`splice_past`'s check over a (count, length) array of pasts,
    row i spliced onto a point with zero coordinate x0[i]."""
    _check_rows(q, np.column_stack([pasts, x0]), _PAST_NOT_ADMISSIBLE)


def _check_futures(q: TransitionMatrix, x0: np.ndarray, futures: np.ndarray) -> None:
    """:func:`splice_future`'s check over a (count, length) array of futures,
    row i spliced onto a point with zero coordinate x0[i]."""
    _check_rows(q, np.column_stack([x0, futures]), _FUTURE_NOT_ADMISSIBLE)


def _closed(q: TransitionMatrix, w: Word, origin_offset: int) -> SymbolicPoint:
    """:func:`close_word` without its check."""
    return SymbolicPoint(q.return_tails[w[0]][0], w, q.return_tails[w[-1]][1],
                         origin_offset)


def _spliced_past(q: TransitionMatrix, x: SymbolicPoint, w: Word) -> SymbolicPoint:
    """:func:`splice_past` without its check."""
    t = max(0, x.right_tail_start)
    future = x.window(0, t - 1)
    right = x.window(t, t + len(x.right_period) - 1)
    return SymbolicPoint(q.return_tails[w[0]][0], w + future, right, len(w))


def _spliced_future(q: TransitionMatrix, x: SymbolicPoint, w: Word) -> SymbolicPoint:
    """:func:`splice_future` without its check."""
    t = max(0, -x.left_tail_end)
    past = x.window(-t, 0)
    left = x.window(-t - len(x.left_period), -t - 1)
    return SymbolicPoint(left, past + w, q.return_tails[w[-1]][1], t)


def close_word(q: TransitionMatrix, core: Sequence[int] | str,
               origin_offset: int = 0) -> SymbolicPoint:
    """Close a finite admissible word into an eventually periodic point.

    The word occupies layout indices [0, len(core)); the tails are
    ``q.return_tails`` of its end symbols.
    """
    w = as_word(core)
    if not w:
        raise ValueError("cannot close an empty word")
    if not is_admissible(w, q):
        raise ValueError(_CORE_NOT_ADMISSIBLE)
    return _closed(q, w, origin_offset)


def splice_past(q: TransitionMatrix, x: SymbolicPoint,
                past: Sequence[int] | str) -> SymbolicPoint:
    """Point sharing every coordinate n >= 0 with x, with the given word at
    coordinates -len(past)..-1 and a periodic closure further left."""
    w = as_word(past)
    if not w:
        raise ValueError("past word must be nonempty")
    if not is_admissible(w, q) or not q.allows(w[-1], x[0]):
        raise ValueError(_PAST_NOT_ADMISSIBLE)
    return _spliced_past(q, x, w)


def splice_future(q: TransitionMatrix, x: SymbolicPoint,
                  future: Sequence[int] | str) -> SymbolicPoint:
    """Point sharing every coordinate n <= 0 with x, with the given word at
    coordinates 1..len(future) and a periodic closure further right."""
    w = as_word(future)
    if not w:
        raise ValueError("future word must be nonempty")
    if not is_admissible(w, q) or not q.allows(x[0], w[0]):
        raise ValueError(_FUTURE_NOT_ADMISSIBLE)
    return _spliced_future(q, x, w)
