"""Stable and unstable holonomies, exact for locally constant cocycles.

For a window-k generator the defining limit lim (A^n(z))^{-1} A^n(y)
stabilizes exactly at n = k because all factors beyond step k coincide
along a common local stable set; every holonomy here is that finite
product.  Over many leg ends a holonomy is computed once per distinct
set of factor rows that it reads and gathered to the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import LocallyConstantCocycle, _finite, _fold, _orbit_rows, iterate
from .sft import SymbolicPoint, bracket, same_future, same_past


@dataclass(frozen=True, eq=False)
class HolonomyMap:
    """Invertible fiber transport tagged with its endpoints and kind."""

    from_point: SymbolicPoint
    to_point: SymbolicPoint
    kind: str  # stable | unstable | composed-su | composed-us
    matrix: np.ndarray
    stabilization_step: int


def stable_holonomy(a: LocallyConstantCocycle, y: SymbolicPoint,
                    z: SymbolicPoint) -> HolonomyMap:
    """Transport from the fiber of y to the fiber of z on a common local
    stable set: the exact value (A^k(z))^{-1} A^k(y)."""
    if not same_future(y, z):
        raise ValueError("points do not lie on a common local stable set")
    k = a.window_radius
    matrix = np.linalg.solve(iterate(a, z, k), iterate(a, y, k))
    return HolonomyMap(y, z, "stable", matrix, k)


def unstable_holonomy(a: LocallyConstantCocycle, y: SymbolicPoint,
                      z: SymbolicPoint) -> HolonomyMap:
    """Mirror of the stable transport along backward iterates; exact value
    (A^{-k}(z))^{-1} A^{-k}(y) for points on a common local unstable set."""
    if not same_past(y, z):
        raise ValueError("points do not lie on a common local unstable set")
    k = a.window_radius
    matrix = np.linalg.solve(iterate(a, z, -k), iterate(a, y, -k))
    return HolonomyMap(y, z, "unstable", matrix, k)


def _row_codes(rows: np.ndarray, base: int) -> np.ndarray:
    """One int64 code per row of ``rows``, whose entries lie in 0..base-1,
    equal exactly for equal rows.  The code is read in base ``base``; before
    it could pass 2**62 the codes so far are renumbered 0, 1, ... by value,
    so no row width overflows."""
    code = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every code so far is below it
    for column in rows.T:
        if bound > 2 ** 62 // base:
            _, code = np.unique(code, return_inverse=True)
            code, bound = code.ravel(), len(rows)
        code = code * base + column
        bound *= base
    return code


def _distinct_holonomies(a: LocallyConstantCocycle, kind: str, frm: np.ndarray,
                         to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`holonomy_stack` as a (D, d, d) stack of its distinct entries
    and the (W,) index of each row's entry in it, ``stack[index]``.  A
    holonomy reads only the factor rows of A^{+-k} on its two ends, so the
    rows of ``frm`` and ``to`` with the same factor rows share one solve."""
    n = a.window_radius if kind == "stable" else -a.window_radius
    rows = np.hstack([_orbit_rows(a, to, n), _orbit_rows(a, frm, n)])
    _, first, index = np.unique(_row_codes(rows, len(a.words)),
                                return_index=True, return_inverse=True)
    mats, keys = a.stack if n >= 0 else a.inverse, rows[first]
    with np.errstate(over="ignore", invalid="ignore"):
        to_n, frm_n = (_finite(_fold(mats, end), n)
                       for end in (keys[:, :abs(n)], keys[:, abs(n):]))
    return np.linalg.solve(to_n, frm_n), index.ravel()


def holonomy_stack(a: LocallyConstantCocycle, kind: str, frm: np.ndarray,
                   to: np.ndarray) -> np.ndarray:
    """The (W, d, d) stack of holonomies of ``a`` from each row of ``frm`` to
    the same row of ``to``, two (W, 2r + 1) arrays of window words over
    coordinates -r..r, with r >= 2k: solve(A^k(to), A^k(from)) on a
    ``"stable"`` leg and solve(A^{-k}(to), A^{-k}(from)) on an ``"unstable"``
    one.  Each entry equals the :func:`stable_holonomy` or
    :func:`unstable_holonomy` matrix bit for bit; each distinct one is
    solved once.  The caller guarantees that each pair lies on a common
    local stable or unstable set; it is not checked here."""
    stack, index = _distinct_holonomies(a, kind, frm, to)
    return stack[index]


def composed_holonomy(a: LocallyConstantCocycle, x: SymbolicPoint,
                      y: SymbolicPoint, order: str = "us") -> HolonomyMap:
    """Transport from x to y through the bracket point.

    order "us": stable leg x -> [y, x] followed by unstable leg [y, x] -> y
    (the composition H^u H^s).  order "su": unstable leg x -> [x, y]
    followed by stable leg [x, y] -> y.  Requires x_0 = y_0.
    """
    if order == "us":
        mid = bracket(y, x)  # past of y, future of x
        first = stable_holonomy(a, x, mid)
        second = unstable_holonomy(a, mid, y)
        kind = "composed-us"
    elif order == "su":
        mid = bracket(x, y)  # past of x, future of y
        first = unstable_holonomy(a, x, mid)
        second = stable_holonomy(a, mid, y)
        kind = "composed-su"
    else:
        raise ValueError(f"unknown composition order {order!r}")
    matrix = second.matrix @ first.matrix
    step = max(first.stabilization_step, second.stabilization_step)
    return HolonomyMap(x, y, kind, matrix, step)
