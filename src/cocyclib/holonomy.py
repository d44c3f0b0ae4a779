"""Stable and unstable holonomies, exact for locally constant cocycles.

For a window-k generator the defining limit lim (A^n(z))^{-1} A^n(y)
stabilizes exactly at n = k because all factors beyond step k coincide
along a common local stable set; every holonomy here is that finite
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import LocallyConstantCocycle, iterate, iterate_many
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


def holonomy_stack(a: LocallyConstantCocycle, kind: str, frm: np.ndarray,
                   to: np.ndarray) -> np.ndarray:
    """The (W, d, d) stack of holonomies of ``a`` from each row of ``frm`` to
    the same row of ``to``, two (W, 2r + 1) arrays of window words over
    coordinates -r..r, with r >= 2k: solve(A^k(to), A^k(from)) on a
    ``"stable"`` leg and solve(A^{-k}(to), A^{-k}(from)) on an ``"unstable"``
    one.  Each entry equals the :func:`stable_holonomy` or
    :func:`unstable_holonomy` matrix bit for bit.  The caller guarantees that
    each pair lies on a common local stable or unstable set; it is not
    checked here."""
    n = a.window_radius if kind == "stable" else -a.window_radius
    return np.linalg.solve(iterate_many(a, to, n), iterate_many(a, frm, n))


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
