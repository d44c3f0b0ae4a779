"""Reconstruction of transfer functions between cohomologous cocycles.

The conjugacy convention throughout is A(x) = C(shift x) B(x) C(x)^{-1}.
Values of C are propagated from per-symbol basepoint seeds by two-leg
holonomy transport: a value moves along a leg as C -> H^A C (H^B)^{-1}.
Each stage is locally constant, so the transport is done in one way only:
tabulated over all window words at once (``_Transport`` and the
evaluators' ``tabulate``).  The peel keeps a table of every stage for each
transport order, us and su, and composes each order's stage tables into
one table of the transfer map; a stage value at a single point is the
one-window table build at that point.
For block upper-triangular pairs the superdiagonal peel recovers C block by
block: orthogonal diagonal blocks first, then one upper-diagonal offset at
a time through 2x2-block subsystems, conjugating off each recovered layer.

Corner recovery transports the embedded unipotent [[Id, C_ij], [0, Id]] by
the full 2x2-subsystem holonomies.  Their diagonal parts are exactly the
diagonal-block holonomies H^1, H^2, so this specializes to the plain
C -> H^1 C (H^2)^{-1} rule whenever the subsystem holonomy corners of the
two cocycles agree (window-0 data); in general the corner correction term
is required for the recovered evaluator to conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cocycle import (
    LocallyConstantCocycle,
    _check_seeds,
    coboundary_conjugate,
    evaluate,
)
from .holonomy import _distinct_holonomies
from .sft import (
    MetricParams,
    SymbolicPoint,
    TransitionMatrix,
    admissible_word_array,
    as_word,
    distance,
    periodic_point,
    shortest_return_cycle,
)
from .zimmer import ZimmerDescriptor, membership_residuals

HOLDER_SENTINEL = math.inf

MATERIALIZE_BUDGET = 600_000


class StageError(RuntimeError):
    """A peeling stage left a residual above tolerance."""

    def __init__(self, stage: str, residual: float, tol: float):
        super().__init__(
            f"peel stage {stage!r} residual {residual:.3e} exceeds {tol:.3e}"
        )
        self.stage = stage
        self.residual = residual
        self.tol = tol


def default_basepoints(q: TransitionMatrix) -> tuple[SymbolicPoint, ...]:
    """One periodic basepoint per symbol i, lying in the cylinder [0; i]."""
    return tuple(periodic_point(q, shortest_return_cycle(q, i)).as_point()
                 for i in range(q.size))


class _Transport:
    """Two-leg transport from the basepoints to a (W, 2r + 1) array of
    window words over coordinates -r..r, shared by every evaluator of a
    stage.  The leg ends are symbol arrays over the same coordinates: the
    basepoint of each word's symbol, the bracket point (for "us" the word's
    past with the basepoint's future, for "su" the reverse) and the word,
    so each leg lies on a common local stable or unstable set by
    construction.
    """

    def __init__(self, basepoints: Sequence[SymbolicPoint], words: np.ndarray,
                 order: str = "us"):
        r = words.shape[1] // 2
        self.symbols = words[:, r]
        base = np.array([w.window(-r, r) for w in basepoints])[self.symbols]
        if order == "us":
            past, future, kinds = words, base, ("stable", "unstable")
        elif order == "su":
            past, future, kinds = base, words, ("unstable", "stable")
        else:
            raise ValueError(f"unknown transport order {order!r}")
        mid = np.hstack([past[:, :r + 1], future[:, r + 1:]])
        # (kind, from, to)
        self.legs = ((kinds[0], base, mid), (kinds[1], mid, words))

    @classmethod
    def at(cls, transports: Sequence["TransferEvaluator"], x: SymbolicPoint,
           order: str) -> "_Transport":
        """The transport to x alone, over its window at the stage radius
        2 max(k_a, k_b) of the evaluators ``transports``."""
        r = 2 * max(max(t.cocycle_a.window_radius, t.cocycle_b.window_radius)
                    for t in transports)
        return cls(transports[0].basepoints, np.array([x.window(-r, r)]), order)


@dataclass(frozen=True, eq=False)
class TransferEvaluator:
    """Transfer values propagated from basepoint seeds by holonomy transport."""

    cocycle_a: LocallyConstantCocycle
    cocycle_b: LocallyConstantCocycle
    basepoints: tuple[SymbolicPoint, ...]
    base_values: tuple[np.ndarray, ...]

    def __post_init__(self):
        q = self.cocycle_a.q
        if len(self.basepoints) != q.size:
            raise ValueError("need one basepoint per symbol")
        for i, w in enumerate(self.basepoints):
            if w[0] != i:
                raise ValueError(f"basepoint {i} does not lie in the cylinder [0; {i}]")
        _check_seeds(self.base_values, q.size, self.cocycle_a.dimension)

    def evaluate(self, x: SymbolicPoint, order: str = "us") -> np.ndarray:
        """Two-leg transport of the seed at the basepoint sharing x_0: order
        "us" runs a stable leg to the point with x's past and the
        basepoint's future, then an unstable leg on to x; order "su" runs
        the legs through the other bracket point."""
        return self.tabulate(_Transport.at((self,), x, order))[0]

    def tabulate(self, paths: _Transport) -> np.ndarray:
        """The transported seeds at every window of ``paths``, as one stack.
        Each distinct B-holonomy of a leg is inverted once."""
        value = np.array(self.base_values, dtype=float)[paths.symbols]
        for leg in paths.legs:
            h_a, at_a = _distinct_holonomies(self.cocycle_a, *leg)
            h_b, at_b = _distinct_holonomies(self.cocycle_b, *leg)
            value = (h_a[at_a] @ value) @ np.linalg.inv(h_b)[at_b]
        return value


# ---------------------------------------------------------------------------
# block extraction helpers


def block_cocycle(a: LocallyConstantCocycle, desc: ZimmerDescriptor,
                  i: int) -> LocallyConstantCocycle:
    """Generator of the i-th diagonal block (valid for block-triangular tables)."""
    return LocallyConstantCocycle(a.q, a.window_radius, desc.block_dims[i], a.words,
                                  desc.block(a.stack, i, i))


def subsystem_cocycle(a: LocallyConstantCocycle, desc: ZimmerDescriptor,
                      i: int, j: int) -> LocallyConstantCocycle:
    """2x2-block corner subsystem [[M_ii, M_ij], [0, M_jj]]; again a cocycle."""
    di, d = desc.block_dims[i], desc.block_dims[i] + desc.block_dims[j]
    out = np.zeros((len(a.words), d, d))
    out[:, :di, :di] = desc.block(a.stack, i, i)
    out[:, :di, di:] = desc.block(a.stack, i, j)
    out[:, di:, di:] = desc.block(a.stack, j, j)
    return LocallyConstantCocycle(a.q, a.window_radius, d, a.words, out)


def embed_corner(corner: np.ndarray, di: int, dj: int) -> np.ndarray:
    out = np.eye(di + dj)
    out[:di, di:] = corner
    return out


def _check_membership(a: LocallyConstantCocycle, b: LocallyConstantCocycle,
                      desc: ZimmerDescriptor, tol: float) -> None:
    """Raise for the first cocycle, and in it the first window in window
    order, whose value fails :func:`~cocyclib.zimmer.membership`."""
    for cocycle, name in ((a, "first"), (b, "second")):
        diag, lower = membership_residuals(cocycle.stack, desc)
        failed = np.flatnonzero(~((lower <= tol) & (diag <= tol).all(axis=1)))
        if failed.size:
            w = as_word(cocycle.words[failed[0]])
            raise ValueError(f"{name} cocycle fails membership at window {w}")


def _refinement(q: TransitionMatrix,
                tables: Sequence[LocallyConstantCocycle]) -> np.ndarray:
    """The admissible window words at the largest radius of ``tables`` (0
    for none), a common refinement of them all."""
    return admissible_word_array(q, 2 * max([0] + [t.window_radius for t in tables]) + 1)


def _block_difference(a: LocallyConstantCocycle, b: LocallyConstantCocycle,
                      desc: ZimmerDescriptor,
                      blocks: Sequence[tuple[int, int]]) -> float:
    """Max norm difference of the chosen blocks over a common refinement."""
    words = _refinement(a.q, (a, b))
    va, vb = a.stack_at(words), b.stack_at(words)
    return max([0.0] + [float(np.max(np.abs(desc.block(va, i, j) - desc.block(vb, i, j))))
                        for i, j in blocks])


def materialize(q: TransitionMatrix,
                func: Callable[[np.ndarray], np.ndarray],
                radius: int, dimension: int,
                budget: int = MATERIALIZE_BUDGET,
                words: np.ndarray | None = None) -> LocallyConstantCocycle:
    """Tabulate a locally constant function over admissible windows.

    ``func`` takes the (windows, 2 radius + 1) array of all window words,
    in lexicographic order, and returns their values as one
    (windows, dimension, dimension) stack.  A caller that already holds
    that array passes it as ``words``; otherwise the enumeration raises
    BudgetExceededError above ``budget`` words.
    """
    if words is None:
        words = admissible_word_array(q, 2 * radius + 1, budget)
    return LocallyConstantCocycle(q, radius, dimension, words, func(words))


def minimize_table(a: LocallyConstantCocycle, tol: float = 1e-13) -> LocallyConstantCocycle:
    """Shrink the window radius while all refinements of a subword agree.
    Each subword keeps the value of its first refinement in window order."""
    current = a
    while current.window_radius > 0:
        sub = current.words[:, 1:-1]
        codes = np.ravel_multi_index(tuple(sub.T), (a.q.size,) * sub.shape[1])
        _, first, group = np.unique(codes, return_index=True, return_inverse=True)
        kept = current.stack[first]
        if np.any(np.max(np.abs(kept[group.ravel()] - current.stack), axis=(1, 2)) > tol):
            return current
        current = LocallyConstantCocycle(current.q, current.window_radius - 1,
                                         current.dimension, sub[first], kept)
    return current


def _is_identity_table(a: LocallyConstantCocycle, tol: float = 1e-12) -> bool:
    return bool(np.all(np.abs(a.stack - np.eye(a.dimension)) <= tol))


def _compose(q: TransitionMatrix, dimension: int,
             tables: Sequence[LocallyConstantCocycle]) -> LocallyConstantCocycle:
    """The table of x -> tables[-1](x) ... tables[0](x) on their common
    refinement, the identity at radius 0 for no table.  Each entry starts
    from the identity and left-multiplies the tables' values in order, so
    it equals that product formed at a point bit for bit."""
    words = _refinement(q, tables)
    out = np.tile(np.eye(dimension), (len(words), 1, 1))
    for table in tables:
        out = table.stack_at(words) @ out
    return LocallyConstantCocycle(q, words.shape[1] // 2, dimension, words, out)


# ---------------------------------------------------------------------------
# corner and diagonal stage evaluators


@dataclass(frozen=True, eq=False)
class CornerEvaluator:
    """Upper-corner recovery over a 2x2-block subsystem."""

    subsystem: TransferEvaluator
    d_top: int
    d_bottom: int
    diag_tol: float = 1e-8

    def evaluate(self, x: SymbolicPoint, order: str = "us") -> np.ndarray:
        corner, residual = self._split(self.subsystem.evaluate(x, order=order))
        if residual > self.diag_tol:
            raise StageError("corner-transport-diagonal", float(residual), self.diag_tol)
        return corner

    def _split(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Corner block of subsystem values (d, d) or (W, d, d), and how far
        each value's diagonal blocks are from the identity and its lower
        block from zero."""
        di = self.d_top
        residual = np.maximum.reduce([
            np.max(np.abs(m[..., :di, :di] - np.eye(di)), axis=(-2, -1)),
            np.max(np.abs(m[..., di:, di:] - np.eye(self.d_bottom)), axis=(-2, -1)),
            np.max(np.abs(m[..., di:, :di]), axis=(-2, -1)),
        ])
        return m[..., :di, di:], residual


def _check_corners(checks: Sequence[tuple[np.ndarray, float]]) -> None:
    """Raise for the first window, and at it the first corner, whose
    diagonal residual exceeds its tolerance; ``checks`` holds one (residual
    per window, tolerance) pair per corner."""
    failed = np.flatnonzero(np.column_stack([res > tol for res, tol in checks]))
    if failed.size:
        window, corner = divmod(int(failed[0]), len(checks))
        residual, tol = checks[corner]
        raise StageError("corner-transport-diagonal", float(residual[window]), tol)


@dataclass(frozen=True, eq=False)
class _DiagonalStage:
    descriptor: ZimmerDescriptor
    evaluators: tuple[TransferEvaluator, ...]

    def evaluate(self, x: SymbolicPoint, order: str = "us") -> np.ndarray:
        return self.tabulate(_Transport.at(self.evaluators, x, order))[0]

    def tabulate(self, paths: _Transport) -> np.ndarray:
        """The block-diagonal stage value at every window of ``paths``, as
        one stack."""
        d = self.descriptor.dim
        o = self.descriptor.offsets()
        out = np.zeros((len(paths.symbols), d, d))
        for t, ev in enumerate(self.evaluators):
            out[:, o[t]:o[t + 1], o[t]:o[t + 1]] = ev.tabulate(paths)
        return out


@dataclass(frozen=True, eq=False)
class _OffsetStage:
    descriptor: ZimmerDescriptor
    offset: int
    corners: tuple[tuple[int, CornerEvaluator], ...]

    def evaluate(self, x: SymbolicPoint, order: str = "us") -> np.ndarray:
        subsystems = [ev.subsystem for _, ev in self.corners]
        return self.tabulate(_Transport.at(subsystems, x, order))[0]

    def tabulate(self, paths: _Transport) -> np.ndarray:
        """The unipotent stage value at every window of ``paths``, as one
        stack; the corner checks run window by window, in window order."""
        d = self.descriptor.dim
        o = self.descriptor.offsets()
        out = np.tile(np.eye(d), (len(paths.symbols), 1, 1))
        checks = []
        for i, ev in self.corners:
            j = i + self.offset
            corner, residual = ev._split(ev.subsystem.tabulate(paths))
            checks.append((residual, ev.diag_tol))
            out[:, o[i]:o[i + 1], o[j]:o[j + 1]] = corner
        _check_corners(checks)
        return out


@dataclass(eq=False)
class PeeledEvaluator:
    """Composed transfer evaluator produced by the superdiagonal peel.

    Stages apply in construction order: the value at x is the left-ordered
    product stage_R(x) ... stage_0(x) of the kept stages' tables,
    ``stage_tables`` (minimized) for us transport and ``su_tables`` (at the
    stage radius) for su transport.  ``composed`` holds that product as one
    table per order, keyed "us" and "su", at the largest radius of its
    stages and not minimized, so a read is one read-only table entry.
    """

    cocycle_a: LocallyConstantCocycle
    cocycle_b: LocallyConstantCocycle
    descriptor: ZimmerDescriptor
    basepoints: tuple[SymbolicPoint, ...]
    stages: list = field(default_factory=list)
    stage_tables: list = field(default_factory=list)
    su_tables: list = field(default_factory=list)
    stage_names: list = field(default_factory=list)
    stage_residuals: list = field(default_factory=list)
    final_residual: float = 0.0
    composed: dict[str, LocallyConstantCocycle] = field(default_factory=dict)

    def evaluate(self, x: SymbolicPoint, order: str = "us") -> np.ndarray:
        if order not in ("us", "su"):
            raise ValueError(f"unknown transport order {order!r}")
        return evaluate(self.composed[order], x)

    def to_jsonable(self) -> dict:
        tables = [{"stage": name, **table.table_jsonable()}
                  for name, table in zip(self.stage_names, self.stage_tables)]
        return {
            "rule": "superdiagonal-peel",
            "basepoints": [list(w.window(-4, 4)) for w in self.basepoints],
            "stage_tables": tables,
            "stage_residuals": list(self.stage_residuals),
            "final_residual": self.final_residual,
        }


def superdiagonal_peel(a: LocallyConstantCocycle, b: LocallyConstantCocycle,
                       desc: ZimmerDescriptor,
                       base_values: Sequence[np.ndarray],
                       tol: float = 1e-8,
                       membership_tol: float = 1e-8) -> PeeledEvaluator:
    """Recover C with A(x) = C(shift x) B(x) C(x)^{-1} one block layer at a
    time.

    Pipeline: (i) recover the orthogonal diagonal blocks by holonomy
    propagation from the basepoint seeds, (ii) conjugate the block-diagonal
    part off B, (iii) for each offset r recover the (i, i+r) corners through
    2x2-block subsystems, assemble the unipotent layer, conjugate it off and
    repeat.  Every stage checks that the entries of B now agree with A up to
    the current offset; a failed check aborts with a stage-tagged error.
    """
    if desc.exponent != 0.0:
        raise ValueError("descriptor exponent must be 0 (normalize first)")
    base_values = _check_seeds(base_values, a.q.size, a.dimension)
    _check_membership(a, b, desc, membership_tol)

    basepoints = default_basepoints(a.q)
    result = PeeledEvaluator(a, b, desc, basepoints)
    acc = [np.eye(desc.dim) for _ in range(a.q.size)]
    b_current = b
    cond_scale = 1.0

    def remaining_seed(symbol: int) -> np.ndarray:
        return base_values[symbol] @ np.linalg.inv(acc[symbol])

    def install_stage(stage, name: str, check_blocks) -> None:
        nonlocal b_current, cond_scale
        radius = 2 * max(a.window_radius, b_current.window_radius)

        def tabulated(order: str, words: np.ndarray | None = None) -> LocallyConstantCocycle:
            return materialize(
                a.q, lambda w: stage.tabulate(_Transport(basepoints, w, order)),
                radius, desc.dim, words=words)

        full = tabulated("us")
        table = minimize_table(full)
        kept = not _is_identity_table(table)
        if kept:
            result.stages.append(stage)
            result.stage_tables.append(table)
            result.stage_names.append(name)
            b_current = minimize_table(coboundary_conjugate(b_current, table))
            # the largest condition number of the table's values
            sv = np.linalg.svd(table.stack, compute_uv=False)
            with np.errstate(divide="ignore"):
                cond_scale *= float(np.max(sv[:, 0] / sv[:, -1]))
            at_base = full.stack_at(np.array([w.window(-radius, radius) for w in basepoints]))
            acc[:] = [m @ n for m, n in zip(at_base, acc)]
        residual = _block_difference(a, b_current, desc, check_blocks)
        stage_tol = tol * cond_scale
        if residual > stage_tol:
            raise StageError(name, residual, stage_tol)
        result.stage_residuals.append(residual)
        if kept:
            # After the block check, whose failure is reported before the
            # su corner checks.  Not minimized: minimize_table keeps the
            # first refinement of each group, which equals the others only
            # to its tolerance, and su values are the transport bit for bit.
            result.su_tables.append(tabulated("su", full.words))

    # (i) + (ii): orthogonal diagonal blocks.
    diag_evs = []
    for t in range(desc.num_blocks):
        a_t = block_cocycle(a, desc, t)
        b_t = block_cocycle(b_current, desc, t)
        seeds = tuple(desc.block(remaining_seed(s), t, t)
                      for s in range(a.q.size))
        diag_evs.append(TransferEvaluator(a_t, b_t, basepoints, seeds))
    install_stage(_DiagonalStage(desc, tuple(diag_evs)), "diagonal",
                  [(t, t) for t in range(desc.num_blocks)])

    # (iii): superdiagonal offsets.
    checked = [(t, t) for t in range(desc.num_blocks)]
    for r in range(1, desc.num_blocks):
        corners = []
        for i in range(desc.num_blocks - r):
            j = i + r
            asub = subsystem_cocycle(a, desc, i, j)
            bsub = subsystem_cocycle(b_current, desc, i, j)
            di, dj = desc.block_dims[i], desc.block_dims[j]
            seeds = tuple(embed_corner(desc.block(remaining_seed(s), i, j), di, dj)
                          for s in range(a.q.size))
            sub = TransferEvaluator(asub, bsub, basepoints, seeds)
            corners.append((i, CornerEvaluator(sub, di, dj, diag_tol=tol * cond_scale)))
        checked = checked + [(i, i + r) for i in range(desc.num_blocks - r)]
        install_stage(_OffsetStage(desc, r, tuple(corners)), f"offset-{r}", checked)

    result.final_residual = _block_difference(
        a, b_current, desc,
        [(i, j) for i in range(desc.num_blocks)
         for j in range(i, desc.num_blocks)])
    result.composed = {"us": _compose(a.q, desc.dim, result.stage_tables),
                       "su": _compose(a.q, desc.dim, result.su_tables)}
    return result


# ---------------------------------------------------------------------------
# verification and regression


@dataclass(frozen=True)
class ConjugacyReport:
    max_residual: float
    holder_alpha: float
    holder_constant: float
    n_samples: int
    tol: float
    passed: bool
    convention: str = "A(x) = C(shift x) B(x) C(x)^{-1}"

    def to_jsonable(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "holder_alpha": None if math.isinf(self.holder_alpha) else self.holder_alpha,
            "holder_alpha_locally_constant": math.isinf(self.holder_alpha),
            "holder_constant": self.holder_constant,
            "n_samples": self.n_samples,
            "tol": self.tol,
            "passed": self.passed,
            "convention": self.convention,
        }


def conjugacy_residual(a: LocallyConstantCocycle, b: LocallyConstantCocycle,
                       evaluator, x: SymbolicPoint, order: str = "us") -> float:
    c_here = evaluator.evaluate(x, order)
    c_next = evaluator.evaluate(x.shifted(1), order)
    lhs = evaluate(a, x)
    rhs = c_next @ evaluate(b, x) @ np.linalg.inv(c_here)
    return float(np.max(np.abs(lhs - rhs)))


def _table_gap(a: LocallyConstantCocycle, b: LocallyConstantCocycle) -> float:
    """Largest entrywise |A(x) - B(x)| over all admissible windows of a
    common refinement."""
    words = _refinement(a.q, (a, b))
    return float(np.max(np.abs(a.stack_at(words) - b.stack_at(words))))


def exact_conjugacy_residual(a: LocallyConstantCocycle, b: LocallyConstantCocycle,
                             c: LocallyConstantCocycle) -> float:
    """:func:`conjugacy_residual` of a table C at every admissible window:
    the largest |A(x) - C(shift x) B(x) C(x)^{-1}|, with the right side
    formed by :func:`~cocyclib.cocycle.coboundary_conjugate` in the same
    product order, so it bounds every sampled residual of C."""
    return _table_gap(a, coboundary_conjugate(b, c))


def exact_path_gap(evaluator: PeeledEvaluator) -> float:
    """Path independence at every window: the largest |C_us(x) - C_su(x)|
    between the evaluator's two composed tables."""
    return _table_gap(evaluator.composed["us"], evaluator.composed["su"])


def verify_conjugacy(a: LocallyConstantCocycle, b: LocallyConstantCocycle,
                     evaluator, samples: Sequence[SymbolicPoint],
                     tol: float = 1e-8,
                     metric: MetricParams = MetricParams()) -> ConjugacyReport:
    """Max residual of the conjugacy equation over the samples, plus a
    regularity regression of the evaluator over consecutive sample pairs."""
    if not samples:
        raise ValueError("samples must be nonempty")
    worst = max(conjugacy_residual(a, b, evaluator, x) for x in samples)
    pairs = list(zip(samples, samples[1:]))
    alpha, constant = holder_estimate(evaluator, pairs, metric=metric) \
        if pairs else (HOLDER_SENTINEL, 0.0)
    return ConjugacyReport(worst, alpha, constant, len(samples), tol,
                           worst <= tol)


def holder_estimate(evaluator, pairs: Sequence[tuple[SymbolicPoint, SymbolicPoint]],
                    metric: MetricParams = MetricParams(),
                    cutoff: float | None = None) -> tuple[float, float]:
    """Least-squares slope/constant of log ||C(x) - C(y)|| against
    log distance, over pairs closer than the cutoff.

    Returns (inf, 0.0) when every close pair has identical values (the
    evaluator is locally constant at the sampled scales).
    """
    if cutoff is None:
        cutoff = math.exp(-metric.tau) * (1 + 1e-12)
    logs_d = []
    logs_v = []
    for x, y in pairs:
        d = distance(x, y, metric)
        if d == 0.0 or d > cutoff:
            continue
        gap = float(np.max(np.abs(evaluator.evaluate(x) - evaluator.evaluate(y))))
        if gap <= 1e-15:
            continue
        logs_d.append(math.log(d))
        logs_v.append(math.log(gap))
    if not logs_d:
        return HOLDER_SENTINEL, 0.0
    if len(set(logs_d)) == 1:
        return HOLDER_SENTINEL, 0.0
    slope, intercept = np.polyfit(np.array(logs_d), np.array(logs_v), 1)
    return float(slope), float(math.exp(intercept))
