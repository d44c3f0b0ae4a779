"""Shadowing periodic points that alternate long blocks near two given
orbits, and the angle/projection experiments along them.

The shadow point spends coordinates [-bm, bm] on the first orbit,
[(b+1)m, (b+c+1)m] on the second, and is closed periodically with two
connector words; the realized period is (2b+c+2)m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cocycle import LocallyConstantCocycle, iterate
from .linalg import (
    ConeParams,
    Flag,
    Subspace,
    angle_decay_rate,
    calibrate_cone_constant,
    eigensplit,
    oblique_projection,
    principal_angle,
    largest_principal_angle,
)
from .regularity import BlockParams, block_membership_periodic
from .sft import (
    MetricParams,
    PeriodicPoint,
    SymbolicPoint,
    TransitionMatrix,
    Word,
    connecting_word,
    distance,
    is_cyclically_admissible,
)


@dataclass(frozen=True)
class ShadowSpec:
    """Data of one shadow construction.

    m must be a common multiple of both periods and at least the mixing
    constant; each connector has length m, fills the m - 1 free slots of its
    gap, and its last symbol pins the first symbol of the following block.
    """

    q: TransitionMatrix
    x: PeriodicPoint
    y: PeriodicPoint
    m: int
    b: int = 2
    c: int = 2
    alpha: float = 0.1
    connectors: tuple[Word, Word] | None = None

    def __post_init__(self):
        if self.m < 1 or self.b < 1 or self.c < 1:
            raise ValueError("m, b, c must be positive")
        if self.m % self.x.period or self.m % self.y.period:
            raise ValueError("m must be a multiple of both periods")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.connectors is None:
            object.__setattr__(self, "connectors", default_connectors(
                self.q, self.x, self.y, self.m))
        c1, c2 = self.connectors
        if len(c1) != self.m or len(c2) != self.m:
            raise ValueError("connectors must have length m")
        if c1[-1] != self.y[0] or c2[-1] != self.x[0]:
            raise ValueError(
                "inadmissible connectors: last symbols must pin the next block"
            )

    @property
    def period(self) -> int:
        return (2 * self.b + self.c + 2) * self.m


def default_connectors(q: TransitionMatrix, x: PeriodicPoint, y: PeriodicPoint,
                       m: int) -> tuple[Word, Word]:
    """Lexicographically smallest admissible connectors for the two gaps."""
    c1 = connecting_word(q, x[0], y[0], m - 1) + (y[0],)
    c2 = connecting_word(q, y[0], x[0], m - 1) + (x[0],)
    return c1, c2


def build_shadow(spec: ShadowSpec) -> PeriodicPoint:
    """Lay out the cyclic word of the shadow point per the index formula.

    Coordinates j: x-block for -bm <= j <= bm, first connector strictly
    between bm and (b+1)m, y-block for (b+1)m <= j <= (b+c+1)m, second
    connector strictly between (b+c+1)m and (b+c+2)m, then periodic.
    """
    b, c, m = spec.b, spec.c, spec.m
    length = spec.period
    word = [-1] * length
    conn1, conn2 = spec.connectors

    def assign(j: int, value: int) -> None:
        i = j % length
        if word[i] not in (-1, value):
            raise ValueError(f"conflicting assignment at layout index {i}")
        word[i] = value

    for j in range(-b * m, b * m + 1):
        assign(j, spec.x[j])
    for t, j in enumerate(range(b * m + 1, (b + 1) * m)):
        assign(j, conn1[t])
    for j in range((b + 1) * m, (b + c + 1) * m + 1):
        assign(j, spec.y[j - (b + 1) * m])
    for t, j in enumerate(range((b + c + 1) * m + 1, (b + c + 2) * m)):
        assign(j, conn2[t])
    if any(s < 0 for s in word):
        raise ValueError("layout left unassigned symbols")
    if not is_cyclically_admissible(word, spec.q):
        raise ValueError("inadmissible connectors: assembled word breaks a transition")
    return PeriodicPoint(tuple(word))


def block_times(spec: ShadowSpec) -> tuple[int, int]:
    """The first/last visit times j_0, j_1 used by the angle experiment."""
    j0 = math.ceil((1 + spec.alpha) * (spec.b + 1) * spec.m)
    j1 = math.floor((1 - spec.alpha) * (spec.b + spec.c + 1) * spec.m)
    return j0, j1


def growth_measure(a: LocallyConstantCocycle, specs: Sequence[ShadowSpec],
                   params: BlockParams) -> dict:
    """Per-m growth table and the fitted growth exponent chi_hat.

    Rows carry (m, period, log norm of the return product, exact regularity
    block membership); chi_hat is the least-squares slope of log growth
    against m.
    """
    rows = []
    for spec in specs:
        p = build_shadow(spec)
        log_norm = math.log(np.linalg.norm(iterate(a, p.as_point(), p.period), 2))
        member = block_membership_periodic(a, p, params)
        rows.append({"m": spec.m, "u_m": p.period, "log_growth": log_norm,
                     "block_member": bool(member)})
    ms = np.array([r["m"] for r in rows], dtype=float)
    logs = np.array([r["log_growth"] for r in rows])
    chi_hat = float(np.polyfit(ms, logs, 1)[0]) if len(rows) > 1 else 0.0
    return {"rows": rows, "chi_hat": chi_hat}


def shadow_profile(p: PeriodicPoint | SymbolicPoint,
                   target: PeriodicPoint | SymbolicPoint, n: int,
                   metric: MetricParams = MetricParams()) -> list[dict]:
    """Distances d(shift^j p, shift^j target) for 0 <= j <= n against the
    two-sided exponential shadowing bound max(e^{-j tau}, e^{-(n-j) tau})."""
    pt = p.as_point() if isinstance(p, PeriodicPoint) else p
    tg = target.as_point() if isinstance(target, PeriodicPoint) else target
    rows = []
    for j in range(n + 1):
        d = distance(pt.shifted(j), tg.shifted(j), metric)
        bound = max(math.exp(-j * metric.tau), math.exp(-(n - j) * metric.tau))
        rows.append({"j": j, "distance": d, "bound": bound,
                     "within_bound": d <= bound * (1 + 1e-12)})
    return rows


def closed_form_projection_rate(cone: ConeParams, lam_hat: float, eta: float,
                                alpha: float, b: int, c: int) -> float:
    """Per-m exponent of the projection growth lower bound:
    -lam - eta - 5 eps b - alpha b lam - alpha b eta + (c - 2 alpha) ln(mu - eps^(1-sigma))."""
    rate = cone.effective_rate
    if rate <= 1e-12:
        raise ValueError("cone parameters give a nonpositive effective rate")
    return (-lam_hat - eta - 5.0 * cone.epsilon * b - alpha * b * lam_hat
            - alpha * b * eta + (c - 2.0 * alpha) * math.log(rate))


@dataclass
class ShadowReport:
    """Tables produced by one angle/projection experiment."""

    m: int
    u_m: int
    growth: float
    block_params_passed: bool | None
    j0: int
    j1: int
    angle_rows: list[dict] = field(default_factory=list)
    projection_rows: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.j0 < self.j1 < self.u_m:
            raise ValueError("need j0 < j1 < u_m; increase m or shrink alpha")


class FlagNotInvariantError(ValueError):
    """A flag term is not invariant along the orbit of the shadow point."""


def angle_experiment(a: LocallyConstantCocycle, flag: Flag, spec: ShadowSpec,
                     cone: ConeParams, params: BlockParams | None = None,
                     n_vectors: int = 8, flag_tol: float = 1e-8,
                     rng: np.random.Generator | None = None) -> ShadowReport:
    """Angles of the transported flag terms at the visit times j_0, j_1 and
    the transverse projection growth of the full return product.

    The flag must be invariant along the orbit of the shadow point (checked
    against flag_tol; FlagNotInvariantError otherwise).  Projection growth
    rows compare the measured log norm of Pi_{E_i^perp}^{E_i} A^{u_m}(p^m) v
    against the closed-form lower-bound exponent assembled from the cone
    parameters, the cocycle log bound and the angle-decay calibration.
    """
    if rng is None:
        rng = np.random.default_rng(7)
    p = build_shadow(spec)
    pt = p.as_point()
    u_m = p.period
    j0, j1 = block_times(spec)
    ret_full = iterate(a, pt, u_m)
    growth = math.log(np.linalg.norm(ret_full, 2))
    member = None if params is None else bool(block_membership_periodic(a, p, params))

    k = a.window_radius
    orbit = np.array(pt.window(-k, u_m - 1 + k), dtype=np.int64)
    factors = a.stack_at(np.lib.stride_tricks.sliding_window_view(orbit, 2 * k + 1))
    for term_idx, term in enumerate(flag.proper_terms()):
        if term.dim == 0:
            continue
        for j, factor in enumerate(factors):
            mapped = term.map_by(factor)
            angle = largest_principal_angle(mapped, term)
            if angle > flag_tol:
                raise FlagNotInvariantError(
                    f"flag term {term_idx} is not invariant at orbit step {j}: "
                    f"angle {angle:.3e} exceeds {flag_tol}"
                )

    ret_y = iterate(a, spec.y.as_point(), spec.y.period)
    stable_y, center_y, unstable_y = eigensplit(ret_y)
    center_stable = Subspace.from_spanning(
        np.hstack([center_y.basis, stable_y.basis])) \
        if center_y.dim + stable_y.dim > 0 else Subspace.zero(a.dimension)

    report = ShadowReport(spec.m, u_m, growth, member, j0, j1)
    for j in (j0, j1):
        transport = iterate(a, pt, j)
        for i, term in enumerate(flag.proper_terms()):
            if term.dim == 0:
                continue
            moved = term.map_by(transport)
            row = {"i": i, "j": j}
            row["angle_to_center"] = (
                principal_angle(moved, center_y) if center_y.dim else None)
            row["angle_to_center_stable"] = (
                principal_angle(moved, center_stable) if center_stable.dim else None)
            report.angle_rows.append(row)

    lam_hat = angle_decay_rate(a.log_bound)
    rate = closed_form_projection_rate(cone, lam_hat, a.log_bound,
                                       spec.alpha, spec.b, spec.c)
    constant = 0.9 * calibrate_cone_constant(cone)
    for i, term in enumerate(flag.proper_terms()):
        if term.dim == 0 or term.dim == a.dimension:
            continue
        proj = oblique_projection(term.orthogonal_complement(), term)
        for v_idx in range(n_vectors):
            v = rng.normal(size=a.dimension)
            v /= np.linalg.norm(v)
            actual = float(np.linalg.norm(proj @ ret_full @ v))
            log_bound = math.log(constant * cone.delta) + spec.m * rate
            report.projection_rows.append({
                "i": i, "vector": v_idx,
                "log_projection_growth": math.log(max(actual, 1e-300)),
                "log_bound": log_bound,
                "meets_bound": math.log(max(actual, 1e-300)) >= log_bound,
            })
    return report
