"""Lyapunov exponents, distortion-regularity blocks and flag transport.

The regularity block with parameters (N, theta) consists of points whose
N-step quasiconformal distortion products stay below exp(s N theta) in both
time directions for every number of blocks s.  Over a periodic orbit the
all-s quantification is decidable through prefix averages of the periodic
per-block costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cocycle import (LocallyConstantCocycle, _fold, _orbit_rows, evaluate, iterate,
                      iterate_many)
from .holonomy import composed_holonomy
from .linalg import Flag, Subspace, largest_principal_angle
from .measure import MarkovMeasure, _sample_cores
from .sft import (
    DEFAULT_WORD_BUDGET,
    PeriodicPoint,
    SymbolicPoint,
    _check_word_budget,
)

#: Absolute slack applied to the log-comparison S_s <= s N theta, so that
#: boundary cases (costs exactly equal to the budget) decide deterministically.
MEMBERSHIP_LOG_TOL = 1e-9

#: Largest batch of word prefixes the exact cylinder sum extends at once;
#: bigger levels of the word tree are walked one slice at a time, so memory
#: stays flat however many words the budget admits.
_SUBTREE_PREFIXES = 1 << 11


@dataclass(frozen=True)
class BlockParams:
    """Block length N and distortion budget exponent theta."""

    n_steps: int
    theta: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("N must be a positive integer")
        if self.theta <= 0:
            raise ValueError("theta must be positive")


@dataclass(frozen=True)
class ExponentReport:
    lambda_plus: float
    lambda_minus: float
    method: str
    n_used: int
    error_estimate: float

    def __post_init__(self):
        # stochastic estimators may cross within their own noise
        slack = max(1e-12, 4.0 * self.error_estimate)
        if self.lambda_plus < self.lambda_minus - slack:
            raise ValueError("lambda_plus must be >= lambda_minus")


def periodic_exponents(a: LocallyConstantCocycle, p: PeriodicPoint) -> ExponentReport:
    """Extremal exponents of the uniform measure on the orbit of p.

    lambda_+ is log(spectral radius of the return map) / period; lambda_-
    mirrors it through the inverse return map.
    """
    q = p.period
    m = iterate(a, p.as_point(), q)
    rho_plus = max(abs(np.linalg.eigvals(m)))
    rho_minus = max(abs(np.linalg.eigvals(np.linalg.inv(m))))
    lam_plus = math.log(rho_plus) / q
    lam_minus = -math.log(rho_minus) / q
    eps = float(np.finfo(float).eps) * 100
    return ExponentReport(lam_plus, lam_minus, "exact-periodic", q, eps)


def _check_support(a: LocallyConstantCocycle, mu: MarkovMeasure) -> None:
    if mu.support != a.q:
        raise ValueError("measure support does not match the cocycle's "
                         "transition matrix")


def _word_products(a: LocallyConstantCocycle, mu: MarkovMeasure, length: int):
    """Yield (cylinder weights, orbit products) in batches over the admissible
    words of the given length, in lexicographic order.

    Words grow one symbol at a time, so every prefix weight and prefix
    product is computed once and shared by all its extensions.  The weight
    multiplies pi and the transition probabilities left to right, and the
    product starts from the identity and left-multiplies the table entry of
    each complete window, as the per-word computation does.
    """
    width = 2 * a.window_radius + 1
    allowed = a.q.as_array.astype(bool)
    pi = mu.stationary_distribution
    p = mu.transition_probabilities

    def walk(m, tail, weight, prod):
        # tail holds the last (at most 2k + 1) symbols of each prefix
        if m == length:
            yield weight, prod
            return
        if m == 0:
            sym = np.arange(a.q.size)
            parent, factor = np.zeros_like(sym), pi
        else:
            parent, sym = np.nonzero(allowed[tail[:, -1]])
            factor = p[tail[parent, -1], sym]
        weight = weight[parent] * factor
        tail = np.column_stack([tail[parent, int(tail.shape[1] == width):], sym])
        prod = prod[parent]
        if tail.shape[1] == width:
            prod = _fold(a.stack, a.rows(tail), prod)
        for lo in range(0, len(parent), _SUBTREE_PREFIXES):
            hi = lo + _SUBTREE_PREFIXES
            yield from walk(m + 1, tail[lo:hi], weight[lo:hi], prod[lo:hi])

    yield from walk(0, np.empty((1, 0), dtype=np.int64), np.ones(1),
                    np.eye(a.dimension)[None])


def finite_scale_exponent(a: LocallyConstantCocycle, mu: MarkovMeasure, n: int,
                          budget: int = DEFAULT_WORD_BUDGET) -> float:
    """Exact value of a_n = (1/n) * sum over admissible words of
    mu(cylinder) * log||A^n||.

    The orbit product A^n depends on n + 2k coordinates, so the sum runs
    over admissible words of that length, added in lexicographic order.
    Raises BudgetExceededError with a Monte Carlo fallback instruction when
    the enumeration is too large, and ValueError when the support of mu is
    not the cocycle's transition matrix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_support(a, mu)
    k = a.window_radius
    length = n + 2 * k
    _check_word_budget(mu.n_symbols, length, budget,
                       "; fall back to monte_carlo_exponent")
    total = 0.0
    for weights, prods in _word_products(a, mu, length):
        norms = np.linalg.svd(prods, compute_uv=False).max(axis=-1)
        for weight, norm in zip(weights.tolist(), norms.tolist()):
            if weight == 0.0:
                continue
            total += weight * math.log(norm)
    return total / n


def monte_carlo_exponent(a: LocallyConstantCocycle, mu: MarkovMeasure, n: int,
                         trials: int, rng: np.random.Generator) -> ExponentReport:
    """Sample-mean estimate of both extremal exponents with standard errors.

    The lambda_- leg uses the backward product A^{-n}, so both estimators
    are unbiased for the n-scale integrals by shift invariance of the
    measure.  Trial t reads the window -r..r (r = n + window radius) of the
    t-th of ``trials`` calls of ``sample_point(mu, rng, 2 r, start=-r)``.
    The cores are drawn as one block, as :func:`sample_points` draws them,
    so the generator stream is a per-trial loop's.  No point is built: the
    window is the core and the first symbol of its right tail.  A^n and
    A^{-n} are then formed for all trials at once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_support(a, mu)
    r = n + a.window_radius
    cores = _sample_cores(mu, rng, trials, 2 * r)
    first_right = np.array([right[0] for _, right in mu.support.return_tails])
    words = np.column_stack([cores, first_right[cores[:, -1]]])
    # the operator 2-norm, as np.linalg.norm(., 2) computes it per matrix
    plus, minus = (np.array([math.log(v) / n for v in np.linalg.svd(
        iterate_many(a, words, m), compute_uv=False).max(axis=-1).tolist()])
        for m in (n, -n))
    lam_plus = float(plus.mean())
    lam_minus = float(-minus.mean())
    if trials > 1:
        se_plus = float(plus.std(ddof=1) / math.sqrt(trials))
        se_minus = float(minus.std(ddof=1) / math.sqrt(trials))
    else:
        se_plus = se_minus = 0.0
    err = max(se_plus, se_minus)
    return ExponentReport(lam_plus, lam_minus, "monte-carlo", n, err)


def _log_distortions(prods: np.ndarray) -> list[float]:
    """log(||M|| ||M^-1||) for each matrix M of a stack."""
    s = np.linalg.svd(prods, compute_uv=False)
    return [math.log(r) for r in (s[:, 0] / s[:, -1]).tolist()]


def _block_costs(a: LocallyConstantCocycle, x: SymbolicPoint, n_steps: int,
                 count: int, direction: int) -> list[float]:
    """log distortion of the length-N block products along the orbit: block
    j is A^(direction N) at shift^(direction j N) x."""
    n, r = direction * n_steps, n_steps + a.window_radius  # r covers A^N and A^-N
    low = min(0, (count - 1) * n)  # least block centre
    sym = np.array(x.window(low - r, low + (count - 1) * n_steps + r), dtype=np.int64)
    # row j is the radius-r window of shift^(j n) x, centred at j n
    offsets = np.arange(0, count * n, n)[:, None] - low + np.arange(2 * r + 1)
    return _log_distortions(iterate_many(a, sym[offsets], n))


def _prefix_condition(costs: Sequence[float], budget_per_block: float) -> bool:
    s = 0.0
    for j, c in enumerate(costs, start=1):
        s += c
        if s > j * budget_per_block + MEMBERSHIP_LOG_TOL:
            return False
    return True


def _block_check(a: LocallyConstantCocycle, x: SymbolicPoint,
                 params: BlockParams, count: int) -> bool:
    """Prefix condition on the first `count` forward, then backward, block costs."""
    budget = params.n_steps * params.theta
    forward = _block_costs(a, x, params.n_steps, count, +1)
    if not _prefix_condition(forward, budget):
        return False
    backward = _block_costs(a, x, params.n_steps, count, -1)
    return _prefix_condition(backward, budget)


def block_membership_periodic(a: LocallyConstantCocycle, p: PeriodicPoint,
                              params: BlockParams) -> bool:
    """Exact all-s regularity decision for a periodic point.

    The per-block costs repeat with period q' = lcm(period, N)/N, so the
    condition for every s >= 1 reduces to the prefix sums S_s <= s N theta
    for 1 <= s <= q': once the full-cycle average passes, longer products
    are controlled by the worst prefix.
    """
    q_prime = math.lcm(p.period, params.n_steps) // params.n_steps
    return _block_check(a, p.as_point(), params, q_prime)


def block_membership_finite(a: LocallyConstantCocycle, x: SymbolicPoint,
                            params: BlockParams, s_max: int) -> bool:
    """Necessary-condition check of the block products for 1 <= s <= s_max.

    A finite-horizon surrogate for non-periodic points; agreement with the
    exact periodic decision holds once s_max covers two cost cycles.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    return _block_check(a, x, params, s_max)


def smallest_passing_params(a: LocallyConstantCocycle, x: SymbolicPoint,
                            n_grid: Sequence[int], theta_grid: Sequence[float],
                            s_max: int = 10) -> tuple[int, float] | None:
    """Empirical probe: smallest (N, theta) in the grid at which the finite
    block check passes (ordered by theta, then N)."""
    for theta in sorted(theta_grid):
        for n in sorted(n_grid):
            if block_membership_finite(a, x, BlockParams(n, theta), s_max):
                return n, theta
    return None


def distortion_growth_slope(a: LocallyConstantCocycle, points: Sequence[SymbolicPoint],
                            n_max: int) -> tuple[float, np.ndarray]:
    """Least-squares slope of mean log distortion against |n|, |n| <= n_max.

    Both time directions are folded into |n|; returns the fitted slope and
    the per-|n| mean values.  Raises ValueError for no points or n_max < 2.
    """
    if len(points) == 0:
        raise ValueError("distortion slope needs at least one point")
    if n_max < 2:
        raise ValueError("n_max must be >= 2: a slope needs two values of |n|")
    # The factors are the one-step products A(y) @ Id that iterate(a, y, 1)
    # returns, and their inverses; A @ Id does not keep the signed zeros of A.
    steps = _fold(a.stack, np.arange(len(a.stack))[:, None])
    inv_steps = np.linalg.inv(steps)
    r = n_max + a.window_radius  # covers the spans of A^n_max and A^-n_max
    words = np.array([x.window(-r, r) for x in points], dtype=np.int64)
    fwd_rows, bwd_rows = (_orbit_rows(a, words, n) for n in (n_max, -n_max))
    sums = np.zeros(n_max)
    fwd = bwd = None
    for n in range(1, n_max + 1):
        fwd = _fold(steps, fwd_rows[:, n - 1, None], fwd)
        bwd = _fold(inv_steps, bwd_rows[:, n - 1, None], bwd)
        for f, b in zip(_log_distortions(fwd), _log_distortions(bwd)):
            sums[n - 1] += f + b
    means = sums / (2.0 * len(points))
    return float(np.polyfit(np.arange(1, n_max + 1, dtype=float), means, 1)[0]), means


# ---------------------------------------------------------------------------
# flag and metric transport over regularity blocks


@dataclass
class FlagTransportReport:
    """Transported flags plus the residuals of the invariance contracts."""

    flags: list[Flag]
    max_equivariance_residual: float
    max_path_residual: float
    max_metric_residual: float
    membership_checked: bool


def _quotient_basis(flag: Flag, i: int) -> np.ndarray:
    """Orthonormal basis of the complement of E_i inside E_{i+1}."""
    small = flag.subspaces[i - 1] if i > 0 else None
    big = flag.subspaces[i]
    if small is None or small.dim == 0:
        return big.basis
    proj = np.eye(big.ambient_dim) - small.projector()
    return Subspace.from_spanning(proj @ big.basis).basis


def _induced_quotient_matrix(m: np.ndarray, basis_from: np.ndarray,
                             basis_to: np.ndarray, small_to: Subspace) -> np.ndarray:
    """Matrix of the induced quotient map in the two transported bases."""
    image = m @ basis_from
    if small_to.dim == 0:
        coeffs, *_ = np.linalg.lstsq(basis_to, image, rcond=None)
        return coeffs
    stacked = np.hstack([basis_to, small_to.basis])
    coeffs, *_ = np.linalg.lstsq(stacked, image, rcond=None)
    return coeffs[: basis_to.shape[1], :]


def flag_transport(a: LocallyConstantCocycle, flag_at_base: Flag,
                   basepoint: SymbolicPoint, points: Sequence[SymbolicPoint],
                   params: BlockParams, s_max: int = 8,
                   quotient_metrics: Sequence[np.ndarray] | None = None,
                   check_membership: bool = True) -> FlagTransportReport:
    """Transport a flag (and quotient metrics) by composed holonomies.

    Every target point receives the flag through the us-composed holonomy
    from the basepoint; the report carries the worst cocycle-equivariance
    residual (largest principal angle between A(x) E_i(x) and E_i(shift x)),
    the worst su/us path-dependence residual, and the worst quotient-metric
    equivariance residual.
    """
    if check_membership:
        for pt in (basepoint, *points):
            if not block_membership_finite(a, pt, params, s_max):
                raise ValueError("a point fails the regularity block check")
    k_terms = len(flag_at_base.subspaces)
    if quotient_metrics is None:
        quotient_metrics = [np.eye(_quotient_basis(flag_at_base, i).shape[1])
                            for i in range(k_terms)]

    def orbit_alignment(symbol: int) -> int:
        # Brackets need matching zero symbols; ride the basepoint orbit to
        # the nearest visit of the target symbol before applying holonomies.
        fwd = max(0, basepoint.right_tail_start) + len(basepoint.right_period) + 1
        bwd = max(0, -basepoint.left_tail_end) + len(basepoint.left_period) + 1
        for j in range(max(fwd, bwd)):
            if j < fwd and basepoint[j] == symbol:
                return j
            if 0 < j < bwd and basepoint[-j] == symbol:
                return -j
        raise ValueError(
            f"basepoint orbit never reaches symbol {symbol}; pick a basepoint "
            f"whose orbit visits every symbol"
        )

    def transport(target: SymbolicPoint, order: str):
        j = orbit_alignment(target[0])
        forward = iterate(a, basepoint, j)
        hol = composed_holonomy(a, basepoint.shifted(j), target, order=order)
        move = hol.matrix @ forward
        flag = flag_at_base.map_by(move)
        bases = [move @ _quotient_basis(flag_at_base, i)
                 for i in range(k_terms)]
        return flag, bases

    flags = []
    max_path = 0.0
    max_equi = 0.0
    max_metric = 0.0
    for pt in points:
        flag_us, bases_us = transport(pt, "us")
        flag_su, _ = transport(pt, "su")
        for s_us, s_su in zip(flag_us.subspaces, flag_su.subspaces):
            if 0 < s_us.dim < s_us.ambient_dim:
                max_path = max(max_path, largest_principal_angle(s_us, s_su))
        flag_next, bases_next = transport(pt.shifted(1), "us")
        a_val = evaluate(a, pt)
        for i, (s_here, s_next) in enumerate(zip(flag_us.subspaces,
                                                 flag_next.subspaces)):
            if 0 < s_here.dim < s_here.ambient_dim:
                mapped = s_here.map_by(a_val)
                max_equi = max(max_equi, largest_principal_angle(mapped, s_next))
            small_next = (flag_next.subspaces[i - 1] if i > 0
                          else Subspace.zero(flag_next.ambient_dim))
            qmat = _induced_quotient_matrix(a_val, bases_us[i], bases_next[i],
                                            small_next)
            g = quotient_metrics[i]
            max_metric = max(max_metric,
                             float(np.max(np.abs(qmat.T @ g @ qmat - g))))
        flags.append(flag_us)
    return FlagTransportReport(flags, max_equi, max_path, max_metric,
                               check_membership)
