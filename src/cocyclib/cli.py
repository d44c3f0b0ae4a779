"""Configuration-driven experiment runner with reproducible reports.

One experiment per invocation; a config is a single JSON document with the
top-level keys system, cocycle, measure, descriptor, experiment.  Reports
are deterministic for a fixed seed and serialize to canonical JSON (or CSV
for tabular sections).  Exit status is 0 iff every asserted check passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .cocycle import (
    LocallyConstantCocycle,
    _check_seeds,
    coboundary_conjugate,
    evaluate,
    iterate_many,
)
from .fixtures import unipotent_example
from .holonomy import holonomy_stack
from .linalg import ConeParams, Flag, Subspace
from .measure import MarkovMeasure, _draw_future, _draw_past, sample_points, sample_word
from .regularity import (
    BlockParams,
    block_membership_finite,
    block_membership_periodic,
    finite_scale_exponent,
    monte_carlo_exponent,
    periodic_exponents,
    smallest_passing_params,
)
from .sft import (
    DEFAULT_WORD_BUDGET,
    BudgetExceededError,
    MetricParams,
    TransitionMatrix,
    _check_cores,
    _check_futures,
    _check_pasts,
    _closed,
    _comparison_horizon,
    _spliced_future,
    _spliced_past,
    distance,
    enumerate_periodic,
    parse_word_key,
    periodic_point,
    word_key,
)
from .shadow import FlagNotInvariantError, ShadowSpec, angle_experiment, growth_measure
from .transfer import (
    conjugacy_residual,
    default_basepoints,
    superdiagonal_peel,
    verify_conjugacy,
)
from .zimmer import MEMBERSHIP_TOL, ZimmerDescriptor, membership, \
    membership_residuals, random_element

EXPERIMENT_KINDS = ("exponents", "holonomy", "blocks", "shadow", "reconstruct",
                    "verify-zimmer", "example-unipotent")

DEFAULT_SAMPLE_BUDGET = 10_000


class ConfigError(ValueError):
    """Invalid experiment configuration, tagged with the failing key path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


@contextmanager
def _config_value(path: str):
    """Report a TypeError, ValueError or OverflowError as a ConfigError at
    the key path."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _value(section: dict, path: str, convert: Callable, default: Any = None):
    """convert() of the value at a key path such as ``$.experiment.n`` in its
    section (``dict`` for a section); the key is required without a default."""
    key = path.rsplit(".", 1)[1]
    if default is None and key not in section:
        raise ConfigError(path, "missing required key")
    with _config_value(path):
        return convert(section.get(key, default))


def _object(value: Any, path: str) -> dict:
    """The value at a key path that must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a JSON object")
    return value


def _integer(value: Any, minimum: int | None = None) -> int:
    """A JSON integer, unchanged, and not below ``minimum``; int() would
    truncate 2.5 to 2 and read true as 1."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value}")
    return value


def _at_least(minimum: int) -> Callable[[Any], int]:
    """:func:`_integer` with a lower bound: the one that the library
    function fed by the value enforces, or 1 for a count below which a check
    would pass on no data."""
    return lambda value: _integer(value, minimum)


def _real(value: Any) -> float:
    """A finite JSON number as a float; float() would also read "nan" and
    "1e-12" from strings and true as 1.0."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _real_where(holds: Callable[[float], bool], bound: str) -> Callable[[Any], float]:
    """:func:`_real` with a bound: the one that the library function fed by
    the value enforces, or >= 0 for a tolerance."""
    def convert(value: Any) -> float:
        real = _real(value)
        if not holds(real):
            raise ValueError(f"expected a number {bound}, got {value!r}")
        return real
    return convert


_POSITIVE = _real_where(lambda v: v > 0, "> 0")
_NONNEGATIVE = _real_where(lambda v: v >= 0, ">= 0")
_OPEN_UNIT = _real_where(lambda v: 0 < v < 1, "in (0, 1)")


def _list_of(valid: Callable[[Any], bool], what: str) -> Callable[[list], list]:
    """A converter for :func:`_value` that checks every item of a list and
    returns the list unchanged, so that an integer such as 1 is not written
    back as 1.0."""
    def check(values: Any) -> list:
        if not isinstance(values, list) or not all(map(valid, values)):
            raise ValueError(f"expected a list of {what}")
        return values
    return check


def build_system(cfg: dict) -> tuple[TransitionMatrix, MetricParams]:
    sys_cfg = _value(cfg, "$.system", dict)
    q = _value(sys_cfg, "$.system.transition_matrix", TransitionMatrix.from_rows)
    metric = _value(sys_cfg, "$.system.tau", lambda v: MetricParams(_POSITIVE(v)), 1.0)
    return q, metric


def build_measure(cfg: dict, q: TransitionMatrix) -> MarkovMeasure:
    m_cfg = _value(cfg, "$.measure", dict)
    p = _value(m_cfg, "$.measure.transition_probabilities",
               lambda v: np.array(v, dtype=float))
    with _config_value("$.measure"):
        mu = MarkovMeasure.from_matrix(p, m_cfg.get("stationary"))
    if mu.support.entries != q.entries:
        raise ConfigError("$.measure.transition_probabilities",
                          "support does not match the transition matrix")
    return mu


def build_cocycle(cfg: dict, q: TransitionMatrix, key: str = "cocycle",
                  source: dict | None = None) -> LocallyConstantCocycle:
    path = f"$.{key}"
    c_cfg = source if source is not None else _value(cfg, path, dict)
    radius = _value(c_cfg, f"{path}.window_radius", _at_least(0))
    table = {}
    for word, mat in _value(c_cfg, f"{path}.table", dict).items():
        with _config_value(f"{path}.table.{word}"):
            table[parse_word_key(word)] = np.array(mat, dtype=float)
    with _config_value(f"{path}.table"):
        return LocallyConstantCocycle.from_table(q, radius, table)


def build_descriptor(cfg: dict) -> ZimmerDescriptor:
    d_cfg = _value(cfg, "$.descriptor", dict)
    exponent = _value(d_cfg, "$.descriptor.exponent", _real, 0.0)
    return _value(d_cfg, "$.descriptor.block_dims",
                  lambda dims: ZimmerDescriptor(tuple(map(_integer, dims)), exponent))


def _check_dimension(path: str, dim: int, expected: int) -> None:
    """Raise at a key path whose value acts on R^dim, not on R^expected."""
    if dim != expected:
        raise ConfigError(path, f"dimension {dim} does not match the cocycle's {expected}")


def experiment_params(cfg: dict) -> dict:
    exp = _value(cfg, "$.experiment", dict)
    if "seed" not in exp:
        raise ConfigError("$.experiment.seed",
                          "seeds are mandatory; no ambient entropy is used")
    kind = _value(exp, "$.experiment.kind", str)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("$.experiment.kind",
                          f"unknown kind {kind!r}; expected one of {EXPERIMENT_KINDS}")
    return exp


def _check(name: str, value: float, tolerance: float, instantiates: str,
           passed: bool | None = None) -> dict:
    if passed is None:
        passed = bool(value <= tolerance)
    return {"name": name, "value": value, "tolerance": tolerance,
            "instantiates": instantiates, "passed": bool(passed)}


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        # strict JSON has no Infinity or NaN: non-finite values become strings
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    return str(obj)


# ---------------------------------------------------------------------------
# experiment handlers


def _run_exponents(cfg, q, metric, exp, rng, budgets):
    mu = build_measure(cfg, q)
    a = build_cocycle(cfg, q)
    n = _value(exp, "$.experiment.n", _at_least(1), 2)
    trials = min(_value(exp, "$.experiment.trials", _at_least(1), 2000),
                 budgets["samples"])
    max_period = _value(exp, "$.experiment.max_period", _at_least(1), 4)
    results: dict[str, Any] = {}
    rows = []
    for period in range(1, max_period + 1):
        for p in enumerate_periodic(q, period):
            rep = periodic_exponents(a, p)
            rows.append({"word": word_key(p.cyclic_word),
                         "period": period,
                         "lambda_plus": rep.lambda_plus,
                         "lambda_minus": rep.lambda_minus})
    try:
        results["finite_scale_a_n"] = finite_scale_exponent(
            a, mu, n, budget=budgets["words"])
        results["finite_scale_n"] = n
    except BudgetExceededError as exc:
        results["finite_scale_a_n"] = None
        results["finite_scale_note"] = str(exc)
    mc = monte_carlo_exponent(a, mu, n, trials, rng)
    results["monte_carlo"] = {
        "lambda_plus": mc.lambda_plus, "lambda_minus": mc.lambda_minus,
        "n": mc.n_used, "standard_error": mc.error_estimate,
        "trials": trials,
    }
    checks = []
    if results.get("finite_scale_a_n") is not None:
        gap = abs(results["finite_scale_a_n"] - mc.lambda_plus)
        tol = 3.0 * mc.error_estimate + 1e-12
        checks.append(_check("monte-carlo-matches-exact-sum", gap, tol,
                             "regularity: exact cylinder sum vs sampling"))
    ordered = all(r["lambda_plus"] >= r["lambda_minus"] - 1e-12 for r in rows)
    checks.append(_check("extremal-order", 0.0, 0.0,
                         "exponent order lambda_plus >= lambda_minus",
                         passed=ordered))
    return results, {"periodic_exponents": rows}, checks


def _windows(points: Sequence, lo: int, hi: int) -> np.ndarray:
    """The coordinates lo..hi of each point, one row per point: the window
    words of radius (hi - lo) / 2 of the points shifted by (lo + hi) / 2."""
    return np.array([p.window(lo, hi) for p in points], dtype=np.int64)


def _run_holonomy(cfg, q, metric, exp, rng, budgets):
    mu = build_measure(cfg, q)
    a = build_cocycle(cfg, q)
    n_pairs = min(_value(exp, "$.experiment.pairs", _at_least(1), 400), budgets["samples"])
    inter_n = _value(exp, "$.experiment.intertwine_n", _at_least(1), 10)
    tol = _value(exp, "$.experiment.tolerance", _NONNEGATIVE, 1e-12)
    lip_bound = _value(exp, "$.experiment.lipschitz_bound", _NONNEGATIVE, 1e6)
    # Every symbol first, drawn in the order of a loop over pairs that calls
    # sample_point(mu, rng, 12), sample_stable_partner twice and
    # sample_unstable_partner, each partner with 6 fresh symbols; then the
    # words and seams are checked as arrays and the points laid out as
    # those samplers lay them out; then every holonomy and orbit product of
    # all pairs at once.  x_0 is core[6], the centre of x's core.
    cores, y_pasts, z_pasts, futures = [], [], [], []
    for _ in range(n_pairs):
        core = sample_word(mu, rng, 12)
        cores.append(core)
        y_pasts.append(_draw_past(q, rng, core[6], 6))
        z_pasts.append(_draw_past(q, rng, core[6], 6))
        futures.append(_draw_future(mu, rng, core[6], 6))
    core_rows = np.array(cores, dtype=np.int64)
    x0 = core_rows[:, 6]
    _check_cores(q, core_rows)
    for pasts in (y_pasts, z_pasts):
        _check_pasts(q, np.array(pasts, dtype=np.int64), x0)
    _check_futures(q, x0, np.array(futures, dtype=np.int64))
    xs = [_closed(q, core, 6) for core in cores]
    ys, zs = ([_spliced_past(q, x, w) for x, w in zip(xs, pasts)]
              for pasts in (y_pasts, z_pasts))
    us = [_spliced_future(q, x, w) for x, w in zip(xs, futures)]
    k, n = a.window_radius, inter_n
    # Two points agree at every coordinate >= 0 (<= 0) iff they agree on
    # 0..t (-t..0) for any t at least their comparison horizon, so one span
    # of the largest horizon of the pairs (x, y), (x, z) and (x, u) decides
    # same_future and same_past for each; y and z then agree through x.
    # One window per point covers that span and every coordinate read below.
    t = max(_comparison_horizon(x, p) for x, y, z, u in zip(xs, ys, zs, us)
            for p in (y, z, u))
    lo, hi = -max(t, n + k, 2 * k), max(t, n + 2 * k, 2 * n + k)
    x_w, y_w, z_w, u_w = (_windows(p, lo, hi) for p in (xs, ys, zs, us))

    def span(w, first, last):
        """Coordinates first..last of each point of a window array."""
        return w[:, first - lo:last - lo + 1]

    if not all(np.array_equal(span(x_w, 0, t), span(w, 0, t)) for w in (y_w, z_w)):
        raise ValueError("points do not lie on a common local stable set")
    if not np.array_equal(span(x_w, -t, 0), span(u_w, -t, 0)):
        raise ValueError("points do not lie on a common local unstable set")
    eye = np.eye(a.dimension)
    # a holonomy leg reads coordinates -2k..2k of its ends
    x_l, y_l, z_l, u_l = (span(w, -2 * k, 2 * k) for w in (x_w, y_w, z_w, u_w))
    h_xy = holonomy_stack(a, "stable", x_l, y_l)
    chain_s = np.abs(holonomy_stack(a, "stable", y_l, z_l) @ h_xy
                     - holonomy_stack(a, "stable", x_l, z_l)).max(axis=(1, 2))
    chain_u = np.abs(holonomy_stack(a, "unstable", u_l, x_l)
                     @ holonomy_stack(a, "unstable", x_l, u_l) - eye).max(axis=(1, 2))
    # h_xy = A^{-n}(shift^n y) H(shift^n x, shift^n y) A^n(x)
    h_n = holonomy_stack(a, "stable", span(x_w, n - 2 * k, n + 2 * k),
                         span(y_w, n - 2 * k, n + 2 * k))
    lhs = (iterate_many(a, span(y_w, -k, 2 * n + k), -n) @ h_n
           @ iterate_many(a, span(x_w, -n - k, n + k), n))
    inter = np.abs(h_xy - lhs).max(axis=(1, 2))
    dists = np.array([distance(x, y, metric) for x, y in zip(xs, ys)])
    near = dists > 0
    svals = np.linalg.svd(h_xy[near] - eye, compute_uv=False).max(axis=-1)
    chain_worst = float(np.maximum(chain_s, chain_u).max())
    inter_worst = float(inter.max())
    lip_max = float(np.max(svals / dists[near], initial=0.0))
    results = {"pairs": n_pairs, "lipschitz_ratio_max": lip_max,
               "intertwine_n": inter_n}
    checks = [
        _check("chain-rule", chain_worst, tol,
               "holonomy: transport composes along stable triples"),
        _check("intertwining", inter_worst, tol,
               "holonomy: conjugation by orbit products"),
        _check("lipschitz-finite", lip_max, lip_bound,
               "holonomy: ||H - Id|| <= L rho"),
    ]
    return results, {}, checks


def _run_blocks(cfg, q, metric, exp, rng, budgets):
    mu = build_measure(cfg, q)
    a = build_cocycle(cfg, q)
    with _config_value("$.experiment"):
        params = BlockParams(_value(exp, "$.experiment.N", _at_least(1), 1),
                             _value(exp, "$.experiment.theta", _POSITIVE))
    max_period = _value(exp, "$.experiment.max_period", _at_least(1), 4)
    s_max = _value(exp, "$.experiment.s_max", _at_least(1), 8)
    rows = []
    consistent = True
    for period in range(1, max_period + 1):
        for p in enumerate_periodic(q, period):
            exact = block_membership_periodic(a, p, params)
            q_prime = math.lcm(period, params.n_steps) // params.n_steps
            finite = block_membership_finite(a, p.as_point(), params,
                                             2 * q_prime * params.n_steps)
            consistent = consistent and (exact == finite)
            rows.append({"word": word_key(p.cyclic_word),
                         "period": period, "member": bool(exact)})
    probe_rows = []
    n_probe = min(_value(exp, "$.experiment.probe_points", _at_least(1), 5),
                  budgets["samples"])
    grid_n = _value(exp, "$.experiment.probe_n_grid",
                    _list_of(lambda v: type(v) is int and v >= 1, "positive integers"),
                    [1, 2, 4])
    grid_theta = _value(exp, "$.experiment.probe_theta_grid",
                        _list_of(lambda v: type(v) in (int, float) and 0 < v < math.inf,
                                 "positive numbers"),
                        [0.25, 0.5, 1.0, 2.0, 4.0])
    for idx, x in enumerate(sample_points(mu, rng, n_probe, 16)):
        found = smallest_passing_params(a, x, grid_n, grid_theta, s_max)
        probe_rows.append({"point": idx,
                           "n_star": None if found is None else found[0],
                           "theta_star": None if found is None else found[1]})
    results = {"N": params.n_steps, "theta": params.theta,
               "convention": "backward products start at j = 0",
               "member_count": sum(r["member"] for r in rows)}
    checks = [_check("periodic-vs-exhaustive", 0.0, 0.0,
                     "regularity: prefix-average decision equals exhaustive scan",
                     passed=consistent)]
    return results, {"membership": rows, "probe": probe_rows}, checks


def _run_shadow(cfg, q, metric, exp, rng, budgets):
    a = build_cocycle(cfg, q)
    x, y = (_value(exp, path, lambda w: periodic_point(q, parse_word_key(str(w))))
            for path in ("$.experiment.x_word", "$.experiment.y_word"))
    b = _value(exp, "$.experiment.b", _at_least(1), 2)
    c = _value(exp, "$.experiment.c", _at_least(1), 2)
    alpha = _value(exp, "$.experiment.alpha", _OPEN_UNIT, 0.1)
    ms = _value(exp, "$.experiment.ms", lambda v: list(map(_at_least(1), v)),
               [4, 8, 12, 16])
    with _config_value("$.experiment"):
        params = BlockParams(_value(exp, "$.experiment.N", _at_least(1), 4),
                             _value(exp, "$.experiment.theta", _POSITIVE, 3.0))
        specs = [ShadowSpec(q, x, y, m, b, c, alpha) for m in ms]
    table = growth_measure(a, specs, params)
    results = {"chi_hat": table["chi_hat"], "b": b, "c": c, "alpha": alpha}
    tables = {"growth": table["rows"]}
    checks = []
    if "flag_dims" in exp:
        in_range = _list_of(lambda k: type(k) is int and 1 <= k <= a.dimension,
                            f"dimensions in 1..{a.dimension}")
        flag = _value(exp, "$.experiment.flag_dims", lambda dims: Flag(tuple(
            Subspace.standard(a.dimension, range(k)) for k in in_range(dims))))
        with _config_value("$.experiment"):
            cone = ConeParams(_value(exp, "$.experiment.cone_split",
                                     lambda v: tuple(map(_at_least(1), v)),
                                     (1, a.dimension - 1)),
                              _value(exp, "$.experiment.cone_mu", _real, 2.0),
                              _value(exp, "$.experiment.cone_lambda", _real, 0.999),
                              _value(exp, "$.experiment.cone_epsilon", _NONNEGATIVE, 0.05),
                              _value(exp, "$.experiment.cone_delta", _POSITIVE, 0.3))
        try:
            rep = angle_experiment(a, flag, specs[-1], cone, params=params, rng=rng)
        except FlagNotInvariantError as exc:
            raise ConfigError("$.experiment.flag_dims", str(exc)) from exc
        tables["angles"] = rep.angle_rows
        tables["projection_growth"] = rep.projection_rows
        results["u_m"] = rep.u_m
        results["j0"] = rep.j0
        results["j1"] = rep.j1
        bound_ok = all(r["meets_bound"] for r in rep.projection_rows)
        checks.append(_check("projection-growth-bound", 0.0, 0.0,
                             "shadow: transverse projection above closed-form bound",
                             passed=bound_ok))
    return results, tables, checks


def _run_reconstruct(cfg, q, metric, exp, rng, budgets):
    mu = build_measure(cfg, q)
    a = build_cocycle(cfg, q)
    desc = build_descriptor(cfg)
    _check_dimension("$.descriptor.block_dims", desc.dim, a.dimension)
    tol = _value(exp, "$.experiment.tolerance", _NONNEGATIVE, 1e-8)
    if "conjugator" in exp:
        u = build_cocycle(cfg, q, key="experiment.conjugator",
                          source=exp["conjugator"])
        _check_dimension("$.experiment.conjugator", u.dimension, a.dimension)
        b = coboundary_conjugate(a, u)
        basepoints = default_basepoints(q)
        base_values = [np.linalg.inv(evaluate(u, w)) for w in basepoints]
    else:
        b = build_cocycle(cfg, q, key="experiment.cocycle_b",
                          source=_value(exp, "$.experiment.cocycle_b", dict))
        _check_dimension("$.experiment.cocycle_b", b.dimension, a.dimension)
        base_values = _value(exp, "$.experiment.base_values",
                             lambda vs: _check_seeds(vs, q.size, a.dimension))
    evaluator = superdiagonal_peel(a, b, desc, base_values, tol=tol)
    n_samples = min(_value(exp, "$.experiment.samples", _at_least(1), 500),
                    budgets["samples"])
    samples = sample_points(mu, rng, n_samples, 14)
    report = verify_conjugacy(a, b, evaluator, samples, tol=tol, metric=metric)
    path_gap = max(float(np.max(np.abs(
        evaluator.evaluate(s, "us") - evaluator.evaluate(s, "su"))))
        for s in samples[: min(100, n_samples)])
    results = {
        "stage_residuals": list(evaluator.stage_residuals),
        "final_table_residual": evaluator.final_residual,
        "conjugacy": report.to_jsonable(),
        "evaluator": evaluator.to_jsonable(),
    }
    checks = [
        _check("conjugacy-residual", report.max_residual, tol,
               "transfer: A(x) = C(shift x) B(x) C(x)^{-1} on samples"),
        _check("path-independence", path_gap,
               _value(exp, "$.experiment.path_tolerance", _NONNEGATIVE, 1e-9),
               "transfer: su and us transport agree"),
    ]
    return results, {}, checks


def _run_verify_zimmer(cfg, q, metric, exp, rng, budgets):
    a = build_cocycle(cfg, q)
    desc = build_descriptor(cfg)
    _check_dimension("$.descriptor.block_dims", desc.dim, a.dimension)
    tol = _value(exp, "$.experiment.tolerance", _NONNEGATIVE, 1e-8)
    diag, lower = membership_residuals(a.stack, desc)
    diag = diag.max(axis=1)
    member = (lower <= tol) & (diag <= tol)
    rows = [{"window": word_key(w), "member": ok, "lower_residual": lr,
             "diagonal_residual": dr}
            for w, ok, lr, dr in zip(a.words.tolist(), member.tolist(),
                                     lower.tolist(), diag.tolist())]
    worst_lower, worst_diag = max(0.0, *lower.tolist()), max(0.0, *diag.tolist())
    n_products = _value(exp, "$.experiment.closure_products", _at_least(1), 50)
    closure_ok = True
    for _ in range(n_products):
        m1 = random_element(desc, rng, 1.0)
        m2 = random_element(desc, rng, 1.0)
        scale = max(1.0, float(np.linalg.norm(m1, 2) * np.linalg.norm(m2, 2)))
        closure_ok = closure_ok and membership(m1 @ m2, desc, tol * scale).ok
        inv_scale = max(1.0, float(np.linalg.cond(m1)))
        closure_ok = closure_ok and membership(
            np.linalg.inv(m1), desc, tol * inv_scale ** 2).ok
    results = {"values": len(rows), "worst_lower_residual": worst_lower,
               "worst_diagonal_residual": worst_diag}
    checks = [
        _check("table-membership", max(worst_lower, worst_diag), tol,
               "zimmer: every generator value lies in the block",
               passed=bool(member.all())),
        _check("closure", 0.0, 0.0,
               "zimmer: products and inverses stay in the block",
               passed=closure_ok),
    ]
    return results, {"membership": rows}, checks


def _run_example_unipotent(cfg, q, metric, exp, rng, budgets):
    mu = build_measure(cfg, q)
    ex = unipotent_example(q)
    desc = ZimmerDescriptor((1, 1), 0.0)
    formula_exact = True
    rows = []
    for w, m in sorted(ex.b.table.items()):
        expected = np.array([[1.0, 1.0 - w[2] + w[1]], [0.0, 1.0]])
        formula_exact = formula_exact and bool(np.array_equal(m, expected))
        rows.append({"window": word_key(w),
                     "value": m.tolist(), "expected": expected.tolist()})
    diag, lower = membership_residuals(ex.b.stack, desc)
    member_ok = bool(np.all(lower <= MEMBERSHIP_TOL) and np.all(diag <= MEMBERSHIP_TOL))
    # a = frame(shift x) b frame(x)^{-1}, so the peel recovers the frame.
    basepoints = default_basepoints(q)
    base_values = [evaluate(ex.frame, w) for w in basepoints]
    evaluator = superdiagonal_peel(ex.a, ex.b, desc, base_values, tol=1e-10)
    samples = sample_points(mu, rng, min(300, budgets["samples"]), 12)
    worst = max(conjugacy_residual(ex.a, ex.b, evaluator, s) for s in samples)
    results = {"frame_parameter": "phi(x) = x_0",
               "reconstruction_residual": worst}
    checks = [
        _check("frame-change-formula", 0.0, 0.0,
               "cocycle: conjugated table equals [[1, 1 - x_1 + x_0], [0, 1]]",
               passed=formula_exact),
        _check("block-membership", 0.0, 0.0,
               "zimmer: conjugated cocycle stays unipotent",
               passed=member_ok),
        _check("reconstruction-residual", worst, 1e-10,
               "transfer: frame recovered by holonomy propagation"),
    ]
    return results, {"conjugated_table": rows}, checks


_HANDLERS = {
    "exponents": _run_exponents,
    "holonomy": _run_holonomy,
    "blocks": _run_blocks,
    "shadow": _run_shadow,
    "reconstruct": _run_reconstruct,
    "verify-zimmer": _run_verify_zimmer,
    "example-unipotent": _run_example_unipotent,
}


def run(config: dict) -> dict:
    """Validate the config, run its experiment and return the report dict."""
    q, metric = build_system(config)
    exp = experiment_params(config)
    seed = _value(exp, "$.experiment.seed", _at_least(0))
    rng = np.random.default_rng(seed)
    budget_cfg = _object(exp.get("budgets", {}), "$.experiment.budgets")
    budgets = {key: _value(budget_cfg, f"$.experiment.budgets.{key}", convert,
                           default)
               for key, convert, default in (
                   ("words", _integer, DEFAULT_WORD_BUDGET),
                   ("samples", _at_least(1), DEFAULT_SAMPLE_BUDGET))}
    handler = _HANDLERS[exp["kind"]]
    results, tables, checks = handler(config, q, metric, exp, rng, budgets)
    report = {
        "kind": exp["kind"],
        "library_version": __version__,
        "seed": seed,
        "budgets": budgets,
        "config": config,
        "results": results,
        "tables": tables,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return _jsonable(report)


def emit(report: dict, fmt: str) -> str:
    """Serialize a report; identical reports give byte-identical output."""
    if fmt == "json":
        return json.dumps(_jsonable(report), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        tables = report.get("tables", {})
        for name in sorted(tables):
            rows = tables[name]
            out.write(f"# table: {name}\n")
            if not rows:
                continue
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        return out.getvalue()
    raise ValueError(f"unsupported format {fmt!r}")


def _csv_cell(value: Any) -> Any:
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cocyclib",
        description="experiment runner for cocycle computations over "
                    "subshifts of finite type",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget-words", type=int, default=None)
        p.add_argument("--budget-samples", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = _object(load_config(args.config), "$")
        exp = _object(config.setdefault("experiment", {}), "$.experiment")
        if exp.get("kind", args.kind) != args.kind:
            raise ConfigError("$.experiment.kind",
                              f"config kind {exp.get('kind')!r} does not match "
                              f"subcommand {args.kind!r}")
        exp["kind"] = args.kind
        if args.seed is not None:
            exp["seed"] = args.seed
        budgets = _object(exp.setdefault("budgets", {}), "$.experiment.budgets")
        if args.budget_words is not None:
            budgets["words"] = args.budget_words
        if args.budget_samples is not None:
            budgets["samples"] = args.budget_samples
        report = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
