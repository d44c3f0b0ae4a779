"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import json
import math
import pathlib
import time

import numpy as np

from cocyclib.cli import emit, load_config, run
from cocyclib.cocycle import evaluate, iterate
from cocyclib.fixtures import (
    mixed_hyperbolic_cocycle,
    mixed_two_block_cocycle,
    orthogonal_cocycle,
    peel_fixture,
    u0_coboundary_fixture,
    unipotent_example,
    window2_cocycle,
)
from cocyclib.holonomy import stable_holonomy, unstable_holonomy
from cocyclib.linalg import ConeParams, calibrate_cone_constant, cone_growth_bound, \
    cone_invariance_check, invariance_inequality_lhs
from cocyclib.measure import (
    golden_mean_markov,
    sample_point,
    sample_stable_partner,
    sample_unstable_partner,
    uniform_bernoulli,
)
from cocyclib.regularity import (
    BlockParams,
    block_membership_finite,
    block_membership_periodic,
    distortion_growth_slope,
    finite_scale_exponent,
    monte_carlo_exponent,
    periodic_exponents,
)
from cocyclib.sft import (
    MetricParams,
    PeriodicPoint,
    distance,
    enumerate_periodic,
    fixed_point,
    full_shift,
    golden_mean_shift,
    is_cyclically_admissible,
    shift,
)
from cocyclib.shadow import ShadowSpec, growth_measure
from cocyclib.transfer import (
    conjugacy_residual,
    default_basepoints,
    superdiagonal_peel,
)
from cocyclib.zimmer import ZimmerDescriptor, haar_orthogonal

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"


def _verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _three_fixtures():
    q = full_shift(2)
    return [
        ("orthogonal", orthogonal_cocycle(q), uniform_bernoulli(2)),
        ("unipotent", unipotent_example(q).b, uniform_bernoulli(2)),
        ("mixed-2-block", mixed_two_block_cocycle(q), uniform_bernoulli(2)),
    ]


def test_criterion_1_holonomy_identity_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    metric = MetricParams(1.0)
    tol = 1e-12
    pairs_per_fixture = 3334  # ~1e4 of each kind over the three fixtures
    worst_chain = 0.0
    worst_inter = 0.0
    lip_hats = {}
    for name, a, mu in _three_fixtures():
        lip = 0.0
        for i in range(pairs_per_fixture):
            x = sample_point(mu, rng, 10)
            y = sample_stable_partner(mu, x, rng)
            z = sample_stable_partner(mu, x, rng)
            h_xy = stable_holonomy(a, x, y).matrix
            h_xz = stable_holonomy(a, x, z).matrix
            h_yz = stable_holonomy(a, y, z).matrix
            worst_chain = max(worst_chain, float(np.max(np.abs(
                h_yz @ h_xy - h_xz))))
            n = 20 if i % 2 == 0 else 1 + i % 11
            conj = iterate(a, shift(y, n), -n) @ stable_holonomy(
                a, shift(x, n), shift(y, n)).matrix @ iterate(a, x, n)
            worst_inter = max(worst_inter, float(np.max(np.abs(h_xy - conj))))
            d = distance(x, y, metric)
            if d > 0:
                lip = max(lip, float(np.linalg.norm(h_xy - np.eye(2), 2)) / d)
            u = sample_unstable_partner(mu, x, rng)
            v = sample_unstable_partner(mu, x, rng)
            h_xu = unstable_holonomy(a, x, u).matrix
            h_xv = unstable_holonomy(a, x, v).matrix
            h_uv = unstable_holonomy(a, u, v).matrix
            worst_chain = max(worst_chain, float(np.max(np.abs(
                h_uv @ h_xu - h_xv))))
            du = distance(x, u, metric)
            if du > 0:
                lip = max(lip, float(np.linalg.norm(h_xu - np.eye(2), 2)) / du)
        lip_hats[name] = lip
    elapsed = time.time() - start
    ok = worst_chain <= tol and worst_inter <= tol and \
        all(math.isfinite(v) for v in lip_hats.values()) and elapsed <= 30
    _verdict(
        "criterion 1 (holonomy identities)", ok,
        f"chain {worst_chain:.2e}, intertwine {worst_inter:.2e} (tol 1e-12), "
        f"L-hat {dict((k, round(v, 3)) for k, v in lip_hats.items())}, "
        f"{elapsed:.1f}s <= 30s")


def test_criterion_2_exact_vs_truncated_holonomy():
    start = time.time()
    rng = np.random.default_rng(202)
    cases = [(mixed_two_block_cocycle(), uniform_bernoulli(2)),
             (window2_cocycle(), golden_mean_markov())]
    worst = 0.0
    for a, mu in cases:
        assert a.window_radius <= 2
        for _ in range(400):
            x = sample_point(mu, rng, 12)
            s = sample_stable_partner(mu, x, rng)
            trunc = np.linalg.solve(iterate(a, s, 10), iterate(a, x, 10))
            worst = max(worst, float(np.max(np.abs(
                stable_holonomy(a, x, s).matrix - trunc))))
            u = sample_unstable_partner(mu, x, rng)
            trunc_u = np.linalg.solve(iterate(a, u, -10), iterate(a, x, -10))
            worst = max(worst, float(np.max(np.abs(
                unstable_holonomy(a, x, u).matrix - trunc_u))))
    elapsed = time.time() - start
    ok = worst <= 1e-14 and elapsed <= 5
    _verdict("criterion 2 (exact vs truncated holonomy)", ok,
             f"max gap {worst:.2e} <= 1e-14, {elapsed:.1f}s <= 5s")


def test_criterion_3_zero_exponent_rigidity():
    start = time.time()
    rng = np.random.default_rng(303)
    q = full_shift(2)
    mu = uniform_bernoulli(2)
    periodic = [p for n in range(1, 9) for p in enumerate_periodic(q, n)]
    points = [sample_point(mu, rng, 90) for _ in range(600)]
    worst_exponent = 0.0
    worst_slope = 0.0
    for seed in (11, 12, 13, 14, 15):
        fix = u0_coboundary_fixture(seed=seed)
        b = fix.result
        for p in periodic:
            rep = periodic_exponents(b, p)
            worst_exponent = max(worst_exponent, abs(rep.lambda_plus),
                                 abs(rep.lambda_minus))
        slope, _ = distortion_growth_slope(b, points, 40)
        worst_slope = max(worst_slope, abs(slope))
    elapsed = time.time() - start
    ok = worst_exponent <= 1e-9 and worst_slope <= 1e-3 and elapsed <= 120
    _verdict("criterion 3 (zero-exponent rigidity)", ok,
             f"max |lambda(p)| {worst_exponent:.2e} <= 1e-9 over periods <= 8, "
             f"distortion slope {worst_slope:.2e} <= 1e-3 over |n| <= 40, "
             f"{elapsed:.1f}s <= 120s")


def test_criterion_4_shadow_growth():
    start = time.time()
    q = full_shift(2)
    x, y = fixed_point(q, 0), fixed_point(q, 1)
    specs = [ShadowSpec(q, x, y, m, 2, 2) for m in (4, 8, 12, 16)]
    params = BlockParams(4, 3.0)
    mixed = growth_measure(mixed_hyperbolic_cocycle(q), specs, params)
    control = growth_measure(orthogonal_cocycle(q), specs, params)
    elapsed = time.time() - start
    ok = mixed["chi_hat"] >= 0.2 * math.log(2) and \
        abs(control["chi_hat"]) <= 0.02 and elapsed <= 60
    _verdict("criterion 4 (shadow growth)", ok,
             f"chi-hat mixed {mixed['chi_hat']:.4f} >= {0.2 * math.log(2):.4f}, "
             f"|chi-hat| control {abs(control['chi_hat']):.2e} <= 0.02, "
             f"{elapsed:.1f}s <= 60s")


def test_criterion_5_cone_lemma_suite():
    start = time.time()
    rng = np.random.default_rng(505)
    regimes = [
        ConeParams((1, 1), 2.0, 0.5, 0.0, 1.0),           # unperturbed
        ConeParams((1, 2), 2.0, 0.5, 0.1, 0.5),           # perturbed
        ConeParams((1, 2), 2.0, 0.5, 0.01, 0.1, margin_d=10.0),  # delta = D eps
    ]
    assert regimes[2].delta == regimes[2].margin_d * regimes[2].epsilon
    violations = 0
    trials_per_regime = 334  # > 1000 products in total

    def perturbed(cp):
        k, dk = cp.split
        m = np.zeros((cp.dim, cp.dim))
        m[:k, :k] = cp.mu_exp * haar_orthogonal(rng, k)
        m[k:, k:] = cp.lambda_con * haar_orthogonal(rng, dk)
        for rows, cols in ((slice(0, k),) * 2, (slice(0, k), slice(k, None)),
                           (slice(k, None), slice(0, k)), (slice(k, None),) * 2):
            block = rng.normal(size=m[rows, cols].shape)
            m[rows, cols] += block / max(np.linalg.norm(block, 2), 1e-12) \
                * cp.epsilon * rng.random()
        return m

    for cp in regimes:
        assert invariance_inequality_lhs(cp) <= cp.mu_exp
        constant = 0.9 * calibrate_cone_constant(cp, 20)
        for _ in range(trials_per_regime):
            j = int(rng.integers(1, 21))
            mats = [perturbed(cp) for _ in range(j)]
            check = cone_invariance_check(mats, cp, rng, n_boundary=6)
            k = cp.split[0]
            u = rng.normal(size=k)
            u /= np.linalg.norm(u)
            w = rng.normal(size=cp.dim - k)
            w /= np.linalg.norm(w)
            ang = cp.delta + rng.random() * (math.pi / 2 - cp.delta)
            vec = np.concatenate([math.sin(ang) * u, math.cos(ang) * w])
            growth = cone_growth_bound(mats, vec, cp, constant=constant)
            if not (check.ok and min(growth.actual, growth.projected) >= growth.bound):
                violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed <= 30
    _verdict("criterion 5 (cone lemma suite)", ok,
             f"{violations} violations over {3 * trials_per_regime} randomized "
             f"products (j <= 20, incl. delta = D*eps), {elapsed:.1f}s <= 30s")


def test_criterion_6_block_membership_decision():
    start = time.time()
    rng = np.random.default_rng(606)
    q2 = full_shift(2)
    golden = golden_mean_shift()
    fixtures = [(mixed_hyperbolic_cocycle(q2), q2),
                (mixed_two_block_cocycle(q2), q2),
                (orthogonal_cocycle(q2), q2),
                (window2_cocycle(), golden)]
    disagreements = 0
    checked = 0
    while checked < 200:
        a, q = fixtures[checked % len(fixtures)]
        period = int(rng.integers(1, 9))
        word = [int(rng.integers(0, q.size))]
        for _ in range(period - 1):
            succ = [s for s in range(q.size) if q.allows(word[-1], s)]
            word.append(int(rng.choice(succ)))
        if not is_cyclically_admissible(word, q):
            continue
        p = PeriodicPoint(tuple(word))
        n_steps = int(rng.integers(1, 4))
        theta = float(rng.uniform(0.1, 3.0))
        params = BlockParams(n_steps, theta)
        q_prime = math.lcm(p.period, n_steps) // n_steps
        exact = block_membership_periodic(a, p, params)
        exhaustive = block_membership_finite(a, p.as_point(), params,
                                             2 * q_prime * n_steps)
        if exact != exhaustive:
            disagreements += 1
        checked += 1
    elapsed = time.time() - start
    ok = disagreements == 0 and elapsed <= 60
    _verdict("criterion 6 (regularity block decision)", ok,
             f"{disagreements} disagreements over {checked} random periodic "
             f"points vs exhaustive scan, {elapsed:.1f}s <= 60s")


def test_criterion_7_reconstruction_roundtrip():
    start = time.time()
    rng = np.random.default_rng(707)
    q = full_shift(2)
    mu = uniform_bernoulli(2)
    worst_residual = 0.0
    worst_path = 0.0
    for dims in ((1, 1), (1, 1, 1, 1)):
        fix = peel_fixture(seed=700 + len(dims), dims=dims,
                           conjugator_window=1)
        a, u, b = fix.base, fix.conjugator, fix.result
        desc = ZimmerDescriptor(dims, 0.0)
        seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q)]
        ev = superdiagonal_peel(a, b, desc, seeds)
        samples = [sample_point(mu, rng, 12) for _ in range(10_000)]
        worst_residual = max(worst_residual, max(
            conjugacy_residual(a, b, ev, s) for s in samples))
        worst_path = max(worst_path, max(
            float(np.max(np.abs(ev.evaluate(s, "us") - ev.evaluate(s, "su"))))
            for s in samples[:1000]))
    ex = unipotent_example(q)
    formula_exact = all(
        np.array_equal(m, np.array([[1.0, 1.0 - w[2] + w[1]], [0.0, 1.0]]))
        for w, m in ex.b.table.items())
    elapsed = time.time() - start
    ok = worst_residual <= 1e-8 and worst_path <= 1e-9 and formula_exact \
        and elapsed <= 120
    _verdict("criterion 7 (reconstruction round-trip)", ok,
             f"conjugacy residual {worst_residual:.2e} <= 1e-8 on 1e4 points "
             f"(2- and 4-block), su/us gap {worst_path:.2e} <= 1e-9, "
             f"worked-example table exact: {formula_exact}, "
             f"{elapsed:.1f}s <= 120s")


def test_criterion_8_subadditivity_and_exactness():
    start = time.time()
    q = full_shift(2)
    mu = uniform_bernoulli(2)
    a = mixed_hyperbolic_cocycle(q)
    values = {n: finite_scale_exponent(a, mu, n) for n in range(1, 11)}
    subadditive = all(
        n * values[n] + m * values[m] >= (n + m) * values[n + m] - 1e-12
        for n in range(1, 10) for m in range(1, 10) if n + m <= 10)
    rep = monte_carlo_exponent(a, mu, 3, 4000, np.random.default_rng(808))
    gap = abs(rep.lambda_plus - values[3])
    elapsed = time.time() - start
    ok = subadditive and gap <= 3 * rep.error_estimate and elapsed <= 60
    _verdict("criterion 8 (subadditivity and exactness)", ok,
             f"subadditive n+m <= 10: {subadditive}, |MC - exact| {gap:.2e} "
             f"<= 3 sigma = {3 * rep.error_estimate:.2e}, {elapsed:.1f}s <= 60s")


def test_criterion_9_cli_determinism():
    start = time.time()
    configs = {
        "example-unipotent": "example_unipotent.json",
        "exponents": "exponents_mixed.json",
        "holonomy": "holonomy_two_block.json",
        "blocks": "blocks_orthogonal.json",
        "shadow": "shadow_mixed.json",
        "reconstruct": "reconstruct_two_block.json",
        "verify-zimmer": "verify_zimmer_two_block.json",
    }
    stable = True
    for kind, fname in sorted(configs.items()):
        config = load_config(str(CONFIG_DIR / fname))
        first = emit(run(config), "json").encode()
        second = emit(run(load_config(str(CONFIG_DIR / fname))), "json").encode()
        if first != second:
            stable = False
        if json.loads(first)["kind"] != kind:
            stable = False
    elapsed = time.time() - start
    _verdict("criterion 9 (CLI determinism)", stable,
             f"byte-identical reports for all {len(configs)} experiment kinds, "
             f"{elapsed:.1f}s")
