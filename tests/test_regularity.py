import math

import numpy as np
import pytest

from cocyclib.cocycle import LocallyConstantCocycle, iterate
from cocyclib.fixtures import (
    mild_random_cocycle,
    mixed_hyperbolic_cocycle,
    orthogonal_cocycle,
    peel_fixture,
    rotation,
    u0_coboundary_fixture,
    unipotent_example,
)
from cocyclib.linalg import Flag, Subspace
from cocyclib.measure import golden_mean_markov, sample_point, uniform_bernoulli
from cocyclib.regularity import (
    BlockParams,
    block_membership_finite,
    block_membership_periodic,
    distortion_growth_slope,
    finite_scale_exponent,
    flag_transport,
    monte_carlo_exponent,
    periodic_exponents,
    smallest_passing_params,
)
from cocyclib.sft import (
    BudgetExceededError,
    enumerate_periodic,
    fixed_point,
    full_shift,
    golden_mean_shift,
    periodic_point,
)


def exhaustive_membership(a, p, params, factor=2):
    """Oracle: scan the defining products for s up to factor * q' * N."""
    q_prime = math.lcm(p.period, params.n_steps) // params.n_steps
    s_max = factor * q_prime * params.n_steps
    return block_membership_finite(a, p.as_point(), params, s_max)


def test_periodic_exponents_examples(q2):
    diag = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    rep = periodic_exponents(diag, fixed_point(q2, 0))
    assert rep.lambda_plus == pytest.approx(math.log(2), abs=1e-12)
    assert rep.lambda_minus == pytest.approx(-math.log(2), abs=1e-12)

    rot = LocallyConstantCocycle.constant(q2, rotation(0.9))
    rep = periodic_exponents(rot, fixed_point(q2, 1))
    assert abs(rep.lambda_plus) <= 1e-12 and abs(rep.lambda_minus) <= 1e-12

    unip = LocallyConstantCocycle.constant(q2, [[1.0, 1.0], [0.0, 1.0]])
    rep = periodic_exponents(unip, periodic_point(q2, "01"))
    assert abs(rep.lambda_plus) <= 1e-12 and abs(rep.lambda_minus) <= 1e-12


def test_finite_scale_examples(q2, mu2):
    ident = LocallyConstantCocycle.constant(q2, np.eye(2))
    for n in (1, 3, 5):
        assert finite_scale_exponent(ident, mu2, n) == pytest.approx(0.0,
                                                                     abs=1e-14)
    const = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    for n in (1, 4):
        direct = math.log(np.linalg.norm(
            np.linalg.matrix_power(np.diag([2.0, 0.5]), n), 2)) / n
        assert finite_scale_exponent(const, mu2, n) == pytest.approx(direct)


def test_finite_scale_budget_error(q2, mu2):
    a = mixed_hyperbolic_cocycle(q2)
    with pytest.raises(BudgetExceededError, match="monte_carlo"):
        finite_scale_exponent(a, mu2, 10, budget=100)


def test_finite_scale_rejects_mismatched_support(golden, mu2):
    # mu2 charges the word 11, which the golden-mean shift forbids
    a = LocallyConstantCocycle.constant(golden, np.eye(2))
    with pytest.raises(ValueError, match="support"):
        finite_scale_exponent(a, mu2, 3)


def test_monte_carlo_rejects_mismatched_support(q2, mu_golden):
    a = LocallyConstantCocycle.constant(q2, np.eye(2))
    with pytest.raises(ValueError, match="support"):
        monte_carlo_exponent(a, mu_golden, 3, 10, np.random.default_rng(0))


def test_monte_carlo_matches_exact_sum(q2, mu2):
    a = mixed_hyperbolic_cocycle(q2)
    exact = finite_scale_exponent(a, mu2, 2)
    rep = monte_carlo_exponent(a, mu2, 2, 4000, np.random.default_rng(5))
    assert abs(rep.lambda_plus - exact) <= 3 * rep.error_estimate


def test_monte_carlo_identity_and_reproducibility(q2, mu2):
    ident = LocallyConstantCocycle.constant(q2, np.eye(2))
    rep = monte_carlo_exponent(ident, mu2, 3, 50, np.random.default_rng(0))
    assert rep.lambda_plus == 0.0 and rep.lambda_minus == 0.0
    assert rep.error_estimate == 0.0

    a = mixed_hyperbolic_cocycle(q2)
    r1 = monte_carlo_exponent(a, mu2, 3, 200, np.random.default_rng(9))
    r2 = monte_carlo_exponent(a, mu2, 3, 200, np.random.default_rng(9))
    assert r1 == r2


def reference_monte_carlo(a, mu, n, trials, rng):
    """The per-trial loop that monte_carlo_exponent batches: one point and
    two orbit-product norms per trial."""
    k = a.window_radius
    plus = np.empty(trials)
    minus = np.empty(trials)
    for t in range(trials):
        x = sample_point(mu, rng, 2 * (n + k), start=-(n + k))
        plus[t] = math.log(np.linalg.norm(iterate(a, x, n), 2)) / n
        minus[t] = math.log(np.linalg.norm(iterate(a, x, -n), 2)) / n
    se = [float(v.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
          for v in (plus, minus)]
    return float(plus.mean()), float(-minus.mean()), max(se)


@pytest.mark.parametrize("golden", [False, True], ids=["2-shift", "golden-mean"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_monte_carlo_equals_per_trial_loop(golden, k, n):
    # the batch draws the same points in the same order and forms the same
    # products, so the estimates are equal and the generator ends in the
    # same state
    q, mu = ((golden_mean_shift(), golden_mean_markov()) if golden
             else (full_shift(2), uniform_bernoulli(2)))
    a = mild_random_cocycle(q, k, seed=11 + k, scale=1.0)
    for seed in range(5):
        trials = 20 + 7 * seed
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rep = monte_carlo_exponent(a, mu, n, trials, rng)
        assert (rep.lambda_plus, rep.lambda_minus, rep.error_estimate) == \
            reference_monte_carlo(a, mu, n, trials, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_monte_carlo_overflow_and_bad_n(q2, mu2):
    a = LocallyConstantCocycle.constant(q2, 1e100 * np.eye(2))
    assert math.isfinite(monte_carlo_exponent(a, mu2, 3, 5, np.random.default_rng(0))
                         .lambda_plus)
    with pytest.raises(OverflowError, match="n=4"):
        monte_carlo_exponent(a, mu2, 4, 5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n must be >= 1"):
        monte_carlo_exponent(a, mu2, 0, 5, np.random.default_rng(0))


def test_subadditivity_of_exact_sums(q2, mu2):
    a = mixed_hyperbolic_cocycle(q2)
    values = {n: finite_scale_exponent(a, mu2, n) for n in range(1, 10)}
    for n in range(1, 9):
        for m in range(1, 9):
            if n + m <= 9:
                lhs = n * values[n] + m * values[m]
                assert lhs >= (n + m) * values[n + m] - 1e-12


def test_block_membership_orthogonal_always(q2):
    a = orthogonal_cocycle(q2)
    for p in enumerate_periodic(q2, 3):
        assert block_membership_periodic(a, p, BlockParams(1, 1e-6))


def test_block_membership_threshold(q2):
    a = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    p = fixed_point(q2, 0)
    assert block_membership_periodic(a, p, BlockParams(1, 2 * math.log(2)))
    assert not block_membership_periodic(a, p,
                                         BlockParams(1, 2 * math.log(2) - 1e-6))


def test_block_membership_phase_example(q2):
    # alternating per-step log-costs (3, 1): at theta = 2.5 the first block
    # starting at the heavy phase already fails
    heavy = np.diag([math.exp(1.5), math.exp(-1.5)])
    light = np.diag([math.exp(0.5), math.exp(-0.5)])
    a = LocallyConstantCocycle.from_function(
        q2, 0, lambda w: heavy if w[0] == 0 else light)
    p = periodic_point(q2, "01")
    params = BlockParams(1, 2.5)
    assert not block_membership_periodic(a, p, params)
    assert not exhaustive_membership(a, p, params)
    assert block_membership_periodic(a, p, BlockParams(1, 3.0 + 1e-9))


def test_block_membership_agrees_with_exhaustive(q2, golden, rng):
    from cocyclib.fixtures import mixed_two_block_cocycle, window2_cocycle

    cases = [(mixed_hyperbolic_cocycle(q2), q2),
             (mixed_two_block_cocycle(q2), q2),
             (window2_cocycle(), golden)]
    thetas = [0.2, 0.7, 1.4, 2.8]
    count = 0
    for a, q in cases:
        for period in range(1, 5):
            for p in enumerate_periodic(q, period):
                for n_steps in (1, 2):
                    theta = thetas[count % len(thetas)]
                    count += 1
                    params = BlockParams(n_steps, theta)
                    assert block_membership_periodic(a, p, params) == \
                        exhaustive_membership(a, p, params)


def test_block_membership_monotone_in_theta(q2, mu2, rng):
    a = mixed_hyperbolic_cocycle(q2)
    x = sample_point(mu2, rng, 30)
    for theta in (0.3, 0.9, 1.7):
        if block_membership_finite(a, x, BlockParams(1, theta), 6):
            assert block_membership_finite(a, x, BlockParams(1, theta + 0.5), 6)


def test_smallest_passing_params(q2):
    a = orthogonal_cocycle(q2)
    x = fixed_point(q2, 0).as_point()
    found = smallest_passing_params(a, x, [1, 2], [0.25, 0.5], s_max=4)
    assert found == (1, 0.25)


def test_flag_transport_identity_and_u0(q2, mu2, rng):
    flag = Flag((Subspace.standard(2, [0]), Subspace.standard(2, [0, 1])))
    pts = [sample_point(mu2, rng, 10) for _ in range(8)]
    ident = LocallyConstantCocycle.constant(q2, np.eye(2))
    rep = flag_transport(ident, flag, pts[0], pts[1:], BlockParams(1, 0.5))
    assert rep.max_equivariance_residual <= 1e-12
    assert rep.max_path_residual <= 1e-12
    assert rep.max_metric_residual <= 1e-12

    fix = peel_fixture(seed=3, dims=(1, 1), conjugator_window=0, spread=0.4)
    rep = flag_transport(fix.base, flag, pts[0], pts[1:], BlockParams(2, 1.5))
    assert rep.max_equivariance_residual <= 1e-10
    assert rep.max_path_residual <= 1e-10
    assert rep.max_metric_residual <= 1e-10


def test_flag_transport_conjugated_unipotent(q2, mu2, rng):
    # the frame-changed unipotent preserves span(e1); transported flags stay
    # cocycle-equivariant at float precision
    ex = unipotent_example(q2)
    flag = Flag((Subspace.standard(2, [0]), Subspace.standard(2, [0, 1])))
    pts = [sample_point(mu2, rng, 10) for _ in range(8)]
    rep = flag_transport(ex.b, flag, pts[0], pts[1:], BlockParams(2, 2.5))
    assert rep.max_equivariance_residual <= 1e-10
    assert rep.max_path_residual <= 1e-10


def test_flag_transport_membership_gate(q2, mu2, rng):
    a = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    flag = Flag((Subspace.standard(2, [0]), Subspace.standard(2, [0, 1])))
    pts = [sample_point(mu2, rng, 8) for _ in range(3)]
    with pytest.raises(ValueError, match="regularity block"):
        flag_transport(a, flag, pts[0], pts[1:], BlockParams(1, 0.5))


def test_zero_exponent_instance_small(q2, mu2, rng):
    # coboundaries of block-orthogonal cocycles: periodic exponents vanish,
    # measure exponents are 0 within Monte Carlo noise, and the distortion
    # slope is flat (small version of the full criterion)
    fix = u0_coboundary_fixture(seed=5)
    for period in range(1, 5):
        for p in enumerate_periodic(q2, period):
            rep = periodic_exponents(fix.result, p)
            assert abs(rep.lambda_plus) <= 1e-9
            assert abs(rep.lambda_minus) <= 1e-9
    # the n-scale estimator sits above 0 by at most c/n where c bounds the
    # log norm of the (bounded) orbit products; inside that envelope the
    # estimate must be consistent with exponent zero
    n = 12
    mc = monte_carlo_exponent(fix.result, mu2, n, 600,
                              np.random.default_rng(2))
    envelope = max(math.log(np.linalg.norm(m, 2) * np.linalg.norm(
        np.linalg.inv(m2), 2))
        for m in fix.conjugator.table.values()
        for m2 in fix.conjugator.table.values()) / n
    assert 0.0 - 3 * mc.error_estimate <= mc.lambda_plus \
        <= envelope + 3 * mc.error_estimate
    assert -envelope - 3 * mc.error_estimate <= mc.lambda_minus \
        <= 3 * mc.error_estimate
    pts = [sample_point(mu2, rng, 50) for _ in range(120)]
    slope, _ = distortion_growth_slope(fix.result, pts, 20)
    assert abs(slope) <= 2e-3


def test_block_membership_finite_identity_any_horizon(q2, mu2, rng):
    ident = LocallyConstantCocycle.constant(q2, np.eye(2))
    x = sample_point(mu2, rng, 10)
    for s_max in (1, 5, 25):
        assert block_membership_finite(ident, x, BlockParams(1, 1e-9), s_max)


def test_exponent_gap_never_in_zero_tau_band(q2):
    fix = u0_coboundary_fixture(seed=6)
    tau = 1.0
    for period in range(1, 6):
        for p in enumerate_periodic(q2, period):
            rep = periodic_exponents(fix.result, p)
            gap = rep.lambda_plus - rep.lambda_minus
            assert not (1e-9 < gap < tau)


def test_distortion_slope_negative_control(q2, mu2, rng):
    a = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    pts = [sample_point(mu2, rng, 50) for _ in range(5)]
    slope, _ = distortion_growth_slope(a, pts, 20)
    assert slope == pytest.approx(2 * math.log(2), rel=1e-6)


@pytest.mark.parametrize("n_points, n_max, match", [
    (0, 20, "at least one point"),
    (3, 1, "n_max must be >= 2"),
    (3, 0, "n_max must be >= 2"),
    (3, -4, "n_max must be >= 2"),
])
def test_distortion_slope_rejects_bad_input(q2, mu2, rng, n_points, n_max, match):
    # a slope through one value of |n| (or none) is not a fit
    a = mixed_hyperbolic_cocycle(q2)
    pts = [sample_point(mu2, rng, 10) for _ in range(n_points)]
    with pytest.raises(ValueError, match=match):
        distortion_growth_slope(a, pts, n_max)
