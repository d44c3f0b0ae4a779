import math

import numpy as np
import pytest

from cocyclib.cocycle import LocallyConstantCocycle, iterate
from cocyclib.fixtures import (
    mixed_two_block_cocycle,
    orthogonal_cocycle,
    unipotent_example,
    window2_cocycle,
)
from cocyclib.holonomy import (
    HolonomyMap,
    composed_holonomy,
    stable_holonomy,
    unstable_holonomy,
)
from cocyclib.measure import (
    sample_point,
    sample_stable_partner,
    sample_unstable_partner,
)
from cocyclib.sft import (
    MetricParams,
    bracket,
    distance,
    same_future,
    same_past,
    same_sequence,
    shift,
)
from cocyclib.zimmer import ZimmerDescriptor, membership


def _reverse_cocycle(a):
    """Time-reversed generator B(p) = A(reversed window of shift p)^{-1}.

    With reversed points r(x)_n = x_{-n} one has B^n(r(y)) = A^{-n}(y)
    exactly, so unstable transport of A is stable transport of B on
    reversed words.
    """
    k = a.window_radius
    big = k + 1

    def build(word):
        sub = word[big + 1 - k: big + 2 + k]
        return np.linalg.inv(a.table[sub[::-1]])

    return LocallyConstantCocycle.from_function(a.q, big, build)


def truncated_stable_holonomy(a, y, z, tol=1e-13, max_n=64):
    """Reference for :func:`stable_holonomy`: the defining limit
    lim (A^n(z))^{-1} A^n(y), stopped once successive terms differ by less
    than tol, with the step n at which it stopped."""
    if not same_future(y, z):
        raise ValueError("points do not lie on a common local stable set")
    prev = np.eye(a.dimension)
    fy = np.eye(a.dimension)
    fz = np.eye(a.dimension)
    for n in range(1, max_n + 1):
        fy = iterate(a, y.shifted(n - 1), 1) @ fy
        fz = iterate(a, z.shifted(n - 1), 1) @ fz
        current = np.linalg.inv(fz) @ fy
        if np.max(np.abs(current - prev)) < tol:
            return HolonomyMap(y, z, "stable", current, n)
        prev = current
    raise ValueError(f"truncated holonomy did not stabilize within {max_n} steps")


def truncated_unstable_holonomy(a, y, z, tol=1e-13, max_n=64):
    """Reference for :func:`unstable_holonomy`, the same limit along
    backward iterates."""
    if not same_past(y, z):
        raise ValueError("points do not lie on a common local unstable set")
    prev = np.eye(a.dimension)
    for n in range(1, max_n + 1):
        current = np.linalg.inv(iterate(a, z, -n)) @ iterate(a, y, -n)
        if np.max(np.abs(current - prev)) < tol:
            return HolonomyMap(y, z, "unstable", current, n)
        prev = current
    raise ValueError(f"truncated holonomy did not stabilize within {max_n} steps")


def test_identity_at_equal_points(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    x = sample_point(mu2, rng, 8)
    np.testing.assert_allclose(stable_holonomy(a, x, x).matrix, np.eye(2),
                               atol=1e-14)
    np.testing.assert_allclose(unstable_holonomy(a, x, x).matrix, np.eye(2),
                               atol=1e-14)
    np.testing.assert_allclose(composed_holonomy(a, x, x, "us").matrix,
                               np.eye(2), atol=1e-14)


def test_window_zero_holonomies_trivial(q2, mu2, rng):
    # all factors of the defining limit coincide termwise for window radius 0
    a = orthogonal_cocycle(q2)
    for _ in range(10):
        x = sample_point(mu2, rng, 8)
        s = sample_stable_partner(mu2, x, rng)
        u = sample_unstable_partner(mu2, x, rng)
        np.testing.assert_allclose(stable_holonomy(a, x, s).matrix, np.eye(2),
                                   atol=1e-14)
        np.testing.assert_allclose(unstable_holonomy(a, x, u).matrix,
                                   np.eye(2), atol=1e-14)


def test_precondition_errors(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    x = sample_point(mu2, rng, 8)
    u = sample_unstable_partner(mu2, x, rng, future_length=8)
    if not same_sequence(u, x):
        with pytest.raises(ValueError, match="stable"):
            stable_holonomy(a, x, u)


def test_exact_equals_truncated_limit(mu2, mu_golden, rng):
    # window radius 1 on the full shift and radius 2 on the golden mean;
    # the n = 10 truncation of the defining limit is the oracle
    cases = [(mixed_two_block_cocycle(), mu2), (window2_cocycle(), mu_golden)]
    for a, mu in cases:
        for _ in range(30):
            x = sample_point(mu, rng, 10)
            s = sample_stable_partner(mu, x, rng)
            exact = stable_holonomy(a, x, s)
            trunc10 = np.linalg.inv(iterate(a, s, 10)) @ iterate(a, x, 10)
            assert np.max(np.abs(exact.matrix - trunc10)) <= 1e-14
            u = sample_unstable_partner(mu, x, rng)
            exact_u = unstable_holonomy(a, x, u)
            trunc10_u = np.linalg.inv(iterate(a, u, -10)) @ iterate(a, x, -10)
            assert np.max(np.abs(exact_u.matrix - trunc10_u)) <= 1e-14
            # the adaptive fallback stabilizes to the same values
            fb = truncated_stable_holonomy(a, x, s, tol=1e-15, max_n=12)
            assert np.max(np.abs(exact.matrix - fb.matrix)) <= 1e-14
            fb_u = truncated_unstable_holonomy(a, x, u, tol=1e-15, max_n=12)
            assert np.max(np.abs(exact_u.matrix - fb_u.matrix)) <= 1e-14


def test_truncated_fallback_reports_stabilization(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    x = sample_point(mu2, rng, 8)
    s = sample_stable_partner(mu2, x, rng)
    h = truncated_stable_holonomy(a, x, s, tol=1e-13)
    assert h.stabilization_step <= a.window_radius + 1


def test_unstable_equals_reversed_stable(q2, mu2, rng):
    # reversal oracle: unstable transport is the stable transport of the
    # time-reversed system on reversed words
    a = mixed_two_block_cocycle(q2)
    rev = _reverse_cocycle(a)

    def reversed_point(p):
        span = 30
        word = [p[-n] for n in range(-span, span + 1)]
        from cocyclib.sft import close_word
        return close_word(q2, word, origin_offset=span)

    for _ in range(10):
        x = sample_point(mu2, rng, 12)
        u = sample_unstable_partner(mu2, x, rng)
        # oracle for the generator relation: B^n(r(y)) = A^{-n}(y)
        rx = reversed_point(x)
        for n in (1, 3):
            np.testing.assert_allclose(iterate(rev, rx, n), iterate(a, x, -n),
                                       atol=1e-12)
        h_direct = unstable_holonomy(a, x, u).matrix
        h_reversed = stable_holonomy(rev, rx, reversed_point(u)).matrix
        np.testing.assert_allclose(h_direct, h_reversed, atol=1e-12)


def test_chain_rule(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    for _ in range(50):
        x = sample_point(mu2, rng, 10)
        y = sample_stable_partner(mu2, x, rng)
        z = sample_stable_partner(mu2, x, rng)
        h_yz = stable_holonomy(a, y, z).matrix
        h_xy = stable_holonomy(a, x, y).matrix
        h_xz = stable_holonomy(a, x, z).matrix
        assert np.max(np.abs(h_yz @ h_xy - h_xz)) <= 1e-12


def test_intertwining(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    for _ in range(20):
        x = sample_point(mu2, rng, 10)
        y = sample_stable_partner(mu2, x, rng)
        h = stable_holonomy(a, x, y).matrix
        for n in (1, 7, 20):
            conj = iterate(a, shift(y, n), -n) @ stable_holonomy(
                a, shift(x, n), shift(y, n)).matrix @ iterate(a, x, n)
            assert np.max(np.abs(h - conj)) <= 1e-12


def test_lipschitz_ratio_bounded(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    metric = MetricParams(1.0)
    worst = 0.0
    for _ in range(400):
        x = sample_point(mu2, rng, 10)
        y = sample_stable_partner(mu2, x, rng)
        d = distance(x, y, metric)
        if d == 0:
            continue
        worst = max(worst, float(np.linalg.norm(
            stable_holonomy(a, x, y).matrix - np.eye(2), 2)) / d)
    assert math.isfinite(worst)
    # reproducible across runs with the same seed
    rng2 = np.random.default_rng(1234)
    again = 0.0
    for _ in range(400):
        x = sample_point(mu2, rng2, 10)
        y = sample_stable_partner(mu2, x, rng2)
        d = distance(x, y, metric)
        if d == 0:
            continue
        again = max(again, float(np.linalg.norm(
            stable_holonomy(a, x, y).matrix - np.eye(2), 2)) / d)
    assert again == worst


def test_transverse_continuity_regression(mu_golden, rng):
    # A stable pair (x, y) is carried to a nearby leaf by resampling the
    # common future beyond `depth`: x' keeps the past of x, y' = bracket(y, x')
    # keeps the past of y, and both share the perturbed future (so (x', y')
    # is again a stable pair with x' in W^u_loc(x), y' in W^u_loc(y)).
    # The holonomy gap must decay with a positive power of d(x, x'); the
    # fixture has graded coordinate influence so the modulus shows genuine
    # power-law scaling rather than window-sized jumps.
    from cocyclib.fixtures import graded_rotation_cocycle
    from cocyclib.sft import golden_mean_shift

    a = graded_rotation_cocycle(golden_mean_shift(), window=6, decay=0.5)
    metric = MetricParams(1.0)
    logs_d, logs_gap = [], []
    for depth in (1, 2, 3, 4, 5, 6):
        for _ in range(40):
            x = sample_point(mu_golden, rng, 26)
            y = sample_stable_partner(mu_golden, x, rng)
            x_prime = sample_unstable_partner(mu_golden, x, rng,
                                              future_length=10,
                                              keep_depth=depth)
            y_prime = bracket(y, x_prime)
            gap = np.max(np.abs(stable_holonomy(a, x, y).matrix
                                - stable_holonomy(a, x_prime, y_prime).matrix))
            d = distance(x, x_prime, metric)
            if gap > 1e-13 and d > 0:
                logs_d.append(math.log(d))
                logs_gap.append(math.log(gap))
    assert len(set(logs_d)) > 1
    slope = np.polyfit(logs_d, logs_gap, 1)[0]
    print(f"transverse continuity gamma_0 = {slope:.3f} "
          f"({len(logs_d)} quadruples)")
    assert slope > 0.2  # reported gamma_0


def test_composed_holonomy_degenerate_stable(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    x = sample_point(mu2, rng, 10)
    y = sample_stable_partner(mu2, x, rng)
    # bracket degenerates, composition reduces to the pure stable transport
    h_us = composed_holonomy(a, x, y, "us").matrix
    np.testing.assert_allclose(h_us, stable_holonomy(a, x, y).matrix,
                               atol=1e-13)


def test_composed_holonomy_orthogonal_values(q2, mu2, rng):
    a = orthogonal_cocycle(q2)
    for _ in range(10):
        x = sample_point(mu2, rng, 8)
        y = sample_point(mu2, rng, 8)
        if x[0] != y[0]:
            continue
        m = composed_holonomy(a, x, y, "su").matrix
        np.testing.assert_allclose(m.T @ m, np.eye(2), atol=1e-12)


def test_u0_cocycle_has_u0_holonomies(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    desc = ZimmerDescriptor((1, 1), 0.0)
    for _ in range(20):
        x = sample_point(mu2, rng, 10)
        s = sample_stable_partner(mu2, x, rng)
        assert membership(stable_holonomy(a, x, s).matrix, desc, 1e-10).ok


def test_unipotent_example_holonomies(mu2, rng):
    ex = unipotent_example()
    x = sample_point(mu2, rng, 10)
    s = sample_stable_partner(mu2, x, rng)
    h = stable_holonomy(ex.b, x, s).matrix
    assert h[1, 0] == 0.0 and h[0, 0] == 1.0 and h[1, 1] == 1.0


def test_truncated_fallback_budget_guard(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    x = sample_point(mu2, rng, 8)
    s = sample_stable_partner(mu2, x, rng)
    with pytest.raises(ValueError, match="stabilize"):
        truncated_stable_holonomy(a, x, s, tol=0.0, max_n=3)
